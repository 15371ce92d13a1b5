import pytest


@pytest.fixture(params=["int"])
def rows(request):
    """The row representation under test: Python ints, the only one
    ReachTable keeps.  Its id names the cases that read table rows."""
    return request.param
