import pytest

from slabsum import dp


@pytest.fixture
def numpy_rows(monkeypatch):
    """Force numpy rows at every width: the bands under test are far below
    2^17 bits."""
    monkeypatch.setattr(dp, "ARRAY_KERNEL_MIN_BITS", 0)


@pytest.fixture(params=["int", "array"])
def kernel(request):
    """Each row kernel in turn; "array" forces numpy rows."""
    if request.param == "array":
        request.getfixturevalue("numpy_rows")
    return request.param
