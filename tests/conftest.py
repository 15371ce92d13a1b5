import pytest

from slabsum import dp


@pytest.fixture
def numpy_rows(monkeypatch):
    """Force numpy rows that track their all-ones run at every width: the
    rows under test are far below 2^17 bits and 8192 words."""
    monkeypatch.setattr(dp, "ARRAY_KERNEL_MIN_BITS", 0)
    monkeypatch.setattr(dp, "RUN_MIN_WORDS", 0)


@pytest.fixture(params=["int", "array"])
def kernel(request):
    """Each row kernel in turn; "array" forces numpy rows."""
    if request.param == "array":
        request.getfixturevalue("numpy_rows")
    return request.param
