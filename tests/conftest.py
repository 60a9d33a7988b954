import pytest

from firedre import linalg

CALLER_BLAS_THREADS = 2


@pytest.fixture
def caller_blas_threads():
    """Run the test with numpy's OpenBLAS on CALLER_BLAS_THREADS threads, then restore it."""
    api = linalg._openblas()
    if api is None:
        pytest.skip("no OpenBLAS handle found for numpy's BLAS; the thread policy does nothing here")
    get, set_ = api
    before = get()
    set_(CALLER_BLAS_THREADS)
    yield CALLER_BLAS_THREADS
    set_(before)
