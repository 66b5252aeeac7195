"""Fixtures shared by the test modules."""

import pytest

from cglsolve import spectral


@pytest.fixture
def set_blas_threads():
    """A setter of numpy's OpenBLAS thread count; the count the test found
    is put back after it. Skips the test where cglsolve finds no control."""
    if spectral._BLAS is None:
        pytest.skip("no OpenBLAS thread control found")
    get, put = spectral._BLAS
    before = get()
    yield put
    put(before)
