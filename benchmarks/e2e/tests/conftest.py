"""The end-to-end benchmark's tests run the program as it ships."""

import pytest


@pytest.fixture(autouse=True)
def _measure_real_compute():
    """Overrides ``benchmarks/conftest.py``'s fixture of the same name,
    which switches the program cache off: the benchmark's units set up
    their own fresh cache, and the in-process tests need none switched."""
    yield
