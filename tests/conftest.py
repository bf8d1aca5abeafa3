"""Fixtures shared across test modules."""

import time

import pytest

from fedmoo.verify import check_minnorm_oracle


@pytest.fixture(scope="session")
def minnorm_oracle():
    """``check_minnorm_oracle()``'s 200-instance lattice pass and its wall time in
    seconds, run once per session however many tests read it."""
    start = time.perf_counter()
    result = check_minnorm_oracle()
    return result, time.perf_counter() - start
