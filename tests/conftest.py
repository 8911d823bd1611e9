"""Shared fixtures for the test suite."""

from __future__ import annotations

# ``repro`` first: importing it is what sizes the BLAS pool to one thread,
# and that only works before numpy loads.  With numpy above this line the
# suite would run the host's pool, not the program's.
from repro.rng import RngFactory

import numpy as np
import pytest
from hypothesis import settings

# ``pytest --hypothesis-profile ci`` (what CI's tests job runs): every
# property draws the same examples on every run, so a failing differential
# draw in CI is the same draw on a re-run and on a laptop, and a failure
# prints the blob that replays it.  Without the option the default profile
# (fresh random draws) stays in force.
settings.register_profile("ci", derandomize=True, print_blob=True, deadline=None)


@pytest.fixture
def rng() -> np.random.Generator:
    """A fresh deterministic generator per test."""
    return np.random.default_rng(12345)


@pytest.fixture
def rng_factory() -> RngFactory:
    return RngFactory(seed=777)
