import numpy as np
import pytest

import vbesov as vb


@pytest.fixture(scope="session")
def spec1k():
    return vb.make_grid(1, 16.0, 1024)


@pytest.fixture(scope="session")
def spec4k():
    return vb.make_grid(1, 16.0, 4096)


@pytest.fixture(scope="session")
def ladder():
    return vb.make_ladder()


@pytest.fixture(scope="session")
def frame1k(spec1k, ladder):
    return vb.build_resolution_of_unity(spec1k, ladder)


@pytest.fixture(scope="session")
def bank4k(spec4k, ladder):
    return vb.make_bank(spec4k, ladder, seed=7)


@pytest.fixture(scope="session")
def bank1k(spec1k):
    """The bank at `verify --quick`'s resolution: N = 1024, 6 octaves of 12 nodes."""
    return vb.make_bank(spec1k, vb.make_ladder(6, 12), seed=7)


def l2_error(f, g):
    return float(np.sqrt(np.mean(np.abs(f.samples - g.samples) ** 2)))
