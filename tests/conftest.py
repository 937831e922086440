import mpmath
import numpy as np
import pytest

from zetalab.config import QuadConfig


@pytest.fixture(autouse=True)
def _restore_mp_prec():
    """Give every test the mpmath precision it started with, whatever it sets."""
    prec = mpmath.mp.prec
    yield
    mpmath.mp.prec = prec


@pytest.fixture(scope="session")
def cfg():
    return QuadConfig()


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260809)


@pytest.fixture(scope="session")
def starter_dataset():
    from zetalab.spectral import load_spectral_dataset

    return load_spectral_dataset()
