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


@pytest.fixture
def no_mesh_no_z(monkeypatch):
    """Make laying any cell of the mesh or evaluating Z fail the test at
    once; yields the list of the refused calls, which a refusal made before
    any work leaves empty."""
    from zetalab import quadrature, zkernel

    calls = []

    def refuse(name):
        def spy(*args, **kwargs):
            calls.append(name)
            raise AssertionError("%s called" % name)
        return spy

    monkeypatch.setattr(quadrature, "cell_ends", refuse("quadrature.cell_ends"))
    monkeypatch.setattr(zkernel, "z_block", refuse("zkernel.z_block"))
    yield calls


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
