import numpy as np
import pytest
from scipy import special

import magspec as ms
from magspec import eigensolve


@pytest.fixture(scope="session")
def square_spectrum():
    """Unit-square Dirichlet spectrum, long enough for k <= 200 checks."""
    return ms.box_spectrum([1.0, 1.0], 300)


@pytest.fixture(scope="session")
def disk_unit_spectrum():
    return ms.disk_spectrum(1.0, 250)


@pytest.fixture(scope="session")
def jn_zeros_to_210():
    """scipy's zeros j_{n,m}, m <= 68, of J_n for n = 0..210: every zero <= 210."""
    zeros = [special.jn_zeros(n, 68) for n in range(211)]
    assert min(z[-1] for z in zeros) > 210
    return zeros


@pytest.fixture(scope="session")
def small_square_op():
    """Non-magnetic unit square at h=1/16 (n = 225, with a double eigenvalue)."""
    dom = ms.build_domain(ms.Rectangle(1.0, 1.0), 1 / 16)
    return dom, ms.assemble(dom, ms.GaugeSpec(), ms.PotentialSpec())


@pytest.fixture(scope="session")
def magnetic_square_op():
    """Uniform field B=5 on the unit square at h=1/16."""
    dom = ms.build_domain(ms.Rectangle(1.0, 1.0), 1 / 16)
    return dom, ms.assemble(dom, ms.GaugeSpec(5.0), ms.PotentialSpec())


@pytest.fixture(scope="session")
def square_ground_state_h64():
    """Ground state of the non-magnetic unit square at h=1/64."""
    dom = ms.build_domain(ms.Rectangle(1.0, 1.0), 1 / 64)
    op = ms.assemble(dom, ms.GaugeSpec(), ms.PotentialSpec())
    spec, vectors = ms.lowest_eigenpairs(op, 1)
    return dom, spec, vectors[0]


@pytest.fixture
def duplicating_solver(monkeypatch):
    """Replace the Lanczos solve by one that returns lambda_1 twice, a ghost
    pair that no residual gate can catch."""
    def duplicate(op, split, m, tol, start):
        vals, vecs = eigensolve._solve_dense(op, m)
        keep = [0] + list(range(m - 1))
        return vals[keep], vecs[:, keep]
    monkeypatch.setattr(eigensolve, "_solve_sparse", duplicate)


def rng(seed=0):
    return np.random.default_rng(seed)


def degeneracy_flags(values: np.ndarray) -> np.ndarray:
    """Flag each lambda_j within a relative gap eigensolve.DEGENERACY_RTOL of a neighbour."""
    flags = np.zeros(values.size, dtype=bool)
    close = np.diff(values) <= eigensolve.DEGENERACY_RTOL * values[:-1]
    flags[:-1] |= close
    flags[1:] |= close
    return flags
