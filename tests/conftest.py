import numpy as np
import pytest

from qcycle import ChainSpec, CycleParams, build_hamiltonian, cycle_operators
from qcycle.linalg import assemble


def random_couplings(rng, count, lo=0.2, hi=0.8):
    """Nonzero couplings of either sign, bounded away from zero."""
    return rng.choice([-1.0, 1.0], size=count) * rng.uniform(lo, hi, size=count)


def random_chain_spec(rng, n, e_first=None, e_last=None):
    e = rng.uniform(0.5, 2.0, size=n)
    if e_first is not None:
        e[0] = e_first
    if e_last is not None:
        e[-1] = e_last
    return ChainSpec(n=n, E=e, J=random_couplings(rng, n - 1),
                     K=random_couplings(rng, n - 1), F=random_couplings(rng, n - 1))


def random_engine_point(rng, n):
    """Random (spec, params) with bath ranges beta1 in [0.5, 3], beta2 in [0.2, 1].

    The end gaps are drawn so that sign(beta2*E_N - beta1*E_1) equals
    sign(E_N - E_1), which is the regime where the signed efficiency ratio
    equals 1 - E_1/E_N (the hot-side heat changes sign exactly at
    beta2*E_N = beta1*E_1, so the two factors must agree). Both operating
    directions are exercised.
    """
    params = CycleParams(beta1=rng.uniform(0.5, 3.0), beta2=rng.uniform(0.2, 1.0),
                         tau1=rng.uniform(0.3, 2.0), tau2=rng.uniform(0.3, 2.0))
    e_first = rng.uniform(0.5, 1.2)
    crossover = params.beta1 * e_first / params.beta2  # E_N at which the heat flips sign
    if crossover <= 5.0:
        e_last = max(e_first, crossover) * rng.uniform(1.15, 1.6)
    else:
        e_last = min(e_first, crossover) * rng.uniform(0.5, 0.85)
    spec = random_chain_spec(rng, n, e_first=e_first, e_last=e_last)
    return spec, params


def carnot_point(rng, n):
    """Random (spec, params) exactly on the matched-bath line beta1*E_1 = beta2*E_N."""
    spec = random_chain_spec(rng, n, e_first=rng.uniform(0.6, 1.2),
                             e_last=rng.uniform(1.4, 2.4))
    beta1 = rng.uniform(0.6, 1.5)
    beta2 = beta1 * spec.E[0] / spec.E[-1]
    params = CycleParams(beta1=beta1, beta2=beta2,
                         tau1=rng.uniform(0.3, 2.0), tau2=rng.uniform(0.3, 2.0))
    return spec, params


def point_operators(spec, params):
    """The working point's cycle operators, built from its chain Hamiltonian."""
    return cycle_operators(build_hamiltonian(spec), params)


def dense_unitaries(ops):
    """The dense (u1, u2) of ``ops``, each assembled from its popcount blocks."""
    return assemble(ops.u1_blocks, ops.classes), assemble(ops.u2_blocks, ops.classes)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def small_point():
    """One fixed generic 3-qubit working point used across modules."""
    spec = ChainSpec(n=3, E=[1.0, 1.3, 2.0], J=[0.4, 0.5], K=[0.2, 0.1], F=[0.3, 0.2])
    params = CycleParams(beta1=1.0, beta2=0.75, tau1=0.7, tau2=1.3)
    return spec, params


@pytest.fixture
def decoupled_point():
    """Zero couplings and zero stroke times: exactly solvable, degenerate."""
    spec = ChainSpec(n=3, E=[1.0, 1.3, 2.0], J=[0.0, 0.0], K=[0.0, 0.0], F=[0.0, 0.0])
    params = CycleParams(beta1=1.0, beta2=0.75, tau1=0.0, tau2=0.0)
    return spec, params
