"""The S^Z charge-sector split against the dense full-space decompositions.

The dense route (one ``eig``/``eigh``/2-norm over the whole d^2 x d^2
matrix) is the reference: the split must reproduce it on covariant cycle
channels and fall back to exactly it on maps that do not split.
"""

from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qcycle import (Channel, DegenerateFixedPointError, build_hamiltonian, channel_matrix,
                    cycle_channel_ac, cycle_channel_cb, fixed_point_spectral,
                    kraus_channel_matrix, kraus_from_choi, project_density)
from qcycle.limitcycle import (SOLVER_PSD_ATOL, charge_blocks, kraus_channel,
                               sector_eigenvalues)
from qcycle.linalg import hermitian_part
from qcycle.reversal import choi_from_matrix, reconstruction_residual
from conftest import random_engine_point


def dense_fixed_point(cm):
    """(rho_star, gap) from one eig of the whole channel matrix."""
    evals, evecs = np.linalg.eig(cm.matrix)
    moduli = np.sort(np.abs(evals))[::-1]
    x = evecs[:, int(np.argmin(np.abs(evals - 1.0)))].reshape((cm.dim, cm.dim), order="F")
    rho = project_density(hermitian_part(x / complex(np.trace(x))), psd_atol=SOLVER_PSD_ATOL)
    return rho, float(1.0 - moduli[1])


def dense_kraus(j, rank_tol=1e-12):
    """(operators, discarded weight) from one eigh of the whole Choi matrix."""
    d = int(round(np.sqrt(j.shape[0])))
    w, v = np.linalg.eigh(hermitian_part(j))
    order = np.argsort(-w)
    w, v = w[order], v[:, order]
    cut = rank_tol * max(float(w[0]), 0.0)
    ops, discarded = [], 0.0
    for lam, col in zip(w, v.T):
        if lam >= cut and lam > 0.0:
            ops.append(np.sqrt(lam) * col.reshape(d, d))
        else:
            discarded += float(lam)
    return ops, discarded


def stinespring_channel(u, d):
    """The channel rho -> Tr_env[u (rho (x) |0><0|) u^*] of a (d*e) x (d*e) unitary."""
    e = u.shape[0] // d
    return kraus_channel(u.reshape(d, e, d, e)[:, :, :, 0].transpose(1, 0, 2))  # <x|_env u |0>_env


def random_unitary(rng, size):
    g = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def transpose_channel(d):
    """rho -> (Tr[rho] I + rho^T) / (d + 1): CPTP, mixing, and sends charge q to -q."""
    return Channel(dim=d, apply=lambda m: (np.trace(m) * np.eye(d) + m.T) / (d + 1))


class TestCycleChannelsSplit:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_sector_sizes(self, rng, n):
        spec, params = random_engine_point(rng, n)
        cm = channel_matrix(cycle_channel_cb(build_hamiltonian(spec), params))
        k = n - 1  # qubits in the reduced chain; a sector is q = popcount(a) - popcount(b)
        blocks = charge_blocks(cm.matrix)
        assert [q for q, _ in blocks] == list(range(-k, k + 1))
        assert [len(idx) for _, idx in blocks] == [comb(2 * k, k + q) for q in range(-k, k + 1)]
        # rho[0, 1] sits at column-stacked index 1*d + 0; its row |0...00> has one more
        # S^Z = +1/2 spin than its column |0...01>, so q = m_row - m_col = +1
        assert 2**k in dict(blocks)[1]

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([3, 4, 5]),
           maker=st.sampled_from([cycle_channel_cb, cycle_channel_ac]))
    def test_matches_dense(self, seed, n, maker):
        spec, params = random_engine_point(np.random.default_rng(seed), n)
        ch = maker(build_hamiltonian(spec), params)
        cm = channel_matrix(ch)
        assert len(charge_blocks(cm.matrix)) == 2 * n - 1

        evals, _, _ = sector_eigenvalues(cm.matrix)
        dense_moduli = np.sort(np.abs(np.linalg.eigvals(cm.matrix)))
        assert np.abs(np.sort(np.abs(evals)) - dense_moduli).max() < 1e-12

        result = fixed_point_spectral(cm)
        rho, gap = dense_fixed_point(cm)
        assert abs(result.spectral_gap - gap) < 1e-12
        assert np.abs(result.rho_star - rho).max() < 1e-12

        j = choi_from_matrix(cm)
        kraus = kraus_from_choi(j)
        assert len(kraus.operators) == len(dense_kraus(j)[0])

        bound = reconstruction_residual(cm, kraus)
        exact = float(np.linalg.norm(cm.matrix - kraus_channel_matrix(kraus).matrix, 2))
        assert exact <= bound < 1e-10

    def test_degeneracy_names_sectors(self, decoupled_point):
        spec, params = decoupled_point
        cm = channel_matrix(cycle_channel_cb(build_hamiltonian(spec), params))
        with pytest.raises(DegenerateFixedPointError) as err:
            fixed_point_spectral(cm)
        # the untouched middle qubit: populations in q = 0, coherences in q = -1, +1
        assert err.value.charges == [-1, 0, 0, 1]


class TestFallbackIsDense:
    @pytest.mark.parametrize("make", [
        lambda rng: stinespring_channel(random_unitary(rng, 4), 2),
        lambda rng: transpose_channel(2),
        lambda rng: stinespring_channel(random_unitary(rng, 9), 3),
    ], ids=["qubit-random-unitary", "qubit-transpose", "qutrit-random-unitary"])
    def test_bit_identical(self, rng, make):
        cm = channel_matrix(make(rng))
        blocks = charge_blocks(cm.matrix)
        assert len(blocks) == 1 and blocks[0][0] is None

        result = fixed_point_spectral(cm)
        rho, gap = dense_fixed_point(cm)
        assert result.spectral_gap == gap
        assert np.array_equal(result.rho_star, rho)

        j = choi_from_matrix(cm)
        kraus = kraus_from_choi(j)
        ops, discarded = dense_kraus(j)
        assert len(kraus.operators) == len(ops)
        assert all(np.array_equal(a, b) for a, b in zip(kraus.operators, ops))
        assert kraus.discarded_weight == discarded

        exact = float(np.linalg.norm(cm.matrix - kraus_channel_matrix(kraus).matrix, 2))
        assert reconstruction_residual(cm, kraus) == exact

    def test_unsplit_degeneracy_has_no_charges(self):
        cm = channel_matrix(Channel(dim=3, apply=lambda m: np.asarray(m, dtype=complex)))
        with pytest.raises(DegenerateFixedPointError) as err:
            fixed_point_spectral(cm)
        assert err.value.charges == [None] * 9
