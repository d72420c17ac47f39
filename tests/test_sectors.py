"""The S^Z charge-sector split against the dense full-space decompositions.

The dense route (one ``eig``/``eigh``/2-norm over the whole d^2 x d^2
matrix) is the reference: the split must reproduce it on covariant cycle
channels and fall back to exactly it on maps that do not split.
"""

from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linear_sum_assignment

from qcycle import (Channel, DegenerateFixedPointError, build_hamiltonian, channel_matrix,
                    cold_half_cycle, cycle_channel_ac, cycle_channel_cb, cycle_operators,
                    fixed_point_spectral, kraus_channel_matrix, kraus_from_choi,
                    project_density, reverse_channel, trace_distance)
from qcycle.limitcycle import (SOLVER_PSD_ATOL, carried_fixed_point, charge_blocks,
                               from_hermitian_frame, hermitian_frame, kraus_channel,
                               sector_eigenvalues, swap_index, to_hermitian_frame)
from qcycle.linalg import hermitian_part
from qcycle.reversal import _charge_groups, choi_from_matrix, kraus_from_stack
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


def split_by_sector(evals, blocks):
    """The per-sector pieces of :func:`sector_eigenvalues`' output, in block order."""
    return np.split(evals, np.cumsum([len(idx) for _, idx in blocks])[:-1])


def multiset_distance(a, b):
    """Largest |a_i - b_j| over the closest one-to-one matching of two eigenvalue lists."""
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


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
        blocks = charge_blocks(cm.matrix)
        assert len(blocks) == 2 * n - 1

        evals, _, _ = sector_eigenvalues(cm.matrix)
        dense_moduli = np.sort(np.abs(np.linalg.eigvals(cm.matrix)))
        assert np.abs(np.sort(np.abs(evals)) - dense_moduli).max() < 1e-12
        per_sector = dict(zip([q for q, _ in blocks], split_by_sector(evals, blocks)))
        for q, idx in blocks:
            dense = np.linalg.eigvals(cm.matrix[np.ix_(idx, idx)])
            assert multiset_distance(per_sector[q], dense) < 1e-12
            if q < 0:  # the pairing was taken, not the fallback
                assert np.array_equal(per_sector[q], per_sector[-q].conj())

        result = fixed_point_spectral(cm)
        rho, gap = dense_fixed_point(cm)
        assert abs(result.spectral_gap - gap) < 1e-12
        assert np.abs(result.rho_star - rho).max() < 1e-12

        j = choi_from_matrix(cm)
        count = len(dense_kraus(j)[0])
        assert len(kraus_from_choi(j).operators) == count

        kraus, bound = kraus_from_stack(ch.kraus)
        assert len(kraus.operators) == count
        exact = float(np.linalg.norm(cm.matrix - kraus_channel_matrix(kraus).matrix, 2))
        assert exact <= bound < 1e-10

    def test_degeneracy_names_sectors(self, decoupled_point):
        spec, params = decoupled_point
        cm = channel_matrix(cycle_channel_cb(build_hamiltonian(spec), params))
        with pytest.raises(DegenerateFixedPointError) as err:
            fixed_point_spectral(cm)
        # the untouched middle qubit: populations in q = 0, coherences in q = -1, +1
        assert err.value.charges == [-1, 0, 0, 1]


def by_charge(evals, charges):
    """{q: the eigenvalues of sector q} from :func:`sector_eigenvalues`' output."""
    return {q: evals[[c == q for c in charges]] for q in set(charges)}


class TestOneLoopTwoAnchors:
    """What CB's solve gives AC, against AC's own decomposition."""

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([3, 4, 5, 6]))
    def test_ac_from_cb(self, seed, n):
        spec, params = random_engine_point(np.random.default_rng(seed), n)
        parts = build_hamiltonian(spec)
        ops = cycle_operators(parts, params)
        cb = cycle_channel_cb(parts, params, ops=ops)
        cm_cb = channel_matrix(cb)
        cm_ac = channel_matrix(cycle_channel_ac(parts, params, ops=ops))

        # M_CB = H C and M_AC = C H share their eigenvalues, sector by sector
        sectors_cb = by_charge(*sector_eigenvalues(cm_cb.matrix)[:2])
        sectors_ac = by_charge(*sector_eigenvalues(cm_ac.matrix)[:2])
        assert sorted(sectors_cb) == sorted(sectors_ac) == list(range(1 - n, n))
        for q, evals in sectors_cb.items():
            assert len(evals) == len(sectors_ac[q])
            assert multiset_distance(evals, sectors_ac[q]) < 1e-12

        # the cold half-cycle carries CB's fixed point, solved or refined, to AC's
        rho_ac = fixed_point_spectral(cm_ac).rho_star
        rho_cb = fixed_point_spectral(cm_cb).rho_star
        refined = reverse_channel(kraus_from_stack(cb.kraus)[0], rho_cb).rho_star
        cold = cold_half_cycle(parts, params, ops=ops)
        for rho in (rho_cb, refined):
            assert trace_distance(carried_fixed_point(cold, rho), rho_ac) < 1e-12


class TestHermitianFrame:
    @pytest.mark.parametrize("d", [2, 4, 8])
    def test_matches_explicit_basis(self, rng, d):
        pop = np.array([k.bit_count() for k in range(d)])
        zero = np.flatnonzero((pop[:, None] - pop[None, :]).reshape(-1) == 0)
        order, nd = hermitian_frame(zero, d)
        assert sorted(order) == list(zero)
        size, half = len(order), (len(order) - nd) // 2
        t = np.zeros((size, size), dtype=complex)  # columns: the Hermitian basis, in order
        t[:nd, :nd] = np.eye(nd)
        for k in range(half):
            u, lo = nd + k, nd + half + k
            assert order[lo] == swap_index(order[u], d)
            t[[u, lo], nd + k] = np.sqrt(0.5)
            t[[u, lo], nd + half + k] = 1j * np.sqrt(0.5) * np.array([1, -1])
        assert np.abs(t.conj().T @ t - np.eye(size)).max() < 1e-15
        m = rng.normal(size=(d * d, d * d)) + 1j * rng.normal(size=(d * d, d * d))
        block = m[np.ix_(order, order)]
        assert np.abs(to_hermitian_frame(m, order, nd) - t.conj().T @ block @ t).max() < 1e-14
        assert np.abs(from_hermitian_frame(block[:, 0], nd) - t @ block[:, 0]).max() < 1e-15


class TestFallbackIsDense:
    @pytest.mark.parametrize("make", [
        lambda rng: stinespring_channel(random_unitary(rng, 4), 2),
        lambda rng: transpose_channel(2),
        lambda rng: stinespring_channel(random_unitary(rng, 9), 3),
    ], ids=["qubit-random-unitary", "qubit-transpose", "qutrit-random-unitary"])
    def test_bit_identical(self, rng, make):
        ch = make(rng)
        cm = channel_matrix(ch)
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

        # a bare map's operators come from its Choi matrix, as in ``reverse``
        stack = np.array(ops) if ch.kraus is None else ch.kraus
        assert len(_charge_groups(stack)) == 1
        gram, bound = kraus_from_stack(stack)
        exact = float(np.linalg.norm(cm.matrix - kraus_channel_matrix(gram).matrix, 2))
        assert exact <= bound < 1e-10

    def test_unsplit_degeneracy_has_no_charges(self):
        cm = channel_matrix(Channel(dim=3, apply=lambda m: np.asarray(m, dtype=complex)))
        with pytest.raises(DegenerateFixedPointError) as err:
            fixed_point_spectral(cm)
        assert err.value.charges == [None] * 9


def phase_channel(rng, d):
    """rho[r, c] -> exp(i theta_rc) rho[r, c] with theta not antisymmetric.

    Covariant, so it splits by charge, but not Hermiticity preserving: the
    -q block is not the mirror of the +q block and the q = 0 block is not
    real in the Hermitian basis.
    """
    phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=(d, d)))
    return Channel(dim=d, apply=lambda m: phase * m)


def sandwich_channel(rng, d):
    """rho -> A rho B with A, B random and block diagonal by popcount: covariant, not HP."""
    pop = np.array([k.bit_count() for k in range(d)])
    same = pop[:, None] == pop[None, :]
    a, b = (same * (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) for _ in range(2))
    return Channel(dim=d, apply=lambda m: a @ m @ b)


class TestNoPairingWithoutHermiticity:
    @pytest.mark.parametrize("d", [4, 8])
    @pytest.mark.parametrize("make", [phase_channel, sandwich_channel])
    def test_bit_identical_to_per_block(self, rng, make, d):
        m = channel_matrix(make(rng, d)).matrix
        blocks = charge_blocks(m)
        assert [q for q, _ in blocks] == list(range(-d.bit_length() + 1, d.bit_length()))

        evals, charges, _ = sector_eigenvalues(m)
        per_block = [np.linalg.eigvals(m[np.ix_(idx, idx)]) for _, idx in blocks]
        assert np.array_equal(evals, np.concatenate(per_block))
        assert charges == [q for q, idx in blocks for _ in idx]

        evals, _, vector = sector_eigenvalues(m, trace_vector=True)
        middle = len(blocks) // 2  # q = 0
        zero = blocks[middle][1]
        w, v = np.linalg.eig(m[np.ix_(zero, zero)])
        assert np.array_equal(split_by_sector(evals, blocks)[middle], w)
        assert np.array_equal(vector[zero], v[:, int(np.argmin(np.abs(w - 1.0)))])
