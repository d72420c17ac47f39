"""The S^Z charge-sector blocks built from the Kraus stack against the dense matrices.

The dense route (the tabulated ``naive_channel_matrix`` and ``naive_choi``
of ``tests/oracle_naive.py``, and one ``eig``/``eigh``/2-norm over the
whole d^2 x d^2 matrix) is the reference: the blocks must reproduce it on
covariant cycle channels and be it on maps that do not split, where the
fixed point is also the solver's own inverse iteration on the whole matrix.
The Gram route's Kraus operators (``kraus_from_stack``) are checked against
the same references, by count and by the 2-norm bound they report.
"""

from collections import Counter
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linear_sum_assignment

from qcycle import (Channel, DegenerateFixedPointError, cold_half_cycle, cycle_channel_ac,
                    cycle_channel_cb, fixed_point_spectral, kraus_from_stack, reverse_channel,
                    to_state, trace_distance)
from qcycle.limitcycle import (_charge_groups, _unit_vector, from_hermitian_frame, hermitian_frame,
                               sector_blocks, sector_eigenvalues, swap_index, to_hermitian_frame,
                               unvec)
from conftest import point_operators, random_engine_point
from oracle_naive import dense_kraus, naive_channel_matrix, naive_choi


def dense_fixed_point(cm, d):
    """(rho_star, gap) from one eig of the whole channel matrix of a d x d map."""
    evals, evecs = np.linalg.eig(cm)
    moduli = np.sort(np.abs(evals))[::-1]
    rho = to_state(evecs[:, int(np.argmin(np.abs(evals - 1.0)))].reshape((d, d), order="F"))
    return rho, float(1.0 - moduli[1])


def multiset_distance(a, b):
    """Largest |a_i - b_j| over the closest one-to-one matching of two eigenvalue lists."""
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def stinespring_channel(u, d):
    """The channel rho -> Tr_env[u (rho (x) |0><0|) u^*] of a (d*e) x (d*e) unitary."""
    e = u.shape[0] // d
    return Channel(u.reshape(d, e, d, e)[:, :, :, 0].transpose(1, 0, 2))  # <x|_env u |0>_env


def random_unitary(rng, size):
    g = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def werner_holevo_channel(d):
    """rho -> (Tr[rho] I + rho^T) / (d + 1): CPTP, mixing, and sends charge q to -q.

    Its Kraus operators are (|i><j| + |j><i|) / sqrt(2 (d + 1)) over all i, j.
    """
    e = np.eye(d)
    return Channel([(np.outer(e[i], e[j]) + np.outer(e[j], e[i])) / np.sqrt(2 * (d + 1))
                    for i in range(d) for j in range(d)])


class TestCycleChannelsSplit:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_sector_sizes(self, rng, n):
        spec, params = random_engine_point(rng, n)
        ch = cycle_channel_cb(point_operators(spec, params))
        k = n - 1  # qubits in the reduced chain; a sector is q = popcount(a) - popcount(b)
        sectors = list(sector_blocks(ch))
        assert [q for q, _, _ in sectors] == list(range(k + 1))
        assert [len(order) for _, order, _ in sectors] == [comb(2 * k, k + q) for q in range(k + 1)]
        assert Counter(sector_eigenvalues(ch)[1]) == {q: comb(2 * k, k + q)
                                                     for q in range(-k, k + 1)}
        # rho[0, 1] sits at column-stacked index 1*d + 0; its row |0...00> has one more
        # S^Z = +1/2 spin than its column |0...01>, so q = m_row - m_col = +1
        assert 2**k in sectors[1][1]

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([3, 4, 5, 6]),
           maker=st.sampled_from([cycle_channel_cb, cycle_channel_ac, cold_half_cycle]))
    def test_matches_dense(self, seed, n, maker):
        spec, params = random_engine_point(np.random.default_rng(seed), n)
        ch = maker(point_operators(spec, params))
        cm = naive_channel_matrix(ch)

        evals, charges, _ = sector_eigenvalues(ch)
        per_sector = by_charge(evals, charges)
        assert sorted(per_sector) == list(range(1 - n, n))
        for q, order, block in sector_blocks(ch):
            dense = cm[np.ix_(order, order)]
            assert np.abs(block - dense).max() <= 1e-14 * np.abs(dense).max()
            # the -q sector sits on the swapped indices; it is not built, only conjugated
            for charge, idx in {q: order, -q: swap_index(order, ch.dim)}.items():
                dense_evals = np.linalg.eigvals(cm[np.ix_(idx, idx)])
                assert multiset_distance(per_sector[charge], dense_evals) < 1e-12
        if n == 6:
            return  # the whole-matrix references below take seconds each at d^2 = 1024

        dense_moduli = np.sort(np.abs(np.linalg.eigvals(cm)))
        assert np.abs(np.sort(np.abs(evals)) - dense_moduli).max() < 1e-12
        if maker is not cold_half_cycle:
            result = fixed_point_spectral(ch)
            rho, gap = dense_fixed_point(cm, ch.dim)
            assert abs(result.spectral_gap - gap) < 1e-12
            assert np.abs(result.rho_star - rho).max() < 1e-12

        kraus, _, bound = kraus_from_stack(ch.kraus)
        assert len(kraus.kraus) == len(dense_kraus(naive_choi(ch))[0])
        exact = float(np.linalg.norm(cm - naive_channel_matrix(kraus), 2))
        assert exact <= bound < 1e-10

    def test_degeneracy_names_sectors(self, decoupled_point):
        spec, params = decoupled_point
        with pytest.raises(DegenerateFixedPointError) as err:
            fixed_point_spectral(cycle_channel_cb(point_operators(spec, params)))
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
        ops = point_operators(spec, params)
        cb = cycle_channel_cb(ops)
        ac = cycle_channel_ac(ops)

        # M_CB = H C and M_AC = C H share their eigenvalues, sector by sector
        sectors_cb = by_charge(*sector_eigenvalues(cb)[:2])
        sectors_ac = by_charge(*sector_eigenvalues(ac)[:2])
        assert sorted(sectors_cb) == sorted(sectors_ac) == list(range(1 - n, n))
        for q, evals in sectors_cb.items():
            assert len(evals) == len(sectors_ac[q])
            assert multiset_distance(evals, sectors_ac[q]) < 1e-12

        # the cold half-cycle carries CB's fixed point, solved or refined, to AC's
        rho_ac = fixed_point_spectral(ac).rho_star
        rho_cb = fixed_point_spectral(cb).rho_star
        refined = reverse_channel(kraus_from_stack(cb.kraus)[0], rho_cb)[1]
        cold = cold_half_cycle(ops)
        for rho in (rho_cb, refined):
            assert trace_distance(to_state(cold.apply(rho)), rho_ac) < 1e-12


class TestHermitianFrame:
    @pytest.mark.parametrize("d", [2, 4, 8])
    def test_matches_explicit_basis(self, rng, d):
        pop = np.array([k.bit_count() for k in range(d)])
        zero = np.flatnonzero((pop[:, None] - pop[None, :]).reshape(-1) == 0)
        order = hermitian_frame(zero, d)
        assert sorted(order) == list(zero)
        nd = d  # the diagonal indices come first
        assert all(k // d == k % d for k in order[:nd])
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
        expected = t.conj().T @ block @ t
        assert np.abs(from_hermitian_frame(block[:, 0], nd) - t @ block[:, 0]).max() < 1e-15
        assert np.abs(to_hermitian_frame(block, nd) - expected).max() < 1e-14


class TestFallbackIsDense:
    @pytest.mark.parametrize("make", [
        lambda rng: stinespring_channel(random_unitary(rng, 4), 2),
        lambda rng: werner_holevo_channel(2),
        lambda rng: stinespring_channel(random_unitary(rng, 9), 3),
    ], ids=["qubit-random-unitary", "qubit-transpose", "qutrit-random-unitary"])
    def test_bit_identical(self, rng, make):
        ch = make(rng)
        cm = naive_channel_matrix(ch)
        assert len(_charge_groups(ch.kraus)) == 1
        (q, order, block), = sector_blocks(ch)  # one class, one tile: the whole matrix
        assert q is None and np.array_equal(order, np.arange(ch.dim**2))
        assert np.abs(block - cm).max() <= 1e-14 * np.abs(cm).max()

        evals, charges, _ = sector_eigenvalues(ch)
        assert np.array_equal(evals, np.linalg.eigvals(block))
        assert charges == [None] * len(evals)
        result = fixed_point_spectral(ch)
        rho, gap = dense_fixed_point(block, ch.dim)
        assert result.spectral_gap == gap
        assert trace_distance(result.rho_star, rho) < 1e-12
        # the solver's inverse iteration on the whole matrix, with no frame or pairing
        d = ch.dim
        rho = to_state(unvec(_unit_vector(block.copy(), np.arange(d) * (d + 1)), d))
        assert np.array_equal(result.rho_star, rho)

        gram, _, bound = kraus_from_stack(ch.kraus)
        assert len(gram.kraus) == len(dense_kraus(naive_choi(ch))[0])
        exact = float(np.linalg.norm(cm - naive_channel_matrix(gram), 2))
        assert exact <= bound < 1e-10

    def test_unsplit_degeneracy_has_no_charges(self):
        with pytest.raises(DegenerateFixedPointError) as err:
            fixed_point_spectral(Channel(np.eye(3)[None]))
        assert err.value.charges == [None] * 9
