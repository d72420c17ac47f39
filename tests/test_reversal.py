import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qcycle import (ChainSpec, Channel, CycleParams, NotFixedPointError, RankDeficientError,
                    cycle_channel_ac, cycle_channel_cb, fixed_point_spectral, kraus_from_stack,
                    limit_cycle_states, partial_trace, psd_sqrt_invsqrt, random_density_matrix,
                    reverse_channel, sequence_probability, trace_distance)
from qcycle.cli import TOL_FLOOR
from qcycle.limitcycle import CLOSURE_FACTOR
from qcycle.reversal import path_probabilities
from cli_documents import DOCUMENTS
from conftest import point_operators, random_engine_point
from oracle_naive import charge_labels, dense_kraus, naive_channel_matrix, naive_choi


def haar_unitary(rng, d):
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def identity_channel(d):
    return Channel(np.eye(d)[None])


def engine_fixture(small_point, maker):
    ch = maker(point_operators(*small_point))
    fp = fixed_point_spectral(ch)
    kraus, _, _ = kraus_from_stack(ch.kraus)
    return ch, fp, kraus


def weights(kraus):
    """||A_l||_F^2 of each operator: its Choi eigenvalue when the operators are Choi-canonical."""
    return np.array([np.vdot(a, a).real for a in kraus.kraus])


class TestChoiMatrix:
    """The Choi matrix of the extracted operators against the defining sum over matrix units."""

    def test_identity_channel_rank_one(self):
        d = 3
        j = naive_choi(identity_channel(d))
        # the maximally entangled projector: flat identity against itself
        w = np.eye(d, dtype=complex).reshape(-1)
        assert np.abs(j - np.outer(w, w.conj())).max() < 1e-14
        # three copies of I / sqrt(3) span its one eigenvector, of eigenvalue d
        kraus, _, _ = kraus_from_stack(np.repeat(np.eye(d)[None], 3, axis=0) / np.sqrt(3))
        assert len(kraus.kraus) == 1 and abs(weights(kraus)[0] - d) < 1e-12
        assert np.abs(naive_choi(kraus) - j).max() < 1e-14

    def test_replacement_channel(self, rng):
        sigma = random_density_matrix(3, rng)
        p, v = np.linalg.eigh(sigma)  # rho -> sigma Tr[rho], Kraus operators sqrt(p_a) |v_a><j|
        kraus, _, _ = kraus_from_stack([np.sqrt(p[a]) * np.outer(v[:, a], np.eye(3)[j])
                                     for a in range(3) for j in range(3)])
        assert np.abs(naive_choi(kraus) - np.kron(sigma, np.eye(3))).max() < 1e-14
        assert np.abs(weights(kraus) - np.repeat(np.sort(p)[::-1], 3)).max() < 1e-14

    @pytest.mark.parametrize("maker", [cycle_channel_cb, cycle_channel_ac])
    def test_engine_channel_certificates(self, small_point, maker):
        spec, params = small_point
        ch = maker(point_operators(spec, params))
        j = naive_choi(ch)
        assert np.abs(j - j.conj().T).max() <= 1e-10
        assert np.linalg.eigvalsh((j + j.conj().T) / 2).min() >= -1e-9
        # tracing out the output leg leaves the identity on the input leg
        assert np.abs(partial_trace(j, [1], [ch.dim, ch.dim]) - np.eye(ch.dim)).max() <= 1e-10

    @pytest.mark.parametrize("maker", [cycle_channel_cb, cycle_channel_ac])
    def test_matches_kron_definition(self, rng, maker):
        for n in (3, 4):
            spec, params = random_engine_point(rng, n)
            ch = maker(point_operators(spec, params))
            kraus, _, _ = kraus_from_stack(ch.kraus)
            assert np.abs(naive_choi(kraus) - naive_choi(ch)).max() < 1e-14


class TestKrausFromChoi:
    """The operators themselves: one per Choi eigenvector, from the Gram route."""

    def test_unitary_channel_single_operator(self, rng):
        u = haar_unitary(rng, 4)
        kraus, _, _ = kraus_from_stack([0.6 * u, 0.8j * u])  # rank one, split over two operators
        assert len(kraus.kraus) == 1
        a = kraus.kraus[0]
        phase = a[np.unravel_index(np.argmax(np.abs(u)), u.shape)] / \
            u[np.unravel_index(np.argmax(np.abs(u)), u.shape)]
        assert abs(abs(phase) - 1.0) < 1e-10
        assert np.abs(a - phase * u).max() < 1e-10

    def test_identity_channel_single_identity(self):
        kraus, _, _ = kraus_from_stack(np.array([np.eye(3), 1j * np.eye(3)]) / np.sqrt(2))
        assert len(kraus.kraus) == 1
        a = kraus.kraus[0]
        assert np.abs(a - a[0, 0] * np.eye(3)).max() < 1e-12

    @pytest.mark.parametrize("maker", [cycle_channel_cb, cycle_channel_ac])
    def test_round_trip_reconstruction(self, rng, small_point, maker):
        ch, _, kraus = engine_fixture(small_point, maker)
        assert kraus.completeness_residual() <= 1e-10
        for _ in range(20):
            rho = random_density_matrix(ch.dim, rng)
            assert np.abs(kraus.apply(rho) - ch.apply(rho)).max() <= 1e-10

    def test_channel_matrix_round_trip(self, small_point):
        ch, _, kraus = engine_fixture(small_point, cycle_channel_cb)
        exact = naive_channel_matrix(ch) - naive_channel_matrix(kraus)
        assert np.linalg.norm(exact, 2) <= 1e-10


class TestKrausFromStack:
    """The Gram route against the Choi eigendecomposition and the dense 2-norm."""

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([3, 4, 5]),
           maker=st.sampled_from([cycle_channel_cb, cycle_channel_ac]))
    def test_matches_choi_route(self, seed, n, maker):
        spec, params = random_engine_point(np.random.default_rng(seed), n)
        ch = maker(point_operators(spec, params))
        cm = naive_channel_matrix(ch)
        kraus, discarded, bound = kraus_from_stack(ch.kraus)
        ops = kraus.kraus
        choi = naive_choi(ch)
        assert len(ops) == len(dense_kraus(choi)[0]) <= 16

        choi_weights = np.sort(np.linalg.eigvalsh((choi + choi.conj().T) / 2))[::-1]
        assert np.abs(weights(kraus) - choi_weights[:len(ops)]).max() < 1e-12
        assert discarded == 0.0

        charge = charge_labels(ch.dim)
        for a in ops:
            moduli = np.abs(a)
            own = charge == charge.flat[np.argmax(moduli)]
            assert moduli[~own].max(initial=0.0) <= 1e-12 * moduli.max()

        rebuilt = naive_channel_matrix(kraus)
        assert np.abs(rebuilt - cm).max() < 1e-12
        assert float(np.linalg.norm(cm - rebuilt, 2)) <= bound < 1e-10

        rev, rho_star = reverse_channel(kraus, fixed_point_spectral(ch).rho_star)
        back, _ = reverse_channel(rev, rho_star)
        assert np.abs(naive_channel_matrix(back) - cm).max() < 1e-10

    def test_bound_covers_dropped_weight(self):
        # a second operator whose weight falls under RANK_TOL is dropped; the bound must
        # cover the map it leaves out, conj(B) (x) B with ||B||_F^2 = 1e-14
        d = 4
        b = np.zeros((d, d), dtype=complex)
        b[0, 1] = 1e-7
        stack = np.array([np.eye(d, dtype=complex), b])
        kraus, discarded, bound = kraus_from_stack(stack)
        assert len(kraus.kraus) == 1
        assert discarded == pytest.approx(1e-14, rel=1e-12)
        exact = naive_channel_matrix(Channel(stack)) - naive_channel_matrix(kraus)
        exact = float(np.linalg.norm(exact, 2))
        assert exact == pytest.approx(1e-14, rel=1e-6)
        assert exact <= bound


class TestSequenceProbability:
    def test_unitary_single_event(self, rng):
        u = haar_unitary(rng, 3)
        kraus, _, _ = kraus_from_stack(u[None])
        rho = random_density_matrix(3, rng)
        assert abs(sequence_probability([kraus.kraus[0]], rho) - 1.0) < 1e-12

    def test_single_step_completeness(self, rng, small_point):
        ch, fp, kraus = engine_fixture(small_point, cycle_channel_cb)
        total = sum(sequence_probability([a], fp.rho_star) for a in kraus.kraus)
        assert abs(total - 1.0) <= 1e-10

    def test_two_step_completeness(self, small_point):
        ch, fp, kraus = engine_fixture(small_point, cycle_channel_cb)
        total = sum(sequence_probability([a1, a2], fp.rho_star)
                    for a1 in kraus.kraus for a2 in kraus.kraus)
        assert abs(total - 1.0) <= 1e-9

    def test_probability_in_unit_interval(self, rng, small_point):
        ch, fp, kraus = engine_fixture(small_point, cycle_channel_cb)
        for a in kraus.kraus:
            p = sequence_probability([a], fp.rho_star)
            assert -1e-12 <= p <= 1.0 + 1e-12

    @pytest.mark.parametrize("maker", [cycle_channel_cb, cycle_channel_ac])
    @pytest.mark.parametrize("config", ["ill-n4.json", "generic-n5.json", "generic-n6.json",
                                        "ill-n6-seed12.json"])
    def test_path_probabilities_match_sequence_loop(self, config, maker):
        # the Gram contraction against the two-step loop it replaces, on the forward and the
        # reversed operators at stored CLI points; ill-n6-seed12 has cond(rho_star) = 2.3e8
        doc = json.loads((DOCUMENTS / config).read_text())
        ch = maker(point_operators(ChainSpec(**doc["chain"]), CycleParams(**doc["cycle"])))
        forward, _, _ = kraus_from_stack(ch.kraus)
        rev, rho = reverse_channel(forward, fixed_point_spectral(ch).rho_star)
        for ops in (forward.kraus, rev.kraus):
            loop = [[sequence_probability([a, b], rho) for a in ops] for b in ops]
            assert np.abs(path_probabilities(ops, rho) - np.array(loop)).max() <= 1e-15


class TestReverseChannel:
    def test_unitary_reversal_is_inverse(self, rng):
        u = haar_unitary(rng, 4)
        kraus, _, _ = kraus_from_stack(u[None])
        rev, _ = reverse_channel(kraus, np.eye(4) / 4)
        a = rev.kraus[0]
        udag = u.conj().T
        idx = np.unravel_index(np.argmax(np.abs(udag)), udag.shape)
        phase = a[idx] / udag[idx]
        assert np.abs(a - phase * udag).max() < 1e-10

    @pytest.mark.parametrize("maker", [cycle_channel_cb, cycle_channel_ac])
    def test_shares_fixed_point(self, small_point, maker):
        _, fp, kraus = engine_fixture(small_point, maker)
        rev, _ = reverse_channel(kraus, fp.rho_star)
        assert trace_distance(rev.apply(fp.rho_star), fp.rho_star) <= 1e-9

    def test_two_step_detailed_balance(self, rng, small_point):
        _, fp, kraus = engine_fixture(small_point, cycle_channel_cb)
        rev, _ = reverse_channel(kraus, fp.rho_star)
        ops, reversed_ops = kraus.kraus, rev.kraus
        for _ in range(50):
            a1, a2 = rng.integers(0, len(ops), size=2)
            p_fwd = sequence_probability([ops[a1], ops[a2]], fp.rho_star)
            p_rev = sequence_probability([reversed_ops[a2], reversed_ops[a1]], fp.rho_star)
            assert abs(p_fwd - p_rev) <= 1e-9

    def test_reversal_involution(self, rng, small_point):
        ch, fp, kraus = engine_fixture(small_point, cycle_channel_cb)
        rev, _ = reverse_channel(kraus, fp.rho_star)
        back, _ = reverse_channel(rev, fp.rho_star)
        for _ in range(10):
            rho = random_density_matrix(ch.dim, rng)
            assert np.abs(back.apply(rho) - ch.apply(rho)).max() <= 1e-8

    def test_adjoint_route_agrees(self, rng, small_point):
        # the Kraus route against rho^{1/2} ch^*(rho^{-1/2} X rho^{-1/2}) rho^{1/2}, with the
        # adjoint map ch^*(y) = sum_k K_k^* y K_k summed explicitly
        _, fp, kraus = engine_fixture(small_point, cycle_channel_cb)
        rev, rho_star = reverse_channel(kraus, fp.rho_star)
        sqrt, invsqrt = psd_sqrt_invsqrt(rho_star)
        for _ in range(3):
            rho = random_density_matrix(kraus.dim, rng)
            y = invsqrt @ rho @ invsqrt
            sandwich = sqrt @ sum(k.conj().T @ y @ k for k in kraus.kraus) @ sqrt
            assert np.abs(rev.apply(rho) - sandwich).max() <= 1e-9

    @pytest.mark.parametrize("maker", [cycle_channel_cb, cycle_channel_ac])
    def test_ill_conditioned_fixed_point(self, maker):
        # a cold bath near its ground state: cond(rho_star) is 1e7 (CB) and 8e7 (AC), which
        # amplifies the solver's rounding in the reversed set; per popcount class it is small
        spec = ChainSpec(n=4, E=[1.13, 1.301, 0.53, 6.782], J=[-0.61, -0.672, 0.525],
                         K=[0.696, 0.586, 0.6], F=[0.511, 0.216, 0.291])
        params = CycleParams(beta1=6.026, beta2=0.653, tau1=1.83, tau2=1.872)
        _, fp, kraus = engine_fixture((spec, params), maker)
        rev, rho_star = reverse_channel(kraus, fp.rho_star)
        assert trace_distance(rho_star, fp.rho_star) <= 1e-13
        assert rev.completeness_residual() <= 1e-13

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_two_certificates_are_identities(self, rng, n):
        # reversed_fixed_point_distance and max_detailed_balance_violation hold around any
        # full-rank r: Sum R_k r R_k^* = r^{1/2} (Sum K_k^* K_k) r^{1/2} = r, and the path
        # probabilities are Tr[K_b K_a r K_a^* K_b^*] both ways. Only completeness needs r fixed.
        ops = point_operators(*random_engine_point(rng, n))
        forward, _, _ = kraus_from_stack(cycle_channel_cb(ops).kraus)
        r = random_density_matrix(forward.dim, rng)
        assert trace_distance(forward.apply(r), r) > 0.1  # r is far from the fixed point
        sqrt, invsqrt = psd_sqrt_invsqrt(r)
        rev = Channel(sqrt @ forward.kraus.conj().transpose(0, 2, 1) @ invsqrt)
        assert trace_distance(rev.apply(r), r) <= 1e-12
        balance = path_probabilities(forward.kraus, r) - path_probabilities(rev.kraus, r).T
        assert np.abs(balance).max() <= 1e-12
        assert rev.completeness_residual() > 1e-3

    def test_rejects_non_fixed_state(self, rng, small_point):
        _, _, kraus = engine_fixture(small_point, cycle_channel_cb)
        with pytest.raises(NotFixedPointError):
            reverse_channel(kraus, random_density_matrix(kraus.dim, rng))

    def test_rejects_incomplete_reversed_set(self, small_point):
        # the maximally mixed state is full rank, but the channel does not fix it, so the set
        # reversed around its one-step image is not trace preserving
        _, _, kraus = engine_fixture(small_point, cycle_channel_cb)
        with pytest.raises(NotFixedPointError, match="completeness of the reversed set"):
            reverse_channel(kraus, np.eye(kraus.dim) / kraus.dim)

    @pytest.mark.parametrize("maker", [cycle_channel_cb, cycle_channel_ac])
    def test_rejects_rank_deficient_fixed_point(self, maker):
        # the rank-deficient document's baths are near zero temperature, so each map fixes a
        # state of rank 1, and the one-step refinement keeps it so
        doc = json.loads((DOCUMENTS / "rank-deficient.json").read_text())
        ch = maker(point_operators(ChainSpec(**doc["chain"]), CycleParams(**doc["cycle"])))
        forward, _, _ = kraus_from_stack(ch.kraus)
        with pytest.raises(RankDeficientError) as err:
            reverse_channel(forward, fixed_point_spectral(ch).rho_star)
        assert (err.value.effective_rank, err.value.dim) == (1, 4)

    def test_rejects_moved_pure_state(self, small_point):
        # rank is checked on the one-step image, which the baths make full rank, so a pure
        # state the map moves fails the fixed-point check and not the rank check
        _, _, kraus = engine_fixture(small_point, cycle_channel_cb)
        psi = np.zeros(kraus.dim, dtype=complex)
        psi[0] = 1.0
        with pytest.raises(NotFixedPointError, match="completeness of the reversed set"):
            reverse_channel(kraus, np.outer(psi, psi.conj()))

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 6))
    def test_limit_cycle_states_are_fixed_by_the_kraus_maps(self, seed, n):
        # every state the reverse command hands to reverse_channel comes from
        # limit_cycle_states, and the Kraus map extracted from its cycle map moves it by
        # rounding, below the closure bound at the least solver tolerance; so reverse_channel
        # needs no closure check of its own
        ops = point_operators(*random_engine_point(np.random.default_rng(seed), n))
        cb = cycle_channel_cb(ops)
        x, z = limit_cycle_states(fixed_point_spectral(cb).rho_star, ops)
        for ch, state in ((cb, x), (cycle_channel_ac(ops), z)):
            forward, _, _ = kraus_from_stack(ch.kraus)
            assert trace_distance(forward.apply(state), state) <= CLOSURE_FACTOR * TOL_FLOOR


class TestStrokeOrder:
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_reversed_stroke_order_is_another_cycle(self, rng, n):
        # (T_A, U2, T_B, U1) is not the Crooks reversal that reverse certifies. With unequal
        # stroke times its limit cycle differs from the forward one (1.5e-2 to 3.0e-2 in trace
        # distance at n = 3 to 6 here); with equal ones U1 = U2 and the two orders coincide
        spec, params = random_engine_point(rng, n)
        distances = []
        for tau2 in (params.tau1 + 0.5, params.tau1):
            ops = point_operators(spec, replace(params, tau2=tau2))
            swapped = replace(ops, u1_blocks=ops.u2_blocks, u2_blocks=ops.u1_blocks)
            distances.append(trace_distance(*(fixed_point_spectral(cycle_channel_cb(o)).rho_star
                                              for o in (ops, swapped))))
        assert distances[0] > 1e-3
        assert distances[1] == 0.0
