import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qcycle import (ChainSpec, Channel, CycleParams, KrausSet, NotCPError, NotFixedPointError,
                    RankDeficientError, ZeroProbabilityError, build_hamiltonian, channel_matrix,
                    choi_matrix, choi_output_trace, cycle_channel_ac,
                    cycle_channel_cb, fixed_point_spectral, kraus_apply,
                    kraus_channel_matrix, kraus_from_choi, kraus_from_stack,
                    post_interaction_state, random_density_matrix,
                    reverse_channel, sequence_probability, trace_distance)
from qcycle.limitcycle import kraus_channel, popcount_charges
from qcycle.reversal import choi_from_matrix
from conftest import random_engine_point
from oracle_naive import naive_choi


def haar_unitary(rng, d):
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def unitary_channel(u):
    return kraus_channel(u[None])


def identity_channel(d):
    return kraus_channel(np.eye(d)[None])


def engine_fixture(small_point, maker):
    spec, params = small_point
    parts = build_hamiltonian(spec)
    ch = maker(parts, params)
    fp = fixed_point_spectral(ch)
    kraus = kraus_from_choi(choi_matrix(ch))
    return ch, fp, kraus


class TestChoiMatrix:
    def test_identity_channel_rank_one(self):
        d = 3
        j = choi_matrix(identity_channel(d))
        # the maximally entangled projector: flat identity against itself
        w = np.eye(d, dtype=complex).reshape(-1)
        assert np.abs(j - np.outer(w, w.conj())).max() < 1e-14
        eigs = np.sort(np.linalg.eigvalsh(j))
        assert abs(eigs[-1] - d) < 1e-12 and np.abs(eigs[:-1]).max() < 1e-12

    def test_replacement_channel(self, rng):
        sigma = random_density_matrix(3, rng)
        ch = Channel(dim=3, apply=lambda m: sigma * np.trace(np.asarray(m)))
        assert np.abs(choi_matrix(ch) - np.kron(sigma, np.eye(3))).max() < 1e-14

    @pytest.mark.parametrize("maker", [cycle_channel_cb, cycle_channel_ac])
    def test_engine_channel_certificates(self, small_point, maker):
        spec, params = small_point
        ch = maker(build_hamiltonian(spec), params)
        j = choi_matrix(ch)
        assert np.abs(j - j.conj().T).max() <= 1e-10
        assert np.linalg.eigvalsh((j + j.conj().T) / 2).min() >= -1e-9
        assert np.abs(choi_output_trace(j, ch.dim) - np.eye(ch.dim)).max() <= 1e-10

    @pytest.mark.parametrize("maker", [cycle_channel_cb, cycle_channel_ac])
    def test_matches_kron_definition(self, rng, maker):
        for n in (3, 4):
            spec, params = random_engine_point(rng, n)
            ch = maker(build_hamiltonian(spec), params)
            assert np.abs(choi_matrix(ch) - naive_choi(ch)).max() < 1e-14

    def test_non_cp_channel_rejected(self):
        # half replacement by I/2, half transpose: positive and trace
        # preserving with a unique full-rank fixed point, but not CP
        ch = Channel(dim=2, apply=lambda m: 0.25 * np.trace(m) * np.eye(2) + 0.5 * m.T)
        with pytest.raises(NotCPError):
            choi_matrix(ch)
        with pytest.raises(NotCPError):
            kraus_from_choi(choi_from_matrix(channel_matrix(ch)))


class TestKrausFromChoi:
    def test_unitary_channel_single_operator(self, rng):
        u = haar_unitary(rng, 4)
        kraus = kraus_from_choi(choi_matrix(unitary_channel(u)))
        assert len(kraus.operators) == 1
        a = kraus.operators[0]
        phase = a[np.unravel_index(np.argmax(np.abs(u)), u.shape)] / \
            u[np.unravel_index(np.argmax(np.abs(u)), u.shape)]
        assert abs(abs(phase) - 1.0) < 1e-10
        assert np.abs(a - phase * u).max() < 1e-10

    def test_identity_channel_single_identity(self):
        kraus = kraus_from_choi(choi_matrix(identity_channel(3)))
        assert len(kraus.operators) == 1
        a = kraus.operators[0]
        assert np.abs(a - a[0, 0] * np.eye(3)).max() < 1e-12

    @pytest.mark.parametrize("maker", [cycle_channel_cb, cycle_channel_ac])
    def test_round_trip_reconstruction(self, rng, small_point, maker):
        ch, _, kraus = engine_fixture(small_point, maker)
        assert kraus.completeness_residual() <= 1e-10
        for _ in range(20):
            rho = random_density_matrix(ch.dim, rng)
            assert np.abs(kraus_apply(kraus.operators, rho) - ch.apply(rho)).max() <= 1e-10

    def test_channel_matrix_round_trip(self, small_point):
        ch, _, kraus = engine_fixture(small_point, cycle_channel_cb)
        cm = channel_matrix(ch)
        km = kraus_channel_matrix(kraus)
        assert np.linalg.norm(cm.matrix - km.matrix, 2) <= 1e-10


class TestKrausFromStack:
    """The Gram route against the Choi eigendecomposition and the dense 2-norm."""

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([3, 4, 5]),
           maker=st.sampled_from([cycle_channel_cb, cycle_channel_ac]))
    def test_matches_choi_route(self, seed, n, maker):
        spec, params = random_engine_point(np.random.default_rng(seed), n)
        ch = maker(build_hamiltonian(spec), params)
        cm = channel_matrix(ch)
        kraus, bound = kraus_from_stack(ch.kraus)
        ops = kraus.operators
        choi = choi_from_matrix(cm)
        assert len(ops) == len(kraus_from_choi(choi).operators) <= 16

        choi_weights = np.sort(np.linalg.eigvalsh((choi + choi.conj().T) / 2))[::-1]
        weights = np.array([np.vdot(a, a).real for a in ops])
        assert np.abs(weights - choi_weights[:len(ops)]).max() < 1e-12
        assert kraus.discarded_weight == 0.0

        charge = popcount_charges(ch.dim)
        for a in ops:
            moduli = np.abs(a)
            own = charge == charge.flat[np.argmax(moduli)]
            assert moduli[~own].max(initial=0.0) <= 1e-12 * moduli.max()

        rebuilt = kraus_channel_matrix(kraus).matrix
        assert np.abs(rebuilt - cm.matrix).max() < 1e-12
        assert float(np.linalg.norm(cm.matrix - rebuilt, 2)) <= bound < 1e-10

        rev = reverse_channel(kraus, fixed_point_spectral(ch).rho_star)
        back = reverse_channel(rev.kraus, rev.rho_star)
        assert np.abs(kraus_channel_matrix(back.kraus).matrix - cm.matrix).max() < 1e-10

    def test_bound_covers_dropped_weight(self):
        # a second operator whose weight falls under rank_tol is dropped; the bound must
        # cover the map it leaves out, conj(B) (x) B with ||B||_F^2 = 1e-14
        d = 4
        b = np.zeros((d, d), dtype=complex)
        b[0, 1] = 1e-7
        stack = np.array([np.eye(d, dtype=complex), b])
        kraus, bound = kraus_from_stack(stack)
        assert len(kraus.operators) == 1
        assert kraus.discarded_weight == pytest.approx(1e-14, rel=1e-12)
        full = kraus_channel_matrix(KrausSet(operators=list(stack), dim=d)).matrix
        exact = float(np.linalg.norm(full - kraus_channel_matrix(kraus).matrix, 2))
        assert exact == pytest.approx(1e-14, rel=1e-6)
        assert exact <= bound


class TestSequenceProbability:
    def test_unitary_single_event(self, rng):
        u = haar_unitary(rng, 3)
        kraus = kraus_from_choi(choi_matrix(unitary_channel(u)))
        rho = random_density_matrix(3, rng)
        assert abs(sequence_probability([kraus.operators[0]], rho) - 1.0) < 1e-12

    def test_single_step_completeness(self, rng, small_point):
        ch, fp, kraus = engine_fixture(small_point, cycle_channel_cb)
        total = sum(sequence_probability([a], fp.rho_star) for a in kraus.operators)
        assert abs(total - 1.0) <= 1e-10

    def test_two_step_completeness(self, small_point):
        ch, fp, kraus = engine_fixture(small_point, cycle_channel_cb)
        total = sum(sequence_probability([a1, a2], fp.rho_star)
                    for a1 in kraus.operators for a2 in kraus.operators)
        assert abs(total - 1.0) <= 1e-9

    def test_probability_in_unit_interval(self, rng, small_point):
        ch, fp, kraus = engine_fixture(small_point, cycle_channel_cb)
        for a in kraus.operators:
            p = sequence_probability([a], fp.rho_star)
            assert -1e-12 <= p <= 1.0 + 1e-12


class TestPostInteractionState:
    def test_unitary_event(self, rng):
        u = haar_unitary(rng, 3)
        rho = random_density_matrix(3, rng)
        out, p = post_interaction_state(u, rho)
        assert abs(p - 1.0) < 1e-12
        assert np.abs(out - u @ rho @ u.conj().T).max() < 1e-12

    def test_projector_update(self, rng):
        rho = random_density_matrix(4, rng)
        proj = np.zeros((4, 4), dtype=complex)
        proj[0, 0] = proj[1, 1] = 1.0
        out, p = post_interaction_state(proj, rho)
        assert abs(p - (rho[0, 0] + rho[1, 1]).real) < 1e-12
        assert np.abs(out - proj @ rho @ proj / p).max() < 1e-12

    def test_mixture_reassembles_channel(self, rng, small_point):
        ch, _, kraus = engine_fixture(small_point, cycle_channel_cb)
        rho = random_density_matrix(ch.dim, rng)
        mix = np.zeros_like(rho)
        for a in kraus.operators:
            out, p = post_interaction_state(a, rho)
            mix = mix + p * out
        assert np.abs(mix - ch.apply(rho)).max() <= 1e-10

    def test_zero_probability_branch(self):
        rho = np.diag([1.0, 0.0]).astype(complex)
        kill = np.diag([0.0, 1.0]).astype(complex)
        with pytest.raises(ZeroProbabilityError):
            post_interaction_state(kill, rho)


class TestReverseChannel:
    def test_unitary_reversal_is_inverse(self, rng):
        u = haar_unitary(rng, 4)
        kraus = kraus_from_choi(choi_matrix(unitary_channel(u)))
        rev = reverse_channel(kraus, np.eye(4) / 4)
        a = rev.kraus.operators[0]
        udag = u.conj().T
        idx = np.unravel_index(np.argmax(np.abs(udag)), udag.shape)
        phase = a[idx] / udag[idx]
        assert np.abs(a - phase * udag).max() < 1e-10

    @pytest.mark.parametrize("maker", [cycle_channel_cb, cycle_channel_ac])
    def test_shares_fixed_point(self, small_point, maker):
        _, fp, kraus = engine_fixture(small_point, maker)
        rev = reverse_channel(kraus, fp.rho_star)
        assert trace_distance(rev.apply(fp.rho_star), fp.rho_star) <= 1e-9

    def test_two_step_detailed_balance(self, rng, small_point):
        _, fp, kraus = engine_fixture(small_point, cycle_channel_cb)
        rev = reverse_channel(kraus, fp.rho_star)
        n_ops = len(kraus.operators)
        for _ in range(50):
            a1, a2 = rng.integers(0, n_ops, size=2)
            p_fwd = sequence_probability([kraus.operators[a1], kraus.operators[a2]], fp.rho_star)
            p_rev = sequence_probability([rev.kraus.operators[a2], rev.kraus.operators[a1]],
                                         fp.rho_star)
            assert abs(p_fwd - p_rev) <= 1e-9

    def test_reversal_involution(self, rng, small_point):
        ch, fp, kraus = engine_fixture(small_point, cycle_channel_cb)
        rev = reverse_channel(kraus, fp.rho_star)
        back = reverse_channel(rev.kraus, fp.rho_star)
        for _ in range(10):
            rho = random_density_matrix(ch.dim, rng)
            assert np.abs(back.apply(rho) - ch.apply(rho)).max() <= 1e-8

    def test_adjoint_route_agrees(self, rng, small_point):
        _, fp, kraus = engine_fixture(small_point, cycle_channel_cb)
        rev = reverse_channel(kraus, fp.rho_star)
        rho = random_density_matrix(kraus.dim, rng)
        assert np.abs(rev.apply(rho) - rev.apply_adjoint_route(rho)).max() <= 1e-9

    @pytest.mark.parametrize("maker", [cycle_channel_cb, cycle_channel_ac])
    def test_ill_conditioned_fixed_point(self, maker):
        # a cold bath near its ground state: cond(rho_star) is 1e7 (CB) and 8e7 (AC),
        # which amplifies the solver's rounding in the reversed set
        spec = ChainSpec(n=4, E=[1.13, 1.301, 0.53, 6.782], J=[-0.61, -0.672, 0.525],
                         K=[0.696, 0.586, 0.6], F=[0.511, 0.216, 0.291])
        params = CycleParams(beta1=6.026, beta2=0.653, tau1=1.83, tau2=1.872)
        _, fp, kraus = engine_fixture((spec, params), maker)
        rev = reverse_channel(kraus, fp.rho_star)
        assert trace_distance(rev.rho_star, fp.rho_star) <= 1e-13
        assert rev.kraus.completeness_residual() <= 1e-10

    def test_rejects_non_fixed_state(self, rng, small_point):
        _, _, kraus = engine_fixture(small_point, cycle_channel_cb)
        with pytest.raises(NotFixedPointError):
            reverse_channel(kraus, random_density_matrix(kraus.dim, rng))

    def test_rejects_rank_deficient_state(self, rng, small_point):
        _, _, kraus = engine_fixture(small_point, cycle_channel_cb)
        psi = np.zeros(kraus.dim, dtype=complex)
        psi[0] = 1.0
        with pytest.raises(RankDeficientError):
            reverse_channel(kraus, np.outer(psi, psi.conj()))
