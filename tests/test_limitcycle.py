import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qcycle import (Channel, ClosureViolationError, DegenerateFixedPointError,
                    build_hamiltonian, channel_matrix, check_density_matrix, cold_half_cycle,
                    cycle_channel_ac, cycle_channel_cb, fixed_point_iterate,
                    fixed_point_spectral, gibbs_state, kron, limit_cycle_states,
                    partial_trace, random_density_matrix, total_magnetization,
                    trace_distance, unvec, vec)
from qcycle import CycleParams, ansatz_state, commutator_norm
from conftest import carnot_point, random_engine_point
from oracle_naive import NaiveCycle, naive_channel_matrix


def identity_channel(d):
    return Channel(np.eye(d)[None], label="id")


def replacement_channel(sigma):
    """rho -> sigma Tr[rho], with the Kraus operators sqrt(p_a) |v_a><j|."""
    d = sigma.shape[0]
    p, v = np.linalg.eigh(sigma)
    return Channel([np.sqrt(p[a]) * np.outer(v[:, a], np.eye(d)[j])
                    for a in range(d) for j in range(d)], label="replace")


class TestChannelProperties:
    @pytest.mark.parametrize("maker", [cycle_channel_cb, cycle_channel_ac])
    def test_cptp_on_random_states(self, rng, small_point, maker):
        spec, params = small_point
        ch = maker(build_hamiltonian(spec), params)
        for _ in range(100):
            out = ch.apply(random_density_matrix(ch.dim, rng))
            assert abs(np.trace(out) - 1.0) <= 1e-10
            assert np.abs(out - out.conj().T).max() <= 1e-10
            assert np.linalg.eigvalsh((out + out.conj().T) / 2).min() >= -1e-9

    def test_decoupled_zero_time_channel_replaces_b_only(self, rng, decoupled_point):
        spec, params = decoupled_point
        parts = build_hamiltonian(spec)
        ch = cycle_channel_cb(parts, params)
        rho_cb = random_density_matrix(4, rng)
        sigma_b = gibbs_state(parts.h_b_local, params.beta2)
        expected = kron(partial_trace(rho_cb, [0], [2, 2]), sigma_b)
        assert np.abs(ch.apply(rho_cb) - expected).max() < 1e-14

    def test_repeated_apply_matches_matrix_power(self, rng, small_point):
        spec, params = small_point
        ch = cycle_channel_cb(build_hamiltonian(spec), params)
        cm = channel_matrix(ch)
        rho = random_density_matrix(ch.dim, rng)
        by_apply = rho
        for _ in range(5):
            by_apply = ch.apply(by_apply)
        by_matrix = unvec(np.linalg.matrix_power(cm, 5) @ vec(rho), ch.dim)
        assert np.abs(by_apply - by_matrix).max() <= 1e-9


class TestChannelMethods:
    def test_match_loop_sums(self, rng, small_point):
        # the stacked products against the per-operator sums they replace
        spec, params = small_point
        ch = cycle_channel_ac(build_hamiltonian(spec), params)
        ops = list(ch.kraus)
        rho = random_density_matrix(ch.dim, rng)
        x = rng.normal(size=(ch.dim, ch.dim)) + 1j * rng.normal(size=(ch.dim, ch.dim))
        assert ch.dim == 4 and len(ops) == 16
        assert np.abs(ch.apply(rho) - sum(a @ rho @ a.conj().T for a in ops)).max() < 1e-14
        assert np.abs(ch.adjoint().apply(x) - sum(a.conj().T @ x @ a for a in ops)).max() < 1e-13
        loop = float(np.abs(sum(a.conj().T @ a for a in ops) - np.eye(ch.dim)).max())
        assert abs(ch.completeness_residual() - loop) < 1e-14


class TestChannelMatrix:
    def test_identity_channel(self):
        cm = channel_matrix(identity_channel(3))
        assert np.abs(cm - np.eye(9)).max() == 0.0

    def test_unitary_channel_moduli(self, rng):
        h = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        u = np.linalg.qr(h)[0]
        cm = channel_matrix(Channel(u[None]))
        assert np.abs(np.abs(np.linalg.eigvals(cm)) - 1.0).max() < 1e-12

    def test_matrix_reproduces_apply(self, rng, small_point):
        spec, params = small_point
        ch = cycle_channel_ac(build_hamiltonian(spec), params)
        cm = channel_matrix(ch)
        for _ in range(5):
            rho = random_density_matrix(ch.dim, rng)
            assert np.abs(unvec(cm @ vec(rho), ch.dim) - ch.apply(rho)).max() <= 1e-11


class TestKrausForm:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_matches_oracle(self, rng, n):
        spec, params = random_engine_point(rng, n)
        parts = build_hamiltonian(spec)
        oracle = NaiveCycle(spec, params)
        for ch, naive in ((cycle_channel_cb(parts, params), oracle.apply_cb),
                          (cycle_channel_ac(parts, params), oracle.apply_ac),
                          (cold_half_cycle(parts, params), oracle.apply_cold)):
            for _ in range(3):
                rho = random_density_matrix(ch.dim, rng)
                assert np.abs(ch.apply(rho) - naive(rho)).max() < 1e-11

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_matrix_matches_tabulated_apply(self, rng, n):
        spec, params = random_engine_point(rng, n)
        parts = build_hamiltonian(spec)
        for maker in (cycle_channel_cb, cycle_channel_ac):
            ch = maker(parts, params)
            assert np.abs(channel_matrix(ch) - naive_channel_matrix(ch)).max() < 1e-13

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([3, 4]))
    def test_kraus_properties(self, seed, n):
        spec, params = random_engine_point(np.random.default_rng(seed), n)
        parts = build_hamiltonian(spec)
        gaps = []
        for maker in (cycle_channel_cb, cycle_channel_ac):
            ch = maker(parts, params)
            assert len(ch.kraus) <= 16
            completeness = np.einsum("kji,kjl->il", ch.kraus.conj(), ch.kraus)
            assert np.abs(completeness - np.eye(ch.dim)).max() < 1e-12
            moduli = np.sort(np.abs(np.linalg.eigvals(channel_matrix(ch))))
            gaps.append(1.0 - moduli[-2])
        # CB = BA and AC = AB share their spectrum
        assert abs(gaps[0] - gaps[1]) < 1e-10


class TestFixedPointIterate:
    def test_identity_converges_immediately(self, rng):
        rho = random_density_matrix(4, rng)
        res = fixed_point_iterate(identity_channel(4), rho)
        assert res.converged and res.iterations == 1
        assert trace_distance(res.rho_star, rho) < 1e-12

    def test_unique_fixed_point_from_two_starts(self, rng, small_point):
        spec, params = small_point
        ch = cycle_channel_cb(build_hamiltonian(spec), params)
        tol = 1e-11
        a = fixed_point_iterate(ch, random_density_matrix(4, rng), tol=tol)
        b = fixed_point_iterate(ch, random_density_matrix(4, rng), tol=tol)
        assert a.converged and b.converged
        assert trace_distance(a.rho_star, b.rho_star) <= 10 * tol

    def test_matched_bath_fixed_point_is_ansatz(self, rng):
        spec, params = carnot_point(rng, 4)
        parts = build_hamiltonian(spec)
        ch = cycle_channel_cb(parts, params)
        tol = 1e-11
        res = fixed_point_iterate(ch, random_density_matrix(ch.dim, rng), tol=tol)
        ansatz_cb = partial_trace(ansatz_state(spec, params), range(1, spec.n), [2] * spec.n)
        assert trace_distance(res.rho_star, ansatz_cb) <= 10 * tol

    def test_non_convergence_returns_history(self, rng, small_point):
        spec, params = small_point
        ch = cycle_channel_cb(build_hamiltonian(spec), params)
        res = fixed_point_iterate(ch, random_density_matrix(4, rng), tol=1e-14, max_iter=3)
        assert not res.converged
        assert res.iterations == 3
        assert len(res.delta_history) == 3
        check_density_matrix(res.rho_star)

    @pytest.mark.parametrize("tol", [0.0, -1e-10, float("nan")])
    def test_rejects_non_positive_tol(self, rng, tol):
        with pytest.raises(ValueError, match="tol must be positive"):
            fixed_point_iterate(identity_channel(2), random_density_matrix(2, rng), tol=tol)

    def test_tail_deltas_decreasing(self, rng, small_point):
        spec, params = small_point
        ch = cycle_channel_cb(build_hamiltonian(spec), params)
        res = fixed_point_iterate(ch, random_density_matrix(4, rng), tol=1e-12)
        tail = res.delta_history[-10:]
        assert all(b <= a + 1e-12 for a, b in zip(tail, tail[1:]))


class TestFixedPointSpectral:
    def test_replacement_channel(self, rng):
        sigma = random_density_matrix(3, rng)
        res = fixed_point_spectral(replacement_channel(sigma))
        assert trace_distance(res.rho_star, sigma) < 1e-12
        assert abs(res.spectral_gap - 1.0) < 1e-12

    @pytest.mark.parametrize("maker", [cycle_channel_cb, cycle_channel_ac])
    def test_agrees_with_iteration(self, rng, small_point, maker):
        spec, params = small_point
        ch = maker(build_hamiltonian(spec), params)
        tol = 1e-11
        spectral = fixed_point_spectral(ch)
        iterated = fixed_point_iterate(ch, random_density_matrix(ch.dim, rng), tol=tol)
        assert spectral.spectral_gap > 1e-6
        assert trace_distance(spectral.rho_star, iterated.rho_star) <= 10 * tol
        assert trace_distance(ch.apply(spectral.rho_star), spectral.rho_star) <= 10 * tol

    def test_zero_coupling_degenerate(self, decoupled_point):
        spec, params = decoupled_point
        ch = cycle_channel_cb(build_hamiltonian(spec), params)
        with pytest.raises(DegenerateFixedPointError) as err:
            fixed_point_spectral(ch)
        assert len(err.value.eigenvalues) > 1
        assert err.value.result is not None and err.value.result.degenerate


class TestLimitCycleStates:
    def test_closure_at_converged_point(self, rng, small_point):
        spec, params = small_point
        parts = build_hamiltonian(spec)
        ch = cycle_channel_cb(parts, params)
        res = fixed_point_iterate(ch, random_density_matrix(4, rng), tol=1e-12)
        cycle = limit_cycle_states(res.rho_star, parts, params, tol=1e-10)
        assert trace_distance(partial_trace(cycle.rho4, [1, 2], [2, 2, 2]), res.rho_star) <= 1e-9
        for rho in (cycle.rho1, cycle.rho2, cycle.rho3, cycle.rho4):
            check_density_matrix(rho)

    def test_matched_bath_states_commute_with_magnetization(self, rng):
        spec, params = carnot_point(rng, 3)
        parts = build_hamiltonian(spec)
        ansatz_cb = partial_trace(ansatz_state(spec, params), range(1, spec.n), [2] * spec.n)
        cycle = limit_cycle_states(ansatz_cb, parts, params, tol=1e-10)
        sz = total_magnetization(spec.n)
        for rho in (cycle.rho1, cycle.rho2, cycle.rho3, cycle.rho4):
            assert commutator_norm(rho, sz) < 1e-10

    def test_non_fixed_point_rejected(self, rng, small_point):
        spec, params = small_point
        parts = build_hamiltonian(spec)
        with pytest.raises(ClosureViolationError):
            limit_cycle_states(random_density_matrix(4, rng), parts, params, tol=1e-10)

    def test_decoupled_zero_time_any_c_state_closes(self, rng, decoupled_point):
        # the untouched middle qubit makes every diagonal-in-C product close
        spec, params = decoupled_point
        parts = build_hamiltonian(spec)
        sigma_b = gibbs_state(parts.h_b_local, params.beta2)
        rho_cb = kron(random_density_matrix(2, rng), sigma_b)
        limit_cycle_states(rho_cb, parts, params, tol=1e-10)


class TestEnginePoints:
    def test_generic_points_converge_and_agree(self, rng):
        for n in (3, 4):
            spec, params = random_engine_point(rng, n)
            ch = cycle_channel_cb(build_hamiltonian(spec), params)
            tol = 1e-11
            iterated = fixed_point_iterate(ch, random_density_matrix(ch.dim, rng), tol=tol)
            spectral = fixed_point_spectral(ch)
            assert iterated.converged
            if spectral.spectral_gap > 1e-6:
                assert trace_distance(iterated.rho_star, spectral.rho_star) <= 1e-9
