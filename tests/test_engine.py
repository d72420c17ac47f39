from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qcycle import (ChainSpec, ConfigError, CycleParams, build_hamiltonian,
                    check_density_matrix, cycle_operators, gibbs_state, kron,
                    partial_trace, random_density_matrix, run_cycle, trace_distance)
from qcycle.engine import cycle_ledger, replace_last_factor, start_energies
from qcycle.linalg import (HERMITICITY_ATOL, charge_groups, hermitian_part, hermitize,
                           popcount_charges)
from qcycle.limitcycle import (cold_half_cycle, cycle_channel_ac, cycle_channel_cb,
                               fixed_point_iterate, fixed_point_spectral, hot_half_cycle,
                               limit_cycle_states)
from conftest import dense_unitaries, point_operators, random_chain_spec, random_engine_point
from oracle_naive import NaiveCycle, total_magnetization

DIMS = [2, 2, 2]


def full_random_state(rng, n):
    return random_density_matrix(2**n, rng)


def evolve(u, rho):
    """The unitary strokes of run_cycle: rho -> u rho u^*."""
    return u @ rho @ u.conj().T


class TestCycleParams:
    def test_rejects_nonpositive_beta(self):
        with pytest.raises(ValueError):
            CycleParams(beta1=0.0, beta2=1.0, tau1=0.1, tau2=0.1)

    def test_rejects_negative_tau(self):
        with pytest.raises(ValueError):
            CycleParams(beta1=1.0, beta2=1.0, tau1=-0.1, tau2=0.1)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            CycleParams(beta1=1.0, beta2=1.0, tau1=float("inf"), tau2=0.1)

    @pytest.mark.parametrize("bad", ["1.0", True, None, 1j])
    def test_rejects_non_real_named(self, bad):
        for name in ("beta1", "beta2", "tau1", "tau2"):
            fields = dict(beta1=1.0, beta2=1.0, tau1=0.1, tau2=0.1)
            fields[name] = bad
            with pytest.raises(ConfigError, match=f"^{name}: must be a number, got "):
                CycleParams(**fields)


def stroke_1(rho, parts, ops):
    """run_cycle's post-stroke-1 state rho1."""
    return run_cycle(rho, parts, ops)[0].rho1


class TestThermalizeStrokes:
    """Strokes 1 and 3 as run_cycle runs them, with the bath states of cycle_operators."""

    def test_idempotent_on_product_input(self, rng, small_point):
        spec, params = small_point
        parts = build_hamiltonian(spec)
        ops = cycle_operators(parts, params)
        rho = kron(ops.sigma_a, random_density_matrix(4, rng))
        out = stroke_1(rho, parts, ops)
        assert np.abs(out - rho).max() <= 1e-14

    def test_projection_property(self, rng, small_point):
        spec, params = small_point
        parts = build_hamiltonian(spec)
        ops = cycle_operators(parts, params)
        once = stroke_1(full_random_state(rng, 3), parts, ops)
        twice = stroke_1(once, parts, ops)
        assert np.abs(twice - once).max() <= 1e-14

    def test_infinite_temperature_bath(self, rng, small_point):
        spec, params = small_point
        parts = build_hamiltonian(spec)
        ops = replace(cycle_operators(parts, params), sigma_a=gibbs_state(parts.h_a_local, 0.0))
        out = stroke_1(full_random_state(rng, 3), parts, ops)
        reduced_a = partial_trace(out, [0], DIMS)
        assert np.abs(reduced_a - np.eye(2) / 2).max() < 1e-14

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_stroke_1_is_kron_of_reduced_state(self, rng, n):
        # run_cycle symmetrizes Tr_A rho0, which returns the same bits for an exactly
        # Hermitian rho0, and tensors sigma_a in without a second pass over rho1
        spec, params = random_engine_point(rng, n)
        parts = build_hamiltonian(spec)
        ops = cycle_operators(parts, params)
        rho0 = hermitian_part(full_random_state(rng, n))
        expected = kron(ops.sigma_a, partial_trace(rho0, range(1, n), [2] * n))
        assert np.array_equal(stroke_1(rho0, parts, ops), expected)

    def test_stroke_1_rejects_non_hermitian_reduced_state(self, rng, small_point):
        # drift is judged on Tr_A rho0, the state stroke 1 keeps: 0.6 ATOL on each of the
        # two entries Tr_A sums into its [0, 1] is 1.2 ATOL there
        spec, params = small_point
        parts = build_hamiltonian(spec)
        ops = cycle_operators(parts, params)
        rho0 = hermitian_part(full_random_state(rng, 3))
        rho0[0, 1] += 0.6 * HERMITICITY_ATOL
        rho0[4, 5] += 0.6 * HERMITICITY_ATOL
        with pytest.raises(ValueError, match="deviates from Hermitian"):
            run_cycle(rho0, parts, ops)

    def test_b_stroke_sets_gibbs_and_keeps_rest(self, rng, small_point):
        spec, params = small_point
        parts = build_hamiltonian(spec)
        rho = full_random_state(rng, 3)
        out = replace_last_factor(rho, cycle_operators(parts, params).sigma_b, DIMS)
        sigma_b = gibbs_state(parts.h_b_local, params.beta2)
        assert trace_distance(partial_trace(out, [2], DIMS), sigma_b) < 1e-12
        before = partial_trace(rho, [0, 1], DIMS)
        after = partial_trace(out, [0, 1], DIMS)
        assert trace_distance(before, after) < 1e-12

    def test_outputs_are_density_matrices(self, rng, small_point):
        spec, params = small_point
        parts = build_hamiltonian(spec)
        ops = cycle_operators(parts, params)
        rho = full_random_state(rng, 3)
        for out in (stroke_1(rho, parts, ops),
                    replace_last_factor(rho, ops.sigma_b, DIMS),
                    evolve(dense_unitaries(ops)[0], rho)):
            check_density_matrix(out)


class TestUnitaryStroke:
    """Strokes 2 and 4: conjugation by the u1 and u2 of cycle_operators."""

    def test_zero_time_identity(self, rng, small_point):
        spec, _ = small_point
        params = CycleParams(beta1=1.0, beta2=0.75, tau1=0.0, tau2=0.0)
        ops = cycle_operators(build_hamiltonian(spec), params)
        rho = full_random_state(rng, 3)
        assert np.abs(evolve(dense_unitaries(ops)[0], rho) - rho).max() < 1e-14

    def test_magnetization_invariant(self, rng):
        params = CycleParams(beta1=1.0, beta2=0.75, tau1=1.7, tau2=1.7)
        for n in (3, 4):
            spec = random_chain_spec(np.random.default_rng(n), n)
            u1 = dense_unitaries(cycle_operators(build_hamiltonian(spec), params))[0]
            sz = total_magnetization(n)
            rho = full_random_state(rng, n)
            out = evolve(u1, rho)
            assert abs(np.trace(sz @ out) - np.trace(sz @ rho)) <= 1e-10

    def test_spectrum_preserved(self, rng, small_point):
        spec, params = small_point
        u1 = dense_unitaries(cycle_operators(build_hamiltonian(spec), params))[0]
        rho = full_random_state(rng, 3)
        out = evolve(u1, rho)
        assert np.abs(np.linalg.eigvalsh(out) - np.linalg.eigvalsh(rho)).max() <= 1e-10

    @pytest.mark.parametrize("tau", ["tau1", "tau2"])
    def test_overflowing_phase_named(self, tau):
        # the couplings and the durations are finite, but an eigenvalue of h_s times the
        # duration overflows: u1 used to come back full of NaN
        spec = ChainSpec(n=3, E=[1.0, 1.3, 2.0], J=[4e307, 0.5], K=[0.2, 0.1], F=[0.3, 0.2])
        times = {"tau1": 0.7, "tau2": 1.3, tau: 1e10}
        with pytest.raises(ConfigError, match=f"^{tau}: too long"):
            cycle_operators(build_hamiltonian(spec), CycleParams(beta1=1.0, beta2=0.75, **times))


class TestPopcountBlocks:
    """h_s conserves total S^Z, so cycle_operators builds u1 and u2 one popcount block at a time."""

    @pytest.mark.parametrize("n", range(3, 9))
    def test_unitaries_exactly_block_diagonal(self, rng, n):
        # a dense eigh of h_s would leave rounding of about 1e-16 between the blocks
        ops = point_operators(*random_engine_point(rng, n))
        between = popcount_charges(2**n) != 0
        for u in dense_unitaries(ops):
            assert np.count_nonzero(u[between]) == 0
        charge = popcount_charges(2 ** (n - 1))
        for ch in (cycle_channel_cb(ops), cycle_channel_ac(ops)):
            classes, groups = charge_groups(ch.kraus)
            assert len(classes) == n  # the channel splits: popcount 0 to n - 1 of the CB chain
            for s, ks in groups:
                assert np.count_nonzero(ch.kraus[ks][:, charge != s]) == 0

    def test_rejects_coupling_between_popcounts(self, small_point):
        spec, params = small_point
        parts = build_hamiltonian(spec)
        parts.h_s = parts.h_s + 0.1 * kron(kron(np.eye(2), np.eye(2)), [[0, 1], [1, 0]])
        with pytest.raises(ValueError, match="S\\^Z is not conserved"):
            cycle_operators(parts, params)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_stroke_states_match_oracle(self, rng, n):
        # the oracle evolves by expm's dense unitaries and uses explicit kron and trace loops
        spec, params = random_engine_point(rng, n)
        rho0 = full_random_state(rng, n)
        charge = popcount_charges(2**n)
        for q in np.unique(charge):  # every charge sector starts populated
            assert np.abs(rho0[charge == q]).max() > 1e-4
        parts = build_hamiltonian(spec)
        state, _ = run_cycle(rho0, parts, cycle_operators(parts, params))
        expected = NaiveCycle(spec, params).run(rho0)
        for got, want in zip((state.rho1, state.rho2, state.rho3, state.rho4), expected):
            assert np.abs(got - want).max() < 1e-12


class TestRunCycle:
    def test_decoupled_equilibrium_is_quiet(self, rng):
        spec = ChainSpec(n=3, E=[1.0, 1.5, 2.0], J=[0, 0], K=[0, 0], F=[0, 0])
        params = CycleParams(beta1=1.2, beta2=0.6, tau1=0.8, tau2=1.1)
        parts = build_hamiltonian(spec)
        sigma_a = gibbs_state(parts.h_a_local, params.beta1)
        sigma_b = gibbs_state(parts.h_b_local, params.beta2)
        rho0 = kron(kron(sigma_a, random_density_matrix(2, rng)), sigma_b)
        _, rec = run_cycle(rho0, parts, cycle_operators(parts, params))
        assert abs(rec.q_c) < 1e-14
        assert abs(rec.q_h) < 1e-14
        for w in (rec.w1, rec.w2, rec.w3, rec.w4, rec.w_ledger):
            assert abs(w) < 1e-14

    def test_zero_time_strokes(self, rng, small_point):
        spec, _ = small_point
        params = CycleParams(beta1=1.0, beta2=0.75, tau1=0.0, tau2=0.0)
        parts = build_hamiltonian(spec)
        state, rec = run_cycle(full_random_state(rng, 3), parts, cycle_operators(parts, params))
        assert np.abs(state.rho2 - state.rho1).max() < 1e-14
        assert np.abs(state.rho4 - state.rho3).max() < 1e-14
        sigma_a = gibbs_state(parts.h_a_local, params.beta1)
        sigma_b = gibbs_state(parts.h_b_local, params.beta2)
        assert trace_distance(partial_trace(state.rho4, [0], [2, 2, 2]), sigma_a) < 1e-12
        assert trace_distance(partial_trace(state.rho4, [2], [2, 2, 2]), sigma_b) < 1e-12

    def test_work_sum_consistency(self, rng, small_point):
        spec, params = small_point
        parts = build_hamiltonian(spec)
        _, rec = run_cycle(full_random_state(rng, 3), parts, cycle_operators(parts, params))
        assert abs(rec.w_total - (rec.w1 + rec.w2 + rec.w3 + rec.w4)) <= 1e-12

    def test_ledger_closes_for_any_state(self, rng):
        # heat inflows plus switch work must equal the cycle's energy change
        # exactly, far from the fixed point included
        for trial in range(5):
            spec, params = random_engine_point(rng, n=3 + trial % 2)
            parts = build_hamiltonian(spec)
            rho0 = full_random_state(rng, spec.n)
            state, rec = run_cycle(rho0, parts, cycle_operators(parts, params))
            energy_change = np.trace(parts.h_s @ (state.rho4 - rho0)).real
            assert abs(-rec.q_c - rec.q_h + rec.w_ledger - energy_change) < 1e-9

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_hot_stroke_output_exactly_hermitian(self, rng, n):
        # rho3 is not symmetrized: Tr_B of the exactly Hermitian rho2, tensored with the
        # real diagonal sigma_b, equals its conjugate transpose entry for entry
        spec, params = random_engine_point(rng, n)
        parts = build_hamiltonian(spec)
        ops = cycle_operators(parts, params)
        assert np.array_equal(ops.sigma_b, np.diag(np.diag(ops.sigma_b).real))
        state, _ = run_cycle(full_random_state(rng, n), parts, ops)
        assert np.array_equal(state.rho3, state.rho3.conj().T)

    def test_stroke_states_validity(self, rng, small_point):
        spec, params = small_point
        parts = build_hamiltonian(spec)
        state, _ = run_cycle(full_random_state(rng, 3), parts, cycle_operators(parts, params))
        for rho in (state.rho1, state.rho2, state.rho3, state.rho4):
            check_density_matrix(rho)

    def test_ledger_residual_vanishes_at_fixed_point(self, rng, small_point):
        spec, params = small_point
        parts = build_hamiltonian(spec)
        ops = cycle_operators(parts, params)
        ch = cycle_channel_cb(ops)
        fp = fixed_point_iterate(ch, random_density_matrix(4, rng), tol=1e-13)
        cycle = limit_cycle_states(fp.rho_star, parts, ops, tol=1e-13)
        _, rec = run_cycle(cycle.rho0, parts, ops)
        assert rec.first_law_residual_ledger < 1e-9

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_record_matches_matmul_definition(self, rng, n):
        spec, params = random_engine_point(rng, n)
        parts = build_hamiltonian(spec)
        ops = cycle_operators(parts, params)
        state, rec = run_cycle(full_random_state(rng, n), parts, ops)

        def expect(op, rho):
            return np.trace(op @ rho).real

        dims = [2] * n
        reference = {
            "q_c": expect(parts.h_a_local, partial_trace(state.rho0, [0], dims) - ops.sigma_a),
            "q_h": expect(parts.h_b_local, partial_trace(state.rho2, [n - 1], dims) - ops.sigma_b),
            "w1": expect(parts.h_ac, state.rho1),
            "w2": -expect(parts.h_ac, state.rho2),
            "w3": expect(parts.h_cb, state.rho3),
            "w4": -expect(parts.h_cb, state.rho4),
            "w_ledger": (expect(parts.h_ac, state.rho1) - expect(parts.h_ac, state.rho0)
                         + expect(parts.h_cb, state.rho3) - expect(parts.h_cb, state.rho2)),
        }
        for name, value in reference.items():
            assert abs(getattr(rec, name) - value) <= 1e-14, name
        energy_change = expect(parts.h_s, state.rho4 - state.rho0)
        assert abs(-rec.q_c - rec.q_h + rec.w_ledger - energy_change) <= 1e-12

        fp = fixed_point_spectral(cycle_channel_cb(ops))
        cycle = limit_cycle_states(fp.rho_star, parts, ops)
        assert run_cycle(cycle.rho0, parts, ops)[1].first_law_residual_ledger <= 1e-12

    def test_reuses_precomputed_operators(self, rng, small_point):
        spec, params = small_point
        parts = build_hamiltonian(spec)
        ops = cycle_operators(parts, params)
        rho0 = full_random_state(rng, 3)
        state_a, rec_a = run_cycle(rho0, parts, cycle_operators(parts, params))
        state_b, rec_b = run_cycle(rho0, parts, ops)
        assert np.abs(state_a.rho4 - state_b.rho4).max() == 0.0
        assert rec_a.q_c == rec_b.q_c


class TestCycleLedger:
    RECORD_FIELDS = ("q_c", "q_h", "w1", "w2", "w3", "w4", "w_total", "w_ledger")

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([3, 4, 5, 6]))
    def test_matches_full_chain_records(self, seed, n):
        # two cycles read off the CB states X and the AC states Z through the eight
        # observables, against cycle_record on run_cycle's full states; the second cycle's
        # start terms come from the first cycle's Z
        rng = np.random.default_rng(seed)
        spec, params = random_engine_point(rng, n)
        parts = build_hamiltonian(spec)
        ops = cycle_operators(parts, params)
        ledger = cycle_ledger(parts, ops)
        cold, hot = cold_half_cycle(ops), hot_half_cycle(ops)
        rho0 = full_random_state(rng, n)
        x = hermitize(partial_trace(rho0, range(1, n), [2] * n))
        start = start_energies(rho0, parts)
        for _ in range(2):
            state, want = run_cycle(rho0, parts, ops)
            z = hermitian_part(cold.apply(x))
            got, start = ledger.record(start, x, z)
            for name in self.RECORD_FIELDS:
                assert abs(getattr(got, name) - getattr(want, name)) < 1e-13, name
            # the two <h> terms of w_ledger: <h_cb> at rho2, and <h_ac> at rho4, the next rho0
            cb2 = float((ledger.on_cb[2] @ x.reshape(-1)).real)
            assert abs(cb2 - np.trace(parts.h_cb @ state.rho2).real) < 1e-13
            assert abs(start[1] - np.trace(parts.h_ac @ state.rho4).real) < 1e-13
            rho0, x = state.rho4, hermitian_part(hot.apply(z))
