from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qcycle import (ChainSpec, Channel, ConfigError, CycleParams, CycleRecord,
                    build_hamiltonian, check_density_matrix, cycle_operators, gibbs_state, kron,
                    partial_trace, random_density_matrix)
from qcycle import limitcycle
from qcycle.engine import _half_cycle_kraus, cycle_ledger, start_energies, stroke_4
from qcycle.linalg import charge_groups, hermitian_part, hermitize
from qcycle.limitcycle import (cycle_channel_ac, cycle_channel_cb, fixed_point_iterate,
                               fixed_point_spectral, limit_cycle_states)
from conftest import (carnot_point, dense_unitaries, point_operators, random_chain_spec,
                      random_engine_point)
from oracle_naive import (NaiveCycle, charge_labels, naive_ptrace_first, naive_ptrace_last,
                          total_magnetization)

DIMS = [2, 2, 2]
# n = 3 to 5 in the layout the CLI applies there, dense, and with every Kraus stage by class
# blocks, which the CLI reaches only from n = 8
LAYOUTS = ([pytest.param(n, False, id=str(n)) for n in (3, 4, 5)]
           + [pytest.param(n, True, id=f"{n}-class-blocks") for n in (3, 4, 5)])


def full_random_state(rng, n):
    return random_density_matrix(2**n, rng)


def evolve(u, rho):
    """A unitary stroke: rho -> u rho u^*."""
    return u @ rho @ u.conj().T


def reduced_cycle(rho0, parts, ops):
    """One cycle from rho0 as simulate runs it: ``(x, z, record)`` on the CB and AC states."""
    n = parts.n
    x = hermitize(partial_trace(rho0, range(1, n), [2] * n))
    z = hermitian_part(Channel(ops.cold).apply(x))
    rec, _ = cycle_ledger(parts, ops).record(x, z, start_energies(rho0, parts))
    return x, z, rec


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


class TestThermalizeStrokes:
    """Strokes 1 and 3 as the reduced states carry them: sigma_a (x) X and Z (x) sigma_b."""

    def test_idempotent_on_product_input(self, rng, small_point):
        # stroke 1 leaves sigma_a (x) X as it is: no heat reaches the cold bath, and the
        # switch-on term <h_ac> at rho1 is the start's <h_ac> at rho0
        spec, params = small_point
        parts = build_hamiltonian(spec)
        ops = cycle_operators(parts, params)
        rho0 = kron(ops.sigma_a, random_density_matrix(4, rng))
        x, _, rec = reduced_cycle(rho0, parts, ops)
        assert np.abs(kron(ops.sigma_a, x) - rho0).max() <= 1e-14
        assert abs(rec.q_c) <= 1e-14
        assert abs(rec.w1 - start_energies(rho0, parts)[1]) <= 1e-14

    def test_projection_property(self, rng, small_point):
        # starting from rho1 instead of rho0 keeps X and Z, so every term but the start's
        spec, params = small_point
        parts = build_hamiltonian(spec)
        ops = cycle_operators(parts, params)
        rho0 = random_density_matrix(8, rng)
        x, z, rec = reduced_cycle(rho0, parts, ops)
        x1, z1, rec1 = reduced_cycle(kron(ops.sigma_a, x), parts, ops)
        assert np.abs(x1 - x).max() <= 1e-14 and np.abs(z1 - z).max() <= 1e-14
        for name in ("q_h", "w1", "w2", "w3", "w4"):
            assert abs(getattr(rec1, name) - getattr(rec, name)) <= 1e-14, name
        assert abs(rec1.q_c) <= 1e-14

    def test_infinite_temperature_bath(self, rng, small_point):
        # with stroke 2 the identity, the AC state's A marginal is the bath's I/2
        spec, params = small_point
        parts = build_hamiltonian(spec)
        ops = replace(cycle_operators(parts, replace(params, tau1=0.0)),
                      sigma_a=gibbs_state(parts.h_a_local, 0.0))
        z = Channel(ops.cold).apply(random_density_matrix(4, rng))
        assert np.abs(partial_trace(z, [0], [2, 2]) - np.eye(2) / 2).max() < 1e-14

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_stroke_1_is_kron_of_reduced_state(self, rng, n):
        # simulate symmetrizes Tr_A rho0, which returns the same bits for an exactly Hermitian
        # rho0; sigma_a (x) X is the oracle's rho1, and the ledger reads <h_ac> there
        spec, params = random_engine_point(rng, n)
        parts = build_hamiltonian(spec)
        ops = cycle_operators(parts, params)
        rho0 = hermitian_part(random_density_matrix(2**n, rng))
        x, _, rec = reduced_cycle(rho0, parts, ops)
        assert np.array_equal(x, partial_trace(rho0, range(1, n), [2] * n))
        oracle = NaiveCycle(spec, params)
        states = oracle.run(rho0)
        assert np.abs(kron(ops.sigma_a, x) - states[0]).max() <= 1e-14
        assert abs(rec.w1 - oracle.record(rho0, states)["w1"]) <= 1e-13

    def test_b_stroke_sets_gibbs_and_keeps_rest(self, rng, small_point):
        # with stroke 4 the identity, stroke_4's state is stroke 3's Z (x) sigma_b
        spec, params = small_point
        parts = build_hamiltonian(spec)
        z = random_density_matrix(4, rng)
        out = stroke_4(z, cycle_operators(parts, replace(params, tau2=0.0)))
        sigma_b = gibbs_state(parts.h_b_local, params.beta2)
        assert np.abs(partial_trace(out, [2], DIMS) - sigma_b).max() < 1e-14
        assert np.abs(partial_trace(out, [0, 1], DIMS) - z).max() < 1e-14

    def test_outputs_are_density_matrices(self, rng, small_point):
        spec, params = small_point
        ops = point_operators(spec, params)
        x = random_density_matrix(4, rng)
        z = Channel(ops.cold).apply(x)
        for out in (z, Channel(ops.hot).apply(z), stroke_4(z, ops),
                    evolve(dense_unitaries(ops)[0], random_density_matrix(8, rng))):
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
        between = charge_labels(2**n) != 0
        for u in dense_unitaries(ops):
            assert np.count_nonzero(u[between]) == 0
        charge = charge_labels(2 ** (n - 1))
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

    @pytest.mark.parametrize("n, class_blocks", LAYOUTS)
    def test_stroke_states_match_oracle(self, rng, monkeypatch, n, class_blocks):
        # the states simulate carries against the oracle's four post-stroke states; the oracle
        # evolves by expm's dense unitaries and uses explicit kron and trace loops
        if class_blocks:
            monkeypatch.setattr(limitcycle, "CLASS_BLOCK_DIM", 1)
        spec, params = random_engine_point(rng, n)
        rho0 = full_random_state(rng, n)
        charge = charge_labels(2**n)
        for q in np.unique(charge):  # every charge sector starts populated
            assert np.abs(rho0[charge == q]).max() > 1e-4
        ops = point_operators(spec, params)
        x, z, _ = reduced_cycle(rho0, build_hamiltonian(spec), ops)
        rho1, rho2, rho3, rho4 = NaiveCycle(spec, params).run(rho0)
        d = 2 ** (n - 1)
        for got, want in ((kron(ops.sigma_a, x), rho1), (z, naive_ptrace_last(rho2, d, 2)),
                          (kron(z, ops.sigma_b), rho3), (stroke_4(z, ops), rho4),
                          (Channel(ops.hot).apply(z), naive_ptrace_first(rho4, 2, d))):
            assert np.abs(got - want).max() < 1e-12


class TestHalfCycleStacks:
    """``CycleOperators.cold`` and ``hot``, cut from the other fields on construction."""

    def test_replace_recuts_the_stacks(self, rng):
        # with both unitaries replaced by their adjoints, the stacks are those of the adjoint
        # blocks bit for bit, not the forward stacks left stale
        ops = point_operators(*random_engine_point(rng, 4))
        adjoints = {name: [b.conj().T for b in getattr(ops, name)]
                    for name in ("u1_blocks", "u2_blocks")}
        swapped = replace(ops, **adjoints)
        direct = SimpleNamespace(sigma_a=ops.sigma_a, sigma_b=ops.sigma_b, classes=ops.classes,
                                 **adjoints)
        for name, cold in (("cold", True), ("hot", False)):
            assert np.array_equal(getattr(swapped, name), _half_cycle_kraus(direct, cold=cold))
            assert not np.allclose(getattr(swapped, name), getattr(ops, name))


class TestRunCycle:
    """One cycle on the reduced states as simulate runs it, read through the ledger."""

    def test_decoupled_equilibrium_is_quiet(self, rng):
        spec = ChainSpec(n=3, E=[1.0, 1.5, 2.0], J=[0, 0], K=[0, 0], F=[0, 0])
        params = CycleParams(beta1=1.2, beta2=0.6, tau1=0.8, tau2=1.1)
        parts = build_hamiltonian(spec)
        sigma_a = gibbs_state(parts.h_a_local, params.beta1)
        sigma_b = gibbs_state(parts.h_b_local, params.beta2)
        rho0 = kron(kron(sigma_a, random_density_matrix(2, rng)), sigma_b)
        _, _, rec = reduced_cycle(rho0, parts, cycle_operators(parts, params))
        assert abs(rec.q_c) < 1e-14
        assert abs(rec.q_h) < 1e-14
        for w in (rec.w1, rec.w2, rec.w3, rec.w4, rec.w_ledger):
            assert abs(w) < 1e-14

    def test_zero_time_strokes(self, rng, small_point):
        spec, _ = small_point
        params = CycleParams(beta1=1.0, beta2=0.75, tau1=0.0, tau2=0.0)
        parts = build_hamiltonian(spec)
        ops = cycle_operators(parts, params)
        x, z, _ = reduced_cycle(full_random_state(rng, 3), parts, ops)
        assert np.abs(z - kron(ops.sigma_a, partial_trace(x, [0], [2, 2]))).max() < 1e-14
        rho4 = stroke_4(z, ops)
        assert np.abs(rho4 - kron(z, ops.sigma_b)).max() < 1e-14
        sigma_a = gibbs_state(parts.h_a_local, params.beta1)
        sigma_b = gibbs_state(parts.h_b_local, params.beta2)
        assert np.abs(partial_trace(rho4, [0], DIMS) - sigma_a).max() < 1e-12
        assert np.abs(partial_trace(rho4, [2], DIMS) - sigma_b).max() < 1e-12

    def test_work_sum_consistency(self, rng, small_point):
        spec, params = small_point
        parts = build_hamiltonian(spec)
        _, _, rec = reduced_cycle(full_random_state(rng, 3), parts, cycle_operators(parts, params))
        assert abs(rec.w_total - (rec.w1 + rec.w2 + rec.w3 + rec.w4)) <= 1e-12

    def test_ledger_closes_for_any_state(self, rng):
        # heat inflows plus switch work must equal the cycle's energy change, which the oracle
        # takes off its full-chain rho0 and rho4, far from the fixed point included
        for trial in range(5):
            spec, params = random_engine_point(rng, n=3 + trial % 2)
            parts = build_hamiltonian(spec)
            rho0 = full_random_state(rng, spec.n)
            _, _, rec = reduced_cycle(rho0, parts, cycle_operators(parts, params))
            oracle = NaiveCycle(spec, params)
            energy_change = oracle.record(rho0, oracle.run(rho0))["energy_change"]
            assert abs(-rec.q_c - rec.q_h + rec.w_ledger - energy_change) < 1e-12

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_hot_stroke_output_exactly_hermitian(self, rng, n):
        # Z (x) sigma_b, the state after stroke 3, needs no symmetrizing: the exactly Hermitian
        # Z tensored with the real diagonal sigma_b equals its conjugate transpose entry for
        # entry; so does every state simulate carries
        spec, params = random_engine_point(rng, n)
        parts = build_hamiltonian(spec)
        ops = cycle_operators(parts, params)
        assert np.array_equal(ops.sigma_b, np.diag(np.diag(ops.sigma_b).real))
        x, z, _ = reduced_cycle(full_random_state(rng, n), parts, ops)
        for rho in (x, z, kron(z, ops.sigma_b), stroke_4(z, ops),
                    hermitian_part(Channel(ops.hot).apply(z))):
            assert np.array_equal(rho, rho.conj().T)

    def test_stroke_states_validity(self, rng, small_point):
        spec, params = small_point
        parts = build_hamiltonian(spec)
        ops = cycle_operators(parts, params)
        x, z, _ = reduced_cycle(full_random_state(rng, 3), parts, ops)
        for rho in (x, z, stroke_4(z, ops), Channel(ops.hot).apply(z)):
            check_density_matrix(rho)

    def test_ledger_residual_vanishes_at_fixed_point(self, rng, small_point):
        spec, params = small_point
        parts = build_hamiltonian(spec)
        ops = cycle_operators(parts, params)
        ch = cycle_channel_cb(ops)
        fp = fixed_point_iterate(ch, random_density_matrix(4, rng), tol=1e-13)
        x, z = limit_cycle_states(fp.rho_star, ops, tol=1e-13)
        rec, _ = cycle_ledger(parts, ops).record(x, z)
        assert rec.first_law_residual_ledger < 1e-9

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_record_matches_matmul_definition(self, rng, n):
        # the ledger's record against the defining traces on the oracle's full-chain states
        spec, params = random_engine_point(rng, n)
        parts = build_hamiltonian(spec)
        ops = cycle_operators(parts, params)
        rho0 = full_random_state(rng, n)
        _, _, rec = reduced_cycle(rho0, parts, ops)
        oracle = NaiveCycle(spec, params)
        reference = oracle.record(rho0, oracle.run(rho0))
        for name in ("q_c", "q_h", "w1", "w2", "w3", "w4", "w_ledger"):
            assert abs(getattr(rec, name) - reference[name]) <= 1e-13, name
        assert abs(-rec.q_c - rec.q_h + rec.w_ledger - reference["energy_change"]) <= 1e-12

        fp = fixed_point_spectral(cycle_channel_cb(ops))
        closed, _ = cycle_ledger(parts, ops).record(*limit_cycle_states(fp.rho_star, ops))
        assert closed.first_law_residual_ledger <= 1e-12

    def test_reuses_precomputed_operators(self, rng, small_point):
        spec, params = small_point
        parts = build_hamiltonian(spec)
        ledger_a = cycle_ledger(parts, cycle_operators(parts, params))
        ledger_b = cycle_ledger(parts, cycle_operators(parts, params))
        assert np.array_equal(ledger_a.on_cb, ledger_b.on_cb)
        assert np.array_equal(ledger_a.on_ac, ledger_b.on_ac)
        assert ledger_a.bath_energies == ledger_b.bath_energies


class TestCycleLedger:
    RECORD_FIELDS = ("q_c", "q_h", "w1", "w2", "w3", "w4", "w_total", "w_ledger")

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([3, 4, 5, 6]))
    def test_matches_full_chain_records(self, seed, n):
        self.check_full_chain_records(seed, n)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([3, 4, 5, 6]))
    def test_matches_full_chain_records_by_class_blocks(self, seed, n):
        # the same, with every Kraus stage applied by class blocks (LAYOUTS)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(limitcycle, "CLASS_BLOCK_DIM", 1)
            self.check_full_chain_records(seed, n)

    def check_full_chain_records(self, seed, n):
        # two cycles read off the CB states X and the AC states Z through the eight
        # observables, against the oracle's defining traces on its full-chain states; the
        # second cycle's start terms come from the first cycle's Z
        rng = np.random.default_rng(seed)
        spec, params = random_engine_point(rng, n)
        parts = build_hamiltonian(spec)
        ops = cycle_operators(parts, params)
        ledger = cycle_ledger(parts, ops)
        cold, hot = Channel(ops.cold), Channel(ops.hot)
        oracle = NaiveCycle(spec, params)
        rho0 = full_random_state(rng, n)
        x = hermitize(partial_trace(rho0, range(1, n), [2] * n))
        start = start_energies(rho0, parts)
        for _ in range(2):
            states = oracle.run(rho0)
            want = oracle.record(rho0, states)
            z = hermitian_part(cold.apply(x))
            got, start = ledger.record(x, z, start)
            for name in self.RECORD_FIELDS:
                assert abs(getattr(got, name) - want[name]) < 1e-13, name
            # the two <h> terms of w_ledger: <h_cb> at rho2, and <h_ac> at rho4, the next rho0
            cb2 = float((ledger.on_cb[2] @ x.reshape(-1)).real)
            assert abs(cb2 - np.trace(oracle.parts["h_cb"] @ states[1]).real) < 1e-13
            assert abs(start[1] - np.trace(oracle.parts["h_ac"] @ states[3]).real) < 1e-13
            rho0, x = states[3], hermitian_part(hot.apply(z))

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([3, 4, 5]),
           point=st.sampled_from(["generic", "matched", "tau1=0", "tau2=0"]))
    def test_closed_record_matches_full_chain_fixed_point(self, seed, n, point):
        # report's record: limit_cycle_states, then the ledger's closed cycle rho0 = rho4,
        # against the oracle's cycle from sigma_a (x) x, whose rho4 is its rho0
        rng = np.random.default_rng(seed)
        spec, params = (carnot_point if point == "matched" else random_engine_point)(rng, n)
        if point.endswith("=0"):
            params = replace(params, **{point[:4]: 0.0})
        parts = build_hamiltonian(spec)
        ops = cycle_operators(parts, params)
        x, z = limit_cycle_states(fixed_point_spectral(cycle_channel_cb(ops)).rho_star, ops)
        got, _ = cycle_ledger(parts, ops).record(x, z)
        oracle = NaiveCycle(spec, params)
        states = oracle.run(kron(ops.sigma_a, x))
        want = oracle.record(states[3], states)
        for f in fields(CycleRecord):
            if f.name != "delta_prev":
                assert abs(getattr(got, f.name) - want[f.name]) <= 1e-13, f.name
        assert got.first_law_residual_ledger <= 1e-12
