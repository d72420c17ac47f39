import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qcycle import (ChainSpec, CriteriaViolatedError, CycleParams, ansatz_state,
                    build_hamiltonian, cold_half_cycle, commutator_norm, cycle_channel_ac,
                    cycle_channel_cb, cycle_operators, fixed_point_iterate,
                    fixed_point_spectral, gibbs_state, kron, limit_cycle_report,
                    limit_cycle_states, magnetization_gibbs, partial_trace,
                    random_density_matrix, trace_distance)
from conftest import carnot_point, point_operators, random_chain_spec, random_engine_point


def solved_report(spec, params, tol=1e-12):
    parts = build_hamiltonian(spec)
    ops = cycle_operators(parts, params)
    fp = fixed_point_spectral(cycle_channel_cb(ops))
    cycle = limit_cycle_states(fp.rho_star, parts, ops, tol=tol)
    return limit_cycle_report(cycle, parts, spec, params, fp.spectral_gap, ops)


class TestCycleIdentities:
    """The identities the paper rests on, at the limit cycle of random working points."""

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([3, 4, 5]))
    def test_first_law_heat_ratio_and_cptp(self, seed, n):
        spec, params = random_engine_point(np.random.default_rng(seed), n)
        parts = build_hamiltonian(spec)
        ops = cycle_operators(parts, params)
        for maker in (cycle_channel_cb, cycle_channel_ac, cold_half_cycle):
            assert maker(ops).completeness_residual() <= 1e-12
        fp = fixed_point_spectral(cycle_channel_cb(ops))
        cycle = limit_cycle_states(fp.rho_star, parts, ops)
        report = limit_cycle_report(cycle, parts, spec, params, fp.spectral_gap, ops)
        assert report.first_law_residual <= 1e-9  # the ledger's first law
        assert report.eq18_residual <= 1e-8  # |q_c/E_1 + q_h/E_N|


class TestLimitCycleReport:
    def test_identities_on_generic_point(self, small_point):
        spec, params = small_point
        report = solved_report(spec, params)
        assert report.eq18_residual < 1e-10
        assert report.first_law_residual < 1e-10
        assert abs(report.eta - report.eta_predicted) < 1e-10

    def test_eta_prediction_from_end_gaps(self, small_point):
        spec, params = small_point  # E_1 = 1, E_N = 2
        report = solved_report(spec, params)
        assert report.eta_predicted == 0.5

    def test_carnot_eta_from_bath_ratio(self):
        # beta1 = 2, beta2 = 1 halves the reversible bound
        spec = ChainSpec(n=3, E=[1.0, 1.1, 2.0], J=[0.3, 0.4], K=[0.1, 0.2], F=[0.2, 0.3])
        params = CycleParams(beta1=2.0, beta2=1.0, tau1=0.8, tau2=1.2)
        report = solved_report(spec, params)  # beta1 E_1 = beta2 E_N: matched baths
        assert report.carnot_eta == 0.5
        assert np.isnan(report.eta)
        assert report.ansatz_distance is not None and report.ansatz_distance < 1e-10

    def test_zero_heat_on_decoupled_chain(self, rng, decoupled_point):
        spec, params = decoupled_point
        parts = build_hamiltonian(spec)
        ops = cycle_operators(parts, params)
        fp = fixed_point_iterate(cycle_channel_cb(ops), random_density_matrix(4, rng), tol=1e-12)
        assert fp.converged
        cycle = limit_cycle_states(fp.rho_star, parts, ops, tol=1e-10)
        report = limit_cycle_report(cycle, parts, spec, params, float("nan"), ops)
        assert np.isnan(report.eta)
        assert abs(report.q_c_star) < 1e-13
        assert abs(report.q_h_star) < 1e-13

    def test_serialization_shape(self, small_point):
        spec, params = small_point
        doc = solved_report(spec, params).to_dict()
        assert set(doc) == {"q_c_star", "q_h_star", "w_star_paper", "w_star_ledger",
                            "eta", "eta_predicted", "carnot_eta", "eq18_residual",
                            "first_law_residual", "spectral_gap"}

    def test_serialization_includes_conditional_field(self, rng):
        spec, params = carnot_point(rng, 3)
        report = solved_report(spec, params)
        assert np.isnan(report.eta)  # matched baths carry no heat
        assert "ansatz_distance" in report.to_dict()


class TestOperatingModes:
    def test_heat_sign_follows_bath_gap_balance(self, rng):
        # the hot-side heat changes sign exactly where beta2 E_N crosses
        # beta1 E_1, and the efficiency magnitude is set by the end gaps alone
        checked = 0
        for _ in range(8):
            n = int(rng.integers(3, 5))
            spec = random_chain_spec(rng, n)
            params = CycleParams(beta1=rng.uniform(0.5, 3.0), beta2=rng.uniform(0.2, 1.0),
                                 tau1=rng.uniform(0.3, 2.0), tau2=rng.uniform(0.3, 2.0))
            balance = params.beta2 * spec.E[-1] - params.beta1 * spec.E[0]
            if abs(balance) < 0.05:
                continue  # too close to the crossover for a stable sign
            report = solved_report(spec, params)
            if abs(report.q_h_star) < 1e-10:  # too little heat for a stable sign
                continue
            assert np.sign(report.q_h_star) == np.sign(balance)
            assert abs(abs(report.w_star_ledger) / abs(report.q_h_star)
                       - abs(1.0 - spec.E[0] / spec.E[-1])) < 1e-8
            checked += 1
        assert checked >= 4  # the draw must actually exercise the claim


class TestAnsatz:
    def test_closed_form_product(self):
        spec = ChainSpec(n=3, E=[1.0, 1.4, 2.0], J=[0.2, 0.3], K=[0.1, 0.1], F=[0.2, 0.1])
        params = CycleParams(beta1=1.0, beta2=0.5, tau1=0.5, tau2=0.5)
        kappa = 1.0
        site = np.diag([np.exp(-kappa / 2), np.exp(kappa / 2)]).astype(complex)
        site /= np.trace(site)
        expected = kron(kron(site, site), site)
        assert np.abs(ansatz_state(spec, params) - expected).max() < 1e-14

    def test_kappa_zero_is_maximally_mixed(self):
        assert np.abs(magnetization_gibbs(3, 0.0) - np.eye(8) / 8).max() < 1e-15

    def test_criteria_enforced(self, small_point):
        spec, params = small_point  # beta1 E_1 = 1.0, beta2 E_N = 1.5
        with pytest.raises(CriteriaViolatedError):
            ansatz_state(spec, params)

    def test_commutes_with_chain_hamiltonian(self, rng):
        spec, params = carnot_point(rng, 4)
        parts = build_hamiltonian(spec)
        assert commutator_norm(ansatz_state(spec, params), parts.h_s) < 1e-10

    def test_invariant_under_cycle_channel(self, rng):
        spec, params = carnot_point(rng, 3)
        ch = cycle_channel_cb(point_operators(spec, params))
        ansatz_cb = partial_trace(ansatz_state(spec, params), range(1, spec.n), [2] * spec.n)
        assert trace_distance(ch.apply(ansatz_cb), ansatz_cb) < 1e-12

    def test_matches_end_bath_gibbs_factors(self, rng):
        spec, params = carnot_point(rng, 3)
        parts = build_hamiltonian(spec)
        full = ansatz_state(spec, params)
        assert trace_distance(partial_trace(full, [0], [2, 2, 2]),
                              gibbs_state(parts.h_a_local, params.beta1)) < 1e-12
        assert trace_distance(partial_trace(full, [2], [2, 2, 2]),
                              gibbs_state(parts.h_b_local, params.beta2)) < 1e-12
