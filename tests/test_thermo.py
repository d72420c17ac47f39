import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qcycle import (ChainSpec, Channel, CycleParams, build_hamiltonian, cycle_channel_ac,
                    cycle_channel_cb, cycle_operators, fixed_point_iterate,
                    fixed_point_spectral, gibbs_state, kron, limit_cycle_report,
                    limit_cycle_states, magnetization_gibbs, partial_trace,
                    random_density_matrix, trace_distance)
from qcycle.engine import cycle_ledger
from qcycle.thermo import LimitCycleReport
from conftest import carnot_point, point_operators, random_chain_spec, random_engine_point
from oracle_naive import commutator_norm, total_magnetization


def solved_report(spec, params, tol=1e-12):
    parts = build_hamiltonian(spec)
    ops = cycle_operators(parts, params)
    fp = fixed_point_spectral(cycle_channel_cb(ops))
    x, z = limit_cycle_states(fp.rho_star, ops, tol=tol)
    return limit_cycle_report(x, z, cycle_ledger(parts, ops), spec, params, fp.spectral_gap)


class TestCycleIdentities:
    """The identities the paper rests on, at the limit cycle of random working points."""

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([3, 4, 5]))
    def test_first_law_heat_ratio_and_cptp(self, seed, n):
        spec, params = random_engine_point(np.random.default_rng(seed), n)
        parts = build_hamiltonian(spec)
        ops = cycle_operators(parts, params)
        for ch in (cycle_channel_cb(ops), cycle_channel_ac(ops), Channel(ops.cold)):
            assert ch.completeness_residual() <= 1e-12
        fp = fixed_point_spectral(cycle_channel_cb(ops))
        x, z = limit_cycle_states(fp.rho_star, ops)
        report = limit_cycle_report(x, z, cycle_ledger(parts, ops), spec, params, fp.spectral_gap)
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
        x, z = limit_cycle_states(fp.rho_star, ops, tol=1e-10)
        report = limit_cycle_report(x, z, cycle_ledger(parts, ops), spec, params, float("nan"))
        assert np.isnan(report.eta)
        assert abs(report.q_c_star) < 1e-13
        assert abs(report.q_h_star) < 1e-13

    def test_serialization_shape(self, small_point):
        spec, params = small_point
        doc = solved_report(spec, params).to_dict()
        assert set(doc) == {"q_c_star", "q_h_star", "w_star_paper", "w_star_ledger",
                            "eta", "eta_predicted", "carnot_eta", "eq18_residual",
                            "first_law_residual", "spectral_gap"}

    def test_serialization_follows_dataclass_fields(self):
        names = [f.name for f in dataclasses.fields(LimitCycleReport)]
        report = LimitCycleReport(*[0.5] * (len(names) - 1))
        report.eta = float("nan")
        doc = report.to_dict()
        assert list(doc) == names[:-1] and names[-1] == "ansatz_distance"
        assert np.isnan(doc["eta"])  # an undefined efficiency is kept, as NaN
        report.ansatz_distance = 0.25
        assert list(report.to_dict()) == names
        assert report.to_dict()["ansatz_distance"] == 0.25

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
        full = magnetization_gibbs(spec.n, params.beta1 * spec.E[0])
        assert np.abs(full - expected).max() < 1e-14

    def test_kappa_zero_is_maximally_mixed(self):
        assert np.abs(magnetization_gibbs(3, 0.0) - np.eye(8) / 8).max() < 1e-15

    @pytest.mark.parametrize("n", [3, 6])
    def test_matches_dense_magnetization(self, n):
        # n/2 - popcount(k) is the diagonal of total_magnetization(n) exactly: sums of halves
        w = np.exp(-0.8 * np.diag(total_magnetization(n)).real)
        assert np.array_equal(magnetization_gibbs(n, 0.8), np.diag(w / w.sum()).astype(complex))

    def test_commutes_with_chain_hamiltonian(self, rng):
        spec, params = carnot_point(rng, 4)
        parts = build_hamiltonian(spec)
        full = magnetization_gibbs(spec.n, params.beta1 * spec.E[0])
        assert commutator_norm(full, parts.h_s) < 1e-10

    def test_invariant_under_cycle_channel(self, rng):
        spec, params = carnot_point(rng, 3)
        ch = cycle_channel_cb(point_operators(spec, params))
        full = magnetization_gibbs(spec.n, params.beta1 * spec.E[0])
        ansatz_cb = partial_trace(full, range(1, spec.n), [2] * spec.n)
        assert trace_distance(ch.apply(ansatz_cb), ansatz_cb) < 1e-12

    def test_matches_end_bath_gibbs_factors(self, rng):
        spec, params = carnot_point(rng, 3)
        parts = build_hamiltonian(spec)
        full = magnetization_gibbs(spec.n, params.beta1 * spec.E[0])
        assert trace_distance(partial_trace(full, [0], [2, 2, 2]),
                              gibbs_state(parts.h_a_local, params.beta1)) < 1e-12
        assert trace_distance(partial_trace(full, [2], [2, 2, 2]),
                              gibbs_state(parts.h_b_local, params.beta2)) < 1e-12
