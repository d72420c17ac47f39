"""Acceptance suite: every criterion at its stated tolerance, desk scale.

One test per criterion; each prints a single PASS/FAIL line (run pytest
with ``-s`` to see them stream). Criteria 1-5 share one ensemble of twenty
random working points on chains of 3 to 6 qubits.
"""

import json
from types import SimpleNamespace

import numpy as np
import pytest

from qcycle import (DegenerateFixedPointError, build_hamiltonian,
                    cycle_channel_ac, cycle_channel_cb, cycle_operators,
                    fixed_point_iterate, fixed_point_spectral, kraus_from_stack,
                    limit_cycle_states, partial_trace,
                    random_density_matrix, reverse_channel, sequence_probability,
                    trace_distance)
from qcycle import ChainSpec, CycleParams, magnetization_gibbs
from qcycle.cli import main as cli_main
from qcycle.engine import cycle_ledger
from conftest import carnot_point, dense_unitaries, point_operators, random_engine_point
from oracle_naive import (NaiveCycle, commutator_norm, dense_kraus, naive_channel_matrix,
                          naive_choi, total_magnetization)

ENSEMBLE_CHAIN_SIZES = [3] * 8 + [4] * 6 + [5] * 4 + [6] * 2  # twenty points
SOLVER_TOL = 1e-12
SOLVER_MAX_ITER = 100_000


def verdict(number, description, failures):
    ok = not failures
    print(f"ACCEPTANCE {number:2d} {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {number}: " + "; ".join(str(f) for f in failures)


@pytest.fixture(scope="module")
def ensemble():
    rng = np.random.default_rng(987654321)
    points = []
    for n in ENSEMBLE_CHAIN_SIZES:
        spec, params = random_engine_point(rng, n)
        parts = build_hamiltonian(spec)
        ops = cycle_operators(parts, params)
        channel = cycle_channel_cb(ops)
        iterated = fixed_point_iterate(channel, random_density_matrix(channel.dim, rng),
                                       tol=SOLVER_TOL, max_iter=SOLVER_MAX_ITER)
        spectral = fixed_point_spectral(channel)
        x, z = limit_cycle_states(iterated.rho_star, ops, tol=1e-10)
        record, _ = cycle_ledger(parts, ops).record(x, z)
        points.append(SimpleNamespace(n=n, spec=spec, params=params, parts=parts,
                                      channel=channel, iterated=iterated,
                                      spectral=spectral, record=record))
    return points


@pytest.fixture(scope="module")
def reversal_points():
    """Two fixed generic working points kept at moderate temperature so the
    fixed points stay comfortably full rank."""
    return [
        (ChainSpec(n=3, E=[1.0, 1.3, 2.0], J=[0.4, 0.5], K=[0.2, 0.1], F=[0.3, 0.2]),
         CycleParams(beta1=1.0, beta2=0.75, tau1=0.7, tau2=1.3)),
        (ChainSpec(n=4, E=[0.9, 1.4, 0.8, 2.2], J=[0.5, -0.3, 0.4], K=[0.15, 0.25, -0.2],
                   F=[0.3, 0.1, 0.2]),
         CycleParams(beta1=1.1, beta2=0.5, tau1=1.2, tau2=0.6)),
    ]


def test_criterion_01_limit_cycle_existence(ensemble):
    failures = []
    for i, pt in enumerate(ensemble):
        if not pt.iterated.converged or pt.iterated.final_delta >= 1e-10:
            failures.append(f"point {i} (n={pt.n}): no convergence, "
                            f"delta={pt.iterated.final_delta:.3e}")
        if pt.iterated.iterations > SOLVER_MAX_ITER:
            failures.append(f"point {i}: {pt.iterated.iterations} iterations")
        if pt.spectral.spectral_gap > 1e-6:
            dist = trace_distance(pt.iterated.rho_star, pt.spectral.rho_star)
            if dist >= 1e-9:
                failures.append(f"point {i}: solver disagreement {dist:.3e}")
    verdict(1, "limit cycle exists and both solvers agree on 20 random chains", failures)


def test_criterion_02_spin_conservation(ensemble):
    rng = np.random.default_rng(5150)
    failures = []
    for i, pt in enumerate(ensemble):
        sz = total_magnetization(pt.n)
        comm = commutator_norm(pt.parts.h_s, sz)
        if comm >= 1e-12:
            failures.append(f"point {i}: [H, S_Z] = {comm:.3e}")
        rho = random_density_matrix(2**pt.n, rng)
        ops = cycle_operators(pt.parts, pt.params)
        for u in dense_unitaries(ops):
            out = u @ rho @ u.conj().T
            drift = abs(np.trace(sz @ out) - np.trace(sz @ rho))
            if drift > 1e-10:
                failures.append(f"point {i}: magnetization drift {drift:.3e}")
    verdict(2, "total magnetization commutes with H and survives unitary strokes", failures)


def test_criterion_03_heat_ratio_identity(ensemble):
    failures = []
    for i, pt in enumerate(ensemble):
        residual = abs(pt.record.q_c / pt.spec.E[0] + pt.record.q_h / pt.spec.E[-1])
        if residual >= 1e-8:
            failures.append(f"point {i} (n={pt.n}): residual {residual:.3e}")
    verdict(3, "Q_C/E_1 + Q_H/E_N vanishes at every converged limit cycle", failures)


def test_criterion_04_efficiency_identity(ensemble):
    failures = []
    checked = 0
    for i, pt in enumerate(ensemble):
        if abs(pt.record.q_h) <= 1e-10:
            continue
        checked += 1
        eta = abs(pt.record.w_ledger) / pt.record.q_h
        predicted = 1.0 - pt.spec.E[0] / pt.spec.E[-1]
        if abs(eta - predicted) >= 1e-8:
            failures.append(f"point {i} (n={pt.n}): eta={eta:.12f} predicted={predicted:.12f}")
    if checked < 10:
        failures.append(f"only {checked} points had measurable hot-side heat")
    verdict(4, "|W_ledger|/Q_H equals 1 - E_1/E_N wherever heat flows", failures)


def test_criterion_05_first_law(ensemble):
    failures = []
    worst_paper = 0.0
    for i, pt in enumerate(ensemble):
        if pt.record.first_law_residual_ledger >= 1e-9:
            failures.append(f"point {i} (n={pt.n}): ledger residual "
                            f"{pt.record.first_law_residual_ledger:.3e}")
        worst_paper = max(worst_paper, pt.record.first_law_residual_paper)
    # the per-stroke work sum is reported, not gated
    print(f"           (per-stroke work sum first-law residual, worst: {worst_paper:.3e})")
    verdict(5, "switch-instant ledger closes the first law at the limit cycle", failures)


def test_criterion_06_matched_bath_regime():
    rng = np.random.default_rng(24601)
    failures = []
    for trial in range(5):
        n = (3, 3, 4, 4, 5)[trial]
        spec, params = carnot_point(rng, n)
        channel = cycle_channel_cb(point_operators(spec, params))
        res = fixed_point_iterate(channel, random_density_matrix(channel.dim, rng),
                                  tol=SOLVER_TOL, max_iter=SOLVER_MAX_ITER)
        full = magnetization_gibbs(spec.n, params.beta1 * spec.E[0])
        ansatz_cb = partial_trace(full, range(1, n), [2] * n)
        dist = trace_distance(res.rho_star, ansatz_cb)
        if not res.converged or dist >= 1e-8:
            failures.append(f"trial {trial} (n={n}): ansatz distance {dist:.3e}")
        gap_identity = abs((1.0 - spec.E[0] / spec.E[-1]) - (1.0 - params.beta2 / params.beta1))
        if gap_identity >= 1e-12:
            failures.append(f"trial {trial}: gap/bath identity off by {gap_identity:.3e}")
    verdict(6, "matched baths reproduce the closed-form fixed point and the "
               "reversible efficiency", failures)


def test_criterion_07_cptp_certificates(reversal_points):
    failures = []
    for spec, params in reversal_points:
        cycle_ops = point_operators(spec, params)
        for name, maker in (("cycle_cb", cycle_channel_cb), ("cycle_ac", cycle_channel_ac)):
            channel = maker(cycle_ops)
            label = f"n={spec.n} {name}"
            j = naive_choi(channel)
            min_eig = float(np.linalg.eigvalsh((j + j.conj().T) / 2).min())
            if min_eig < -1e-9:
                failures.append(f"{label}: Choi min eigenvalue {min_eig:.3e}")
            output_trace = partial_trace(j, [1], [channel.dim, channel.dim])
            tp = float(np.abs(output_trace - np.eye(channel.dim)).max())
            if tp >= 1e-10:
                failures.append(f"{label}: output-trace residual {tp:.3e}")
            kraus, _, bound = kraus_from_stack(channel.kraus)
            rank = len(dense_kraus(j)[0])
            if len(kraus.kraus) != rank:
                failures.append(f"{label}: {len(kraus.kraus)} operators, Choi rank {rank}")
            comp = kraus.completeness_residual()
            if comp >= 1e-10:
                failures.append(f"{label}: completeness residual {comp:.3e}")
            recon = float(np.linalg.norm(naive_channel_matrix(channel)
                                         - naive_channel_matrix(kraus), 2))
            if recon >= 1e-10 or recon > bound:
                failures.append(f"{label}: reconstruction residual {recon:.3e} "
                                f"(reported bound {bound:.3e})")
    verdict(7, "Choi matrices certify CPTP and Kraus sets round-trip the channels",
            failures)


def test_criterion_08_time_reversal(reversal_points):
    rng = np.random.default_rng(1234)
    failures = []
    for spec, params in reversal_points:
        cycle_ops = point_operators(spec, params)
        for name, maker in (("cycle_cb", cycle_channel_cb), ("cycle_ac", cycle_channel_ac)):
            channel = maker(cycle_ops)
            label = f"n={spec.n} {name}"
            fp = fixed_point_spectral(channel)
            kraus, _, _ = kraus_from_stack(channel.kraus)
            rev, _ = reverse_channel(kraus, fp.rho_star)

            dist = trace_distance(rev.apply(fp.rho_star), fp.rho_star)
            if dist >= 1e-9:
                failures.append(f"{label}: reversed fixed point moved {dist:.3e}")

            ops, reversed_ops = kraus.kraus, rev.kraus
            for _ in range(50):
                a1, a2 = rng.integers(0, len(ops), size=2)
                p_fwd = sequence_probability([ops[a1], ops[a2]], fp.rho_star)
                p_rev = sequence_probability([reversed_ops[a2], reversed_ops[a1]], fp.rho_star)
                if abs(p_fwd - p_rev) >= 1e-9:
                    failures.append(f"{label}: detailed balance off {abs(p_fwd - p_rev):.3e}")
                    break

            back, _ = reverse_channel(rev, fp.rho_star)
            for _ in range(10):
                probe = random_density_matrix(channel.dim, rng)
                gap = float(np.abs(back.apply(probe) - channel.apply(probe)).max())
                if gap >= 1e-8:
                    failures.append(f"{label}: double reversal off by {gap:.3e}")
                    break
    verdict(8, "time reversal fixes the forward limit state, reverses two-step "
               "statistics, and is an involution", failures)


def test_criterion_09_degeneracy_handling(tmp_path):
    failures = []
    spec = ChainSpec(n=3, E=[1.0, 1.3, 2.0], J=[0, 0], K=[0, 0], F=[0, 0])
    params = CycleParams(beta1=1.0, beta2=0.75, tau1=0.7, tau2=1.3)
    channel = cycle_channel_cb(point_operators(spec, params))
    try:
        fixed_point_spectral(channel)
        failures.append("spectral solver accepted a degenerate channel")
    except DegenerateFixedPointError as err:
        if len(err.eigenvalues) < 2:
            failures.append("degeneracy error carried fewer than two eigenvalues")

    config = {"chain": {"n": 3, "E": [1.0, 1.3, 2.0], "J": [0.0, 0.0],
                        "K": [0.0, 0.0], "F": [0.0, 0.0]},
              "cycle": {"beta1": 1.0, "beta2": 0.75, "tau1": 0.7, "tau2": 1.3}}
    path = tmp_path / "degenerate.json"
    path.write_text(json.dumps(config))
    status = cli_main(["report", "--config", str(path), "--out", str(tmp_path / "r.json")])
    if status != 3:
        failures.append(f"CLI exit status {status}, expected 3")
    verdict(9, "zero couplings surface as an explicit degenerate sector, never a "
               "silent fixed point", failures)


def test_criterion_10_brute_force_oracle(reversal_points):
    rng = np.random.default_rng(31337)
    spec, params = reversal_points[0]  # the 3-qubit point
    ops = point_operators(spec, params)
    oracle = NaiveCycle(spec, params)
    cb = cycle_channel_cb(ops)
    ac = cycle_channel_ac(ops)
    failures = []
    worst = 0.0
    for _ in range(20):
        rho = random_density_matrix(4, rng)
        for name, channel, naive in (("cycle_cb", cb, oracle.apply_cb),
                                     ("cycle_ac", ac, oracle.apply_ac)):
            diff = float(np.abs(channel.apply(rho) - naive(rho)).max())
            worst = max(worst, diff)
            if diff >= 1e-11:
                failures.append(f"{name}: oracle disagreement {diff:.3e}")
    print(f"           (worst oracle disagreement: {worst:.3e})")
    verdict(10, "channel applications match an independent brute-force pipeline",
            failures)
