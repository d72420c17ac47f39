"""Efficiency across operating regimes, ending at the matched-bath point.

The efficiency ratio |w|/q_h is pinned to 1 - E_1/E_N by spin conservation
no matter how the baths are tuned; what the baths control is the heat
throughput and its direction. Sweeping beta2 toward the matched-bath line
beta1 E_1 = beta2 E_N sends the transported heat to zero while the ratio
stays put, and at the matched point the limit cycle collapses onto the
closed-form magnetization state, with the efficiency bound meeting the
classical reversible value 1 - beta2/beta1.

Run:  python3 demos/efficiency_sweep_demo.py
"""

import numpy as np

from qcycle import (ChainSpec, CycleParams, build_hamiltonian, cycle_channel_cb, cycle_operators,
                    fixed_point_spectral, limit_cycle_report, limit_cycle_states,
                    magnetization_gibbs, partial_trace, trace_distance)
from qcycle.engine import cycle_ledger

spec = ChainSpec(n=3, E=[1.0, 1.3, 2.0], J=[0.4, 0.5], K=[0.2, 0.1], F=[0.3, 0.2])
beta1 = 1.5
matched_beta2 = beta1 * spec.E[0] / spec.E[-1]  # 0.75: baths matched to the end gaps

print(f"end gaps: E_1={spec.E[0]}, E_N={spec.E[-1]}  ->  gap prediction "
      f"1 - E_1/E_N = {1 - spec.E[0] / spec.E[-1]}")
print(f"cold bath fixed at beta1={beta1}; matched point at beta2={matched_beta2}")
print()
print(f"{'beta2':>8} {'q_h':>13} {'w_ledger':>13} {'|w|/q_h':>12} "
      f"{'1-b2/b1':>10} {'mode':>12}")

for beta2 in (0.30, 0.45, 0.60, 0.70, 0.74, matched_beta2, 0.76, 0.90):
    params = CycleParams(beta1=beta1, beta2=beta2, tau1=0.7, tau2=1.3)
    parts = build_hamiltonian(spec)
    ops = cycle_operators(parts, params)
    fp = fixed_point_spectral(cycle_channel_cb(ops))
    x, z = limit_cycle_states(fp.rho_star, ops)
    report = limit_cycle_report(x, z, cycle_ledger(parts, ops), spec, params, fp.spectral_gap)
    eta = "   undefined" if np.isnan(report.eta) else f"{report.eta:12.9f}"
    if abs(report.q_h_star) < 1e-12:
        mode = "matched"
    elif report.q_h_star > 0:
        mode = "pumping"   # work in, heat pushed into the hot bath
    else:
        mode = "extracting"  # heat drawn from the hot bath, work out
    print(f"{beta2:8.4f} {report.q_h_star:13.4e} {report.w_star_ledger:13.4e} "
          f"{eta} {1 - beta2 / beta1:10.6f} {mode:>12}")

print()
params = CycleParams(beta1=beta1, beta2=matched_beta2, tau1=0.7, tau2=1.3)
fp = fixed_point_spectral(cycle_channel_cb(cycle_operators(build_hamiltonian(spec), params)))
ansatz = magnetization_gibbs(spec.n, params.beta1 * spec.E[0])  # e^{-kappa S_Z}/Z, kappa = beta1 E_1
ansatz_cb = partial_trace(ansatz, range(1, spec.n), [2] * spec.n)
print("at the matched point:")
print(f"  solver fixed point vs closed-form magnetization state: "
      f"{trace_distance(fp.rho_star, ansatz_cb):.3e}")
print(f"  gap prediction 1 - E_1/E_N = {1 - spec.E[0] / spec.E[-1]:.12f}")
print(f"  reversible bound 1 - b2/b1 = {1 - matched_beta2 / beta1:.12f}")
