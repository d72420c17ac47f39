"""Convergence to the limit cycle, watched from two unrelated starting states.

A four-qubit chain is driven through repeated four-stroke cycles, stepped as
``qcycle simulate`` steps them: after stroke 1 the chain is sigma_a (x) X and
after stroke 3 Z (x) sigma_b, so each cycle maps the CB state X (sites
2..n) to the AC state Z (sites 1..n-1) by the cold half-cycle and Z to the
next X by the hot one (the Kraus stacks ``ops.cold`` and ``ops.hot``), and
its heats and works are read off X and Z by the point's ledger, through the
same stacks. The trace distance between successive AC states shrinks
geometrically at a rate set by the channel's spectral gap, and both
trajectories land on the same limit cycle, where the heat/work ledger
closes the first law.

Run:  python3 demos/limit_cycle_demo.py
"""

import numpy as np

from qcycle import (ChainSpec, Channel, CycleParams, build_hamiltonian, cycle_channel_cb,
                    cycle_operators, fixed_point_spectral, partial_trace,
                    random_density_matrix, trace_distance)
from qcycle.engine import cycle_ledger, start_energies
from qcycle.linalg import hermitian_part

spec = ChainSpec(n=4,
                 E=[1.0, 1.6, 0.9, 2.4],
                 J=[0.45, -0.30, 0.50],
                 K=[0.20, 0.10, -0.25],
                 F=[0.30, 0.15, 0.20])
params = CycleParams(beta1=1.2, beta2=0.55, tau1=0.9, tau2=1.4)

parts = build_hamiltonian(spec)
ops = cycle_operators(parts, params)  # cuts the two half-cycles' Kraus stacks once
ledger, cold, hot = cycle_ledger(parts, ops), Channel(ops.cold), Channel(ops.hot)

print(f"chain: {spec.n} qubits, end gaps E_1={spec.E[0]}, E_N={spec.E[-1]}")
print(f"baths: beta1={params.beta1} (cold side), beta2={params.beta2} (hot side)")
print()

# two unrelated full-rank starting states
trajectories = []
for seed in (1, 2):
    rng = np.random.default_rng(seed)
    rho0 = random_density_matrix(2**spec.n, rng)
    start = start_energies(rho0, parts)  # the record terms only the full start state sets
    x = partial_trace(rho0, range(1, spec.n), [2] * spec.n)  # stroke 1 keeps Tr_A rho0
    history = []
    prev = None
    for cycle_idx in range(1, 2001):
        z = hermitian_part(cold.apply(x))  # strokes 1 and 2, then B traced out
        rec, start = ledger.record(x, z, start)
        if prev is not None:
            history.append(trace_distance(z, prev))
            if history[-1] < 1e-12:
                break
        prev = z
        x = hermitian_part(hot.apply(z))  # strokes 3 and 4, then A traced out
    trajectories.append((x, history, rec))

print("trace distance between successive AC states:")
print(f"{'cycle':>6} {'start A':>12} {'start B':>12}")
hist_a, hist_b = trajectories[0][1], trajectories[1][1]
for idx in range(0, max(len(hist_a), len(hist_b)), 3):
    cell = lambda h: f"{h[idx]:12.3e}" if idx < len(h) else " " * 12
    print(f"{idx + 2:>6} {cell(hist_a)} {cell(hist_b)}")

meeting = trace_distance(trajectories[0][0], trajectories[1][0])
print(f"\ndistance between the two converged CB states: {meeting:.3e}")

ch = cycle_channel_cb(ops)
gap = fixed_point_spectral(ch).spectral_gap
ratio = hist_a[-1] / hist_a[-2]
print(f"spectral gap of the cycle channel:  {gap:.6f}")
print(f"observed tail contraction per cycle: {ratio:.6f}  (predicted {1 - gap:.6f})")

rec = trajectories[0][2]
print("\nat the limit cycle (per cycle, energy units):")
print(f"  heat into cold bath  q_c      = {rec.q_c:+.6e}")
print(f"  heat into hot bath   q_h      = {rec.q_h:+.6e}")
print(f"  switch-work ledger   w_ledger = {rec.w_ledger:+.6e}")
print(f"  ledger first-law residual     = {rec.first_law_residual_ledger:.3e}")
print(f"  per-stroke work sum residual  = {rec.first_law_residual_paper:.3e} (not conserved)")
print(f"  efficiency |w|/q_h            = {abs(rec.w_ledger) / rec.q_h:+.9f}")
print(f"  end-gap prediction 1 - E1/EN  = {1 - spec.E[0] / spec.E[-1]:+.9f}")
