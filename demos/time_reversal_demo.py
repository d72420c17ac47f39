"""Time reversal of the cycle channel around its limit state.

The cycle map's 16 Kraus operators are recombined into its Choi-canonical
ones through their 16 x 16 Gram matrix, the route the ``reverse`` command
runs, with a bound on how far the recombined channel can be from the
original; each operator is then conjugated by the fixed-point square roots
to build the reversed channel. The demo prints the certificates that make the
reversal meaningful: the reversed set is trace preserving, it fixes the
same state the forward channel does, two-step path probabilities started
from that state are exchanged between the two arrows of time, and
reversing twice returns the forward channel.

Run:  python3 demos/time_reversal_demo.py
"""

import numpy as np

from qcycle import (ChainSpec, CycleParams, build_hamiltonian, cycle_channel_cb,
                    cycle_operators, fixed_point_spectral, kraus_from_stack,
                    random_density_matrix, reverse_channel, sequence_probability,
                    trace_distance)

spec = ChainSpec(n=3, E=[1.0, 1.3, 2.0], J=[0.4, 0.5], K=[0.2, 0.1], F=[0.3, 0.2])
params = CycleParams(beta1=1.0, beta2=0.75, tau1=0.7, tau2=1.3)

channel = cycle_channel_cb(cycle_operators(build_hamiltonian(spec), params))
fp = fixed_point_spectral(channel)
print(f"cycle channel on the {channel.dim}-dimensional end-to-middle subsystem, "
      f"spectral gap {fp.spectral_gap:.4f}")

kraus, recon = kraus_from_stack(channel.kraus)
print(f"\nKraus extraction from the Gram matrix of the {len(channel.kraus)} cycle operators:")
print(f"  operators kept:            {len(kraus.kraus)}")
print(f"  discarded Choi weight:     {kraus.discarded_weight:.3e}")
print(f"  completeness residual:     {kraus.completeness_residual():.3e}")
print(f"  reconstruction bound:      {recon:.3e}")

rev = reverse_channel(kraus, fp.rho_star)
print(f"\nreversed channel certificates:")
print(f"  reversed completeness:     {rev.kraus.completeness_residual():.3e}")
print(f"  fixed point shared:        "
      f"{trace_distance(rev.kraus.apply(fp.rho_star), fp.rho_star):.3e}")

print("\ntwo-step path probabilities from the limit state")
print("(forward order (a1, a2) vs reversed order (a2, a1)):")
rng = np.random.default_rng(8)
print(f"{'a1':>4} {'a2':>4} {'forward':>14} {'reversed':>14} {'difference':>12}")
for _ in range(6):
    a1, a2 = rng.integers(0, len(kraus.kraus), size=2)
    p_fwd = sequence_probability([kraus.kraus[a1], kraus.kraus[a2]], fp.rho_star)
    p_rev = sequence_probability([rev.kraus.kraus[a2], rev.kraus.kraus[a1]], fp.rho_star)
    print(f"{a1:>4} {a2:>4} {p_fwd:14.10f} {p_rev:14.10f} {abs(p_fwd - p_rev):12.3e}")

back = reverse_channel(rev.kraus, fp.rho_star)
worst = 0.0
for _ in range(10):
    probe = random_density_matrix(channel.dim, rng)
    worst = max(worst, float(np.abs(back.kraus.apply(probe) - channel.apply(probe)).max()))
print(f"\nreversing the reversed channel recovers the forward map: "
      f"worst deviation {worst:.3e}")
