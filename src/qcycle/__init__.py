"""Simulator and verification toolkit for a four-stroke quantum engine.

An n-qubit spin-conserving Ising chain is driven through a four-stroke
cycle: thermalize one end qubit against a cold bath, evolve unitarily,
thermalize the other end against a hot bath, evolve again. Iterating the
cycle drives any starting state to a limit cycle; this package builds the
chain, finds the limit cycle two independent ways, accounts heat and work,
verifies the spin-symmetry efficiency identity, and constructs the
time-reversed channel that shares the forward fixed point.
"""

from .chain import ChainSpec, HamiltonianParts, build_hamiltonian, gibbs_state, site_operator
from .engine import CycleOperators, CycleParams, CycleRecord, cycle_operators
from .errors import (ClosureViolationError, ConfigError, DegenerateFixedPointError,
                     NotFixedPointError, QcycleError, RankDeficientError)
from .limitcycle import (Channel, FixedPointResult, cycle_channel_ac, cycle_channel_cb,
                         fixed_point_iterate, fixed_point_spectral, limit_cycle_states, unvec, vec)
from .linalg import (check_density_matrix, kron, partial_trace, psd_sqrt_invsqrt,
                     random_density_matrix, to_state, trace_distance)
from .reversal import kraus_from_stack, reverse_channel, sequence_probability
from .thermo import (LimitCycleReport, bath_criteria_mismatch, limit_cycle_report,
                     magnetization_gibbs)

__version__ = "0.1.0"

__all__ = [
    "ChainSpec", "HamiltonianParts", "build_hamiltonian", "gibbs_state",
    "site_operator",
    "CycleOperators", "CycleParams", "CycleRecord", "cycle_operators",
    "Channel", "FixedPointResult",
    "cycle_channel_ac", "cycle_channel_cb", "fixed_point_iterate",
    "fixed_point_spectral", "limit_cycle_states", "vec", "unvec",
    "kron", "partial_trace", "psd_sqrt_invsqrt", "trace_distance", "to_state",
    "check_density_matrix", "random_density_matrix",
    "kraus_from_stack", "reverse_channel", "sequence_probability",
    "LimitCycleReport", "bath_criteria_mismatch",
    "limit_cycle_report", "magnetization_gibbs",
    "QcycleError", "ConfigError", "RankDeficientError", "DegenerateFixedPointError",
    "NotFixedPointError", "ClosureViolationError",
]
