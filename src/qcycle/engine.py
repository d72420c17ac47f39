"""The four-stroke cycle on full-chain states and its energy accounting.

Stroke order: thermalize end qubit A against the beta1 bath, evolve
unitarily for tau1, thermalize end qubit B against the beta2 bath, evolve
for tau2. Thermalization is total replacement (trace out the end qubit,
tensor the local Gibbs state back in), not a finite-rate relaxation.

Tensor ordering is always site order 1..n. The B thermalization therefore
stores the fresh Gibbs factor last, keeping the chain Hamiltonian applicable
without any permutation bookkeeping.

Sign conventions in the accounting:
  * ``q_c``/``q_h`` are bath-side heats: the energy deposited into the cold
    (hot) bath over one full cycle, read off the end-qubit reduced states.
    Heat flowing into the system is their negative.
  * ``w1..w4`` evaluate the coupling operators on the four post-stroke
    states; their sum is reported but does not close the first law.
  * ``w_ledger`` books the coupling-switch energies at the instants the
    switches actually happen, so -q_c - q_h + w_ledger equals the cycle's
    total energy change identically, for any input state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import HamiltonianParts, gibbs_state
from .errors import ConfigError, real
from .linalg import (eigh_hermitian, hermitian_part, hermitize, kron, partial_trace,
                     popcount_charges, popcount_classes, unitary_from_eigh)


@dataclass
class CycleParams:
    """Bath inverse temperatures and stroke durations (hbar = k_B = 1).

    Each must be a real number, a ``bool`` being none. Invalid values raise
    :class:`ConfigError` naming the field.
    """

    beta1: float
    beta2: float
    tau1: float
    tau2: float

    def __post_init__(self):
        for name in ("beta1", "beta2", "tau1", "tau2"):
            val = real(getattr(self, name), name)
            setattr(self, name, val)
            if not math.isfinite(val):
                raise ConfigError(name, f"must be finite, got {val}")
            if name.startswith("beta") and val <= 0.0:
                raise ConfigError(name, "must be strictly positive")
            if name.startswith("tau") and val < 0.0:
                raise ConfigError(name, "must be non-negative")


@dataclass
class CycleState:
    """State at the start of stroke 1 plus the four post-stroke states."""

    rho0: np.ndarray
    rho1: np.ndarray
    rho2: np.ndarray
    rho3: np.ndarray
    rho4: np.ndarray


@dataclass
class CycleRecord:
    """Per-cycle thermodynamic ledger; see the module docstring for signs."""

    q_c: float
    q_h: float
    w1: float
    w2: float
    w3: float
    w4: float
    w_total: float
    w_ledger: float
    first_law_residual_paper: float
    first_law_residual_ledger: float
    delta_prev: float = float("nan")


@dataclass
class CycleOperators:
    """Precomputed per-cycle operators: end-qubit Gibbs states and unitaries.

    h_s conserves total S^Z, so both unitaries are block diagonal over the
    popcount ``classes`` of :func:`~qcycle.linalg.popcount_classes`, and
    ``u1_blocks``/``u2_blocks`` hold one block per class, the unitaries' only form.
    The dense matrices are assembled only where the half-cycle Kraus operators are
    cut (:mod:`qcycle.limitcycle`).
    """

    sigma_a: np.ndarray
    sigma_b: np.ndarray
    classes: list
    u1_blocks: list
    u2_blocks: list


def cycle_operators(parts: HamiltonianParts, params: CycleParams) -> CycleOperators:
    """The two bath Gibbs states, and both stroke unitaries from one eigh of h_s per popcount class.

    An entry of h_s between two classes raises ValueError: S^Z is not conserved. A duration
    whose phases (eigenvalue times duration) overflow raises ConfigError naming it.
    """
    d = parts.h_s.shape[0]
    if np.any(parts.h_s[popcount_charges(d) != 0]):
        raise ValueError("h_s couples basis states of different popcount: S^Z is not conserved")
    classes = popcount_classes(d)
    eigs = [eigh_hermitian(parts.h_s[np.ix_(c, c)]) for c in classes]
    w_max = max(float(np.abs(w).max()) for w, _ in eigs)
    for name in ("tau1", "tau2"):
        if not math.isfinite(w_max * getattr(params, name)):
            raise ConfigError(name, "too long: the chain's largest energy times it overflows")
    u1_blocks = [unitary_from_eigh(w, v, params.tau1) for w, v in eigs]
    u2_blocks = [unitary_from_eigh(w, v, params.tau2) for w, v in eigs]
    return CycleOperators(
        sigma_a=gibbs_state(parts.h_a_local, params.beta1),
        sigma_b=gibbs_state(parts.h_b_local, params.beta2),
        classes=classes,
        u1_blocks=u1_blocks,
        u2_blocks=u2_blocks,
    )


def replace_last_factor(m: np.ndarray, sigma: np.ndarray, dims) -> np.ndarray:
    """Linear map m -> Tr_last[m] (x) sigma; building block of stroke 3."""
    return kron(partial_trace(m, range(0, len(dims) - 1), dims), sigma)


def _left_multiply(m: np.ndarray, blocks, classes) -> np.ndarray:
    """U m for the block-diagonal U of ``blocks``: each class's rows of m times its block."""
    out = np.empty(m.shape, dtype=complex)
    for c, block in zip(classes, blocks):
        out[c] = block @ m[c]
    return out


def _evolve(rho: np.ndarray, blocks, classes) -> np.ndarray:
    """The Hermitian part of U rho U*, for the block-diagonal U of ``blocks``.

    A matrix and its adjoint have the same Hermitian part, so the adjoint
    (U rho U*)* = U (U rho)* is formed instead: both its products multiply rows by blocks.
    """
    u_rho = _left_multiply(rho, blocks, classes)
    return hermitian_part(_left_multiply(u_rho.conj().T, blocks, classes))


def strokes_2_to_4(rho1: np.ndarray, ops: CycleOperators, dims):
    """Post-stroke states (rho2, rho3, rho4) from the post-stroke-1 state rho1.

    Stroke 2 evolves by u1, stroke 3 replaces the last qubit with sigma_b,
    stroke 4 evolves by u2, each evolution by the unitary's popcount blocks
    (:func:`_evolve`). rho3 needs no symmetrizing: Tr_B of the exactly
    Hermitian rho2, tensored with the real diagonal sigma_b, is exactly Hermitian.
    """
    rho2 = _evolve(rho1, ops.u1_blocks, ops.classes)
    rho3 = replace_last_factor(rho2, ops.sigma_b, dims)
    rho4 = _evolve(rho3, ops.u2_blocks, ops.classes)
    return rho2, rho3, rho4


def _expect(op: np.ndarray, rho: np.ndarray) -> float:
    """Re Tr(op rho) for a Hermitian op: the O(D^2) sum of conj(op) * rho, no matmul."""
    return float(np.vdot(op, rho).real)


def cycle_record(state: CycleState, parts: HamiltonianParts, ops: CycleOperators) -> CycleRecord:
    """Heat/work bookkeeping for one traversed cycle."""
    n = parts.n
    dims = [2] * n

    rho_a0 = partial_trace(state.rho0, [0], dims)       # A as the cold bath sees it
    rho_b2 = partial_trace(state.rho2, [n - 1], dims)   # B as the hot bath sees it
    q_c = _expect(parts.h_a_local, rho_a0 - ops.sigma_a)
    q_h = _expect(parts.h_b_local, rho_b2 - ops.sigma_b)

    w1 = _expect(parts.h_ac, state.rho1)
    w2 = -_expect(parts.h_ac, state.rho2)
    w3 = _expect(parts.h_cb, state.rho3)
    w4 = -_expect(parts.h_cb, state.rho4)
    w_total = w1 + w2 + w3 + w4

    w_ledger = w1 - _expect(parts.h_ac, state.rho0) + w3 - _expect(parts.h_cb, state.rho2)

    return CycleRecord(
        q_c=q_c, q_h=q_h,
        w1=w1, w2=w2, w3=w3, w4=w4, w_total=w_total, w_ledger=w_ledger,
        first_law_residual_paper=abs(q_c + q_h + w_total),
        first_law_residual_ledger=abs(-q_c - q_h + w_ledger),
    )


def run_cycle(rho0: np.ndarray, parts: HamiltonianParts, ops: CycleOperators):
    """One full cycle from rho0 with the point's operators; returns (CycleState, CycleRecord).

    Stroke 1 keeps Tr_A rho0, which :func:`~qcycle.linalg.hermitize` checks and symmetrizes.
    """
    rho0 = np.asarray(rho0, dtype=complex)
    n = parts.n
    if rho0.shape != (2**n, 2**n):
        raise ValueError(f"expected a state on the chain's {n} qubits, got shape {rho0.shape}")
    dims = [2] * n

    rho1 = kron(ops.sigma_a, hermitize(partial_trace(rho0, range(1, n), dims)))
    state = CycleState(rho0, rho1, *strokes_2_to_4(rho1, ops, dims))
    return state, cycle_record(state, parts, ops)
