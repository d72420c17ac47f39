"""The four-stroke cycle, its operators and its energy accounting on the reduced states.

Stroke order: thermalize end qubit A against the beta1 bath, evolve
unitarily for tau1, thermalize end qubit B against the beta2 bath, evolve
for tau2. Thermalization is total replacement (trace out the end qubit,
tensor the local Gibbs state back in), not a finite-rate relaxation. After
stroke 1 the chain is sigma_a (x) X, with X the CB state (sites 2..n), and
after stroke 3 it is Z (x) sigma_b, with Z the AC state (sites 1..n-1), so
a cycle is carried by X and Z. :class:`CycleOperators` cuts the half-cycles
X -> Z (``cold``) and Z -> next X (``hot``) once per point as Kraus stacks;
every cycle map composes them, and :class:`CycleLedger` and :func:`stroke_4`
read through them, reshaped to each half-cycle's dilation (:func:`_dilation`).
Every Kraus map is applied by :class:`~qcycle.limitcycle.Channel`.

Tensor ordering is always site order 1..n.

Sign conventions in the accounting:
  * ``q_c``/``q_h`` are bath-side heats: the energy deposited into the cold
    (hot) bath over one full cycle, read off the end-qubit reduced states.
    Heat flowing into the system is their negative.
  * ``w1..w4`` evaluate the coupling operators on the four post-stroke
    states; their sum is reported but does not close the first law.
  * ``w_ledger`` books the coupling-switch energies at the instants the
    switches actually happen, so -q_c - q_h + w_ledger equals the cycle's
    total energy change identically, for any input state; read through the
    ledger's observables, the identity holds to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .chain import HamiltonianParts, gibbs_state
from .errors import ConfigError, real
from .limitcycle import Channel
from .linalg import (assemble, eigh_hermitian, hermitian_part, kron, partial_trace,
                     popcount_classes, popcounts, unitary_from_eigh)


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
    """Precomputed per-cycle operators: end-qubit Gibbs states, unitaries and half-cycle stacks.

    h_s conserves total S^Z, so both unitaries are block diagonal over the
    popcount ``classes`` of :func:`~qcycle.linalg.popcount_classes`, and
    ``u1_blocks``/``u2_blocks`` hold one block per class, the unitaries' only form.
    ``cold`` and ``hot`` are the half-cycles' (4, d, d) Kraus stacks, d = 2^(n-1), cut from
    the other fields on construction (:func:`_half_cycle_kraus`), so ``replace`` re-cuts them;
    that cut is the only reader of the blocks.
    """

    sigma_a: np.ndarray
    sigma_b: np.ndarray
    classes: tuple
    u1_blocks: list
    u2_blocks: list
    cold: np.ndarray = field(init=False)
    hot: np.ndarray = field(init=False)

    def __post_init__(self):
        self.cold = _half_cycle_kraus(self, cold=True)
        self.hot = _half_cycle_kraus(self, cold=False)


def cycle_operators(parts: HamiltonianParts, params: CycleParams) -> CycleOperators:
    """The two bath Gibbs states, and both stroke unitaries from one eigh of h_s per popcount class.

    An entry of h_s between two classes raises ValueError: S^Z is not conserved. A duration
    whose phases (eigenvalue times duration) overflow raises ConfigError naming it.
    """
    d = parts.h_s.shape[0]
    if np.any(parts.h_s[popcounts(d)[:, None] != popcounts(d)]):
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


def _half_cycle_kraus(ops: CycleOperators, cold: bool) -> np.ndarray:
    """The cold (A, the bath entering as site 1) or hot (B, as site n) half-cycle's 4 operators.

    Each is sqrt(p_e) <t|_out U |v_e>_bath, with U the stroke unitary, assembled dense only here
    from its popcount blocks; operator e * 2 + t is that of bath vector e and traced-out state t.
    """
    blocks, sigma = (ops.u1_blocks, ops.sigma_a) if cold else (ops.u2_blocks, ops.sigma_b)
    p, v = np.linalg.eigh(sigma)  # a Gibbs state of a diagonal h_local: p are its weights, >= 0
    bath = v * np.sqrt(p)  # column e is sqrt(p_e) v_e
    u = assemble(blocks, ops.classes)
    d = u.shape[0] // 2
    # u[out, in] as u[(i, t), (x, j)] with the bath x entering as site 1 and t leaving as
    # site n, or as u[(t, i), (j, x)] with the bath entering as site n and t leaving as site 1
    shape, spec = ((d, 2, 2, d), "itxj,xe->etij") if cold else ((2, d, d, 2), "tijx,xe->etij")
    return np.einsum(spec, u.reshape(shape), bath).reshape(4, d, d)


def _dilation(ops: CycleOperators, cold: bool) -> np.ndarray:
    """A half-cycle before its partial trace: the (2, 2d, d) stack S_e = U (sqrt(p_e) |v_e> (x) I).

    S_e stacks bath vector e's two operators, its rows in site order (the cold stack's traced
    site n last, the hot stack's site 1 first). ``Channel(S)`` maps rho to U (sigma (x) rho) U^*
    (hot: U (rho (x) sigma) U^*), and that of the adjoint stack maps a full-chain G to
    sum_e S_e^* G S_e, the half-cycle's dual map (Nielsen & Chuang, Sec. 8.2).
    """
    d = ops.cold.shape[1]
    if cold:
        return ops.cold.reshape(2, 2, d, d).transpose(0, 2, 1, 3).reshape(2, 2 * d, d)
    return ops.hot.reshape(2, 2 * d, d)


def _expect(op: np.ndarray, rho: np.ndarray) -> float:
    """Re Tr(op rho) for a Hermitian op: the O(D^2) sum of conj(op) * rho, no matmul."""
    return float(np.vdot(op, rho).real)


def start_energies(rho0: np.ndarray, parts: HamiltonianParts) -> tuple:
    """``(<h_a>, <h_ac>)`` at a full-chain cycle-start state: the record terms it alone sets."""
    n = parts.n
    return (_expect(parts.h_a_local, partial_trace(rho0, [0], [2] * n)),
            _expect(parts.h_ac, rho0))


@dataclass
class CycleLedger:
    """A point's cycle record as linear functionals of its reduced states.

    After stroke 1 the chain is sigma_a (x) X, with X the CB state (sites 2..n),
    and after stroke 3 it is Z (x) sigma_b, with Z the AC state (sites 1..n-1).
    Each energy the record reads is therefore Re Tr(M X) or Re Tr(M Z) for a
    d x d observable M, d = 2^(n-1): Tr_A[(sigma_a (x) I) G] for G = h_ac,
    U1^* h_ac U1, U1^* h_cb U1 and U1^* (I (x) h_b) U1, the rows of ``on_cb``,
    and Tr_B[(I (x) sigma_b) G] for G = h_cb, U2^* h_cb U2, U2^* h_ac U2 and
    U2^* (h_a (x) I) U2, the rows of ``on_ac``, the last two the next cycle's
    :func:`start_energies`. Each row holds conj(M) flattened, so a state's
    four energies are one matrix-vector product. ``bath_energies`` are
    Tr(h_a sigma_a) and Tr(h_b sigma_b).
    """

    on_cb: np.ndarray
    on_ac: np.ndarray
    bath_energies: tuple

    def record(self, x: np.ndarray, z: np.ndarray, start=None):
        """``(record, next start)`` of the cycle from CB state x to AC state z.

        ``start`` is :func:`start_energies` at the cycle's rho0; the next start
        is the same pair at its rho4, read off z. Left out, the start is that
        next start: the closed cycle rho0 = rho4 of a limit cycle.
        """
        ac1, ac2, cb2, b2 = (self.on_cb @ x.reshape(-1)).real.tolist()
        cb3, cb4, ac4, a4 = (self.on_ac @ z.reshape(-1)).real.tolist()
        a0, ac0 = (a4, ac4) if start is None else start
        e_a, e_b = self.bath_energies
        q_c, q_h = a0 - e_a, b2 - e_b
        w1, w2, w3, w4 = ac1, -ac2, cb3, -cb4
        w_total = w1 + w2 + w3 + w4
        w_ledger = w1 - ac0 + w3 - cb2
        rec = CycleRecord(q_c=q_c, q_h=q_h, w1=w1, w2=w2, w3=w3, w4=w4, w_total=w_total,
                          w_ledger=w_ledger, first_law_residual_paper=abs(q_c + q_h + w_total),
                          first_law_residual_ledger=abs(-q_c - q_h + w_ledger))
        return rec, (a4, ac4)


def cycle_ledger(parts: HamiltonianParts, ops: CycleOperators) -> CycleLedger:
    """The point's :class:`CycleLedger`, each evolved term a half-cycle's dual map of G.

    Each side's dual map, the ``Channel`` of its :func:`_dilation`'s adjoint, is dropped before
    the other side's is built."""
    d = 2 ** (parts.n - 1)
    eye = np.eye(d)

    def dual(cold: bool, gs) -> list:
        ch = Channel(_dilation(ops, cold).conj().transpose(0, 2, 1))
        return [ch.apply(g) for g in gs]

    # Tr_A[(sigma (x) I) g] sums sigma[i, a] g[(a, r), (i, c)]; Tr_B likewise on the last qubit
    on_cb = [np.einsum("ia,aric->rc", ops.sigma_a, parts.h_ac.reshape(2, d, 2, d))]
    on_cb += dual(True, (parts.h_ac, parts.h_cb, kron(eye, parts.h_b_local)))
    on_ac = [np.einsum("ia,raci->rc", ops.sigma_b, parts.h_cb.reshape(d, 2, d, 2))]
    on_ac += dual(False, (parts.h_cb, parts.h_ac, kron(parts.h_a_local, eye)))
    return CycleLedger(
        on_cb=np.array([hermitian_part(m).conj().reshape(-1) for m in on_cb]),
        on_ac=np.array([hermitian_part(m).conj().reshape(-1) for m in on_ac]),
        bath_energies=(_expect(parts.h_a_local, ops.sigma_a),
                       _expect(parts.h_b_local, ops.sigma_b)),
    )


def stroke_4(z: np.ndarray, ops: CycleOperators) -> np.ndarray:
    """The post-stroke-4 state U2 (Z (x) sigma_b) U2^* of the AC state Z, by the hot dilation."""
    return hermitian_part(Channel(_dilation(ops, cold=False)).apply(z))
