"""Cycle superoperators, their matrix representation, and fixed-point solvers.

The CB (sites 2..n) and AC (sites 1..n-1) cycle channels compose the same
two half-cycles, each of which tensors in one bath qubit, evolves the chain
and traces out the qubit at the other end. With sigma_a = sum_a p_a
|v_a><v_a| and sigma_b = sum_b q_b |w_b><w_b|, the half-cycles have the
d x d (d = 2^(n-1)) Kraus operators

    cold, CB -> AC:  A_{a beta}  = sqrt(p_a) <beta|_B  U1 |v_a>_A
    hot,  AC -> CB:  B_{b alpha} = sqrt(q_b) <alpha|_A U2 |w_b>_B

2 bath eigenvectors times 2 traced-out basis states make 4 operators per
half-cycle, so CB = {B A} and AC = {A B} have 16 operators each.

One spectrum, two anchors. With C and H the d^2 x d^2 matrices of the cold
and hot half-cycles, the channel matrices are M_CB = H C and M_AC = C H.
Square AB and BA have the same characteristic polynomial (Horn & Johnson,
Matrix Analysis, Thm 1.3.22), so CB and AC have the same eigenvalues, with
multiplicity. Both half-cycles preserve the S^Z charge below, so this holds
sector by sector. The cold half-cycle also carries fixed points: if
Phi_CB(rho) = rho then Phi_AC(Phi_cold(rho)) = Phi_cold(Phi_hot(Phi_cold(rho)))
= Phi_cold(rho), so Phi_cold(rho*_CB) is AC's fixed point, unique when
CB's is. :func:`cold_half_cycle` exposes Phi_cold as a channel.

Both are completely positive and trace preserving, and for generic
parameters mixing, so repeated application converges to a unique fixed
point. Two independent solvers (power iteration, and the spectrum of the
vectorized channel with inverse iteration for its unit eigenvector) guard
against silent bugs.

Vectorization is column-stacking throughout this module.

Charge sectors. Every term of the chain Hamiltonian conserves total S^Z and
both bath states are diagonal, so each Kraus operator K_k of the cycle
channels carries one charge s_k = popcount(row) - popcount(column) and the
channels are covariant under rho -> exp(i phi S^Z) rho exp(-i phi S^Z).
With |0> the S^Z = +1/2 state, a basis state |k> of the reduced chain has
S^Z = const - popcount(k), and only differences of S^Z matter: the entry
rho[r, c] carries the charge q = m_r - m_c = popcount(c) - popcount(r). The
column-stacked index of that entry is c*d + r, so index a*d + b has the
charge popcount(a) - popcount(b), and the channel matrix is block diagonal
over those sectors. The fixed point, like every state, lives partly in
q = 0, which holds the diagonal and so the trace. :func:`sector_blocks`
builds each block from the operators whose charge it needs, after the one
check (:func:`_charge_groups`) that every operator is charge pure.

Hermitian pairing. A Kraus map sends Hermitian matrices to Hermitian
matrices, and vec(rho^*) = S conj(vec(rho)) for the swap S that sends index
a*d + b to b*d + a, so the channel matrix satisfies

    M[swap i, swap j] = conj(M[i, j]).

Swap sends charge q to -q. The -q block is therefore the entrywise conjugate
of the +q block with its indices swapped, and its eigenvalues are the
conjugates of the +q ones. Swap maps q = 0 to itself, and there the block
is real in the Hermitian basis T: the unit vectors e_{a*d+a} of the
diagonal, plus (e_{a*d+b} + e_{b*d+a})/sqrt(2) and
i(e_{a*d+b} - e_{b*d+a})/sqrt(2) for each pair a < b, i.e. the vectorized
E_ab + E_ba and i(E_ab - E_ba) over sqrt(2). Both hold exactly for any
Kraus stack, so :func:`sector_eigenvalues` builds and decomposes only the
q >= 0 blocks, the q = 0 block as the real matrix T^* M_0 T.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .chain import HamiltonianParts
from .engine import CycleOperators, CycleState, strokes_2_to_4
from .errors import ClosureViolationError, DegenerateFixedPointError
from .linalg import hermitize, kron, partial_trace, to_state, trace_distance

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 100_000
DEGENERACY_TOL = 1e-8  # eigenvalues this close to unit modulus count as fixed-point candidates
# Entries of a Kraus operator or a state outside its own S^Z charge, up to this fraction of
# its largest |entry|, are rounding; above it the stack or the state is not covariant.
CHARGE_LEAKAGE_TOL = 1e-12
# The fixed point's inverse iteration runs at the shift 1 + UNIT_SHIFT (_unit_vector).
UNIT_SHIFT = 1e-10


class Channel:
    """The Kraus map rho -> sum_k K_k rho K_k^* of a (k, dim, dim) operator stack.

    ``kraus`` is the stack, ``dim`` its operators' size. The spectral
    solvers build their sector blocks from it (:func:`sector_blocks`).
    """

    def __init__(self, kraus):
        self.kraus = np.asarray(kraus, dtype=complex)
        k, d, _ = self.kraus.shape
        # row (k, m) is row m of K_k^*; apply's stacked product multiplies by it
        self._adjoints = self.kraus.conj().transpose(0, 2, 1).reshape(k * d, d)

    @property
    def dim(self) -> int:
        return self.kraus.shape[1]

    def apply(self, rho: np.ndarray) -> np.ndarray:
        k, d, _ = self.kraus.shape
        left = (self.kraus.reshape(k * d, d) @ np.asarray(rho, dtype=complex)).reshape(k, d, d)
        return left.transpose(1, 0, 2).reshape(d, k * d) @ self._adjoints

    def completeness_residual(self) -> float:
        """Max-abs deviation of sum_k K_k^* K_k from the identity."""
        f = self.kraus.reshape(-1, self.dim)  # row (k, i) is row i of K_k
        return float(np.abs(f.conj().T @ f - np.eye(self.dim)).max())

    def adjoint(self) -> Channel:
        """The adjoint map x -> sum_k K_k^* x K_k, w.r.t. the trace inner product."""
        return Channel(self.kraus.conj().transpose(0, 2, 1))


@dataclass
class FixedPointResult:
    """Outcome of a fixed-point solve.

    ``spectral_gap`` is 1 - |second eigenvalue| for the spectral solver
    and NaN for the iterative one, which does not estimate it.
    ``final_delta`` is the trace distance between the last two iterates (or,
    for the spectral solver, between the fixed point and its image).
    """

    rho_star: np.ndarray
    iterations: int
    final_delta: float
    spectral_gap: float
    degenerate: bool = False
    converged: bool = True
    delta_history: np.ndarray = field(default_factory=lambda: np.empty(0))


def vec(m: np.ndarray) -> np.ndarray:
    """Column-stack a matrix into a vector."""
    return np.asarray(m, dtype=complex).reshape(-1, order="F")


def unvec(v: np.ndarray, dim: int) -> np.ndarray:
    """Inverse of :func:`vec`."""
    return np.asarray(v, dtype=complex).reshape((dim, dim), order="F")


def _half_cycle_kraus(u: np.ndarray, sigma: np.ndarray, bath_first: bool) -> np.ndarray:
    """Operators sqrt(p_e) <t|_out u |v_e>_bath, the bath entering as site 1 or n."""
    p, v = np.linalg.eigh(sigma)  # a Gibbs state of a diagonal h_local: p are its weights, >= 0
    bath = v * np.sqrt(p)  # column e is sqrt(p_e) v_e
    d = u.shape[0] // 2
    # u[out, in] as u[(i, t), (x, j)] with the bath x entering as site 1 and t leaving as
    # site n, or as u[(t, i), (j, x)] with the bath entering as site n and t leaving as site 1
    shape, spec = ((d, 2, 2, d), "itxj,xe->etij") if bath_first else ((2, d, d, 2), "tijx,xe->etij")
    return np.einsum(spec, u.reshape(shape), bath).reshape(4, d, d)


def _cycle_kraus(ops: CycleOperators, cold_first: bool) -> np.ndarray:
    """The 16 products S F of the half-cycles, F = cold (CB) or hot (AC) acting first."""
    cold = _half_cycle_kraus(ops.u1, ops.sigma_a, bath_first=True)
    hot = _half_cycle_kraus(ops.u2, ops.sigma_b, bath_first=False)
    first, second = (cold, hot) if cold_first else (hot, cold)
    return (second[:, None] @ first[None, :]).reshape(16, *cold.shape[1:])


def cycle_channel_cb(ops: CycleOperators) -> Channel:
    """Cycle map on the CB subsystem (sites 2..n), anchored after stroke 1: Kraus {B A}."""
    return Channel(_cycle_kraus(ops, cold_first=True))


def cycle_channel_ac(ops: CycleOperators) -> Channel:
    """Cycle map on the AC subsystem (sites 1..n-1), anchored after stroke 3: Kraus {A B}."""
    return Channel(_cycle_kraus(ops, cold_first=False))


def cold_half_cycle(ops: CycleOperators) -> Channel:
    """The cold half-cycle CB -> AC (strokes 1 and 2, then B traced out): Kraus {A}."""
    return Channel(_half_cycle_kraus(ops.u1, ops.sigma_a, bath_first=True))


def popcount_charges(d: int) -> np.ndarray | None:
    """The d x d array popcount(a) - popcount(b); None unless d is a power of two >= 2.

    Entry [a, b] labels the matrix unit |a><b| of a d x d operator and, over
    index pairs a*d + b, the entries of a d^2 x d^2 superoperator.
    """
    if d < 2 or d & (d - 1):
        return None
    pop = np.array([k.bit_count() for k in range(d)])
    return pop[:, None] - pop[None, :]


def _charge_groups(stack: np.ndarray) -> list:
    """``[(s, indices), ...]``: a (k, d, d) stack's operators grouped by S^Z charge s, ascending.

    Each operator must carry one charge popcount(row) - popcount(column):
    its entries of any other charge are at most ``CHARGE_LEAKAGE_TOL`` of its
    largest entry, whose charge it takes. If any operator fails, and when d
    is not a power of two, all operators form the one group ``(None, all)``.
    """
    k, d, _ = stack.shape
    charge = popcount_charges(d)
    whole = [(None, np.arange(k))]
    if charge is None:
        return whole
    charge = charge.reshape(-1)
    moduli = np.abs(stack).reshape(k, -1)
    peak = moduli.argmax(axis=1)
    q = charge[peak]
    leak = np.where(charge[None, :] != q[:, None], moduli, 0.0).max(axis=1)
    if (leak > CHARGE_LEAKAGE_TOL * moduli[np.arange(k), peak]).any():
        return whole
    return [(int(c), np.flatnonzero(q == c)) for c in np.unique(q)]


def swap_index(indices: np.ndarray, d: int) -> np.ndarray:
    """Column-stacked index of the transposed entry: a*d + b -> b*d + a."""
    return indices % d * d + indices // d


def hermitian_frame(indices: np.ndarray, d: int) -> np.ndarray:
    """A q = 0 sector reordered as its d diagonal, then a < b, then swapped a > b indices.

    In this order the Hermitian basis T (module docstring) has the columns
    e_k on the diagonal, then (e_u + e_l)/sqrt(2) and then
    i(e_u - e_l)/sqrt(2) over the pairs (u, l).
    """
    a, b = indices // d, indices % d
    upper = indices[a < b]
    return np.concatenate([indices[a == b], upper, swap_index(upper, d)])


def to_hermitian_frame(block: np.ndarray, nd: int) -> np.ndarray:
    """T^* B T for a block B in :func:`hermitian_frame` order with ``nd`` diagonal indices.

    Formed in place on B in O(size^2), which it returns: no other array of
    the block's size is allocated.
    """
    half = (len(block) - nd) // 2
    for side, phase in ((block.T, 1j), (block, -1j)):  # B T column by column, then T^* (B T) by rows
        upper, lower = side[nd:nd + half], side[nd + half:]
        upper += lower
        lower *= -2.0
        lower += upper  # upper - lower, as they were
        upper *= np.sqrt(0.5)
        lower *= phase * np.sqrt(0.5)
    return block


def from_hermitian_frame(v: np.ndarray, nd: int) -> np.ndarray:
    """T v, in :func:`hermitian_frame` order."""
    half = (len(v) - nd) // 2
    sym, anti = v[nd:nd + half] * np.sqrt(0.5), v[nd + half:] * (1j * np.sqrt(0.5))
    return np.concatenate([v[:nd], sym + anti, sym - anti])


def _tile(stack: np.ndarray, ks: np.ndarray, a, a2, b, b2) -> np.ndarray:
    """sum_{k in ks} conj(K_k[a, a2]) (x) K_k[b, b2], rows and columns in Kronecker order."""
    x = stack[np.ix_(ks, a, a2)].reshape(len(ks), -1)
    y = stack[np.ix_(ks, b, b2)].reshape(len(ks), -1)
    g = (x.conj().T @ y).reshape(len(a), len(a2), len(b), len(b2))
    return g.transpose(0, 2, 1, 3).reshape(len(a) * len(b), -1)


def sector_blocks(ch: Channel):
    """Yield ``(q, order, block)``: the channel matrix's S^Z sectors q >= 0, from ch's Kraus stack.

    ``block`` is the channel matrix on the column-stacked ``indices``
    ``order``, built tile by tile without the d^2 x d^2 matrix. With C_m the
    basis states of popcount m, sector q pairs C_m (the column a of an entry
    index a*d + b) with C_{m-q} (its row b), and its tile between the pairs
    of m and m' is sum_k conj(K_k[C_m, C_m']) (x) K_k[C_{m-q}, C_{m'-q}]
    over the operators of charge m - m' (:func:`_charge_groups`). ``order``
    is ascending, except for q = 0, which is in :func:`hermitian_frame`
    order. A stack that does not split by charge, or a d that is not a power
    of two, gives the one sector ``q = None``: one class C of all basis
    states, one tile, and ``block`` the whole matrix in ascending order.
    The -q sectors are not built (module docstring).
    """
    stack, d = ch.kraus, ch.dim
    groups = _charge_groups(stack)
    if groups[0][0] is None:
        classes, charges, by_charge = [np.arange(d)], [None], {0: groups[0][1]}
    else:
        pop = popcount_charges(d)[:, 0]  # popcount(a) - popcount(0)
        classes = [np.flatnonzero(pop == m) for m in range(pop.max() + 1)]
        charges, by_charge = range(len(classes)), dict(groups)
    for q in charges:
        shift = q or 0
        pairs = [(m, m - shift) for m in range(shift, len(classes))]
        cells = [(classes[m][:, None] * d + classes[mb]).reshape(-1) for m, mb in pairs]
        order = np.sort(np.concatenate(cells))
        if q == 0:
            order = hermitian_frame(order, d)
        where = np.empty(d * d, dtype=np.intp)
        where[order] = np.arange(len(order))
        block = np.zeros((len(order), len(order)), dtype=complex)
        for (m, mb), rows in zip(pairs, cells):
            for (m2, mb2), cols in zip(pairs, cells):
                ks = by_charge.get(m - m2)
                if ks is not None:
                    block[np.ix_(where[rows], where[cols])] = _tile(
                        stack, ks, classes[m], classes[m2], classes[mb], classes[mb2])
        yield q, order, block
        del block  # the next sector's block is allocated without this one


def _unit_vector(block: np.ndarray, diag: np.ndarray) -> np.ndarray:
    """The block's eigenvector at eigenvalue 1, by inverse iteration; overwrites block.

    Two steps at the shift 1 + ``UNIT_SHIFT`` from the vectorized identity
    (ones on the ``diag`` positions), each shrinking the other eigenvalues'
    components by ``UNIT_SHIFT`` / |1 - lambda|. The solves' rounding stays
    along the wanted vector, so it is more accurate than ``eig``'s.
    """
    block[np.diag_indices_from(block)] -= 1.0 + UNIT_SHIFT
    x = np.zeros(len(block))
    x[diag] = 1.0
    for _ in range(2):
        x = np.linalg.solve(block, x)
        x /= np.abs(x).max()
    return x


def sector_eigenvalues(ch: Channel, trace_vector: bool = False):
    """Eigenvalues of ch's channel matrix sector by sector, over :func:`sector_blocks`.

    Returns ``(eigenvalues, charges, vector)``: the eigenvalues sector after
    sector in ascending charge, the charge of each (None where the stack did
    not split) and, with ``trace_vector``, the full-length eigenvector at
    eigenvalue 1 within the q = 0 (or the one) sector, which holds index 0
    and so the trace (else None), from :func:`_unit_vector`.

    The q = 0 block is decomposed as the real matrix T^* M_0 T, and the -q
    sector's eigenvalues are the conjugates of the +q ones, in the +q order
    (module docstring).
    """
    d = ch.dim
    solved, vector = {}, None
    for q, order, block in sector_blocks(ch):
        if q == 0:
            block = to_hermitian_frame(block, d).real  # the sector's d diagonal indices come first
        solved[q] = np.linalg.eigvals(block)
        if trace_vector and q in (0, None):
            v = _unit_vector(block, np.flatnonzero(order // d == order % d))
            vector = np.zeros(d * d, dtype=complex)
            vector[order] = from_hermitian_frame(v, d) if q == 0 else v
        if q:
            solved[-q] = solved[q].conj() + 0.0  # + 0.0: no -0.0 imaginary parts
        del block  # only one sector's block is held at a time
    charges = sorted(solved)
    evals = [solved[q] for q in charges]
    return np.concatenate(evals), [q for q, w in zip(charges, evals) for _ in w], vector


def fixed_point_iterate(ch: Channel, rho_init: np.ndarray, tol: float = DEFAULT_TOL,
                        max_iter: int = DEFAULT_MAX_ITER) -> FixedPointResult:
    """Iterate the channel from ``hermitize(rho_init)`` until successive iterates are tol-close.

    The last iterate is made a state by :func:`~qcycle.linalg.to_state`. Non-convergence
    is not an exception: the result carries the best iterate, the full delta history, and
    ``converged=False``.
    """
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    rho = np.asarray(rho_init, dtype=complex)
    if rho.shape != (ch.dim, ch.dim):
        raise ValueError(f"initial state shape {rho.shape} does not match channel dim {ch.dim}")
    rho = hermitize(rho)
    deltas = []
    converged = False
    for _ in range(max_iter):
        nxt = ch.apply(rho)
        delta = trace_distance(nxt, rho)
        deltas.append(delta)
        rho = nxt
        if delta < tol:
            converged = True
            break
    return FixedPointResult(
        rho_star=to_state(rho),
        iterations=len(deltas),
        final_delta=deltas[-1] if deltas else 0.0,
        spectral_gap=float("nan"),
        degenerate=False,
        converged=converged,
        delta_history=np.asarray(deltas),
    )


def spectral_summary(evals: np.ndarray):
    """(moduli, gap, near_unit) of a channel's eigenvalues.

    ``moduli`` are the |eigenvalues| in descending order, ``gap`` is
    1 - |second eigenvalue|, and ``near_unit`` is the mask of the
    eigenvalues whose modulus is within ``DEGENERACY_TOL`` of 1.
    """
    absolute = np.abs(evals)
    moduli = np.sort(absolute)[::-1]
    gap = float(1.0 - moduli[1]) if len(moduli) > 1 else 1.0
    return moduli, gap, np.abs(absolute - 1.0) <= DEGENERACY_TOL


def fixed_point_spectral(ch: Channel) -> FixedPointResult:
    """Fixed point from the eigenvector of the vectorized channel at eigenvalue 1.

    The eigenproblem is split by :func:`sector_blocks`, built from ch's
    Kraus stack; the eigenvector comes from the q = 0 block, which carries
    the trace, by inverse iteration (:func:`_unit_vector`), and is made a
    state by :func:`~qcycle.linalg.to_state`, which raises on the zero trace
    a trace-preserving map cannot give. Eigenvalues whose modulus is within
    ``DEGENERACY_TOL`` of 1 count as fixed-point candidates; more than one
    raises :class:`DegenerateFixedPointError` carrying all of them (sector
    by sector), their charges, and the (arbitrary) candidate it would have
    returned.
    """
    evals, charges, vector = sector_eigenvalues(ch, trace_vector=True)
    _, gap, near = spectral_summary(evals)
    near_unit = evals[near]

    rho = to_state(unvec(vector, ch.dim))
    residual = trace_distance(ch.apply(rho), rho)

    result = FixedPointResult(
        rho_star=rho,
        iterations=0,
        final_delta=residual,
        spectral_gap=gap,
        degenerate=len(near_unit) > 1,
        converged=len(near_unit) <= 1,
    )
    if result.degenerate:
        raise DegenerateFixedPointError(near_unit, result=result,
                                        charges=[charges[i] for i in np.flatnonzero(near)])
    return result


def limit_cycle_states(rho_cb_star: np.ndarray, parts: HamiltonianParts, ops: CycleOperators,
                       tol: float = DEFAULT_TOL) -> CycleState:
    """Reconstruct the four full-chain stroke states from a CB fixed point.

    Verifies closure: tracing A out of the post-stroke-4 state must return
    the input fixed point within 10x the solver tolerance. The cycle-start
    state ``rho0`` is the post-stroke-4 state, which is what closing the
    loop means. ``ops`` are the point's :func:`~qcycle.engine.cycle_operators`.
    """
    n = parts.n
    dims = [2] * n

    rho1 = kron(ops.sigma_a, rho_cb_star)
    rho2, rho3, rho4 = strokes_2_to_4(rho1, ops, dims)

    closure = trace_distance(partial_trace(rho4, range(1, n), dims), rho_cb_star)
    if closure > 10.0 * tol:
        raise ClosureViolationError(closure, 10.0 * tol)
    return CycleState(rho0=rho4, rho1=rho1, rho2=rho2, rho3=rho3, rho4=rho4)
