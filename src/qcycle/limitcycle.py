"""Cycle superoperators, their matrix representation, and fixed-point solvers.

The CB (sites 2..n) and AC (sites 1..n-1) cycle channels compose the same
two half-cycles, each of which tensors in one bath qubit, evolves the chain
and traces out the qubit at the other end. With sigma_a = sum_a p_a
|v_a><v_a| and sigma_b = sum_b q_b |w_b><w_b|, the half-cycles have the
d x d (d = 2^(n-1)) Kraus operators, cut once per point into
:class:`~qcycle.engine.CycleOperators`' ``cold`` and ``hot`` stacks:

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
CB's is. ``Channel(ops.cold)`` and ``Channel(ops.hot)`` are Phi_cold and
Phi_hot; ``simulate`` steps its reduced states with them, and
:func:`limit_cycle_states` reads the limit cycle's CB and AC states through them.

Both are completely positive and trace preserving, and for generic
parameters mixing, so repeated application converges to a unique fixed
point. Two independent solvers (power iteration, and the spectrum of the
vectorized channel with inverse iteration for its unit eigenvector) guard
against silent bugs. The iteration applies the half-cycles in turn (:class:`Channel`) and
takes a step's exact trace distance only where a Frobenius lower bound cannot rule out the
stop, with the stop and bits of the exact test (:func:`fixed_point_iterate`).

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
check (:func:`~qcycle.linalg.charge_groups`) that every operator is charge pure.
A stack that fails it is one class of all basis states, in which every
operator has charge 0, so its channel matrix is the one sector q = 0.

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
Kraus stack, so the sector spectra below build and decompose only the
q >= 0 blocks, the q = 0 block as the real matrix T^* M_0 T.

Certificate and listing. The fixed point is unique, and the spectral gap
known, once each sector's largest eigenvalue modulus is known, the trace's
eigenvalue 1 aside. :func:`sector_spectra` with ``certificate``, which
:func:`fixed_point_spectral` and so ``report`` and ``reverse`` run, takes
it from each sector of more than ``DENSE_SECTOR_SIZE`` entries by Arnoldi
(:func:`top_ritz_value`), on the dense block that :func:`sector_blocks`
builds. Its convergence check takes the Hessenberg matrix's eigenvalues
without eigenvectors, and the top one's residual from one eigenvector by
inverse iteration, at steps set by the residual's rate. A Krylov method
started from one vector cannot see the multiplicity of an eigenvalue, so
the q = 0 sector is iterated on its traceless matrices: a trace-preserving
map keeps them, and on them the eigenvalue 1 has one copy fewer, so a
second fixed point shows as a top Ritz value near 1. Dense ``eigvals``
stays where every eigenvalue is needed or the Arnoldi does not pay:
``spectrum`` (:func:`sector_spectra` without ``certificate``), which lists
all moduli, the sectors of at most
``DENSE_SECTOR_SIZE`` entries (all of them up to n = 5), and, in the same
pass, a sector whose Arnoldi does not converge or whose top is near unit
(:func:`is_near_unit`, the one test against ``DEGENERACY_TOL``). Every
sector with a near-unit eigenvalue besides the trace's 1 has such a top, so
a degenerate channel's error lists its near-unit eigenvalues bit for bit as
``spectrum`` does, the trace's 1 aside (exactly 1 where its sector took the
Arnoldi). On the n = 8 config of the CI ``Large chain`` step (2-core Xeon,
OpenBLAS 0.3.31), ``report`` takes 2.0-2.1 s, 0.4 s of it iterating and
0.5 s in the Arnoldi, ``reverse`` 1.7-1.8 s and ``spectrum``, dense on every
sector, 17-19 s; on its n = 7 config, ``report`` and ``reverse`` take 0.27 s
and 0.24 s.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ClosureViolationError, DegenerateFixedPointError
from .linalg import (charge_groups, class_layout, hermitian_part, hermitize, popcount_classes,
                     to_state, trace_distance)

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 100_000
DEGENERACY_TOL = 1e-8  # eigenvalues this close to unit modulus count as fixed-point candidates
# A distance between iterates stalls when it falls by less than STALL_DROP (relative) over
# STALL_WINDOW steps, as under a map whose |lambda_2| is within DEGENERACY_TOL of 1:
# (1 - DEGENERACY_TOL)^STALL_WINDOW ~ 1 - STALL_DROP. That drop, 1e-6, is far above the
# distance's rounding: 7e-14 relative over 2000 cycles of the README chain with zero couplings.
STALL_WINDOW = 100
STALL_DROP = STALL_WINDOW * DEGENERACY_TOL
# limit_cycle_states accepts a closure distance up to CLOSURE_FACTOR * tol
CLOSURE_FACTOR = 10.0
# The fixed point's inverse iteration runs at the shift 1 + UNIT_SHIFT (_unit_vector).
UNIT_SHIFT = 1e-10
# sector_spectra's certificate decomposes a sector of at most DENSE_SECTOR_SIZE entries dense.
# fixed_point_spectral per generic CB channel, best of 5 on a 2-core Xeon, at DENSE_SECTOR_SIZE
# 20, 40, 60 and 100: 4.00, 3.71, 3.67 and 3.34 ms at n = 5 (sectors of 1 to 70 entries, all
# dense at 100); 10.3-10.8 ms at n = 6 at all four, 16 ms at 150 (its sector of 120 entries
# dense) and 32 ms at 220 (that of 210 too).
DENSE_SECTOR_SIZE = 100
# top_ritz_value accepts a Ritz value whose residual is at most RITZ_TOL. Over 96 n = 6 and 12
# n = 7 cycle channels, the certified moduli are within 2.8e-14 of dense eigvals'. On 90 other
# n = 6 sectors, 1e-12 saved 3% of the steps and let the error reach 4.2e-13.
RITZ_TOL = 1e-13
# top_ritz_value checks its Ritz value first at step RITZ_FIRST_CHECK, then where the geometric
# rate of its last two residuals (step 0's taken as 1) predicts RITZ_TOL, within RITZ_AHEAD
# steps, or RITZ_AHEAD_ROSE steps ahead where the residual rose. Per generic n = 6 CB channel
# (40, 2-core Xeon) that is 8.5 Hessenberg decompositions and 122.5 steps, and
# fixed_point_spectral takes 10.3 ms; without step 0's residual, 10.9, 122.0 and 10.4 ms. A check
# every 10 steps took 12.5 and 125, and 13.0-13.3 ms against that schedule's 11.0-11.6 ms.
RITZ_FIRST_CHECK = 10
RITZ_AHEAD = (3, 20)
RITZ_AHEAD_ROSE = 5
ARNOLDI_MAX_STEPS = 400  # top_ritz_value's largest basis; above it the sector goes dense
# Channel applies a stage that splits by charge, both of whose sizes are at least CLASS_BLOCK_DIM,
# by its popcount class blocks, and any other row-interleaved dense. By blocks, a half-cycle stage
# (best of 9 timeit repeats, 2-core Xeon, OpenBLAS 0.3.31) ran 0.46x as fast as dense at d = 32,
# 0.89x at 64, 1.57x at 128 (1.04 -> 0.66 ms) and 2.35x at 256 (7.65 -> 3.25 ms); at n = 7,
# stroke_4's 128 x 64 stage 0.70x (0.52 -> 0.74 ms), the ledger's 64 x 128 ones 0.74x (2.5 -> 3.4).
CLASS_BLOCK_DIM = 128


class Channel:
    """The Kraus map of one or more (k, m, d) operator stacks, applied in the order given.

    A stack takes a d x d matrix rho to the m x m sum_k K_k rho K_k^*; the solvers see square
    ones only, and :mod:`qcycle.engine` applies a half-cycle's (2, 2d, d) dilation and its
    adjoint. ``Channel(first, second)`` is rho -> sum_jk S_j F_k rho F_k^* S_j^*. ``apply`` runs
    the stages in turn: 2 (4 + 4) d^3 multiply-adds for the two half-cycles, not 2 * 16 d^3 for
    their products. ``kraus`` is the product stack, the later stage's index slow, from which the
    spectral solvers build their sector blocks (:func:`sector_blocks`); ``dim`` is its d.

    Each stage is held only in the layout its ``apply`` reads, chosen once here: by popcount
    class blocks (:class:`_ClassBlockStage`) where both sides of the stage are at least
    ``CLASS_BLOCK_DIM`` and it splits by charge (:func:`~qcycle.linalg.charge_groups`), else
    row-interleaved dense (:class:`_DenseStage`).
    """

    def __init__(self, *stages):
        stages = [np.asarray(stack, dtype=complex) for stack in stages]
        self.kraus = stages[0]
        for stack in stages[1:]:
            self.kraus = (stack[:, None] @ self.kraus[None, :]).reshape(-1, len(stack[0]), self.dim)
        self._stages = [_stage(stack) for stack in stages]

    @property
    def dim(self) -> int:
        return self.kraus.shape[2]

    def apply(self, rho: np.ndarray) -> np.ndarray:
        rho = np.asarray(rho, dtype=complex)
        for stage in self._stages:
            rho = stage.apply(rho)
        return rho

    def completeness_residual(self) -> float:
        """Max-abs deviation of sum_k K_k^* K_k from the identity."""
        f = self.kraus.reshape(-1, self.dim)  # row (k, i) is row i of K_k
        return float(np.abs(f.conj().T @ f - np.eye(self.dim)).max())


def _stage(stack: np.ndarray):
    """A (k, m, d) stage in the layout ``Channel.apply`` reads: class blocks where m and d are at
    least ``CLASS_BLOCK_DIM`` and the stack splits by charge, else dense."""
    if min(stack.shape[1:]) >= CLASS_BLOCK_DIM:
        classes, groups = charge_groups(stack)
        if len(classes) > 1:
            return _ClassBlockStage(stack, groups)
    return _DenseStage(stack)


class _DenseStage:
    """A stage as two matrices, its operators' rows interleaved and their adjoints stacked.

    Row (i, k) of ``rows`` is row i of K_k and row (k, l) of ``adjoints`` row l of K_k^*.
    (rows @ rho) reshaped to (m, k d) holds K_k rho in its column block k, so two products
    apply the stage: k m d (d + m) multiply-adds and no copy between them.
    """

    def __init__(self, stack: np.ndarray):
        k, m, d = stack.shape
        self.rows = np.ascontiguousarray(stack.transpose(1, 0, 2)).reshape(m * k, d)
        self.adjoints = stack.conj().transpose(0, 2, 1).reshape(k * d, m)

    def apply(self, rho: np.ndarray) -> np.ndarray:
        return (self.rows @ rho).reshape(self.adjoints.shape[1], -1) @ self.adjoints


class _ClassBlockStage:
    """A charge-split (k, m, d) stage as its popcount class blocks.

    With C_c the input classes (of d) and C'_b the output classes (of m), an operator K of
    charge s maps C_c to C'_{c+s} and is zero elsewhere, so K rho needs only its blocks
    K[C'_{c+s}, C_c] and (K rho) K^* only the conjugates of the same blocks: per operator
    sum_c |C'_{c+s}| |C_c| d multiply-adds a side, against m d^2 dense (3432 d against 16384 d
    for a square stage at d = 128).

    Left: for each input class c, one product of the blocks K_k[C'_{c+s_k}, C_c] of every
    operator, stacked, with the rows C_c of rho, written into a contiguous slice of one buffer
    whose rows run (c, k, i). Right: for each output class b, one product of the buffer's
    entries (K_k rho)[i, l] for l in C_{b-s_k}, gathered by one ``take`` through a
    precomputed index (rows i in natural order, a zero row where K_k rho vanishes), with the
    stacked blocks conj(K_k[C'_b, C_{b-s_k}])^T, written into the columns of class b; the
    columns are put back in natural order last.
    """

    def __init__(self, stack: np.ndarray, groups):
        k, m, d = stack.shape
        classes, out_classes = popcount_classes(d), popcount_classes(m)
        order, spans = class_layout(m)
        self.inverse = np.argsort(order)
        # row_of[k, i] is the buffer row of (K_k rho)[i], or the zero row after the last
        self.left, blocks, top = [], {}, 0
        row_of = np.full((k, m), -1, dtype=np.intp)
        for c, cls in enumerate(classes):
            start, parts = top, [np.empty((0, len(cls)), dtype=complex)]
            for s, ks in groups:
                if 0 <= c + s < len(out_classes):
                    out = out_classes[c + s]
                    blocks[s, c] = stack[np.ix_(ks, out, cls)]
                    parts.append(blocks[s, c].reshape(-1, len(cls)))
                    row_of[np.ix_(ks, out)] = np.arange(top, top + len(ks) * len(out)).reshape(
                        len(ks), len(out))
                    top += len(ks) * len(out)
            self.left.append((cls, np.concatenate(parts), slice(start, top)))
        self.zero_row = top
        row_of[row_of < 0] = top  # the rows of K_k rho that no input class reaches
        self.right = []
        for b, span in enumerate(spans):
            index = [np.empty((m, 0), dtype=np.intp)]
            weights = [np.empty((0, len(out_classes[b])), dtype=complex)]
            for s, ks in groups:
                if (s, b - s) in blocks:  # K_k[C'_b, C_{b-s}]
                    index.append((row_of[ks].T[:, :, None] * d
                                  + classes[b - s][None, None, :]).reshape(m, -1))
                    weights.append(blocks[s, b - s].conj().transpose(0, 2, 1)
                                   .reshape(-1, len(out_classes[b])))
            self.right.append((span, np.concatenate(index, axis=1), np.concatenate(weights)))

    def apply(self, rho: np.ndarray) -> np.ndarray:
        d, m = rho.shape[0], len(self.inverse)
        rows = np.empty((self.zero_row + 1, d), dtype=complex)
        rows[-1] = 0.0
        for cls, weights, place in self.left:
            np.matmul(weights, rho[cls], out=rows[place])
        flat = rows.reshape(-1)
        out = np.empty((m, m), dtype=complex)
        for span, index, weights in self.right:
            np.matmul(np.take(flat, index), weights, out=out[:, span])
        return out[:, self.inverse]


@dataclass
class FixedPointResult:
    """Outcome of a fixed-point solve.

    Each solver leaves NaN in the field it does not measure: ``spectral_gap``, 1 - |second
    eigenvalue|, for the iterative one, and ``final_delta``, the trace distance between the
    last two iterates, for the spectral one.
    """

    rho_star: np.ndarray
    iterations: int
    final_delta: float
    spectral_gap: float
    converged: bool = True


def vec(m: np.ndarray) -> np.ndarray:
    """Column-stack a matrix into a vector."""
    return np.asarray(m, dtype=complex).reshape(-1, order="F")


def unvec(v: np.ndarray, dim: int) -> np.ndarray:
    """Inverse of :func:`vec`."""
    return np.asarray(v, dtype=complex).reshape((dim, dim), order="F")


def cycle_channel_cb(ops) -> Channel:
    """Cycle map on the CB subsystem (sites 2..n), anchored after stroke 1: Kraus {B A}."""
    return Channel(ops.cold, ops.hot)


def cycle_channel_ac(ops) -> Channel:
    """Cycle map on the AC subsystem (sites 1..n-1), anchored after stroke 3: Kraus {A B}."""
    return Channel(ops.hot, ops.cold)


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


def sector_blocks(ch: Channel):
    """Yield ``(q, order, block)``: the channel matrix's S^Z sectors q >= 0, from ch's Kraus stack.

    ``block`` is the channel matrix on the column-stacked ``indices``
    ``order``, built tile by tile without the d^2 x d^2 matrix. With C_m the
    basis states of popcount m, sector q pairs C_m (the column a of an entry
    index a*d + b) with C_{m-q} (its row b), and its tile between the pairs
    of m and m' is sum_k conj(K_k[C_m, C_m']) (x) K_k[C_{m-q}, C_{m'-q}]
    over the operators of charge m - m' (:func:`~qcycle.linalg.charge_groups`).
    The stack is copied once with its operators sorted by charge and its rows
    and columns by class, so each tile's two operands are slices of that copy,
    conjugated per tile, and the tile is scattered to its place in ``order``.
    ``order`` is ascending, except for q = 0, which is in :func:`hermitian_frame`
    order. q = 0, the largest, comes last, with the copy freed before it is
    yielded. A stack that does not split is one class of all basis states:
    its only sector is q = 0, one tile, the whole matrix. The -q sectors are
    not built (module docstring).
    """
    d = ch.dim
    classes, groups = charge_groups(ch.kraus)
    basis = np.concatenate(classes)
    stack = ch.kraus[np.ix_(np.concatenate([ks for _, ks in groups]), basis, basis)]
    edges = np.cumsum([0] + [len(ks) for _, ks in groups])
    by_charge = {s: slice(lo, hi) for (s, _), lo, hi in zip(groups, edges, edges[1:])}
    edges = np.cumsum([0] + [len(c) for c in classes])
    spans = [slice(lo, hi) for lo, hi in zip(edges, edges[1:])]  # each class's place in the copy
    for q in [*range(1, len(classes)), 0]:
        pairs = [(m, m - q) for m in range(q, len(classes))]
        cells = [(classes[m][:, None] * d + classes[mb]).reshape(-1) for m, mb in pairs]
        order = np.sort(np.concatenate(cells))
        if q == 0:
            order = hermitian_frame(order, d)
        where = np.empty(d * d, dtype=np.intp)
        where[order] = np.arange(len(order))
        # a cell's places in order, as [a, b] over its column a and row b
        places = [where[cell].reshape(len(classes[m]), len(classes[mb]))
                  for cell, (m, mb) in zip(cells, pairs)]
        block = np.zeros((len(order), len(order)), dtype=complex)
        for (m, mb), rows in zip(pairs, places):
            for (m2, mb2), cols in zip(pairs, places):
                ks = by_charge.get(m - m2)
                if ks is not None:
                    x, y = stack[ks, spans[m], spans[m2]], stack[ks, spans[mb], spans[mb2]]
                    # both operands C-ordered (k, entries), as the product's BLAS path needs
                    g = (np.conj(x).reshape(len(x), -1).T
                         @ np.ascontiguousarray(y).reshape(len(y), -1))
                    # g[(a, a2), (b, b2)] goes to block[rows[a, b], cols[a2, b2]]
                    block[rows[:, None, :, None], cols[None, :, None, :]] = g.reshape(
                        x.shape[1:] + y.shape[1:])
        if q == 0:  # the last sector; x and y are views that would keep the copy alive
            del stack, x, y, g
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


def _top_ritz_pair(h: np.ndarray, beta: float):
    """``(theta, residual)``: H_m's eigenvalue of largest modulus and its Ritz residual.

    theta is taken from ``eigvals``, and its unit eigenvector y from two solves with
    H_m - theta I from a vector of ones (inverse iteration), so no eigenvector but y is
    formed. Where that shift is exactly singular, ``eig`` gives both. The residual is
    beta |y_m|, with beta = h_{m+1,m}.
    """
    values = np.linalg.eigvals(h)
    theta = values[np.abs(values).argmax()]
    shifted, y = h - theta * np.eye(len(h)), np.ones(len(h))
    try:
        for _ in range(2):
            y = np.linalg.solve(shifted, y)
            y /= np.linalg.norm(y)
    except np.linalg.LinAlgError:  # a zero pivot, e.g. H_1 - theta = 0 or a triangular H_m
        values, vectors = np.linalg.eig(h)
        top = np.abs(values).argmax()
        theta, y = values[top], vectors[:, top]
    return theta, beta * abs(y[-1])


def top_ritz_value(block: np.ndarray, diag=None):
    """The largest-modulus eigenvalue of ``block`` by Arnoldi, or None if it did not converge.

    Unrestarted Arnoldi (Saad, Numerical Methods for Large Eigenvalue
    Problems, 2nd ed., SIAM 2011, Sec. 6.2) from a fixed-seed random start,
    so every call on the same block gives the same bits and leaves no random
    state behind. Each new basis vector is orthogonalized by classical
    Gram-Schmidt run twice, and the basis grows with the steps, up to
    ``ARNOLDI_MAX_STEPS``. The Ritz value theta of largest modulus, with
    unit eigenvector y of the m x m Hessenberg matrix H_m, is accepted once
    its residual |h_{m+1,m} y_m| = |block V_m y - theta V_m y| is at most
    ``RITZ_TOL`` (:func:`_top_ritz_pair`). It is checked at step
    ``RITZ_FIRST_CHECK``, then where the geometric rate of the last two
    checks' residuals predicts ``RITZ_TOL``, 3 to 20 steps on
    (``RITZ_AHEAD``), or 5 steps on (``RITZ_AHEAD_ROSE``) where the residual
    rose; and at the last step, and where h_{m+1,m} <= ``RITZ_TOL``. The
    unit start vector counts as step 0's residual 1, so the first check
    already has a rate.

    With ``diag``, the iteration runs on the matrices of zero trace: the
    mean of the ``diag`` coordinates is subtracted from the start vector and
    after every product. A trace-preserving map keeps that subspace, and on
    it the eigenvalue 1 of the trace has one copy fewer, so the top Ritz
    value is the largest other eigenvalue, and is near 1 if the eigenvalue 1
    is not simple.
    """
    size = len(block)
    start = np.random.default_rng(0).standard_normal((2, size))
    v = start[0] if block.dtype.kind == "f" else start[0] + 1j * start[1]
    if diag is not None:
        v[diag] -= v[diag].mean()
    steps = min(ARNOLDI_MAX_STEPS, size)
    # np.empty commits a row's pages only when it is written, so memory follows the steps taken
    basis = np.empty((steps + 1, size), dtype=block.dtype)
    basis[0] = v / np.linalg.norm(v)
    h = np.zeros((steps + 1, steps), dtype=block.dtype)
    # the next check's step, and the last one's (step, residual): step 0's, of the unit start, is 1
    check, last = RITZ_FIRST_CHECK, (0, 1.0)
    for m in range(1, steps + 1):
        w = block @ basis[m - 1]
        if diag is not None:
            w[diag] -= w[diag].mean()
        done = basis[:m]
        for _ in range(2):
            c = (done @ w.conj()).conj()  # c_i = <v_i, w>
            w -= c @ done
            h[:m, m - 1] += c
        beta = np.linalg.norm(w)
        h[m, m - 1] = beta
        if m == check or m == steps or beta <= RITZ_TOL:
            theta, residual = _top_ritz_pair(h[:m, :m], beta)
            if residual <= RITZ_TOL:
                return complex(theta)
            if residual < last[1]:  # steps to RITZ_TOL at the last rate
                rate = np.log(residual / last[1]) / (m - last[0])
                ahead = int(np.clip(np.ceil(np.log(RITZ_TOL / residual) / rate), *RITZ_AHEAD))
            else:
                ahead = RITZ_AHEAD_ROSE
            check, last = m + ahead, (m, residual)
        if m == steps:
            return None
        basis[m] = w / beta


def sector_spectra(ch: Channel, certificate: bool):
    """``(eigenvalues, charges, vector)`` of ch's channel matrix, in one :func:`sector_blocks` pass.

    ``eigenvalues`` lists each block's eigenvalues, sector after sector in
    ascending charge, and ``charges`` the charge of each (all 0 where the
    stack did not split). The q = 0 block is decomposed as the real matrix
    T^* M_0 T, and the -q sector's eigenvalues are the conjugates of the +q
    ones, in the +q order (module docstring). Without ``certificate`` every
    sector is decomposed by dense ``eigvals``, and ``vector`` is None.

    With it, a sector of more than ``DENSE_SECTOR_SIZE`` entries lists only
    its largest-modulus eigenvalue, from :func:`top_ritz_value` (and its -q
    partner the conjugate). The sector that holds the trace, q = 0, lists
    the trace's eigenvalue 1 and the top Ritz value of the traceless
    subspace. A sector whose Arnoldi does not converge, or whose top
    :func:`is_near_unit`, is listed in full by ``eigvals``, as without
    ``certificate``. ``vector`` is the full-length eigenvector at eigenvalue
    1 within q = 0, from :func:`_unit_vector`, which runs after the sector's
    decomposition since it overwrites the block.
    """
    d = ch.dim
    solved, vector = {}, None
    for q, order, block in sector_blocks(ch):
        diag = None
        if q == 0:  # the sector that holds the diagonal, and so the trace, first in its order
            diag, block = np.arange(d), to_hermitian_frame(block, d).real
        top = None
        if certificate and len(block) > DENSE_SECTOR_SIZE:
            # q = 0's real view is copied contiguous, for BLAS products, and freed before
            # _unit_vector runs
            top = top_ritz_value(np.ascontiguousarray(block), diag)
        if top is None or is_near_unit(top):  # small, unconverged or degenerate
            solved[q] = np.linalg.eigvals(block)
        else:  # q = 0's top is its second eigenvalue: the first is the trace's 1
            solved[q] = np.array([top] if q else [1.0, top], dtype=complex)
        if certificate and q == 0:
            vector = np.zeros(d * d, dtype=complex)
            vector[order] = from_hermitian_frame(_unit_vector(block, diag), d)
        if q:
            solved[-q] = solved[q].conj() + 0.0  # + 0.0: no -0.0 imaginary parts
        del block  # only one sector's block is held at a time
    charges = sorted(solved)
    evals = [solved[q] for q in charges]
    return np.concatenate(evals), [q for q, w in zip(charges, evals) for _ in w], vector


def is_near_unit(values):
    """Whether each value's modulus is within ``DEGENERACY_TOL`` of 1: a fixed-point candidate."""
    return np.abs(np.abs(values) - 1.0) <= DEGENERACY_TOL


def stalled(first: float, last: float) -> bool:
    """Whether a distance that went from ``first`` to ``last`` in ``STALL_WINDOW`` steps stalled."""
    return first - last < STALL_DROP * first


def fixed_point_iterate(ch: Channel, rho_init: np.ndarray, tol: float = DEFAULT_TOL,
                        max_iter: int = DEFAULT_MAX_ITER) -> FixedPointResult:
    """Iterate the channel from ``hermitize(rho_init)`` until successive iterates are tol-close.

    A step stops the loop when its trace distance is below tol, but that ``eigvalsh`` runs only
    where it can: half the Frobenius norm of the step's Hermitian part H bounds it from below
    (not that of nxt - rho, whose anti-Hermitian rounding can exceed H at the rounding floor).
    The step is traceless, so ||H||_F <= ||H||_tr / sqrt(2), a margin far above either norm's
    rounding: the loop stops at the step, with the bits, of one taking the exact distance always.
    The bound is formed in three calls, step + step^* = 2H and its root of ``vdot``.

    Every ``STALL_WINDOW`` steps the exact distance is taken too, and the loop stops unconverged
    where it has :func:`stalled` against the last window's. Under a CPTP map the distances never
    grow, so only rounding stalls them short of a tol below its floor. The stop test runs first,
    so a step that converges at a window's end counts as converged.

    The last iterate is made a state by :func:`~qcycle.linalg.to_state`, per popcount class
    when its entries between classes are rounding. Non-convergence is not an exception: the
    result carries the last iterate, the last step's trace distance, and ``converged=False``,
    after fewer than ``max_iter`` steps where it stalled.
    """
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    rho = np.asarray(rho_init, dtype=complex)
    if rho.shape != (ch.dim, ch.dim):
        raise ValueError(f"initial state shape {rho.shape} does not match channel dim {ch.dim}")
    rho = hermitize(rho)
    iterations, delta, converged, earlier = 0, 0.0, False, None
    for iterations in range(1, max_iter + 1):
        rho, prev = ch.apply(rho), rho
        window_end = iterations % STALL_WINDOW == 0
        if not window_end and iterations < max_iter:
            step = rho - prev
            step += step.conj().T  # 2 H
            # the root is kept: tol squared underflows to 0 for a tiny tol
            if 0.25 * np.sqrt(np.vdot(step, step).real) >= tol:
                continue  # the step cannot pass the stop test
        delta = trace_distance(rho, prev)
        if delta < tol:
            converged = True
            break
        if window_end:
            if earlier is not None and stalled(earlier, delta):
                break
            earlier = delta
    return FixedPointResult(rho_star=to_state(rho), iterations=iterations, final_delta=delta,
                            spectral_gap=float("nan"), converged=converged)


def spectral_summary(evals: np.ndarray, charges):
    """(moduli, gap, near_unit, near_charges, degenerate) of a channel's eigenvalues.

    ``moduli`` are the |eigenvalues| in descending order and ``gap`` is
    1 - |second eigenvalue|. ``near_unit`` are the eigenvalues that
    :func:`is_near_unit`, the fixed-point candidates, in the order listed,
    and ``near_charges`` their charges; more than one makes the channel
    ``degenerate``.
    """
    moduli = np.sort(np.abs(evals))[::-1]
    gap = float(1.0 - moduli[1]) if len(moduli) > 1 else 1.0
    near = np.flatnonzero(is_near_unit(evals))
    return moduli, gap, evals[near], [charges[i] for i in near], len(near) > 1


def fixed_point_spectral(ch: Channel) -> FixedPointResult:
    """Fixed point from the eigenvector of the vectorized channel at eigenvalue 1, and its gap.

    ch must be trace preserving. The eigenproblem is split by
    :func:`sector_blocks`, built from ch's Kraus stack, and certified by
    one :func:`sector_spectra` pass: the top eigenvalue of each large
    sector by Arnoldi, all eigenvalues of each small one, and of each one
    whose top is near unit, by ``eigvals``. The
    eigenvector comes from the q = 0 block, which carries the trace, by
    inverse iteration (:func:`_unit_vector`), and is made a state by
    :func:`~qcycle.linalg.to_state`, which raises on the zero trace a
    trace-preserving map cannot give. The eigenvalues that
    :func:`is_near_unit` are the fixed-point candidates. The Arnoldi of
    the q = 0 sector runs without the trace's eigenvalue 1, so a second 1
    there, like one in any other sector, is a second candidate. More than
    one raises :class:`DegenerateFixedPointError` carrying all of them,
    from the same pass (sector by sector), and their charges, before any
    state is formed. ``final_delta`` is NaN: closure is measured once per
    point, by :func:`limit_cycle_states`.

    ``report`` and ``reverse`` certify with it; ``spectrum`` lists every
    eigenvalue by :func:`sector_spectra` without the certificate instead.
    The module docstring gives both commands' times at n = 7 and 8.
    """
    evals, charges, vector = sector_spectra(ch, certificate=True)
    _, gap, near_unit, near_charges, degenerate = spectral_summary(evals, charges)
    if degenerate:
        raise DegenerateFixedPointError(near_unit, near_charges)
    return FixedPointResult(rho_star=to_state(unvec(vector, ch.dim)), iterations=0,
                            final_delta=float("nan"), spectral_gap=gap)


def limit_cycle_states(rho_cb_star: np.ndarray, ops, tol: float = DEFAULT_TOL):
    """The limit cycle's CB and AC states ``(x, z)`` from a CB fixed point x, closure checked.

    z is the cold half-cycle's image of x, cleaned as ``simulate`` cleans it, and the hot
    half-cycle's image of z must return x within ``CLOSURE_FACTOR`` times the solver
    tolerance, else :class:`ClosureViolationError`. ``ops`` are the point's
    :func:`~qcycle.engine.cycle_operators`. ``report`` and ``reverse`` read their cycle here.
    """
    z = hermitian_part(Channel(ops.cold).apply(rho_cb_star))
    closure = trace_distance(Channel(ops.hot).apply(z), rho_cb_star)
    if closure > CLOSURE_FACTOR * tol:
        raise ClosureViolationError(closure, CLOSURE_FACTOR * tol)
    return rho_cb_star, z
