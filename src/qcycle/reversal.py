"""Kraus extraction and the time-reversed channel.

The Choi matrix here is J = sum_ij ch(E_ij) (x) E_ij over matrix units,
i.e. the output leg is the first Kronecker factor. J is PSD iff the channel
is completely positive, and tracing out the output leg returns the identity
iff the channel is trace preserving.

J reshuffles the column-stacking channel matrix M: ch(E_ij)[k, l] sits at
M[l*d + k, j*d + i] and at J[k*d + i, l*d + j], so with M as the array
M4[l, k, j, i], J = M4.transpose(1, 3, 0, 2).reshape(d*d, d*d).

Both matrices split by S^Z charge (see :mod:`qcycle.limitcycle`, with |0>
the S^Z = +1/2 state, so a basis state's charge is -popcount up to a
constant and only differences matter). A covariant channel maps E_ij, of
charge popcount(j) - popcount(i), to outputs of the same charge, so
J[k*d + i, l*d + j] vanishes unless popcount(k) - popcount(i) =
popcount(l) - popcount(j): over index pairs a*d + b, J is block diagonal by
popcount(a) - popcount(b), the labels M splits by. :func:`kraus_from_choi`
decomposes J one label at a time, so each of its Kraus operators lies in one
sector; :func:`kraus_from_stack` keeps every operator in one sector by
working one charge group of the stack at a time.

Kraus operators are the eigenvectors of J scaled by the square roots of
their eigenvalues, in descending eigenvalue order (which fixes the gauge).
For a channel given by k operators K_k, J needs no eigendecomposition of
its own. With F the k x d^2 matrix whose rows are the K_k flattened
row-major, J = F^T conj(F), and its nonzero eigenpairs come from the k x k
Gram matrix G = conj(F) F^T, G_kl = Tr K_k^* K_l: if G v = w v, then
J (F^T v) = F^T G v = w F^T v and ||F^T v||^2 = v^* G v = w. So with
G = V diag(w) V^*, the operators A = V^T F, i.e. A_l = sum_k V_kl K_k, are
the Choi eigenvectors scaled by sqrt(w_l), each up to a phase.

The time reversal of a channel around a full-rank state r it fixes
conjugates each Kraus operator:

    reversed A = r^{1/2} A* r^{-1/2}

which is trace preserving exactly when r is a fixed point, shares r as its
own fixed point, and reverses two-step path probabilities started from r.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotCPError, NotFixedPointError, ZeroProbabilityError
from .limitcycle import (CHARGE_LEAKAGE_TOL, Channel, _charge_groups, channel_matrix,
                         popcount_charges)
from .linalg import hermitian_part, partial_trace, psd_sqrt_invsqrt, trace_distance

CP_ATOL = 1e-8           # Choi eigenvalues below -CP_ATOL flag a broken channel
ZERO_PROBABILITY = 1e-14


def choi_from_matrix(m: np.ndarray) -> np.ndarray:
    """Choi matrix by the index reshuffle of the d^2 x d^2 channel matrix (module docstring)."""
    d = int(round(np.sqrt(m.shape[0])))
    return m.reshape((d,) * 4).transpose(1, 3, 0, 2).reshape(m.shape)


def choi_matrix(ch: Channel) -> np.ndarray:
    """Choi matrix of the channel, reshuffled from :func:`channel_matrix`.

    It is F^T conj(F) for the stack F of the module docstring, so it is
    positive semidefinite by construction.
    """
    return choi_from_matrix(channel_matrix(ch))


def choi_output_trace(j: np.ndarray, dim: int) -> np.ndarray:
    """Trace out the output leg; equals the identity for a TP channel."""
    return partial_trace(j, [1], [dim, dim])


def kraus_from_choi(j: np.ndarray, rank_tol: float = 1e-12) -> Channel:
    """Kraus operators from the Choi eigendecomposition, a dense reference.

    J is decomposed one charge label popcount(a) - popcount(b) of its
    indices a*d + b at a time, so each operator is charge pure, unless d is
    not a power of two or J has entries between labels above
    ``CHARGE_LEAKAGE_TOL`` of its largest. Eigenpairs are taken in
    descending eigenvalue order, which fixes the gauge. Eigenpairs with
    eigenvalue below ``rank_tol`` (relative to the largest) are dropped and
    their total weight reported on the result. Eigenvectors devectorize
    row-major: the Choi convention above pairs output-leg index k with
    input-leg index i at flat position k*d + i. Raises :class:`NotCPError`
    when J has an eigenvalue below -``CP_ATOL``.
    """
    j = np.asarray(j, dtype=complex)
    d2 = j.shape[0]
    d = int(round(np.sqrt(d2)))
    if j.shape != (d2, d2) or d * d != d2:
        raise ValueError(f"Choi matrix shape {j.shape} is not a square of squares")
    charge = popcount_charges(d)
    label = np.zeros(d2, dtype=int) if charge is None else charge.reshape(-1)
    moduli = np.abs(j)
    if moduli[label[:, None] != label].max(initial=0.0) > CHARGE_LEAKAGE_TOL * moduli.max():
        label = np.zeros(d2, dtype=int)  # not covariant: one dense eigh
    w, v = np.empty(d2), np.zeros((d2, d2), dtype=complex)  # v block diagonal over the labels
    for c in np.unique(label):
        idx = np.flatnonzero(label == c)
        w[idx], v[np.ix_(idx, idx)] = np.linalg.eigh(hermitian_part(j[np.ix_(idx, idx)]))
    min_eig = float(w.min())
    if min_eig < -CP_ATOL:
        raise NotCPError(min_eig)
    order = np.argsort(-w)
    w, v = w[order], v[:, order]
    keep = (w >= rank_tol * max(float(w[0]), 0.0)) & (w > 0.0)
    discarded = sum(float(lam) for lam in w[~keep])
    return Channel((np.sqrt(w[keep]) * v[:, keep]).T.reshape(-1, d, d), discarded_weight=discarded)


def _dot_rounding(m: int) -> float:
    """sqrt(2) gamma_(m+2): the relative rounding bound of a complex inner product of length m."""
    u = np.finfo(float).eps / 2.0
    return float(np.sqrt(2.0) * (m + 2) * u / (1.0 - (m + 2) * u))


def kraus_from_stack(stack, rank_tol: float = 1e-12):
    """Choi-canonical Kraus operators of a (k, d, d) stack, from its Gram matrix.

    Returns ``(channel, residual)``. Per charge group of the stack
    (:func:`_charge_groups`), the group's Gram matrix G = V diag(w) V^*
    gives the operators A = V^T F of weight w, the Choi eigenvalues (module
    docstring), so each operator lies in one sector. The operators of all
    groups are merged in descending weight, the gauge rule of
    :func:`kraus_from_choi`; weights below ``rank_tol`` of the largest are
    dropped and their sum is the channel's ``discarded_weight``.

    ``residual`` is an upper bound on the 2-norm of D, the difference
    between the channel matrices of the stack and of the returned operators.
    In coefficient space D = sum_kk' E_kk' conj(K_k) (x) K_k' with
    E = I - conj(V_kept) V_kept^T, so ||D||_F^2 is the contraction
    sum conj(E) (conj(G) E G^T) over the k operator indices, free of the
    cancellation a difference of two norms would suffer. To it is added the
    rounding of the formed operators and of E, e_l (2 ||A_l||_F + s_l + e_l)
    per operator, with s_l = sum_k |V_kl| ||K_k||_F and e_l =
    sqrt(2) gamma_(m+2) s_l over a group of m operators, so that the bound
    holds for the operators returned.
    """
    stack = np.asarray(stack, dtype=complex)
    k, d, _ = stack.shape
    f = stack.reshape(k, d * d)
    gram = f.conj() @ f.T
    norms = np.linalg.norm(f, axis=1)
    pairs = []  # (weight, group, eigenvector)
    for _, idx in _charge_groups(stack):
        w, v = np.linalg.eigh(gram[np.ix_(idx, idx)])
        pairs += [(lam, idx, col) for lam, col in zip(w, v.T)]
    weights = np.array([lam for lam, _, _ in pairs])
    cut = rank_tol * max(float(weights.max()), 0.0)
    ops, discarded, rounding = [], 0.0, 0.0
    kept = np.zeros((k, k), dtype=complex)  # conj(V_kept) V_kept^T
    for i in np.argsort(-weights):
        lam, idx, col = pairs[i]
        if not (lam >= cut and lam > 0.0):
            discarded += float(lam)
            continue
        a = col @ f[idx]
        ops.append(a)
        kept[np.ix_(idx, idx)] += np.outer(col.conj(), col)
        s = float(np.abs(col) @ norms[idx])
        e = _dot_rounding(len(idx)) * s
        rounding += e * (2.0 * float(np.linalg.norm(a)) + s + e)
    e_mat = np.eye(k) - kept
    square = float(np.vdot(e_mat, gram.conj() @ e_mat @ gram.T).real)
    residual = float(np.sqrt(max(square, 0.0))) + rounding
    return Channel(np.reshape(ops, (-1, d, d)), discarded_weight=discarded), residual


def sequence_probability(kraus_sequence, rho: np.ndarray) -> float:
    """Probability of observing the given operators in order, starting from rho.

    The first list element acts first: Tr[A_k ... A_1 rho A_1* ... A_k*].
    """
    state = np.asarray(rho, dtype=complex)
    for a in kraus_sequence:
        if a.shape != state.shape:
            raise ValueError(f"operator shape {a.shape} does not match state shape {state.shape}")
        state = a @ state @ a.conj().T
    return float(np.trace(state).real)


def post_interaction_state(a: np.ndarray, rho: np.ndarray):
    """Conditional state after one Kraus event: (A rho A* / p, p)."""
    a = np.asarray(a, dtype=complex)
    rho = np.asarray(rho, dtype=complex)
    out = a @ rho @ a.conj().T
    p = float(np.trace(out).real)
    if p < ZERO_PROBABILITY:
        raise ZeroProbabilityError(p)
    return out / p, p


@dataclass
class ReversedChannel:
    """Time reversal of a channel around its fixed point.

    ``kraus`` is the reversed channel; ``forward`` the channel it was built
    from. ``apply_adjoint_route`` computes ``kraus.apply`` as a sandwich of
    the fixed-point square roots around the adjoint of the forward channel.
    The two routes agreeing is a construction invariant.
    """

    kraus: Channel
    forward: Channel
    rho_star: np.ndarray
    sqrt: np.ndarray
    invsqrt: np.ndarray

    def apply_adjoint_route(self, rho: np.ndarray) -> np.ndarray:
        inner = self.invsqrt @ np.asarray(rho, dtype=complex) @ self.invsqrt
        return self.sqrt @ self.forward.adjoint().apply(inner) @ self.sqrt


def _charge_diagonal(rho: np.ndarray) -> np.ndarray:
    """rho without its entries between basis states of different popcount, if they are rounding.

    A covariant channel's fixed point commutes with S^Z, so those entries
    vanish; computed ones read about 1e-17. The popcount blocks are each well
    conditioned, but their scales can run from 1e-8 to 1, and the map carries
    that rounding into the smallest block with a relative error of about
    1e-10, which the reversed set's completeness then shows. A state with
    such entries above ``CHARGE_LEAKAGE_TOL`` of its largest entry is not
    covariant and is returned as it is.
    """
    charge = popcount_charges(rho.shape[0])
    if charge is None:
        return rho
    off = charge != 0
    moduli = np.abs(rho)
    if moduli[off].max(initial=0.0) > CHARGE_LEAKAGE_TOL * moduli.max():
        return rho
    return np.where(off, 0.0, rho)


def reverse_channel(forward: Channel, rho_star: np.ndarray, rank_tol: float = 1e-12,
                    fp_tol: float = 1e-10) -> ReversedChannel:
    """Build the time-reversed channel around a full-rank fixed point.

    Parameters
    ----------
    forward : the forward channel.
    rho_star : claimed fixed point; must be full rank (else
        :class:`RankDeficientError`) and moved by less than 100 * ``fp_tol``
        (else :class:`NotFixedPointError`). It is refined by two steps of the
        forward map, and the reversal is built around the refined state.
        Before and after each step, its entries between different popcounts
        are zeroed when they are rounding (:func:`_charge_diagonal`).
    rank_tol : relative eigenvalue cutoff for the rank check.
    fp_tol : solver tolerance the fixed point was computed at.

    The reversed set is verified trace preserving within 1e-9 (equivalent to
    the fixed-point property) and the Kraus route is cross-checked against
    the adjoint-sandwich route on seeded random states.
    """
    rho_star = np.asarray(rho_star, dtype=complex)
    psd_sqrt_invsqrt(rho_star, rank_tol=rank_tol, require_full_rank=True)  # rank check
    residual = trace_distance(forward.apply(rho_star), rho_star)
    if residual > 100.0 * fp_tol:
        raise NotFixedPointError(residual, 100.0 * fp_tol)

    # The solver's absolute error reaches the reversed set amplified by cond(rho_star);
    # two steps of the map leave only the map's own rounding.
    rho_star = _charge_diagonal(rho_star)
    for _ in range(2):
        rho_star = hermitian_part(forward.apply(rho_star))
        rho_star = _charge_diagonal(rho_star / np.trace(rho_star).real)
    sqrt, invsqrt, _ = psd_sqrt_invsqrt(rho_star, rank_tol=rank_tol, require_full_rank=True)

    rev = ReversedChannel(
        kraus=Channel(sqrt @ forward.adjoint().kraus @ invsqrt,
                      discarded_weight=forward.discarded_weight),
        forward=forward,
        rho_star=rho_star,
        sqrt=sqrt,
        invsqrt=invsqrt,
    )

    tp_residual = rev.kraus.completeness_residual()
    if tp_residual > 1e-9:
        raise NotFixedPointError(tp_residual, 1e-9, what="completeness of the reversed set")

    rng = np.random.default_rng(0)  # fixed seed: construction stays deterministic
    shape = (forward.dim, forward.dim)
    for _ in range(3):
        g = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        probe = g @ g.conj().T
        probe /= np.trace(probe).real
        gap = float(np.abs(rev.kraus.apply(probe) - rev.apply_adjoint_route(probe)).max())
        if gap > 1e-9:
            raise NotFixedPointError(gap, 1e-9, what="agreement of the two reversal routes")
    return rev
