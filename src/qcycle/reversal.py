"""Kraus extraction and the time-reversed channel.

The Choi matrix here is J = sum_ij ch(E_ij) (x) E_ij over matrix units,
i.e. the output leg is the first Kronecker factor. J is PSD iff the channel
is completely positive, and tracing out the output leg returns the identity
iff the channel is trace preserving.

The Choi matrix splits by S^Z charge (see :mod:`qcycle.limitcycle`, with
|0> the S^Z = +1/2 state, so a basis state's charge is -popcount up to a
constant and only differences matter). A covariant channel maps E_ij, of
charge popcount(j) - popcount(i), to outputs of the same charge, so
J[k*d + i, l*d + j] vanishes unless popcount(k) - popcount(i) =
popcount(l) - popcount(j). :func:`kraus_from_stack` keeps every Kraus
operator in one sector by working one charge group of the stack at a time.

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

which is trace preserving exactly when r is a fixed point. It maps X to
r^{1/2} ch^*(r^{-1/2} X r^{-1/2}) r^{1/2}, with ch^* the adjoint map (Crooks,
PRA 77, 034101, 2008; the Petz map at a fixed point). Two of its properties
hold around any full-rank r, fixed or not, since sum_k K_k^* K_k = I: it maps
r to r^{1/2} (sum_k K_k^* K_k) r^{1/2} = r, and it reverses two-step path
probabilities from r, Tr[K_b K_a r K_a^* K_b^*] both ways. So ``reverse``'s
``reversed_fixed_point_distance`` and ``max_detailed_balance_violation`` are
identities checked to rounding; only the reversed set's completeness depends on r
being a fixed point, and it is the one fixed-point check (:class:`NotFixedPointError`).
"""

from __future__ import annotations

import numpy as np

from .errors import NotFixedPointError
from .limitcycle import Channel
from .linalg import RANK_TOL, charge_groups, hermitian_part, psd_sqrt_invsqrt


def _dot_rounding(m: int) -> float:
    """sqrt(2) gamma_(m+2): the relative rounding bound of a complex inner product of length m."""
    u = np.finfo(float).eps / 2.0
    return float(np.sqrt(2.0) * (m + 2) * u / (1.0 - (m + 2) * u))


def kraus_from_stack(stack):
    """Choi-canonical Kraus operators of a (k, d, d) stack, from its Gram matrix.

    Returns ``(channel, discarded, residual)``. Per charge group of the stack
    (:func:`~qcycle.linalg.charge_groups`), the group's Gram matrix G = V diag(w) V^*
    gives the operators A = V^T F of weight w, the Choi eigenvalues (module
    docstring), so each operator lies in one sector. The operators of all
    groups are merged in descending weight, which fixes the gauge; weights
    below ``RANK_TOL`` of the largest are dropped and their sum is
    ``discarded``.

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
    for _, idx in charge_groups(stack)[1]:
        w, v = np.linalg.eigh(gram[np.ix_(idx, idx)])
        pairs += [(lam, idx, col) for lam, col in zip(w, v.T)]
    weights = np.array([lam for lam, _, _ in pairs])
    cut = RANK_TOL * max(float(weights.max()), 0.0)
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
    return Channel(np.reshape(ops, (-1, d, d))), discarded, residual


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


def path_probabilities(stack, rho: np.ndarray) -> np.ndarray:
    """P[b, a] = ``sequence_probability([K_a, K_b], rho)`` for every pair of a (k, d, d) stack.

    Tr[K_b K_a rho K_a* K_b*] = Tr[Q_b P_a] = sum_ij Re(Q_b[i, j] conj(P_a[i, j])) for the
    Hermitian Q_b = K_b* K_b and P_a = K_a rho K_a*, formed as three stacked products, each
    operator's the same as its own ``adjoint @ op`` and ``op @ rho @ adjoint``.
    """
    stack = np.asarray(stack, dtype=complex)
    adjoints = stack.conj().transpose(0, 2, 1)
    grams, images = adjoints @ stack, stack @ rho @ adjoints
    k = len(stack)
    return grams.reshape(k, -1).view(float) @ images.reshape(k, -1).view(float).T


def reverse_channel(forward: Channel, rho_star: np.ndarray):
    """Build the time-reversed channel around a full-rank fixed point.

    ``rho_star``, the claimed fixed point of ``forward``, is refined by one step of the
    forward map, and the reversal is built around the refined state. That state must be
    full rank to ``RANK_TOL`` (else :class:`RankDeficientError`), and the reversed set
    must be trace preserving within 1e-9, which is equivalent to the fixed-point
    property (else :class:`NotFixedPointError`).

    Returns ``(reversed, rho_star)``: the reversed :class:`Channel` and the
    refined state. The square roots of a covariant fixed point are taken per
    popcount class (:func:`~qcycle.linalg.psd_sqrt_invsqrt`): its classes can
    differ in scale by 1e8, and one dense ``eigh`` would spread the whole
    matrix's rounding into the smallest class, which the inverse root then
    amplifies.
    """
    # The solver's absolute error reaches the reversed set amplified by cond(rho_star); one step
    # of the map leaves only the map's own rounding. It stays linear, so a covariant state keeps
    # its exact zeros between popcount classes.
    rho_star = hermitian_part(forward.apply(np.asarray(rho_star, dtype=complex)))
    rho_star = rho_star / np.trace(rho_star).real
    sqrt, invsqrt = psd_sqrt_invsqrt(rho_star)

    # the Petz reversal's operators rho*^(1/2) K_k^* rho*^(-1/2)
    rev = Channel(sqrt @ forward.kraus.conj().transpose(0, 2, 1) @ invsqrt)
    tp_residual = rev.completeness_residual()
    if tp_residual > 1e-9:
        raise NotFixedPointError(tp_residual, 1e-9, "completeness of the reversed set: residual")
    return rev, rho_star
