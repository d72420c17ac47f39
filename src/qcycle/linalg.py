"""Dense complex-matrix primitives used by every other module, and the S^Z popcount classes.

Units are hbar = k_B = 1 throughout. All matrix functions go through a
Hermitian eigendecomposition rather than series expansions; dimensions stay
at or below 2**12: ``simulate``'s full chain and cycle-2 ``eigvalsh`` at n = 12.

Popcount classes. With |0> the S^Z = +1/2 state, the basis states of d = 2^k
fall into the classes C_m of popcount m (:func:`popcount_classes`), the
total-S^Z sectors k/2 - m. An operator that commutes with S^Z is block
diagonal over them and is stored as the pair (classes, blocks), one block
per class (:func:`assemble` makes it dense). :func:`charge_groups` tests a
stack for that structure: it gives each operator the charge
popcount(row) - popcount(column) of its largest entry and accepts the split
when its entries of other charges are rounding (``CHARGE_LEAKAGE_TOL``); a
stack that does not split, or any d that is not a power of two, is one class
of all basis states, in which every operator has charge 0. :func:`to_state`
and :func:`psd_sqrt_invsqrt` decompose a matrix per class of the one-operator
stack, so a covariant fixed point whose classes differ in scale by 1e8 keeps
exact zeros between them and each class's own relative accuracy.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import RankDeficientError

# Hermiticity drift below this is symmetrized away, above it is rejected.
HERMITICITY_ATOL = 1e-10
# to_state clips eigenvalues in [-STATE_PSD_ATOL, 0) to zero and rejects anything more
# negative. A last iterate lies about solver tol / gap from the fixed point, so where that
# has zero eigenvalues the iterate's can be that negative.
STATE_PSD_ATOL = 1e-6
# Rank checks count eigenvalues at or below this fraction of the largest as zero; Kraus cuts
# drop weights below it, and any weight <= 0, and keep a weight equal to it.
RANK_TOL = 1e-12
# Entries of a Kraus operator or a state outside its own S^Z charge, up to this fraction of
# its largest |entry|, are rounding; above it the stack or the state is not covariant.
CHARGE_LEAKAGE_TOL = 1e-12


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with block (i, j) equal to a[i, j] * b."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def partial_trace(rho: np.ndarray, keep, dims) -> np.ndarray:
    """Reduced matrix on the kept tensor factors, in their original order.

    Parameters
    ----------
    rho : (d, d) array with d = prod(dims)
    keep : iterable of int
        0-based factor indices to retain; must be non-empty.
    dims : sequence of int
        Dimension of each tensor factor, leftmost Kronecker factor first.

    Linear in ``rho`` with no density-matrix checks, so it can be applied to
    arbitrary operators (e.g. matrix units when tabulating a channel).
    """
    rho = np.asarray(rho, dtype=complex)
    dims = [int(d) for d in dims]
    d = int(np.prod(dims))
    if rho.shape != (d, d):
        raise ValueError(f"matrix shape {rho.shape} incompatible with factor dims {dims}")
    keep = sorted({int(k) for k in keep})
    if not keep:
        raise ValueError("keep must name at least one tensor factor")
    if keep[0] < 0 or keep[-1] >= len(dims):
        raise ValueError(f"keep indices {keep} out of range for {len(dims)} factors")
    # row i carries label i; a kept column label n + i, a traced one its row's label i
    n = len(dims)
    cols = [n + i if i in keep else i for i in range(n)]
    t = np.einsum(rho.reshape(dims + dims), list(range(n)) + cols, keep + [n + i for i in keep])
    d_keep = int(np.prod([dims[i] for i in keep]))
    return t.reshape(d_keep, d_keep)


def eigh_hermitian(h: np.ndarray):
    """Eigendecomposition ``(w, v)`` with h = V diag(w) V*; a non-Hermitian h raises ValueError."""
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {h.shape}")
    _require_hermitian(h, 1e-12)
    return np.linalg.eigh(h)


def _require_hermitian(m: np.ndarray, atol: float) -> None:
    """Raise ValueError where max |m - m*| exceeds atol: the one Hermiticity check."""
    dev = float(np.abs(m - m.conj().T).max())
    if dev > atol:
        raise ValueError(f"not Hermitian: max deviation {dev:.3e} (allowed {atol:.3e})")


def unitary_from_eigh(w: np.ndarray, v: np.ndarray, t: float) -> np.ndarray:
    """e^{-i h t} as V e^{-i diag(w) t} V*, from the eigendecomposition of h."""
    return (v * np.exp(-1j * w * t)) @ v.conj().T


def psd_sqrt_invsqrt(rho: np.ndarray):
    """Square root and inverse square root ``(sqrt, invsqrt)`` of a full-rank PSD matrix.

    Decomposed per popcount class when rho is charge-0 pure (:func:`_class_eigh`).
    Eigenvalues at or below ``RANK_TOL`` of the largest over all classes count
    as zero; any such raises :class:`RankDeficientError`.
    """
    w, spectral = _class_eigh(hermitian_part(rho))
    rank = int((w > RANK_TOL * max(float(w.max()), 0.0)).sum())
    if rank < len(w):
        raise RankDeficientError(rank, len(w))
    return spectral(np.sqrt), spectral(lambda x: 1.0 / np.sqrt(x))


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Half the sum of |eigenvalues| of (a - b); zero iff a = b."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    w = np.linalg.eigvalsh(hermitian_part(a - b))
    return 0.5 * float(np.abs(w).sum())


def hermitian_part(m: np.ndarray) -> np.ndarray:
    """(m + m*) / 2, unconditionally.

    Formed in one new C-ordered array, written with m* in one pass, added to and halved in
    place. The sum commutes and halving is exact, so this is ``(m + m.conj().T) / 2``
    bit for bit, except that an exactly zero real or imaginary part may carry
    the other sign.
    """
    m = np.asarray(m, dtype=complex)
    h = np.conjugate(m.T, out=np.empty(m.T.shape, dtype=complex))
    h += m
    h *= 0.5
    return h


def hermitize(m: np.ndarray) -> np.ndarray:
    """Symmetrize floating-point drift away; reject genuine non-Hermiticity.

    For a state a caller hands in (``fixed_point_iterate``'s start): deviations above
    ``HERMITICITY_ATOL`` mean it is no state and raise instead of being papered over.
    Returns :func:`hermitian_part`'s value.
    """
    m = np.asarray(m, dtype=complex)
    _require_hermitian(m, HERMITICITY_ATOL)
    return hermitian_part(m)


def to_state(m: np.ndarray) -> np.ndarray:
    """The density matrix a computed candidate stands for: the one cleaner of solver output.

    Divides by the complex trace, which removes an eigenvector's scale and phase (ValueError
    below 1e-12), takes the Hermitian part, clips eigenvalues in [-``STATE_PSD_ATOL``, 0) to
    zero (ValueError below that) and renormalizes to unit trace. The eigenvalues are taken per
    popcount class when the Hermitian part is charge-0 pure (:func:`_class_eigh`).
    """
    m = np.asarray(m, dtype=complex)
    tr = complex(np.trace(m))
    if abs(tr) < 1e-12:
        raise ValueError("matrix has zero trace; it is no multiple of a state")
    w, spectral = _class_eigh(hermitian_part(m / tr))
    if float(w.min()) < -STATE_PSD_ATOL:
        raise ValueError(f"matrix is not PSD (min eigenvalue {w.min():.3e})")
    m = spectral(lambda x: np.clip(x, 0.0, None))
    return hermitian_part(m / np.trace(m).real)


def _class_split(h: np.ndarray):
    """``(order, spans, h)``: the classes :func:`_class_eigh` decomposes the Hermitian h by.

    The popcount classes (:func:`class_layout`), with h gathered into their order, where
    ``charge_groups(h[None])`` splits h into more than one class; else ``(None, (all,), h)``,
    one class in h's own order. For Hermitian h that split is the test that h's entries of
    nonzero charge are at most ``CHARGE_LEAKAGE_TOL`` of its largest: a charged largest entry
    has a conjugate of equal modulus and another charge.
    """
    if len(charge_groups(h[None])[0]) == 1:
        return None, (slice(0, len(h)),), h
    order, spans = class_layout(len(h))
    return order, spans, h[np.ix_(order, order)]


def _class_eigh(h: np.ndarray):
    """``(w, spectral)``: the eigenvalues of the Hermitian h, and f -> f(h) from its eigenvectors.

    h is decomposed by one ``eigh`` per class of :func:`_class_split`: the popcount classes
    when h is charge-0 pure (a nonzero Hermitian matrix can be pure in charge 0 only), else one
    class of all. h is gathered into class order once, each class's ``eigh`` reads its
    contiguous diagonal block, and ``spectral(f)``, the block-diagonal V f(w) V* of those
    decompositions, exactly zero between classes, is scattered back once. On one class it is
    the dense V f(w) V*, bit for bit.
    """
    order, spans, h = _class_split(h)
    eighs = [np.linalg.eigh(h[s, s]) for s in spans]

    def spectral(f):
        if order is None:
            (w, v), = eighs
            return (v * f(w)) @ v.conj().T
        blocks = np.zeros(h.shape, dtype=complex)
        for s, (w, v) in zip(spans, eighs):
            blocks[s, s] = (v * f(w)) @ v.conj().T
        out = np.empty_like(blocks)
        out[np.ix_(order, order)] = blocks
        return out

    return np.concatenate([w for w, _ in eighs]), spectral


def check_density_matrix(rho: np.ndarray, herm_atol: float = 1e-12,
                         trace_atol: float = 1e-12) -> None:
    """Raise ValueError unless rho is finite, Hermitian, unit-trace, and PSD."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {rho.shape}")
    if not np.isfinite(rho).all():
        # every comparison with NaN is false, so the checks below would pass it
        raise ValueError("entries must be finite")
    _require_hermitian(rho, herm_atol)
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > trace_atol:
        raise ValueError(f"trace {tr} differs from 1 beyond {trace_atol:.1e}")
    w_min = float(np.linalg.eigvalsh(hermitian_part(rho)).min())
    if w_min < -1e-10:
        raise ValueError(f"not PSD: min eigenvalue {w_min:.3e}")


def random_density_matrix(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Full-rank random state G G* / Tr[G G*] with G complex Gaussian."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    return rho


# The popcount vectors are memoized per d: a run asks for a few sizes, the chain's 2^n and the
# reduced chain's 2^(n - 1), many times over. No d x d table is cached (160 MiB at n = 12).
@lru_cache(maxsize=32)
def popcounts(d: int) -> np.ndarray:
    """Each basis state's popcount for d = 2^k, zeros for any other d (one class); read-only."""
    pop = np.array([k.bit_count() for k in range(d)] if not d & (d - 1) else [0] * d, dtype=int)
    pop.flags.writeable = False
    return pop


@lru_cache(maxsize=32)
def popcount_classes(d: int) -> tuple:
    """``(C_0, ..., C_k)`` for d = 2^k: C_m holds the basis states with m bits set, ascending.

    C_m is the total-S^Z sector k/2 - m (|0> is S^Z = +1/2). Every term of the
    chain Hamiltonian maps each sector to itself. Any other d is the one class C_0 of all.
    The arrays are read-only.
    """
    pop = popcounts(d)
    classes = tuple(np.flatnonzero(pop == m) for m in range(pop.max() + 1))
    for c in classes:
        c.flags.writeable = False
    return classes


@lru_cache(maxsize=32)
def class_layout(d: int) -> tuple:
    """``(order, spans)``: the basis states in popcount-class order, and each class's slice of it.

    ``order`` is the concatenated :func:`popcount_classes`, read-only, and ``spans`` a tuple.
    """
    classes = popcount_classes(d)
    order = np.concatenate(classes)
    order.flags.writeable = False
    edges = np.cumsum([0] + [len(c) for c in classes]).tolist()
    return order, tuple(slice(lo, hi) for lo, hi in zip(edges, edges[1:]))


def charge_groups(stack: np.ndarray) -> tuple:
    """``(classes, groups)``: how a (k, m, d) stack, m x d operators, splits by S^Z charge.

    When every operator carries one charge popcount(row) - popcount(column), its
    entries of any other charge at most ``CHARGE_LEAKAGE_TOL`` of its largest entry,
    whose charge it takes, ``classes`` are the :func:`popcount_classes` of its input
    size d and ``groups`` ``[(s, indices), ...]`` the operators by charge s, ascending.
    Otherwise the stack is one class of all basis states in which every operator has
    charge 0: ``((arange(d),), [(0, all)])``. The charges of a rectangular stack are read
    off the :func:`popcounts` of the larger size, its first m for rows and first d for columns.
    """
    k, m, d = stack.shape
    pop = popcounts(max(m, d))
    charge = (pop[:m, None] - pop[None, :d]).reshape(-1)
    moduli = np.abs(stack).reshape(k, -1)
    peak = moduli.argmax(axis=1)
    q = charge[peak]
    leak = np.where(charge[None, :] != q[:, None], moduli, 0.0).max(axis=1)
    if (leak > CHARGE_LEAKAGE_TOL * moduli[np.arange(k), peak]).any():
        return (np.arange(d),), [(0, np.arange(k))]
    # not np.unique, whose first call imports numpy.ma
    return popcount_classes(d), [(c, np.flatnonzero(q == c)) for c in sorted(set(q.tolist()))]


def assemble(blocks, classes) -> np.ndarray:
    """The dense matrix with the given blocks on the classes and zeros between them."""
    d = sum(len(c) for c in classes)
    u = np.zeros((d, d), dtype=complex)
    for c, block in zip(classes, blocks):
        u[np.ix_(c, c)] = block
    return u
