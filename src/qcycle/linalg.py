"""Dense complex-matrix primitives used by every other module.

Units are hbar = k_B = 1 throughout. All matrix functions go through a
Hermitian eigendecomposition rather than series expansions; dimensions stay
at or below 2**10, where exact diagonalization is cheap and stable.
"""

from __future__ import annotations

import numpy as np

from .errors import RankDeficientError

# Hermiticity drift below this is symmetrized away, above it is rejected.
HERMITICITY_ATOL = 1e-10
# to_state clips eigenvalues in [-STATE_PSD_ATOL, 0) to zero and rejects anything more
# negative. A last iterate lies about solver tol / gap from the fixed point, so where that
# has zero eigenvalues the iterate's can be that negative.
STATE_PSD_ATOL = 1e-6
# Eigenvalues at or below this fraction of the largest count as zero in rank checks and Kraus cuts.
RANK_TOL = 1e-12


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
    t = rho.reshape(dims + dims)
    traced = [i for i in range(len(dims)) if i not in keep]
    # Trace highest axes first so lower axis labels stay valid.
    for ax in reversed(traced):
        t = np.trace(t, axis1=ax, axis2=ax + t.ndim // 2)
    d_keep = int(np.prod([dims[i] for i in keep]))
    return t.reshape(d_keep, d_keep)


def expm_unitary(h: np.ndarray, t: float) -> np.ndarray:
    """Evolution operator e^{-i h t} for Hermitian h (hbar = 1); see :func:`unitary_from_eigh`."""
    return unitary_from_eigh(*eigh_hermitian(h), t)


def eigh_hermitian(h: np.ndarray):
    """Eigendecomposition ``(w, v)`` with h = V diag(w) V*; a non-Hermitian h raises ValueError."""
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {h.shape}")
    dev = float(np.abs(h - h.conj().T).max())
    if dev > 1e-12:
        raise ValueError(f"matrix is not Hermitian (max deviation {dev:.3e})")
    return np.linalg.eigh(h)


def unitary_from_eigh(w: np.ndarray, v: np.ndarray, t: float) -> np.ndarray:
    """e^{-i h t} as V e^{-i diag(w) t} V*, from the eigendecomposition of h."""
    return (v * np.exp(-1j * w * t)) @ v.conj().T


def psd_sqrt_invsqrt(rho: np.ndarray):
    """Square root and inverse square root ``(sqrt, invsqrt)`` of a full-rank PSD matrix.

    Eigenvalues at or below ``RANK_TOL`` of the largest count as zero; any
    such raises :class:`RankDeficientError`.
    """
    rho = np.asarray(rho, dtype=complex)
    w, v = np.linalg.eigh(hermitian_part(rho))
    rank = int((w > RANK_TOL * max(float(w.max()), 0.0)).sum())
    if rank < len(w):
        raise RankDeficientError(rank, len(w))
    root = np.sqrt(w)
    inv_root = 1.0 / root
    return (v * root) @ v.conj().T, (v * inv_root) @ v.conj().T


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Half the sum of |eigenvalues| of (a - b); zero iff a = b."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    w = np.linalg.eigvalsh(hermitian_part(a - b))
    return 0.5 * float(np.abs(w).sum())


def commutator_norm(a: np.ndarray, b: np.ndarray) -> float:
    """Max-abs entry of the commutator ab - ba."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape != b.shape:
        raise ValueError(f"expected equal square shapes, got {a.shape} and {b.shape}")
    return float(np.abs(a @ b - b @ a).max())


def hermitian_part(m: np.ndarray) -> np.ndarray:
    """(m + m*) / 2, unconditionally."""
    m = np.asarray(m, dtype=complex)
    return (m + m.conj().T) / 2.0


def hermitize(m: np.ndarray) -> np.ndarray:
    """Symmetrize floating-point drift away; reject genuine non-Hermiticity.

    For a state a caller hands in (``run_cycle``'s rho0 after stroke 1,
    ``fixed_point_iterate``'s start): deviations above ``HERMITICITY_ATOL``
    mean it is no state and raise instead of being papered over.
    """
    m = np.asarray(m, dtype=complex)
    dev = float(np.abs(m - m.conj().T).max())
    if dev > HERMITICITY_ATOL:
        raise ValueError(f"matrix deviates from Hermitian by {dev:.3e} "
                         f"(allowed {HERMITICITY_ATOL:.3e})")
    return (m + m.conj().T) / 2.0


def to_state(m: np.ndarray) -> np.ndarray:
    """The density matrix a computed candidate stands for: the one cleaner of solver output.

    Divides by the complex trace, which removes an eigenvector's scale and phase (ValueError
    below 1e-12), takes the Hermitian part, clips eigenvalues in [-``STATE_PSD_ATOL``, 0) to
    zero (ValueError below that) and renormalizes to unit trace.
    """
    m = np.asarray(m, dtype=complex)
    tr = complex(np.trace(m))
    if abs(tr) < 1e-12:
        raise ValueError("matrix has zero trace; it is no multiple of a state")
    w, v = np.linalg.eigh(hermitian_part(m / tr))
    if float(w.min()) < -STATE_PSD_ATOL:
        raise ValueError(f"matrix is not PSD (min eigenvalue {w.min():.3e})")
    m = (v * np.clip(w, 0.0, None)) @ v.conj().T
    return hermitian_part(m / np.trace(m).real)


def check_density_matrix(rho: np.ndarray, herm_atol: float = 1e-12,
                         trace_atol: float = 1e-12, psd_atol: float = 1e-10) -> None:
    """Raise ValueError unless rho is finite, Hermitian, unit-trace, and PSD."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {rho.shape}")
    if not np.isfinite(rho).all():
        # every comparison with NaN is false, so the checks below would pass it
        raise ValueError("entries must be finite")
    dev = float(np.abs(rho - rho.conj().T).max())
    if dev > herm_atol:
        raise ValueError(f"not Hermitian: max deviation {dev:.3e}")
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > trace_atol:
        raise ValueError(f"trace {tr} differs from 1 beyond {trace_atol:.1e}")
    w_min = float(np.linalg.eigvalsh(hermitian_part(rho)).min())
    if w_min < -psd_atol:
        raise ValueError(f"not PSD: min eigenvalue {w_min:.3e}")


def random_density_matrix(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Full-rank random state G G* / Tr[G G*] with G complex Gaussian."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real
