"""Spin-conserving Ising chain: Hamiltonian parts, magnetization, Gibbs states.

Conventions, fixed so test vectors are bit-exact:
  * spin operators are S = sigma / 2, so the explicit factor 4 on each bond
    coupling turns bond terms into plain Pauli products;
  * site 1 occupies the leftmost Kronecker slot (most significant bit);
  * |0> is the S^Z = +1/2 state.

Every term of the chain Hamiltonian commutes with the total magnetization,
which is the symmetry the engine's efficiency identity rests on.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, integer
from .linalg import eigh_hermitian, kron

PAULI = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def _embed(term: np.ndarray, site: int, n: int) -> np.ndarray:
    """``term`` on the sites from 1-based ``site`` on, tensored with identities up to n sites."""
    left = 2 ** (site - 1)
    return kron(kron(np.eye(left), term), np.eye(2**n // (left * term.shape[0])))


def site_operator(axis: str, site: int, n: int) -> np.ndarray:
    """Spin-1/2 operator sigma^axis / 2 acting on one site of an n-qubit chain.

    ``site`` is 1-based: site 1 is the leftmost Kronecker factor.
    """
    if axis not in PAULI:
        raise ValueError(f"axis must be one of 'X', 'Y', 'Z', got {axis!r}")
    if not (1 <= site <= n):
        raise ValueError(f"site {site} out of range 1..{n}")
    return _embed(PAULI[axis] / 2.0, site, n)


@dataclass
class ChainSpec:
    """Parameters of the n-qubit chain.

    ``E`` holds the n local fields; ``J``, ``K``, ``F`` hold the n-1 bond
    couplings (in-plane exchange, antisymmetric exchange, and longitudinal
    coupling respectively). Units are energy with hbar = k_B = 1. ``n`` must
    be an integer and each list an iterable of real numbers, a ``bool`` being
    neither. Invalid values raise :class:`ConfigError` naming the field
    (``n``, ``E[0]``, ``J``), as does a bound sum |E| + 4 sum (|J| + |K| + |F|)
    on the chain Hamiltonian's entries that overflows.
    """

    n: int
    E: tuple = field(default=())
    J: tuple = field(default=())
    K: tuple = field(default=())
    F: tuple = field(default=())

    def __post_init__(self):
        self.n = integer(self.n, "n", minimum=3)
        for name in ("E", "J", "K", "F"):
            length = self.n if name == "E" else self.n - 1
            vals = getattr(self, name)
            vals = tuple(vals) if isinstance(vals, Iterable) else (None,)  # None: no number
            if any(isinstance(x, bool) or not isinstance(x, numbers.Real) for x in vals):
                raise ConfigError(name, "must be a list of numbers")
            vals = tuple(float(x) for x in vals)
            setattr(self, name, vals)
            if len(vals) != length:
                raise ConfigError(name, f"must have length {length}, got {len(vals)}")
            for i, x in enumerate(vals):
                if not math.isfinite(x):
                    raise ConfigError(f"{name}[{i}]", f"must be finite, got {x}")
        bound = 0.0
        for name in ("E", "J", "K", "F"):
            bound += (1.0 if name == "E" else 4.0) * sum(abs(x) for x in getattr(self, name))
            if not math.isfinite(bound):
                raise ConfigError(name, "too large: the chain Hamiltonian overflows")
        if self.E[0] == 0.0:
            raise ConfigError("E[0]", "must be nonzero (end qubit A needs a finite gap)")
        if self.E[-1] == 0.0:
            raise ConfigError(f"E[{self.n - 1}]",
                              "must be nonzero (end qubit B needs a finite gap)")


@dataclass
class HamiltonianParts:
    """The chain Hamiltonian ``h_s`` and the parts of it the cycle accounting reads.

    ``h_ac``/``h_cb`` are the first/last bond terms. ``h_a_local`` and
    ``h_b_local`` are the 2x2 end-qubit field terms, used wherever a reduced
    end-qubit state is paired with its Hamiltonian.
    """

    h_ac: np.ndarray
    h_cb: np.ndarray
    h_s: np.ndarray
    h_a_local: np.ndarray
    h_b_local: np.ndarray
    n: int


def _bond_terms(spec: ChainSpec, bond: int) -> np.ndarray:
    """All coupling terms on the given 1-based bond (J, K and F families).

    Built on the bond's two sites and embedded with identities, not
    multiplied out of full-size site operators.
    """
    i = bond - 1
    sx, sy, sz = (PAULI[axis] / 2.0 for axis in "XYZ")
    return _embed(4.0 * spec.J[i] * (kron(sx, sx) + kron(sy, sy))
                  + 4.0 * spec.K[i] * (kron(sx, sy) - kron(sy, sx))
                  + 4.0 * spec.F[i] * kron(sz, sz), bond, spec.n)


def build_hamiltonian(spec: ChainSpec) -> HamiltonianParts:
    """Assemble the chain Hamiltonian, summed as end fields + interior + end bonds."""
    n = spec.n
    h_a = spec.E[0] * site_operator("Z", 1, n)
    h_b = spec.E[-1] * site_operator("Z", n, n)
    h_ac = _bond_terms(spec, 1)
    h_cb = _bond_terms(spec, n - 1)

    d = 2**n
    h_c = np.zeros((d, d), dtype=complex)
    for i in range(2, n):  # interior fields
        h_c = h_c + spec.E[i - 1] * site_operator("Z", i, n)
    for bond in range(2, n - 1):  # interior bonds (empty for n = 3)
        h_c = h_c + _bond_terms(spec, bond)

    h_s = h_a + h_b + h_c + h_ac + h_cb
    return HamiltonianParts(
        h_ac=h_ac, h_cb=h_cb, h_s=h_s,
        h_a_local=spec.E[0] * PAULI["Z"] / 2.0,
        h_b_local=spec.E[-1] * PAULI["Z"] / 2.0,
        n=n,
    )


def gibbs_state(h_local: np.ndarray, beta: float) -> np.ndarray:
    """Canonical state e^{-beta h} / Tr[e^{-beta h}] via eigendecomposition.

    Full rank for any finite beta; beta = 0 gives the maximally mixed state.
    Negative beta is rejected: baths have positive temperature here.
    """
    if beta < 0.0:
        raise ValueError(f"beta must be >= 0, got {beta}")
    w, v = eigh_hermitian(h_local)
    weights = np.exp(-beta * (w - w.min()))  # shift cancels in the ratio
    rho = (v * weights) @ v.conj().T
    return rho / np.trace(rho).real
