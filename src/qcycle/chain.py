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


def build_hamiltonian(spec: ChainSpec) -> HamiltonianParts:
    """Assemble the chain Hamiltonian from the bits of the basis states, with no Kronecker product.

    Bit n - i of a basis state x is set where site i is down. Field and F terms are diagonal; the
    J/K terms of bond i set <x|h|x ^ (the bond's two bits)> = 2 J_i - 2i K_i where site i of x is
    down and site i + 1 up, and its conjugate back. ``h_s`` is summed as end fields + interior
    fields + interior bonds + end bonds, the order that gives the Kronecker-embedded terms' values.
    """
    n = spec.n
    down = np.arange(2**n)[:, None] >> np.arange(n - 1, -1, -1) & 1  # down[x, i - 1]: site i
    z = 0.5 - down  # S^Z of each site
    fields = [e * z[:, i] for i, e in enumerate(spec.E)]
    zz = [4.0 * f * (z[:, i] * z[:, i + 1]) for i, f in enumerate(spec.F)]
    interior = sum(fields[1:-1] + zz[1:-1], np.zeros(2**n))  # fields, then bonds

    def hamiltonian(diagonal, bonds):
        h = np.diag(diagonal).astype(complex)
        for i in bonds:
            flip = np.flatnonzero(down[:, i] > down[:, i + 1])  # site i + 1 down, i + 2 up
            flop = flip ^ (3 << (n - 2 - i))
            h[flip, flop] = complex(2.0 * spec.J[i], -2.0 * spec.K[i])
            h[flop, flip] = complex(2.0 * spec.J[i], 2.0 * spec.K[i])
        return h

    return HamiltonianParts(
        h_ac=hamiltonian(zz[0], [0]), h_cb=hamiltonian(zz[-1], [n - 2]),
        h_s=hamiltonian(fields[0] + fields[-1] + interior + zz[0] + zz[-1], range(n - 1)),
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
