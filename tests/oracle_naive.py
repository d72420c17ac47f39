"""Brute-force oracle: an independent implementation of the stroke pipeline.

Deliberately shares no code paths with the package: Kronecker products and
partial traces are explicit index loops, matrix exponentials come from
scipy.linalg.expm instead of a Hermitian eigendecomposition, and the chain
Hamiltonian is reassembled from scratch. Slow and only meant for n <= 5.

``naive_choi`` is the defining Choi sum over matrix units, the reference
for the package's reshuffled Choi matrix, and ``naive_channel_matrix`` the
channel's images of the matrix units, the reference for its channel matrix.
"""

import numpy as np
from scipy.linalg import expm

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def naive_kron(a, b):
    ra, ca = a.shape
    rb, cb = b.shape
    out = np.zeros((ra * rb, ca * cb), dtype=complex)
    for i in range(ra):
        for j in range(ca):
            for k in range(rb):
                for l in range(cb):
                    out[i * rb + k, j * cb + l] = a[i, j] * b[k, l]
    return out


def naive_ptrace_first(rho, d_first, d_rest):
    """Trace out the leading tensor factor by explicit summation."""
    out = np.zeros((d_rest, d_rest), dtype=complex)
    for r in range(d_rest):
        for c in range(d_rest):
            for a in range(d_first):
                out[r, c] += rho[a * d_rest + r, a * d_rest + c]
    return out


def naive_ptrace_last(rho, d_rest, d_last):
    """Trace out the trailing tensor factor by explicit summation."""
    out = np.zeros((d_rest, d_rest), dtype=complex)
    for r in range(d_rest):
        for c in range(d_rest):
            for b in range(d_last):
                out[r, c] += rho[r * d_last + b, c * d_last + b]
    return out


def naive_site_operator(pauli, site, n):
    op = np.array([[1.0 + 0j]])
    for k in range(1, n + 1):
        op = naive_kron(op, pauli / 2.0 if k == site else np.eye(2, dtype=complex))
    return op


def naive_hamiltonian(spec):
    n = spec.n
    d = 2**n
    h = np.zeros((d, d), dtype=complex)
    for i in range(1, n + 1):
        h += spec.E[i - 1] * naive_site_operator(SZ, i, n)
    for i in range(1, n):
        sxi = naive_site_operator(SX, i, n)
        sxj = naive_site_operator(SX, i + 1, n)
        syi = naive_site_operator(SY, i, n)
        syj = naive_site_operator(SY, i + 1, n)
        szi = naive_site_operator(SZ, i, n)
        szj = naive_site_operator(SZ, i + 1, n)
        h += 4 * spec.J[i - 1] * (sxi @ sxj + syi @ syj)
        h += 4 * spec.K[i - 1] * (sxi @ syj - syi @ sxj)
        h += 4 * spec.F[i - 1] * (szi @ szj)
    return h


def naive_gibbs(h, beta):
    g = expm(-beta * np.asarray(h, dtype=complex))
    return g / np.trace(g)


class NaiveCycle:
    """Full stroke pipeline for one (spec, params) point, oracle edition."""

    def __init__(self, spec, params):
        self.n = spec.n
        h_s = naive_hamiltonian(spec)
        self.sigma_a = naive_gibbs(spec.E[0] * SZ / 2.0, params.beta1)
        self.sigma_b = naive_gibbs(spec.E[-1] * SZ / 2.0, params.beta2)
        self.u1 = expm(-1j * h_s * params.tau1)
        self.u2 = expm(-1j * h_s * params.tau2)

    def apply_cb(self, rho_cb):
        full = naive_kron(self.sigma_a, np.asarray(rho_cb, dtype=complex))
        full = self.u1 @ full @ self.u1.conj().T
        rest = naive_ptrace_last(full, 2 ** (self.n - 1), 2)
        full = naive_kron(rest, self.sigma_b)
        full = self.u2 @ full @ self.u2.conj().T
        return naive_ptrace_first(full, 2, 2 ** (self.n - 1))

    def apply_cold(self, rho_cb):
        """The first half of apply_cb: CB in, AC out."""
        full = naive_kron(self.sigma_a, np.asarray(rho_cb, dtype=complex))
        full = self.u1 @ full @ self.u1.conj().T
        return naive_ptrace_last(full, 2 ** (self.n - 1), 2)

    def apply_ac(self, rho_ac):
        full = naive_kron(np.asarray(rho_ac, dtype=complex), self.sigma_b)
        full = self.u2 @ full @ self.u2.conj().T
        rest = naive_ptrace_first(full, 2, 2 ** (self.n - 1))
        full = naive_kron(self.sigma_a, rest)
        full = self.u1 @ full @ self.u1.conj().T
        return naive_ptrace_last(full, 2 ** (self.n - 1), 2)


def naive_choi(ch):
    """J = sum_ij ch(E_ij) (x) E_ij, one Kronecker product per matrix unit."""
    d = ch.dim
    j = np.zeros((d * d, d * d), dtype=complex)
    for row in range(d):
        for col in range(d):
            unit = np.zeros((d, d), dtype=complex)
            unit[row, col] = 1.0
            j += np.kron(ch.apply(unit), unit)
    return j


def naive_channel_matrix(ch):
    """Column-stacking channel matrix, column j being vec(ch(unvec(e_j)))."""
    d = ch.dim
    columns = [ch.apply(e.reshape((d, d), order="F")).reshape(-1, order="F")
               for e in np.eye(d * d, dtype=complex)]
    return np.column_stack(columns)
