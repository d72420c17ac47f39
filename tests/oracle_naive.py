"""Brute-force oracle: an independent implementation of the stroke pipeline.

Deliberately shares no code paths with the package: Kronecker products and
partial traces are explicit index loops, matrix exponentials come from
scipy.linalg.expm instead of a Hermitian eigendecomposition, and the chain
Hamiltonian is reassembled from products of full-size site operators
instead of the basis-state bits. Slow: ``NaiveCycle`` is only meant for
n <= 5, ``naive_hamiltonian`` for n <= 7.

Two references keep an older construction of a package result, for an
exact comparison: ``naive_hamiltonian(spec, embedded=True)`` sums the one-
and two-site terms tensored with identities, and ``tile_sector_blocks``
gathers each sector tile's operands from the Kraus stack by ``np.ix_``
(with the package's charge groups, classes and Hermitian frame).

``naive_choi`` is the defining Choi sum over matrix units,
``naive_channel_matrix`` the channel's images of the matrix units, and
``dense_kraus`` the Kraus operators of one eigendecomposition of the whole
Choi matrix: the references for the Choi eigenvalues and Kraus operators
that ``kraus_from_stack`` takes from the Gram matrix, and for the channel
matrix that ``sector_blocks`` builds sector by sector.

``stacked_apply`` is ``Channel.apply`` as it ran on the (k, d, d) stacks
before each stage kept its own layout: the stacked left product, a
transposed copy, and the product with the stacked adjoints, here also for
a rectangular (k, m, d) stack. The dense layout must match it bit for bit,
the class-block layout to rounding.

``exact_fixed_point_iterate`` is the iteration with the exact trace
distance taken every step, by ``stacked_apply``. It calls the package's
``hermitize``, ``trace_distance`` and stall rule (``stalled``) on purpose:
it is the reference that ``fixed_point_iterate``, which skips the steps a
Frobenius bound rules out, must match bit for bit.

``NaiveCycle.record`` reads a cycle's heats and works off its four
post-stroke states by their defining traces: the full-chain reference for
the package's ``CycleLedger``, which reads them off the reduced states.
``full_chain_simulate`` is ``simulate``'s loop on the full chain:
``NaiveCycle.run`` on the 2^n x 2^n state every cycle, and ``delta_prev``
between the full cycle-start states of cycle 2 and the AC states from cycle
3 on. It calls the package's ``trace_distance`` and stall rule on purpose:
it is the reference that the reduced loop must match within
``cli_documents.TOLERANCE``.

``total_magnetization``, ``commutator_norm`` and ``expm_unitary`` are the
helpers the tests need and the package does not call. ``expm_unitary``
composes the package's ``eigh_hermitian`` and ``unitary_from_eigh``, the two
halves that ``cycle_operators`` runs per popcount class, so that its tests
keep covering them on whole matrices.
"""

import math
import sys
from collections import deque

import numpy as np
from scipy.linalg import expm

from qcycle.cli import EXIT_NO_CONVERGENCE, EXIT_OK, TRACE_COLUMNS, _initial_full_state
from qcycle.limitcycle import STALL_DROP, STALL_WINDOW, hermitian_frame, stalled
from qcycle.linalg import (charge_groups, eigh_hermitian, hermitize, popcounts, trace_distance,
                           unitary_from_eigh)

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


def naive_partial_trace(rho, keep, dims):
    """Keep the factors ``keep`` by summing each entry whose traced row and column digits agree."""
    n = len(dims)
    kept = [dims[i] for i in keep]
    d_keep = int(np.prod(kept))
    out = np.zeros((d_keep, d_keep), dtype=complex)
    for row in np.ndindex(*dims):
        for col in np.ndindex(*dims):
            if all(row[i] == col[i] for i in range(n) if i not in keep):
                r = np.ravel_multi_index([row[i] for i in keep], kept)
                c = np.ravel_multi_index([col[i] for i in keep], kept)
                out[r, c] += rho[np.ravel_multi_index(row, dims), np.ravel_multi_index(col, dims)]
    return out


def naive_site_operator(pauli, site, n):
    op = np.array([[1.0 + 0j]])
    for k in range(1, n + 1):
        op = naive_kron(op, pauli / 2.0 if k == site else np.eye(2, dtype=complex))
    return op


def naive_bond(spec, bond, n):
    """All coupling terms on the 1-based bond, as products of full-size site operators."""
    i = bond - 1
    sx = [naive_site_operator(SX, site, n) for site in (bond, bond + 1)]
    sy = [naive_site_operator(SY, site, n) for site in (bond, bond + 1)]
    sz = [naive_site_operator(SZ, site, n) for site in (bond, bond + 1)]
    return (4.0 * spec.J[i] * (sx[0] @ sx[1] + sy[0] @ sy[1])
            + 4.0 * spec.K[i] * (sx[0] @ sy[1] - sy[0] @ sx[1])
            + 4.0 * spec.F[i] * (sz[0] @ sz[1]))


def kron_embed(term, site, n):
    """``term`` on the sites from 1-based ``site`` on, tensored with identities by ``np.kron``."""
    left = 2 ** (site - 1)
    right = 2**n // (left * term.shape[0])
    return np.kron(np.kron(np.eye(left, dtype=complex), term), np.eye(right, dtype=complex))


def kron_bond(spec, bond, n):
    """All coupling terms on the 1-based bond, built on its two sites and embedded."""
    i = bond - 1
    sx, sy, sz = SX / 2.0, SY / 2.0, SZ / 2.0
    return kron_embed(4.0 * spec.J[i] * (np.kron(sx, sx) + np.kron(sy, sy))
                      + 4.0 * spec.K[i] * (np.kron(sx, sy) - np.kron(sy, sx))
                      + 4.0 * spec.F[i] * np.kron(sz, sz), bond, n)


def naive_hamiltonian(spec, embedded=False):
    """The full-size parts of the chain Hamiltonian, keyed as in HamiltonianParts.

    ``h_s`` is summed in the package's order (end fields, interior fields,
    interior bonds, end bonds), so the values agree exactly. The terms are
    products of full-size site operators, or with ``embedded`` the one- and
    two-site terms tensored with identities (:func:`kron_embed`), fast enough
    for n = 8.
    """
    n = spec.n
    d = 2**n
    if embedded:
        site, bond = (lambda pauli, i, n: kron_embed(pauli / 2.0, i, n)), kron_bond
    else:
        site, bond = naive_site_operator, naive_bond
    h_a = spec.E[0] * site(SZ, 1, n)
    h_b = spec.E[-1] * site(SZ, n, n)
    parts = {"h_ac": bond(spec, 1, n), "h_cb": bond(spec, n - 1, n)}
    h_c = np.zeros((d, d), dtype=complex)
    for i in range(2, n):
        h_c = h_c + spec.E[i - 1] * site(SZ, i, n)
    for b in range(2, n - 1):
        h_c = h_c + bond(spec, b, n)
    parts["h_s"] = h_a + h_b + h_c + parts["h_ac"] + parts["h_cb"]
    return parts


def naive_gibbs(h, beta):
    g = expm(-beta * np.asarray(h, dtype=complex))
    return g / np.trace(g)


class NaiveCycle:
    """Full stroke pipeline for one (spec, params) point, oracle edition.

    ``run`` is the full-chain cycle and ``record`` its accounting; ``apply_cb``,
    ``apply_cold`` and ``apply_ac`` are the reduced-chain channels.
    """

    def __init__(self, spec, params):
        self.n = spec.n
        self.parts = naive_hamiltonian(spec)
        self.h_a, self.h_b = spec.E[0] * SZ / 2.0, spec.E[-1] * SZ / 2.0
        self.sigma_a = naive_gibbs(self.h_a, params.beta1)
        self.sigma_b = naive_gibbs(self.h_b, params.beta2)
        self.u1 = expm(-1j * self.parts["h_s"] * params.tau1)
        self.u2 = expm(-1j * self.parts["h_s"] * params.tau2)

    def run(self, rho0):
        """The post-stroke states (rho1, rho2, rho3, rho4) of one full-chain cycle from rho0."""
        d_rest = 2 ** (self.n - 1)
        rest = naive_ptrace_first(np.asarray(rho0, dtype=complex), 2, d_rest)
        rho1 = naive_kron(self.sigma_a, rest)
        rho2 = self.u1 @ rho1 @ self.u1.conj().T
        rho3 = naive_kron(naive_ptrace_last(rho2, d_rest, 2), self.sigma_b)
        rho4 = self.u2 @ rho3 @ self.u2.conj().T
        return rho1, rho2, rho3, rho4

    def record(self, rho0, states):
        """``{field: value}`` of ``CycleRecord`` for the cycle from rho0 through ``states``.

        ``states`` are :meth:`run`'s (rho1, rho2, rho3, rho4); each term is Re Tr(op rho), with
        the end qubits' states traced out by index loops. ``energy_change`` is <h_s> at rho4
        minus at rho0, which -q_c - q_h + w_ledger equals.
        """
        rho1, rho2, rho3, rho4 = states
        d_rest = 2 ** (self.n - 1)
        h_ac, h_cb = self.parts["h_ac"], self.parts["h_cb"]

        def expect(op, rho):
            return np.trace(op @ rho).real

        rec = {
            "q_c": expect(self.h_a, naive_ptrace_last(rho0, 2, d_rest) - self.sigma_a),
            "q_h": expect(self.h_b, naive_ptrace_first(rho2, d_rest, 2) - self.sigma_b),
            "w1": expect(h_ac, rho1), "w2": -expect(h_ac, rho2),
            "w3": expect(h_cb, rho3), "w4": -expect(h_cb, rho4),
            "w_ledger": (expect(h_ac, rho1) - expect(h_ac, rho0)
                         + expect(h_cb, rho3) - expect(h_cb, rho2)),
            "energy_change": expect(self.parts["h_s"], rho4 - rho0),
        }
        rec["w_total"] = rec["w1"] + rec["w2"] + rec["w3"] + rec["w4"]
        rec["first_law_residual_paper"] = abs(rec["q_c"] + rec["q_h"] + rec["w_total"])
        rec["first_law_residual_ledger"] = abs(-rec["q_c"] - rec["q_h"] + rec["w_ledger"])
        return rec

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


def tile_sector_blocks(ch):
    """``sector_blocks``' ``(q, order, block)`` with each tile's operands gathered from the stack.

    Each tile's two operands are ``np.ix_`` gathers of the operators of its
    charge, on the tile's classes, from the stack in its own order, and the
    tile is scattered by ``np.ix_`` to its place in ``order``; the package
    slices them from one class-ordered copy instead, with the same bits.
    """
    stack, d = ch.kraus, ch.dim
    classes, groups = charge_groups(stack)
    by_charge = dict(groups)
    for q in [*range(1, len(classes)), 0]:
        pairs = [(m, m - q) for m in range(q, len(classes))]
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
                if ks is None:
                    continue
                a, a2, b, b2 = classes[m], classes[m2], classes[mb], classes[mb2]
                x = stack[np.ix_(ks, a, a2)].reshape(len(ks), -1)
                y = stack[np.ix_(ks, b, b2)].reshape(len(ks), -1)
                g = (x.conj().T @ y).reshape(len(a), len(a2), len(b), len(b2))
                block[np.ix_(where[rows], where[cols])] = g.transpose(0, 2, 1, 3).reshape(
                    len(a) * len(b), -1)
        yield q, order, block


def dense_kraus(j, rank_tol=1e-12):
    """(operators, discarded weight) from one eigh of the whole Choi matrix, in descending weight."""
    d = int(round(np.sqrt(j.shape[0])))
    w, v = np.linalg.eigh((j + j.conj().T) / 2)
    order = np.argsort(-w)
    w, v = w[order], v[:, order]
    cut = rank_tol * max(float(w[0]), 0.0)
    ops, discarded = [], 0.0
    for lam, col in zip(w, v.T):
        if lam >= cut and lam > 0.0:
            ops.append(np.sqrt(lam) * col.reshape(d, d))
        else:
            discarded += float(lam)
    return ops, discarded


def total_magnetization(n):
    """Sum of the single-site S^Z operators; diagonal in the computational basis."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return sum(naive_site_operator(SZ, i, n) for i in range(1, n + 1))


def charge_labels(d):
    """The d x d popcount(a) - popcount(b), entry [a, b] the charge of the matrix unit |a><b|."""
    pop = popcounts(d)
    return pop[:, None] - pop


def commutator_norm(a, b):
    """Max-abs entry of the commutator ab - ba."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape != b.shape:
        raise ValueError(f"expected equal square shapes, got {a.shape} and {b.shape}")
    return float(np.abs(a @ b - b @ a).max())


def expm_unitary(h, t):
    """Evolution operator e^{-i h t} for Hermitian h (hbar = 1); a non-Hermitian h raises."""
    return unitary_from_eigh(*eigh_hermitian(h), t)


def stacked_apply(stages, rho):
    """sum_k K_k rho K_k^* of each (k, m, d) stack in turn, through the stacked products."""
    rho = np.asarray(rho, dtype=complex)
    for stack in stages:
        stack = np.asarray(stack, dtype=complex)
        k, m, d = stack.shape
        adjoints = stack.conj().transpose(0, 2, 1).reshape(-1, m)
        left = (stack.reshape(k * m, d) @ rho).reshape(k, m, d)
        rho = left.transpose(1, 0, 2).reshape(m, k * d) @ adjoints
    return rho


def exact_fixed_point_iterate(stages, rho_init, tol, max_iter):
    """(rho, iterations, final_delta, converged) of the iteration with the exact stop test.

    The map is :func:`stacked_apply` of the (k, d, d) ``stages``. ``rho`` is the last iterate,
    before ``to_state``. After the stop test, a step that ends a window of ``STALL_WINDOW``
    stops the loop where its delta has ``stalled`` against the one ``STALL_WINDOW`` steps
    before.
    """
    rho = hermitize(np.asarray(rho_init, dtype=complex))
    deltas = []
    for step in range(1, max_iter + 1):
        nxt = stacked_apply(stages, rho)
        deltas.append(trace_distance(nxt, rho))
        rho = nxt
        if deltas[-1] < tol:
            break
        if (step % STALL_WINDOW == 0 and step > STALL_WINDOW
                and stalled(deltas[-1 - STALL_WINDOW], deltas[-1])):
            break
    converged = bool(deltas) and deltas[-1] < tol
    return rho, len(deltas), (deltas[-1] if deltas else 0.0), converged


def full_chain_simulate(cfg):
    """``(exit_status, csv_text)`` of ``simulate`` on ``cfg`` by full-chain ``NaiveCycle`` steps.

    The stall message goes to stderr, as ``simulate`` prints it.
    """
    oracle = NaiveCycle(cfg.spec, cfg.params)
    rho0 = initial = _initial_full_state(cfg)
    lines = [",".join(TRACE_COLUMNS)]
    ac = prev_ac = None
    window = deque(maxlen=STALL_WINDOW + 1)
    converged = False
    for cycle_idx in range(1, cfg.max_iter + 1):
        states = oracle.run(rho0)
        rec = oracle.record(rho0, states)
        rec["delta_prev"] = math.nan
        if prev_ac is not None:
            rec["delta_prev"] = trace_distance(ac, prev_ac)
            window.append(rec["delta_prev"])
        elif cycle_idx == 2:
            rec["delta_prev"] = trace_distance(rho0, initial)
        lines.append(",".join([str(cycle_idx)] + [repr(float(rec[c])) for c in TRACE_COLUMNS[1:]]))
        if not math.isnan(rec["delta_prev"]) and rec["delta_prev"] < cfg.tol:
            converged = True
            break
        if len(window) > STALL_WINDOW and stalled(window[0], window[-1]):
            print(f"qcycle: simulate stalled at cycle {cycle_idx}: delta_prev fell by less than "
                  f"{STALL_DROP:.0e} over {STALL_WINDOW} cycles; see spectrum", file=sys.stderr)
            break
        prev_ac, ac = ac, naive_ptrace_last(states[1], 2 ** (cfg.spec.n - 1), 2)
        rho0 = states[3]
    return (EXIT_OK if converged else EXIT_NO_CONVERGENCE), "\n".join(lines) + "\n"
