import itertools

import numpy as np
import pytest

from qcycle import (RankDeficientError, check_density_matrix, kron, partial_trace,
                    psd_sqrt_invsqrt, random_density_matrix, to_state, trace_distance)
from qcycle.linalg import (CHARGE_LEAKAGE_TOL, HERMITICITY_ATOL, STATE_PSD_ATOL, _class_split,
                           eigh_hermitian, hermitian_part, hermitize, popcount_classes)
from oracle_naive import charge_labels, commutator_norm, expm_unitary, naive_partial_trace


def random_hermitian(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (g + g.conj().T) / 2


class TestKron:
    def test_identity(self):
        assert np.array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_dimensions(self, rng):
        a = rng.normal(size=(2, 2))
        b = rng.normal(size=(4, 4))
        assert kron(a, b).shape == (8, 8)

    def test_diagonal_blocks(self):
        out = kron(np.diag([1.0, 2.0]), np.diag([3.0, 4.0]))
        assert np.allclose(out, np.diag([3.0, 4.0, 6.0, 8.0]), atol=0)

    def test_associativity(self, rng):
        a, b, c = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(3))
        assert np.abs(kron(kron(a, b), c) - kron(a, kron(b, c))).max() <= 1e-14


class TestPartialTrace:
    def test_product_state(self, rng):
        rho_a = random_density_matrix(2, rng)
        rho_cb = random_density_matrix(4, rng)
        out = partial_trace(kron(rho_a, rho_cb), keep=[1, 2], dims=[2, 2, 2])
        assert np.abs(out - rho_cb).max() < 1e-14

    def test_keep_all(self, rng):
        rho = random_density_matrix(8, rng)
        assert np.abs(partial_trace(rho, [0, 1, 2], [2, 2, 2]) - rho).max() == 0.0

    def test_bell_state(self):
        # |00> + |11>, reduced state of either qubit is maximally mixed
        psi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        rho = np.outer(psi, psi.conj())
        assert np.abs(partial_trace(rho, [0], [2, 2]) - np.eye(2) / 2).max() < 1e-15

    def test_trace_and_psd_preserved(self, rng):
        for _ in range(10):
            rho = random_density_matrix(16, rng)
            red = partial_trace(rho, [1, 3], [2, 2, 2, 2])
            assert abs(np.trace(red) - 1.0) <= 1e-12
            assert np.linalg.eigvalsh(red).min() >= -1e-10

    @pytest.mark.parametrize("dims", [[2, 3], [3, 2], [2, 3, 2], [3, 2, 2], [2, 2, 3, 2]])
    def test_every_keep_subset_against_index_loop(self, rng, dims):
        d = int(np.prod(dims))
        m = (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) / d
        for size in range(1, len(dims) + 1):
            for keep in itertools.combinations(range(len(dims)), size):
                reference = naive_partial_trace(m, keep, dims)
                assert np.abs(partial_trace(m, keep, dims) - reference).max() <= 1e-15

    def test_empty_keep_rejected(self, rng):
        with pytest.raises(ValueError):
            partial_trace(random_density_matrix(4, rng), [], [2, 2])

    def test_dim_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            partial_trace(random_density_matrix(4, rng), [0], [2, 2, 2])


class TestExpmUnitary:
    def test_zero_time(self, rng):
        h = random_hermitian(rng, 6)
        assert np.abs(expm_unitary(h, 0.0) - np.eye(6)).max() < 1e-14

    def test_diagonal_closed_form(self):
        e, tau = 1.7, 0.9
        u = expm_unitary(np.diag([e / 2, -e / 2]), tau)
        expected = np.diag([np.exp(-1j * e * tau / 2), np.exp(1j * e * tau / 2)])
        assert np.abs(u - expected).max() < 1e-14

    def test_group_property(self, rng):
        h = random_hermitian(rng, 8)
        u = expm_unitary(h, 0.6) @ expm_unitary(h, 1.1)
        assert np.abs(u - expm_unitary(h, 1.7)).max() <= 1e-10

    def test_unitarity(self, rng):
        u = expm_unitary(random_hermitian(rng, 8), 2.3)
        assert np.abs(u.conj().T @ u - np.eye(8)).max() <= 1e-10

    def test_energy_conserved_when_commuting(self, rng):
        # evolve under f(H); expectation of H itself cannot change
        h = random_hermitian(rng, 6)
        u = expm_unitary(h @ h, 1.3)
        rho = random_density_matrix(6, rng)
        before = np.trace(rho @ h)
        after = np.trace(u @ rho @ u.conj().T @ h)
        assert abs(after - before) <= 1e-10

    def test_non_hermitian_rejected(self, rng):
        with pytest.raises(ValueError):
            expm_unitary(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)), 1.0)


class TestPsdRoots:
    def test_scalar_matrix(self):
        d = 4
        sqrt, invsqrt = psd_sqrt_invsqrt(np.eye(d) / d)
        assert np.abs(sqrt - np.eye(d) / np.sqrt(d)).max() < 1e-14
        assert np.abs(invsqrt - np.eye(d) * np.sqrt(d)).max() < 1e-14

    def test_reconstruction(self, rng):
        rho = random_density_matrix(8, rng)
        sqrt, _ = psd_sqrt_invsqrt(rho)
        assert np.abs(sqrt @ sqrt - rho).max() <= 1e-12

    def test_rank_deficiency_signalled(self, rng):
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi /= np.linalg.norm(psi)
        # the second state is charge-0 pure with one class 1e-14 below the largest eigenvalue
        for rho, rank in ((np.outer(psi, psi.conj()), 1), (np.diag([1.0, 1e-14, 0.5, 0.5]), 3)):
            with pytest.raises(RankDeficientError) as err:
                psd_sqrt_invsqrt(rho)
            assert (err.value.effective_rank, err.value.dim) == (rank, 4)
        psd_sqrt_invsqrt(random_density_matrix(8, rng))  # full rank: no error


class TestTraceDistance:
    def test_self_distance(self, rng):
        rho = random_density_matrix(4, rng)
        assert trace_distance(rho, rho) == 0.0

    def test_orthogonal_pure_states(self):
        assert abs(trace_distance(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])) - 1.0) < 1e-15

    def test_metric_properties(self, rng):
        for _ in range(10):
            a, b, c = (random_density_matrix(6, rng) for _ in range(3))
            dab, dba = trace_distance(a, b), trace_distance(b, a)
            assert dab >= 0.0
            assert abs(dab - dba) <= 1e-12
            assert dab <= trace_distance(a, c) + trace_distance(c, b) + 1e-12

    def test_shape_mismatch(self, rng):
        with pytest.raises(ValueError):
            trace_distance(np.eye(2), np.eye(4))


class TestCommutatorNorm:
    def test_self_commutes(self, rng):
        a = random_hermitian(rng, 5)
        assert commutator_norm(a, a) == 0.0

    def test_pauli_algebra(self):
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
        assert abs(commutator_norm(sx, sy) - 2.0) < 1e-15

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            commutator_norm(np.eye(2), np.eye(3))


def bits(m):
    return np.ascontiguousarray(m).view(np.uint64)


class TestPerClassDecomposition:
    """to_state and psd_sqrt_invsqrt decompose a charge-0 state class by class."""

    @staticmethod
    def block_state(rng, d=16, small=2, scale=1e-8):
        """A block-diagonal state whose popcount class ``small`` is ``scale`` times the others.

        Returns the state and, for that class, its block and the block's exact inverse
        square root, both from one known eigendecomposition.
        """
        rho = np.zeros((d, d), dtype=complex)
        for m, c in enumerate(popcount_classes(d)):
            q, _ = np.linalg.qr(rng.normal(size=(len(c), len(c)))
                                + 1j * rng.normal(size=(len(c), len(c))))
            w = rng.uniform(0.2, 1.0, size=len(c)) * (scale if m == small else 1.0)
            rho[np.ix_(c, c)] = (q * w) @ q.conj().T
            if m == small:
                block, inv_root = rho[np.ix_(c, c)], (q / np.sqrt(w)) @ q.conj().T
        total = np.trace(rho).real
        return rho / total, block / total, inv_root * np.sqrt(total)

    def test_exact_zeros_between_classes(self, rng):
        rho, _, _ = self.block_state(rng)
        between = charge_labels(16) != 0
        for out in (to_state(rho), *psd_sqrt_invsqrt(rho)):
            assert not out[between].any()

    def test_small_class_keeps_its_relative_accuracy(self, rng):
        # one dense eigh over the whole matrix leaves the 1e-8 class about 1e-8 relative error
        rho, block, inv_root = self.block_state(rng)
        c = popcount_classes(16)[2]
        sqrt, invsqrt = psd_sqrt_invsqrt(rho)
        error = np.linalg.norm(invsqrt[np.ix_(c, c)] - inv_root) / np.linalg.norm(inv_root)
        assert error <= 1e-13
        assert np.abs(sqrt @ invsqrt - np.eye(16)).max() <= 1e-13
        state = to_state(rho)[np.ix_(c, c)]
        assert np.linalg.norm(state - block) / np.linalg.norm(block) <= 1e-13

    def test_non_covariant_input_is_the_dense_formula(self, rng):
        # a random state is not charge pure: it is one class, bit for bit the dense formula
        rho = random_density_matrix(8, rng)
        w, v = np.linalg.eigh(hermitian_part(rho))
        root = np.sqrt(w)
        sqrt, invsqrt = psd_sqrt_invsqrt(rho)
        assert np.array_equal(bits(sqrt), bits((v * root) @ v.conj().T))
        assert np.array_equal(bits(invsqrt), bits((v * (1.0 / root)) @ v.conj().T))
        m = rho * (1.0 + 0.5j)
        w, v = np.linalg.eigh(hermitian_part(m / complex(np.trace(m))))
        dense = (v * np.clip(w, 0.0, None)) @ v.conj().T
        assert np.array_equal(bits(to_state(m)), bits(hermitian_part(dense / np.trace(dense).real)))


    @staticmethod
    def by_branch(h, split, f):
        """f(h) for Hermitian h by one eigh per popcount class (``split``) or one of all."""
        d = len(h)
        out = np.zeros((d, d), dtype=complex)
        for c in popcount_classes(d) if split else (np.arange(d),):
            w, v = np.linalg.eigh(h[np.ix_(c, c)])
            out[np.ix_(c, c)] = (v * f(w)) @ v.conj().T
        return out

    @pytest.mark.parametrize("d", [4, 6, 8, 16])
    @pytest.mark.parametrize("leak", [0.0, 1.0 - 1e-3, 1.0 + 1e-3, 1e3])
    def test_split_at_the_leakage_tolerance(self, rng, d, leak):
        # a charge-0 state plus charged entries of leak times CHARGE_LEAKAGE_TOL of its largest
        # entry splits by class at and below the tolerance, and is one class above it or where
        # d is no power of two; either way the results are that branch's formula, bit for bit
        rho, _, _ = self.block_state(rng, d=d, small=0, scale=1.0)
        charged = charge_labels(d) != 0
        noise = np.where(charged, random_hermitian(rng, d), 0.0)
        if charged.any():
            noise *= leak * CHARGE_LEAKAGE_TOL * np.abs(rho).max() / np.abs(noise).max()
        h = rho + noise
        split = leak <= 1.0 and d != 6
        assert (_class_split(h)[0] is not None) == split
        root = np.sqrt
        sqrt, invsqrt = psd_sqrt_invsqrt(h)
        herm = hermitian_part(h)
        assert np.array_equal(bits(sqrt), bits(self.by_branch(herm, split, root)))
        assert np.array_equal(bits(invsqrt), bits(self.by_branch(herm, split,
                                                                 lambda w: 1.0 / root(w))))
        clipped = self.by_branch(hermitian_part(h / complex(np.trace(h))), split,
                                 lambda w: np.clip(w, 0.0, None))
        assert np.array_equal(bits(to_state(h)),
                              bits(hermitian_part(clipped / np.trace(clipped).real)))

    @pytest.mark.parametrize("d", [4, 6, 8])
    def test_zero_matrix_splits(self, d):
        # no entry exceeds the tolerance times the largest, 0: the classes where d = 2^k
        zero = np.zeros((d, d), dtype=complex)
        assert (_class_split(zero)[0] is not None) == (d != 6)
        with pytest.raises(ValueError, match="zero trace"):
            to_state(zero)
        with pytest.raises(RankDeficientError):
            psd_sqrt_invsqrt(zero)


class TestHygiene:
    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    @pytest.mark.parametrize("clean", [hermitian_part, hermitize])
    def test_returns_the_half_sum(self, rng, clean, layout):
        drift = 1e-12 * (rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9)))
        m = random_hermitian(rng, 9) + drift
        if layout == "F":
            m = np.asfortranarray(m)
        elif layout == "strided":
            spread = np.zeros((18, 27), dtype=complex)
            spread[::2, ::3] = m
            m = spread[::2, ::3]
        out = clean(m)
        assert np.array_equal(bits(out), bits((m + m.conj().T) / 2))
        assert out.flags.c_contiguous

    def test_hermitize_rejects_real_asymmetry(self, rng):
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        with pytest.raises(ValueError):
            hermitize(m)

    @pytest.mark.parametrize("check, atol", [(eigh_hermitian, 1e-12),
                                             (hermitize, HERMITICITY_ATOL),
                                             (check_density_matrix, 1e-12)])
    def test_one_hermiticity_check_at_each_tolerance(self, check, atol):
        # each caller keeps its own tolerance, and all three give the one message
        rho = np.diag([0.5, 0.25, 0.25]).astype(complex)
        skew = np.zeros_like(rho)
        skew[0, 1] = 1.0
        check(rho + 0.99 * atol * skew)
        with pytest.raises(ValueError, match=r"^not Hermitian: max deviation 1\.010e-\d+ "
                                             rf"\(allowed {atol:.3e}\)$"):
            check(rho + 1.01 * atol * skew)

    @staticmethod
    def with_least_eigenvalue(rng, least):
        """A random 4 x 4 unit-trace matrix with the given least eigenvalue."""
        w, v = np.linalg.eigh(random_density_matrix(4, rng))
        w[0] = least
        w[1:] *= (1.0 - least) / w[1:].sum()
        return (v * w) @ v.conj().T

    def test_to_state_clips_small_negatives(self, rng):
        for least in (-5e-11, -1e-7, -0.999e-6):  # within the clip band
            clean = to_state(self.with_least_eigenvalue(rng, least))
            # reconstruction rounding can leave eigenvalues at the -1e-16 scale
            assert np.linalg.eigvalsh(clean).min() >= -1e-15
            assert abs(np.trace(clean) - 1.0) < 1e-14
            assert np.array_equal(clean, clean.conj().T)

    def test_to_state_rejects_large_negatives(self, rng):
        assert STATE_PSD_ATOL == 1e-6
        with pytest.raises(ValueError, match="not PSD"):
            to_state(self.with_least_eigenvalue(rng, -1.001e-6))

    def test_to_state_rejects_zero_trace(self):
        with pytest.raises(ValueError, match="zero trace"):
            to_state(np.diag([0.5, -0.5]))

    @pytest.mark.parametrize("phi", [0.0, 1.0, np.pi / 2, np.pi, -2.5])
    def test_to_state_removes_scale_and_phase(self, rng, phi):
        # an eigenvector's arbitrary factor: the complex trace divides it out
        rho = random_density_matrix(4, rng)
        assert np.abs(to_state(3.7 * np.exp(1j * phi) * rho) - rho).max() < 1e-15
