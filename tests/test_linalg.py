import numpy as np
import pytest

from qcycle import (RankDeficientError, commutator_norm, expm_unitary, kron,
                    partial_trace, psd_sqrt_invsqrt, random_density_matrix, to_state,
                    trace_distance)
from qcycle.linalg import STATE_PSD_ATOL, hermitize


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
        with pytest.raises(RankDeficientError) as err:
            psd_sqrt_invsqrt(np.outer(psi, psi.conj()))
        assert err.value.effective_rank == 1


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


class TestHygiene:
    def test_hermitize_rejects_real_asymmetry(self, rng):
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        with pytest.raises(ValueError):
            hermitize(m)

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
