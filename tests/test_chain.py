import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qcycle import ChainSpec, ConfigError, build_hamiltonian, gibbs_state, site_operator
from conftest import random_chain_spec
from oracle_naive import commutator_norm, naive_hamiltonian, total_magnetization


class TestSiteOperator:
    def test_single_qubit_z(self):
        assert np.allclose(site_operator("Z", 1, 1), np.diag([0.5, -0.5]), atol=0)

    def test_second_site_of_two(self):
        # identity (x) sigma_z/2, expanded by hand
        assert np.allclose(site_operator("Z", 2, 2), np.diag([0.5, -0.5, 0.5, -0.5]), atol=0)

    def test_casimir(self, rng):
        n, site = 3, 2
        total = sum(site_operator(ax, site, n) @ site_operator(ax, site, n)
                    for ax in "XYZ")
        assert np.abs(total - 0.75 * np.eye(2**n)).max() < 1e-15

    def test_site_out_of_range(self):
        with pytest.raises(ValueError):
            site_operator("Z", 4, 3)
        with pytest.raises(ValueError):
            site_operator("Z", 0, 3)

    def test_bad_axis(self):
        with pytest.raises(ValueError):
            site_operator("W", 1, 2)


class TestChainSpec:
    def test_too_short(self):
        with pytest.raises(ValueError):
            ChainSpec(n=2, E=[1.0, 1.0], J=[0.1], K=[0.1], F=[0.1])

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="J"):
            ChainSpec(n=3, E=[1.0, 1.0, 1.0], J=[0.1], K=[0.1, 0.1], F=[0.1, 0.1])

    def test_zero_end_field(self):
        with pytest.raises(ValueError, match="E"):
            ChainSpec(n=3, E=[0.0, 1.0, 1.0], J=[0.1, 0.1], K=[0.1, 0.1], F=[0.1, 0.1])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_coupling_named(self, bad):
        with pytest.raises(ValueError, match=r"K\[1\]"):
            ChainSpec(n=3, E=[1.0, 1.0, 1.0], J=[0.1, 0.1], K=[0.1, bad], F=[0.1, 0.1])

    @pytest.mark.parametrize("bad", ["1.0", True, None, 1j])
    def test_non_real_value_named(self, bad):
        fields = dict(n=3, E=[1.0, 1.0, 1.0], J=[0.1, 0.1], K=[0.1, 0.1], F=[0.1, 0.1])
        with pytest.raises(ConfigError, match=r"^n: must be an integer, got "):
            ChainSpec(**dict(fields, n=bad))
        for name in ("E", "J", "K", "F"):
            vals = list(fields[name])
            vals[1] = bad
            with pytest.raises(ConfigError, match=f"^{name}: must be a list of numbers$"):
                ChainSpec(**dict(fields, **{name: vals}))
        with pytest.raises(ConfigError, match=r"^E: must be a list of numbers$"):
            ChainSpec(**dict(fields, E=bad))


class TestBuildHamiltonian:
    def test_field_only_spectrum(self):
        spec = ChainSpec(n=3, E=[1.0, 1.0, 1.0], J=[0, 0], K=[0, 0], F=[0, 0])
        parts = build_hamiltonian(spec)
        # three S^Z terms: eigenvalue is half the up/down imbalance
        expected = sorted([1.5, 0.5, 0.5, 0.5, -0.5, -0.5, -0.5, -1.5])
        assert np.allclose(sorted(np.linalg.eigvalsh(parts.h_s)), expected, atol=1e-14)

    def test_first_bond_longitudinal(self):
        spec = ChainSpec(n=3, E=[1.0, 1.0, 1.0], J=[0, 0], K=[0, 0], F=[1.0, 0])
        parts = build_hamiltonian(spec)
        expected = np.diag([1, 1, -1, -1, -1, -1, 1, 1]).astype(complex)
        assert np.abs(parts.h_ac - expected).max() < 1e-15

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_parts_equal_site_operator_products(self, rng, n):
        # the two-site terms embedded with identities give the exact values of the
        # products of full-size site operators
        spec = random_chain_spec(rng, n)
        parts = build_hamiltonian(spec)
        for name, h in naive_hamiltonian(spec).items():
            assert np.array_equal(getattr(parts, name), h), name

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(data=st.data(), n=st.integers(3, 8))
    def test_parts_equal_embedded_terms(self, data, n):
        # the bit build gives the values of the one- and two-site terms embedded with
        # identities, with zero and negative couplings too
        coupling = st.just(0.0) | st.floats(-2.0, 2.0)
        end = st.floats(0.1, 2.0) | st.floats(-2.0, -0.1)

        def draw(count):
            return data.draw(st.lists(coupling, min_size=count, max_size=count))

        spec = ChainSpec(n=n, E=[data.draw(end), *draw(n - 2), data.draw(end)],
                         J=draw(n - 1), K=draw(n - 1), F=draw(n - 1))
        parts = build_hamiltonian(spec)
        for name, h in naive_hamiltonian(spec, embedded=True).items():
            assert np.array_equal(getattr(parts, name), h), name

    def test_parts_hermitian(self, rng):
        parts = build_hamiltonian(random_chain_spec(rng, 4))
        for h in (parts.h_ac, parts.h_cb, parts.h_s):
            assert np.abs(h - h.conj().T).max() <= 1e-12

    def test_magnetization_conserved(self, rng):
        for n in (3, 4, 5):
            parts = build_hamiltonian(random_chain_spec(rng, n))
            assert commutator_norm(parts.h_s, total_magnetization(n)) < 1e-12

    def test_local_end_terms(self, rng):
        spec = random_chain_spec(rng, 4)
        parts = build_hamiltonian(spec)
        assert np.allclose(parts.h_a_local, spec.E[0] * np.diag([0.5, -0.5]), atol=0)
        assert np.allclose(parts.h_b_local, spec.E[-1] * np.diag([0.5, -0.5]), atol=0)


class TestTotalMagnetization:
    def test_one_qubit(self):
        assert np.allclose(total_magnetization(1), np.diag([0.5, -0.5]), atol=0)

    def test_two_qubits(self):
        assert np.allclose(total_magnetization(2), np.diag([1.0, 0.0, 0.0, -1.0]), atol=0)


class TestGibbsState:
    def test_infinite_temperature(self, rng):
        h = np.diag([1.0, -2.0, 0.5])
        assert np.abs(gibbs_state(h, 0.0) - np.eye(3) / 3).max() < 1e-15

    def test_two_level_closed_form(self):
        # beta = 2 ln 3 makes the Boltzmann weights 1/3 and 3, so populations 0.1 / 0.9
        rho = gibbs_state(np.diag([0.5, -0.5]), 2.0 * np.log(3.0))
        assert np.abs(rho - np.diag([0.1, 0.9])).max() < 1e-14

    def test_commutes_with_hamiltonian(self, rng):
        h = rng.normal(size=(4, 4))
        h = (h + h.T) / 2
        assert commutator_norm(gibbs_state(h, 1.3), h) < 1e-13

    def test_valid_full_rank_state(self, rng):
        h = rng.normal(size=(8, 8))
        h = (h + h.T) / 2
        rho = gibbs_state(h, 2.0)
        assert abs(np.trace(rho) - 1.0) < 1e-12
        assert np.linalg.eigvalsh(rho).min() > 0.0

    def test_negative_beta_rejected(self):
        with pytest.raises(ValueError):
            gibbs_state(np.diag([0.5, -0.5]), -1.0)
