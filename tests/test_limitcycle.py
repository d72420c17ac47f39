import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qcycle import (Channel, ClosureViolationError, DegenerateFixedPointError,
                    build_hamiltonian, check_density_matrix, cycle_channel_ac,
                    cycle_channel_cb, cycle_operators, fixed_point_iterate,
                    fixed_point_spectral, gibbs_state, kron, limit_cycle_states,
                    partial_trace, random_density_matrix, trace_distance, unvec, vec)
from qcycle import magnetization_gibbs
from qcycle import limitcycle
from qcycle.engine import _dilation
from qcycle.limitcycle import (DEFAULT_MAX_ITER, DEFAULT_TOL, _ClassBlockStage, _DenseStage,
                               sector_blocks, sector_spectra, swap_index)
from qcycle.linalg import charge_groups, hermitize, popcount_classes, to_state
from conftest import carnot_point, point_operators, random_engine_point
from oracle_naive import (NaiveCycle, commutator_norm, exact_fixed_point_iterate,
                          naive_channel_matrix, stacked_apply, total_magnetization)


def identity_channel(d):
    return Channel(np.eye(d)[None])


def cycle_stages(maker, ops):
    """The two half-cycle stacks of ``maker``'s channel, in the order it applies them."""
    return (ops.cold, ops.hot) if maker is cycle_channel_cb else (ops.hot, ops.cold)


def layout_cases(n):
    """``(stages, x)``: the 1- and 2-stage channels of a random point at n, and each half-cycle's
    (2, 2d, d) dilation and its (2, d, 2d) adjoint alone, with an operator x of the input size."""
    rng = np.random.default_rng(n)
    ops = point_operators(*random_engine_point(rng, n))
    cold, hot = cycle_stages(cycle_channel_cb, ops)
    dilations = [_dilation(ops, cold=side) for side in (True, False)]
    rectangular = [(s,) for s in dilations] + [(s.conj().transpose(0, 2, 1),) for s in dilations]
    for stages in ((cold,), (hot,), (cold, hot), (hot, cold), *rectangular):
        d = stages[0].shape[2]
        yield stages, rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))


def replacement_channel(sigma):
    """rho -> sigma Tr[rho], with the Kraus operators sqrt(p_a) |v_a><j|."""
    d = sigma.shape[0]
    p, v = np.linalg.eigh(sigma)
    return Channel([np.sqrt(p[a]) * np.outer(v[:, a], np.eye(d)[j])
                    for a in range(d) for j in range(d)])


class TestChannelProperties:
    @pytest.mark.parametrize("maker", [cycle_channel_cb, cycle_channel_ac])
    def test_cptp_on_random_states(self, rng, small_point, maker):
        spec, params = small_point
        ch = maker(point_operators(spec, params))
        for _ in range(100):
            out = ch.apply(random_density_matrix(ch.dim, rng))
            assert abs(np.trace(out) - 1.0) <= 1e-10
            assert np.abs(out - out.conj().T).max() <= 1e-10
            assert np.linalg.eigvalsh((out + out.conj().T) / 2).min() >= -1e-9

    def test_decoupled_zero_time_channel_replaces_b_only(self, rng, decoupled_point):
        spec, params = decoupled_point
        parts = build_hamiltonian(spec)
        ch = cycle_channel_cb(cycle_operators(parts, params))
        rho_cb = random_density_matrix(4, rng)
        sigma_b = gibbs_state(parts.h_b_local, params.beta2)
        expected = kron(partial_trace(rho_cb, [0], [2, 2]), sigma_b)
        assert np.abs(ch.apply(rho_cb) - expected).max() < 1e-14

    def test_repeated_apply_matches_matrix_power(self, rng, small_point):
        spec, params = small_point
        ch = cycle_channel_cb(point_operators(spec, params))
        cm = naive_channel_matrix(ch)
        rho = random_density_matrix(ch.dim, rng)
        by_apply = rho
        for _ in range(5):
            by_apply = ch.apply(by_apply)
        by_matrix = unvec(np.linalg.matrix_power(cm, 5) @ vec(rho), ch.dim)
        assert np.abs(by_apply - by_matrix).max() <= 1e-9


class TestChannelMethods:
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_staged_channel_is_the_product_stack(self, n):
        # Channel(cold, hot): the 16 products, the hot index slow, bit for bit, and the staged
        # apply agrees with the one-stage channel of those products
        rng = np.random.default_rng(n)
        ops = point_operators(*random_engine_point(rng, n))
        for maker in (cycle_channel_cb, cycle_channel_ac):
            first, second = cycle_stages(maker, ops)
            staged = maker(ops)
            products = np.array([s @ f for s in second for f in first])
            assert np.array_equal(staged.kraus, products)
            rho = random_density_matrix(staged.dim, rng)
            assert np.abs(staged.apply(rho) - Channel(products).apply(rho)).max() <= 1e-14

    def test_match_loop_sums(self, rng, small_point):
        # the stacked products against the per-operator sums they replace
        spec, params = small_point
        ch = cycle_channel_ac(point_operators(spec, params))
        ops = list(ch.kraus)
        rho = random_density_matrix(ch.dim, rng)
        assert ch.dim == 4 and len(ops) == 16
        assert np.abs(ch.apply(rho) - sum(a @ rho @ a.conj().T for a in ops)).max() < 1e-14
        loop = float(np.abs(sum(a.conj().T @ a for a in ops) - np.eye(ch.dim)).max())
        assert abs(ch.completeness_residual() - loop) < 1e-14


class TestChannelLayouts:
    """Each stage's layout against the stacked products it replaced (``stacked_apply``)."""

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_dense_is_stacked_apply(self, n):
        for stages, x in layout_cases(n):
            ch = Channel(*stages)
            assert all(isinstance(stage, _DenseStage) for stage in ch._stages)
            assert np.array_equal(ch.apply(x), stacked_apply(stages, x))

    def test_class_blocks_at_n8(self):
        for stages, x in layout_cases(8):
            ch = Channel(*stages)
            assert all(isinstance(stage, _ClassBlockStage) for stage in ch._stages)
            expected = stacked_apply(stages, x)
            assert np.abs(ch.apply(x) - expected).max() <= 1e-14 * np.abs(expected).max()

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_class_blocks_below_the_crossover(self, monkeypatch, n):
        monkeypatch.setattr(limitcycle, "CLASS_BLOCK_DIM", 1)
        for stages, x in layout_cases(n):
            ch = Channel(*stages)
            assert all(isinstance(stage, _ClassBlockStage) for stage in ch._stages)
            expected = stacked_apply(stages, x)
            assert np.abs(ch.apply(x) - expected).max() <= 1e-14 * np.abs(expected).max()
        # a stack that does not split by charge stays dense
        rng = np.random.default_rng(n)
        d = 2 ** (n - 1)
        u = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
        stack = np.array([u / np.sqrt(2), np.eye(d) / np.sqrt(2)])
        ch = Channel(stack)
        assert isinstance(ch._stages[0], _DenseStage)
        x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        assert np.array_equal(ch.apply(x), stacked_apply([stack], x))
        # so does a rectangular one, d x d to 2d x 2d as a dilation
        stack = rng.normal(size=(2, 2 * d, d)) + 1j * rng.normal(size=(2, 2 * d, d))
        ch = Channel(stack)
        assert isinstance(ch._stages[0], _DenseStage) and ch.dim == d
        assert np.array_equal(ch.apply(x), stacked_apply([stack], x))

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 8])
    def test_dilations_are_the_loop_sums(self, monkeypatch, n):
        # each dilation and its adjoint in both layouts against sum_k K x K^*: the native layout
        # is dense below n = 8 and class blocks at n = 8, and below n = 8 blocks are forced too
        for block_dim in (limitcycle.CLASS_BLOCK_DIM, 1)[:1 if n == 8 else 2]:
            monkeypatch.setattr(limitcycle, "CLASS_BLOCK_DIM", block_dim)
            layout = _ClassBlockStage if block_dim == 1 or n == 8 else _DenseStage
            for (stack, *later), x in layout_cases(n):
                if later or stack.shape[1] == stack.shape[2]:
                    continue
                ch = Channel(stack)
                assert isinstance(ch._stages[0], layout)
                got, expected = ch.apply(x), sum(k @ x @ k.conj().T for k in stack)
                assert got.shape == expected.shape
                assert np.abs(got - expected).max() <= 1e-14 * np.abs(expected).max()

    @pytest.mark.parametrize("n", [3, 5])
    def test_rectangular_charge_groups_are_the_input_classes(self, n):
        # a (2, 2d, d) dilation: one operator per bath vector, of charge 0 or 1 (its bit), and
        # the classes of its d input states; its adjoint has the opposite charges and the
        # classes of its 2d input states
        ops = point_operators(*random_engine_point(np.random.default_rng(n), n))
        for side in (True, False):
            stack = _dilation(ops, cold=side)
            for s, sign in ((stack, 1), (stack.conj().transpose(0, 2, 1), -1)):
                classes, groups = charge_groups(s)
                assert len(classes) == len(popcount_classes(s.shape[2])) > 1
                assert all(np.array_equal(a, b)
                           for a, b in zip(classes, popcount_classes(s.shape[2])))
                assert sorted(q * sign for q, ks in groups for _ in ks) == [0, 1]

    def test_class_blocks_with_an_unreached_class(self, monkeypatch):
        # one raising operator: nothing maps into class 0 or out of the top class, whose rows
        # and columns of the image are zero
        monkeypatch.setattr(limitcycle, "CLASS_BLOCK_DIM", 1)
        rng = np.random.default_rng(3)
        stack = np.zeros((1, 8, 8), dtype=complex)
        stack[0, 1, 0], stack[0, 3, 2], stack[0, 7, 5] = 1.0, 0.5j, -2.0
        ch = Channel(stack)
        assert isinstance(ch._stages[0], _ClassBlockStage)
        x = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        assert np.array_equal(ch.apply(x), stacked_apply([stack], x))


def full_matrix(ch):
    """The d^2 x d^2 channel matrix assembled from :func:`sector_blocks`.

    The -q sector is the conjugate of the +q block on the swapped indices.
    """
    d = ch.dim
    cm = np.zeros((d * d, d * d), dtype=complex)
    for q, order, block in sector_blocks(ch):
        cm[np.ix_(order, order)] = block
        if q:
            swapped = swap_index(order, d)
            cm[np.ix_(swapped, swapped)] = block.conj()
    return cm


class TestChannelMatrix:
    """The channel matrix as the solvers build it, sector by sector from the Kraus stack."""

    def test_identity_channel(self):
        (q, _, block), = sector_blocks(identity_channel(3))  # d = 3 is one class: one sector
        assert q == 0
        assert np.abs(block - np.eye(9)).max() == 0.0

    def test_unitary_channel_moduli(self, rng):
        h = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        u = np.linalg.qr(h)[0]
        evals = sector_spectra(Channel(u[None]), certificate=False)[0]
        assert np.abs(np.abs(evals) - 1.0).max() < 1e-12

    def test_matrix_reproduces_apply(self, rng, small_point):
        spec, params = small_point
        ch = cycle_channel_ac(point_operators(spec, params))
        for _ in range(5):
            # any operator, not only a state: the -q blocks are taken by conjugation
            x = rng.normal(size=(ch.dim, ch.dim)) + 1j * rng.normal(size=(ch.dim, ch.dim))
            assert np.abs(unvec(full_matrix(ch) @ vec(x), ch.dim) - ch.apply(x)).max() <= 1e-11


class TestKrausForm:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_matches_oracle(self, rng, n):
        spec, params = random_engine_point(rng, n)
        ops = point_operators(spec, params)
        oracle = NaiveCycle(spec, params)
        for ch, naive in ((cycle_channel_cb(ops), oracle.apply_cb),
                          (cycle_channel_ac(ops), oracle.apply_ac),
                          (Channel(ops.cold), oracle.apply_cold)):
            for _ in range(3):
                rho = random_density_matrix(ch.dim, rng)
                assert np.abs(ch.apply(rho) - naive(rho)).max() < 1e-11

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_matrix_matches_tabulated_apply(self, rng, n):
        # the sectors, with zeros between them, are the whole matrix
        spec, params = random_engine_point(rng, n)
        ops = point_operators(spec, params)
        for maker in (cycle_channel_cb, cycle_channel_ac):
            ch = maker(ops)
            assert np.abs(full_matrix(ch) - naive_channel_matrix(ch)).max() < 1e-13

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([3, 4]))
    def test_kraus_properties(self, seed, n):
        spec, params = random_engine_point(np.random.default_rng(seed), n)
        ops = point_operators(spec, params)
        gaps = []
        for maker in (cycle_channel_cb, cycle_channel_ac):
            ch = maker(ops)
            assert len(ch.kraus) <= 16
            completeness = np.einsum("kji,kjl->il", ch.kraus.conj(), ch.kraus)
            assert np.abs(completeness - np.eye(ch.dim)).max() < 1e-12
            moduli = np.sort(np.abs(sector_spectra(ch, certificate=False)[0]))
            gaps.append(1.0 - moduli[-2])
        # CB = BA and AC = AB share their spectrum
        assert abs(gaps[0] - gaps[1]) < 1e-10


class TestFixedPointIterate:
    def test_identity_converges_immediately(self, rng):
        rho = random_density_matrix(4, rng)
        for tol in (DEFAULT_TOL, 1e-200):  # 1e-200: the bound must not compare tol^2, which is 0
            res = fixed_point_iterate(identity_channel(4), rho, tol=tol)
            assert res.converged and res.iterations == 1
            assert trace_distance(res.rho_star, rho) < 1e-12

    def test_unique_fixed_point_from_two_starts(self, rng, small_point):
        spec, params = small_point
        ch = cycle_channel_cb(point_operators(spec, params))
        tol = 1e-11
        a = fixed_point_iterate(ch, random_density_matrix(4, rng), tol=tol)
        b = fixed_point_iterate(ch, random_density_matrix(4, rng), tol=tol)
        assert a.converged and b.converged
        assert trace_distance(a.rho_star, b.rho_star) <= 10 * tol

    def test_matched_bath_fixed_point_is_ansatz(self, rng):
        spec, params = carnot_point(rng, 4)
        ch = cycle_channel_cb(point_operators(spec, params))
        tol = 1e-11
        res = fixed_point_iterate(ch, random_density_matrix(ch.dim, rng), tol=tol)
        full = magnetization_gibbs(spec.n, params.beta1 * spec.E[0])
        ansatz_cb = partial_trace(full, range(1, spec.n), [2] * spec.n)
        assert trace_distance(res.rho_star, ansatz_cb) <= 10 * tol

    def test_non_convergence_returns_history(self, rng, small_point):
        spec, params = small_point
        ch = cycle_channel_cb(point_operators(spec, params))
        rho = random_density_matrix(4, rng)
        res = fixed_point_iterate(ch, rho, tol=1e-14, max_iter=3)
        assert not res.converged
        assert res.iterations == 3
        two = ch.apply(ch.apply(hermitize(rho)))
        assert res.final_delta == trace_distance(ch.apply(two), two)
        check_density_matrix(res.rho_star)

    @pytest.mark.parametrize("tol", [0.0, -1e-10, float("nan")])
    def test_rejects_non_positive_tol(self, rng, tol):
        with pytest.raises(ValueError, match="tol must be positive"):
            fixed_point_iterate(identity_channel(2), random_density_matrix(2, rng), tol=tol)

    def test_tail_deltas_decreasing(self, rng, small_point):
        spec, params = small_point
        ch = cycle_channel_cb(point_operators(spec, params))
        rho = hermitize(random_density_matrix(4, rng))
        res = fixed_point_iterate(ch, rho, tol=1e-12)
        deltas = []
        for _ in range(res.iterations):
            nxt = ch.apply(rho)
            deltas.append(trace_distance(nxt, rho))
            rho = nxt
        assert deltas[-1] == res.final_delta < 1e-12
        tail = deltas[-10:]
        assert all(b <= a + 1e-12 for a, b in zip(tail, tail[1:]))

    @pytest.mark.parametrize("maker", [cycle_channel_cb, cycle_channel_ac])
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_stops_as_the_exact_loop(self, n, maker):
        # the Frobenius bound skips only steps the exact trace distance could not stop at: the
        # same step count, convergence, final delta and fixed point, bit for bit
        rng = np.random.default_rng(n)
        ops = point_operators(*random_engine_point(rng, n))
        ch, stages = maker(ops), cycle_stages(maker, ops)
        init = random_density_matrix(ch.dim, rng)
        for tol, max_iter in ((1e-6, 1000), (1e-10, 1000), (1e-10, 5), (1e-15, 1000),
                              (1e-17, 1000), (1e-17, 300)):
            res = fixed_point_iterate(ch, init, tol=tol, max_iter=max_iter)
            rho, iterations, final_delta, converged = exact_fixed_point_iterate(
                stages, init, tol, max_iter)
            assert (res.iterations, res.converged) == (iterations, converged), tol
            assert res.final_delta == final_delta
            assert np.array_equal(res.rho_star, to_state(rho))
        assert not converged  # tol 1e-17 is below the rounding floor

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([3, 4, 5]),
           exponent=st.floats(6.0, 13.0), maker=st.sampled_from([cycle_channel_cb,
                                                                 cycle_channel_ac]))
    def test_stall_never_fires_on_a_mixing_point(self, seed, n, exponent, maker):
        # a generic engine point's distances fall by far more than STALL_DROP per window until
        # they pass a tol above the rounding floor: the run converges, as the exact loop does
        rng = np.random.default_rng(seed)
        ops = point_operators(*random_engine_point(rng, n))
        ch = maker(ops)
        init = random_density_matrix(ch.dim, rng)
        tol = 10.0 ** -exponent
        res = fixed_point_iterate(ch, init, tol=tol)
        rho, iterations, final_delta, converged = exact_fixed_point_iterate(
            cycle_stages(maker, ops), init, tol, DEFAULT_MAX_ITER)
        assert res.converged and converged
        assert (res.iterations, res.final_delta) == (iterations, final_delta)
        assert np.array_equal(res.rho_star, to_state(rho))


class TestFixedPointSpectral:
    def test_replacement_channel(self, rng):
        sigma = random_density_matrix(3, rng)
        res = fixed_point_spectral(replacement_channel(sigma))
        assert trace_distance(res.rho_star, sigma) < 1e-12
        assert abs(res.spectral_gap - 1.0) < 1e-12

    @pytest.mark.parametrize("maker", [cycle_channel_cb, cycle_channel_ac])
    def test_agrees_with_iteration(self, rng, small_point, maker):
        spec, params = small_point
        ch = maker(point_operators(spec, params))
        tol = 1e-11
        spectral = fixed_point_spectral(ch)
        iterated = fixed_point_iterate(ch, random_density_matrix(ch.dim, rng), tol=tol)
        assert spectral.spectral_gap > 1e-6
        assert trace_distance(spectral.rho_star, iterated.rho_star) <= 10 * tol
        assert trace_distance(ch.apply(spectral.rho_star), spectral.rho_star) <= 10 * tol

    def test_zero_coupling_degenerate(self, decoupled_point, monkeypatch):
        spec, params = decoupled_point
        ch = cycle_channel_cb(point_operators(spec, params))
        cleaned = []  # the error carries no candidate fixed point, so none is made a state
        monkeypatch.setattr(limitcycle, "to_state", lambda m: cleaned.append(m))
        with pytest.raises(DegenerateFixedPointError) as err:
            fixed_point_spectral(ch)
        assert len(err.value.eigenvalues) > 1
        assert cleaned == []


class TestLimitCycleStates:
    def test_closure_at_converged_point(self, rng, small_point):
        # the hot half-cycle returns x; so does the oracle's full-chain cycle from sigma_a (x) x
        spec, params = small_point
        ops = point_operators(spec, params)
        res = fixed_point_iterate(cycle_channel_cb(ops), random_density_matrix(4, rng), tol=1e-12)
        x, z = limit_cycle_states(res.rho_star, ops, tol=1e-10)
        assert x is res.rho_star
        assert trace_distance(Channel(ops.hot).apply(z), x) <= 1e-9
        rho4 = NaiveCycle(spec, params).run(kron(ops.sigma_a, x))[3]
        assert trace_distance(partial_trace(rho4, [1, 2], [2, 2, 2]), x) <= 1e-9
        for rho in (x, z):
            check_density_matrix(rho)

    def test_matched_bath_states_commute_with_magnetization(self, rng):
        spec, params = carnot_point(rng, 3)
        ops = point_operators(spec, params)
        full = magnetization_gibbs(spec.n, params.beta1 * spec.E[0])
        ansatz_cb = partial_trace(full, range(1, spec.n), [2] * spec.n)
        x, z = limit_cycle_states(ansatz_cb, ops, tol=1e-10)
        sz = total_magnetization(spec.n - 1)
        for rho in (x, z):
            assert commutator_norm(rho, sz) < 1e-10
        sz = total_magnetization(spec.n)
        for rho in NaiveCycle(spec, params).run(kron(ops.sigma_a, x)):
            assert commutator_norm(rho, sz) < 1e-10

    def test_non_fixed_point_rejected(self, rng, small_point):
        with pytest.raises(ClosureViolationError):
            limit_cycle_states(random_density_matrix(4, rng), point_operators(*small_point),
                               tol=1e-10)

    def test_decoupled_zero_time_any_c_state_closes(self, rng, decoupled_point):
        # the untouched middle qubit makes every diagonal-in-C product close
        spec, params = decoupled_point
        parts = build_hamiltonian(spec)
        sigma_b = gibbs_state(parts.h_b_local, params.beta2)
        rho_cb = kron(random_density_matrix(2, rng), sigma_b)
        limit_cycle_states(rho_cb, cycle_operators(parts, params), tol=1e-10)


class TestEnginePoints:
    def test_generic_points_converge_and_agree(self, rng):
        for n in (3, 4):
            spec, params = random_engine_point(rng, n)
            ch = cycle_channel_cb(point_operators(spec, params))
            tol = 1e-11
            iterated = fixed_point_iterate(ch, random_density_matrix(ch.dim, rng), tol=tol)
            spectral = fixed_point_spectral(ch)
            assert iterated.converged
            if spectral.spectral_gap > 1e-6:
                assert trace_distance(iterated.rho_star, spectral.rho_star) <= 1e-9
