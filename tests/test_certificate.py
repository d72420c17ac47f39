"""The Arnoldi certificate of ``fixed_point_spectral`` against the dense sector listing.

``sector_spectra`` with ``certificate`` lists each sector of more than
``DENSE_SECTOR_SIZE`` entries by its top Ritz value (the q = 0 sector on its
traceless subspace, after the trace's eigenvalue 1), and each smaller one in
full, as it does a sector whose top is near unit. The dense listing,
``sector_spectra`` without ``certificate``, is the reference: per sector, the
listed moduli must be its largest, and the gap and the degeneracy verdict
must be its own.
"""

import numpy as np
import pytest

import qcycle.limitcycle
from qcycle import (Channel, ChainSpec, CycleParams, DegenerateFixedPointError, cycle_channel_ac,
                    cycle_channel_cb, fixed_point_spectral)
from qcycle.limitcycle import (DENSE_SECTOR_SIZE, RITZ_AHEAD_ROSE, RITZ_TOL, is_near_unit,
                               sector_blocks, sector_spectra, spectral_summary, top_ritz_value)
from qcycle.linalg import popcount_classes
from conftest import carnot_point, point_operators, random_engine_point
from test_sectors import random_unitary

# the three ill-conditioned points of test_cli.py's TestReverse and test_reversal.py
ILL_CONDITIONED = [
    (ChainSpec(n=6, E=[1.1319760882910113, 1.8289437512462674, 1.4707114516048694,
                       0.6909971249971828, 1.5198564136276, 6.827000652627963],
               J=[0.6836453703353496, -0.7293303663286581, 0.7406536884965726,
                  -0.5717647008264165, -0.6632489365180771],
               K=[-0.6721415405692712, 0.4728623476913465, -0.4966794704863428,
                  0.6709419697910364, -0.3341275427836406],
               F=[-0.4546680653178439, 0.7498563069529323, 0.36231865554636805,
                  0.20758174576935873, 0.30250776208698993]),
     CycleParams(beta1=2.989041785059351, beta2=0.7490425371237124,
                 tau1=1.2231095634900022, tau2=0.4732138686761764)),
    (ChainSpec(n=6, E=[1.1363264857333941, 1.3510584885478443, 1.032092275085464,
                       1.1847494407309231, 1.3989605858016965, 5.943711471523708],
               J=[-0.5648003990482642, -0.2557942760394006, -0.34525664128687805,
                  -0.6823950926354083, 0.7041689359097587],
               K=[-0.36628415181928564, 0.623664933388089, -0.5272739741942687,
                  -0.4640594473415975, 0.5938653657042661],
               F=[0.6083375658617589, -0.6237411880168247, 0.6084564945116161,
                  -0.6605702639382456, -0.2477309366082408]),
     CycleParams(beta1=2.9171965481627113, beta2=0.7156979687803686,
                 tau1=0.480011144306103, tau2=1.7540969724455937)),
    (ChainSpec(n=4, E=[1.13, 1.301, 0.53, 6.782], J=[-0.61, -0.672, 0.525],
               K=[0.696, 0.586, 0.6], F=[0.511, 0.216, 0.291]),
     CycleParams(beta1=6.026, beta2=0.653, tau1=1.83, tau2=1.872)),
]

BOTH = (cycle_channel_cb, cycle_channel_ac)
# at n = 7 one channel per point, since the dense reference takes seconds per channel
POINTS = (
    [pytest.param(random_engine_point, 6, seed, BOTH, id=f"generic-n6-{seed}") for seed in range(4)]
    + [pytest.param(carnot_point, 6, seed, BOTH, id=f"matched-n6-{seed}") for seed in range(2)]
    + [pytest.param(random_engine_point, 7, 0, (cycle_channel_cb,), id="generic-n7-cb"),
       pytest.param(carnot_point, 7, 1, (cycle_channel_ac,), id="matched-n7-ac")]
    + [pytest.param(lambda rng, n, point=point: point, None, None, BOTH, id=f"ill-conditioned-{k}")
       for k, point in enumerate(ILL_CONDITIONED)]
)


def disk_block(rng, size, dtype, coupling=0.0):
    """U T U^* for a random unitary (or orthogonal) U and upper-triangular T of eigenvalues 0.97
    and others filling the disk (or interval) of radius 0.93.

    ``coupling`` scales T's random strictly upper part below its first row: the block is normal
    at 0 and not otherwise, and the top's left and right eigenvectors agree either way, so its
    error is at most the Ritz residual.
    """
    others = 0.93 * np.sqrt(rng.uniform(size=size - 1))
    if dtype is complex:
        others = others * np.exp(2j * np.pi * rng.uniform(size=size - 1))
        u = random_unitary(rng, size)
    else:
        others = others * rng.choice([-1.0, 1.0], size=size - 1)
        u = np.linalg.qr(rng.normal(size=(size, size)))[0]
    t = np.diag(np.concatenate([[0.97], others]))
    t[1:, 1:] += np.triu(coupling / np.sqrt(size) * rng.normal(size=(size - 1, size - 1)), 1)
    return np.ascontiguousarray(u @ t @ u.conj().T)


def by_charge(evals, charges):
    """{q: the moduli of sector q, descending}."""
    return {q: np.sort(np.abs(evals[[c == q for c in charges]]))[::-1] for q in set(charges)}


class TestAgainstDense:
    @pytest.mark.parametrize("make, n, seed, builds", POINTS)
    def test_gap_and_verdict(self, make, n, seed, builds):
        ops = point_operators(*make(np.random.default_rng(seed), n))
        for build in builds:
            ch = build(ops)
            evals, charges, _ = sector_spectra(ch, certificate=False)
            gap = spectral_summary(evals, charges)[1]
            result = fixed_point_spectral(ch)
            assert abs(result.spectral_gap - gap) <= 1e-12
            assert is_near_unit(evals).sum() <= 1  # returned, so the dense verdict is unique too

            certified, certified_charges, _ = sector_spectra(ch, certificate=True)
            dense, listed = by_charge(evals, charges), by_charge(certified, certified_charges)
            assert sorted(dense) == sorted(listed)
            for q, moduli in listed.items():
                # each sector lists its largest moduli; q = 0 the trace's 1 and the next one
                assert np.abs(moduli - dense[q][:len(moduli)]).max() <= 1e-12
            sizes = {q: len(order) for q, order, _ in sector_blocks(ch)}
            for q, size in sizes.items():
                assert len(listed[q]) == (len(dense[q]) if size <= DENSE_SECTOR_SIZE
                                          else 1 + (q == 0))


def popcount_class_channel(n, rng, mixing=2):
    """Kraus {sqrt(p_j) P_m V_{m,j}}: random unitaries within each popcount class of 2^(n-1).

    Each projector P_m onto a class is a fixed point, so the eigenvalue 1 has
    one copy per class, all in the q = 0 sector.
    """
    d = 2 ** (n - 1)
    weights = rng.dirichlet(np.ones(mixing))
    stack = []
    for members in popcount_classes(d):
        for p in weights:
            k = np.zeros((d, d), dtype=complex)
            k[np.ix_(members, members)] = np.sqrt(p) * random_unitary(rng, len(members))
            stack.append(k)
    return Channel(np.array(stack))


class TestDegeneracy:
    def test_planted_in_q0_only(self, rng):
        ch = popcount_class_channel(6, rng)
        (q, order, _), = [s for s in sector_blocks(ch) if s[0] == 0]
        assert len(order) > DENSE_SECTOR_SIZE  # so the sector takes the Arnoldi
        evals, charges, _ = sector_spectra(ch, certificate=False)
        certified, certified_charges, _ = sector_spectra(ch, certificate=True)
        # its traceless top is a second 1, so the sector is listed in full, equal to the dense listing
        assert np.array_equal(certified[[c == 0 for c in certified_charges]],
                              evals[[c == 0 for c in charges]])

        near = is_near_unit(evals)
        with pytest.raises(DegenerateFixedPointError) as err:
            fixed_point_spectral(ch)
        # the error carries the dense listing's near-unit entries: one 1 per popcount class,
        # all of charge 0
        assert np.array_equal(err.value.eigenvalues, evals[near])
        assert err.value.charges == [0] * 6

    def test_unconverged_arnoldi_goes_dense(self, monkeypatch):
        ops = point_operators(*random_engine_point(np.random.default_rng(0), 6))
        ch = cycle_channel_cb(ops)
        expected = fixed_point_spectral(ch)
        monkeypatch.setattr(qcycle.limitcycle, "ARNOLDI_MAX_STEPS", 3)
        evals, charges, _ = sector_spectra(ch, certificate=True)
        # every sector listed dense
        assert np.array_equal(evals, sector_spectra(ch, certificate=False)[0])
        result = fixed_point_spectral(ch)
        assert abs(result.spectral_gap - expected.spectral_gap) <= 1e-12
        assert np.array_equal(result.rho_star, expected.rho_star)


class TestTopRitzValue:
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_known_spectrum(self, rng, dtype):
        size = 150
        moduli = np.concatenate([[0.9], rng.uniform(0.0, 0.6, size - 1)])
        phases = np.exp(2j * np.pi * rng.uniform(size=size)) if dtype is complex else 1.0
        basis = rng.normal(size=(size, size))
        if dtype is complex:
            basis = basis + 1j * rng.normal(size=(size, size))
        block = basis @ np.diag(moduli * phases) @ np.linalg.inv(basis)
        block = block.real if dtype is float else block
        top = top_ritz_value(np.ascontiguousarray(block))
        assert abs(top - (moduli * phases)[0]) <= 1e-10
        assert top_ritz_value(np.ascontiguousarray(block)) == top  # the same bits every call

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_past_first_basis_allocation(self, rng, monkeypatch, dtype):
        # a normal block, whose eigenvalue error is at most the Ritz residual; the others fill
        # the disk (or interval) of radius 0.93 below the top 0.97, so 21 steps do not converge
        block = disk_block(rng, 300, dtype)
        dense = np.linalg.eigvals(block)
        top = top_ritz_value(block)
        assert abs(top - dense[np.abs(dense).argmax()]) <= RITZ_TOL
        assert top_ritz_value(block) == top  # the same bits every call
        monkeypatch.setattr(qcycle.limitcycle, "ARNOLDI_MAX_STEPS", 21)
        assert top_ritz_value(block) is None

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("coupling", [0.0, 0.5], ids=["normal", "non-normal"])
    def test_residual_is_eigs(self, rng, monkeypatch, dtype, coupling):
        # the accepted value's residual, recomputed from eig's eigenvector of the same H_m, is
        # within RITZ_TOL, after checks that run past the first rate-scheduled one
        block = disk_block(rng, 300, dtype, coupling)
        checks, pair = [], qcycle.limitcycle._top_ritz_pair

        def recorded(h, beta):
            checks.append((h.copy(), beta))
            return pair(h, beta)

        monkeypatch.setattr(qcycle.limitcycle, "_top_ritz_pair", recorded)
        top = top_ritz_value(block)
        # step 0's residual is 1, so the check at step 10 already has a rate
        assert [len(h) for h, _ in checks[:3]] == [10, 30, 50]
        h, beta = checks[-1]
        values, vectors = np.linalg.eig(h)
        k = np.abs(values).argmax()
        assert beta * abs(vectors[-1, k]) <= RITZ_TOL
        dense = np.linalg.eigvals(block)
        assert abs(top - dense[np.abs(dense).argmax()]) <= RITZ_TOL
        assert top_ritz_value(block) == top  # the same bits every call

    def test_residual_rise_checks_sooner(self, rng, monkeypatch):
        # scripted residuals: step 10's 0.1 schedules the next check RITZ_AHEAD[1] = 20 steps on,
        # the 0.5 there rose, so the one after comes RITZ_AHEAD_ROSE steps on and accepts
        residuals, steps = iter([0.1, 0.5, RITZ_TOL]), []

        def scripted(h, beta):
            steps.append(len(h))
            return 0.25, next(residuals)

        monkeypatch.setattr(qcycle.limitcycle, "_top_ritz_pair", scripted)
        assert top_ritz_value(rng.normal(size=(100, 100))) == 0.25
        assert steps == [10, 30, 30 + RITZ_AHEAD_ROSE]

    def test_ci_n6_decompositions(self, monkeypatch):
        # one certificate pass on the n = 6 config of the CI Large chain step: its three Arnoldi
        # sectors take at most 7 Hessenberg decompositions, none of them with eigenvectors
        # (18 eig calls when every 5th step was checked, 9 before step 0's residual counted)
        counts = {"checks": 0, "eig": 0}
        pair, eig = qcycle.limitcycle._top_ritz_pair, np.linalg.eig

        def counted(call, key):
            def wrapper(*args):
                counts[key] += 1
                return call(*args)
            return wrapper

        monkeypatch.setattr(qcycle.limitcycle, "_top_ritz_pair", counted(pair, "checks"))
        monkeypatch.setattr(np.linalg, "eig", counted(eig, "eig"))
        spec = ChainSpec(n=6, E=[1.0, 1.3, 0.9, 1.6, 1.1, 2.0], J=[0.4, 0.5, -0.3, 0.6, 0.45],
                         K=[0.2, 0.1, 0.25, -0.15, 0.3], F=[0.3, 0.2, -0.25, 0.35, 0.15])
        params = CycleParams(beta1=1.0, beta2=0.75, tau1=0.7, tau2=1.3)
        fixed_point_spectral(cycle_channel_cb(point_operators(spec, params)))
        assert counts["eig"] == 0
        assert 3 <= counts["checks"] <= 7  # one eigvals each, at least one per Arnoldi sector

    def test_traceless_subspace(self, rng):
        # a replacement map x -> Tr(x) sigma on 4 x 4: eigenvalue 1 once, all others 0
        d = 4
        sigma = np.diag(rng.dirichlet(np.ones(d))).reshape(-1)
        block = np.outer(sigma, np.eye(d).reshape(-1))
        diag = np.arange(d) * (d + 1)
        assert abs(top_ritz_value(block, diag)) <= RITZ_TOL
        assert abs(top_ritz_value(block) - 1.0) <= RITZ_TOL
