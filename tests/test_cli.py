import json

import numpy as np
import pytest

import qcycle.cli
import qcycle.engine
import qcycle.limitcycle
import qcycle.reversal
import qcycle.thermo
from qcycle import (build_hamiltonian, cycle_channel_ac, cycle_channel_cb, cycle_operators,
                    fixed_point_spectral, random_density_matrix, run_cycle, trace_distance)
from qcycle.cli import COMMANDS, TRACE_COLUMNS, main, parse_config
from qcycle.errors import ConfigError, DegenerateFixedPointError

GENERIC = {
    "chain": {"n": 3, "E": [1.0, 1.3, 2.0], "J": [0.4, 0.5], "K": [0.2, 0.1], "F": [0.3, 0.2]},
    "cycle": {"beta1": 1.0, "beta2": 0.75, "tau1": 0.7, "tau2": 1.3},
    "solver": {"tol": 1e-11, "max_iter": 100000, "method": "both"},
    "seed": 7,
}


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def variant(**changes):
    doc = json.loads(json.dumps(GENERIC))
    for dotted, value in changes.items():
        node = doc
        keys = dotted.split(".")
        for key in keys[:-1]:
            node = node.setdefault(key, {})
        node[keys[-1]] = value
    return doc


DECOUPLED = variant(**{"chain.J": [0.0, 0.0], "chain.K": [0.0, 0.0], "chain.F": [0.0, 0.0]})


class TestConfigParsing:
    def test_valid_config(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, GENERIC))
        assert cfg.spec.n == 3
        assert cfg.method == "both"
        assert cfg.seed == 7

    def test_missing_section_named(self, tmp_path):
        with pytest.raises(ConfigError, match="cycle"):
            parse_config(write_config(tmp_path, {"chain": GENERIC["chain"]}))

    def test_wrong_bond_count_names_field(self, tmp_path):
        with pytest.raises(ConfigError, match=r"^chain\.J: must have length 2, got 1$"):
            parse_config(write_config(tmp_path, variant(**{"chain.J": [0.4]})))

    def test_zero_end_field_named(self, tmp_path):
        with pytest.raises(ConfigError, match=r"chain.E\[0\]"):
            parse_config(write_config(tmp_path, variant(**{"chain.E": [0.0, 1.0, 2.0]})))

    def test_bad_method_named(self, tmp_path):
        with pytest.raises(ConfigError, match="solver.method"):
            parse_config(write_config(tmp_path, variant(**{"solver.method": "magic"})))

    def test_nonpositive_beta_named(self, tmp_path):
        with pytest.raises(ConfigError, match="cycle.beta2"):
            parse_config(write_config(tmp_path, variant(**{"cycle.beta2": 0.0})))

    def test_bad_tolerance_named(self, tmp_path):
        with pytest.raises(ConfigError, match="solver.tol"):
            parse_config(write_config(tmp_path, variant(**{"solver.tol": -1.0})))

    def test_non_finite_field_exits_config(self, tmp_path, capsys):
        # Python's json reads and writes the bare NaN token
        cfg = write_config(tmp_path, variant(**{"chain.E": [1.0, float("nan"), 2.0]}))
        assert main(["report", "--config", cfg]) == 1
        assert "chain.E" in capsys.readouterr().err

    def test_nan_tolerance_named(self, tmp_path):
        # json reads a bare NaN or Infinity; an infinite tol accepted any iterate
        for tol in (float("nan"), float("inf")):
            with pytest.raises(ConfigError, match="solver.tol"):
                parse_config(write_config(tmp_path, variant(**{"solver.tol": tol})))

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_negative_seed_named(self, tmp_path, capsys, command):
        assert main([command, "--config", write_config(tmp_path, variant(seed=-1))]) == 1
        assert "qcycle: config error: seed: must be >= 0" in capsys.readouterr().err
        assert main([command, "--config", write_config(tmp_path, GENERIC), "--seed", "-1"]) == 1
        assert "qcycle: config error: --seed: must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_overflowing_couplings_named(self, tmp_path, capsys, command):
        # every coupling is finite, but the Hamiltonian's entries overflow and its
        # eigendecomposition did not converge
        doc = variant(**{"chain.J": [1e308, 0.5]})
        assert main([command, "--config", write_config(tmp_path, doc)]) == 1
        assert "qcycle: config error: chain.J: too large" in capsys.readouterr().err

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @pytest.mark.parametrize("coupling, tau", [(4e307, "tau1"), (1e300, "tau2")])
    def test_overflowing_stroke_phase_named(self, tmp_path, capsys, command, coupling, tau):
        # the energy bound is finite, but times the longer stroke it overflows: the
        # phases of expm_unitary were inf and every command ended in a LinAlgError
        doc = variant(**{"chain.J": [coupling, 0.5], f"cycle.{tau}": 1e10})
        assert main([command, "--config", write_config(tmp_path, doc)]) == 1
        assert f"qcycle: config error: cycle.{tau}: too long" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["sead", "chain.m", "cycle.beta3", "solver.tolerence",
                                       "output.file"])
    def test_unknown_field_named(self, tmp_path, capsys, field):
        doc = variant(**{field: 1})
        assert main(["report", "--config", write_config(tmp_path, doc)]) == 1
        assert capsys.readouterr().err == f"qcycle: config error: {field}: unknown field\n"

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="config"):
            parse_config(str(path))


def chain_of(n):
    """The chain of the n = 6 CI config, cut to n sites and keeping its last field."""
    return {"n": n, "E": [1.0, 1.3, 0.9, 1.6, 1.1][:n - 1] + [2.0],
            "J": [0.4, 0.5, -0.3, 0.6, 0.45][:n - 1], "K": [0.2, 0.1, 0.25, -0.15, 0.3][:n - 1],
            "F": [0.3, 0.2, -0.25, 0.35, 0.15][:n - 1]}


class TestSimulate:
    @staticmethod
    def assert_full_chain_deltas(tmp_path, doc, status):
        """Run simulate; each row's delta_prev must be the full-chain trace distance
        between the run_cycle start states of its cycle and the one before."""
        cfg_path = write_config(tmp_path, doc)
        out = tmp_path / "trace.csv"
        assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == status
        rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
        cfg = parse_config(cfg_path)
        parts = build_hamiltonian(cfg.spec)
        ops = cycle_operators(parts, cfg.params)
        rho0, prev = qcycle.cli._initial_full_state(cfg), None
        for row in rows:
            if prev is None:
                assert row[1] == "nan"
            else:
                assert abs(float(row[1]) - trace_distance(rho0, prev)) <= 1e-14, row[0]
            prev, rho0 = rho0, run_cycle(rho0, parts, ops)[0].rho4
        return rows

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_delta_prev_is_full_chain_distance(self, tmp_path, n):
        # from cycle 3 on it is taken between the AC states, on 2^(n-1)
        rows = self.assert_full_chain_deltas(tmp_path, variant(chain=chain_of(n)), status=0)
        assert len(rows) >= 3

    def test_delta_prev_from_supplied_initial_state(self, tmp_path):
        np.save(tmp_path / "init.npy", random_density_matrix(16, np.random.default_rng(5)))
        doc = variant(chain=chain_of(4), initial_state=str(tmp_path / "init.npy"))
        self.assert_full_chain_deltas(tmp_path, doc, status=0)

    def test_delta_prev_of_two_cycles(self, tmp_path):
        # the second cycle's distance is to the initial state, on the full chain
        rows = self.assert_full_chain_deltas(tmp_path, variant(**{"solver.max_iter": 2}), status=2)
        assert len(rows) == 2

    def test_generic_run_converges(self, tmp_path, capsys):
        cfg = write_config(tmp_path, GENERIC)
        out = tmp_path / "trace.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == ",".join(TRACE_COLUMNS)
        assert len(lines) >= 3
        deltas = [float(row.split(",")[1]) for row in lines[2:]]
        assert deltas[-1] < 1e-11
        tail = deltas[-8:]
        assert all(b <= a + 1e-12 for a, b in zip(tail, tail[1:]))

    def test_forced_non_convergence(self, tmp_path):
        cfg = write_config(tmp_path, variant(**{"solver.max_iter": 1}))
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "t.csv")]) == 2

    def test_stall_exits_early(self, tmp_path, capsys):
        # zero couplings leave a degenerate fixed point, so delta_prev is flat from cycle 3 on
        out = tmp_path / "t.csv"
        assert main(["simulate", "--config", write_config(tmp_path, DECOUPLED),
                     "--out", str(out)]) == 2
        assert len(out.read_text().splitlines()) - 1 < 2000
        assert "simulate stalled" in capsys.readouterr().err

    def test_deterministic_output(self, tmp_path):
        cfg = write_config(tmp_path, GENERIC)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["simulate", "--config", cfg, "--out", str(out1)])
        main(["simulate", "--config", cfg, "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_seed_changes_transient(self, tmp_path):
        cfg = write_config(tmp_path, GENERIC)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["simulate", "--config", cfg, "--out", str(out1)])
        main(["simulate", "--config", cfg, "--out", str(out2), "--seed", "99"])
        assert out1.read_bytes() != out2.read_bytes()

    def test_supplied_initial_state(self, tmp_path):
        rho = random_density_matrix(8, np.random.default_rng(5))
        state_path = tmp_path / "init.npy"
        np.save(state_path, rho)
        cfg = write_config(tmp_path, variant(initial_state=str(state_path)))
        out = tmp_path / "trace.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0

    def test_wrong_initial_state_shape(self, tmp_path):
        np.save(tmp_path / "init.npy", np.eye(4) / 4)
        cfg = write_config(tmp_path, variant(initial_state=str(tmp_path / "init.npy")))
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "t.csv")]) == 1

    def test_non_finite_initial_state_named(self, tmp_path, capsys):
        rho = np.eye(8) / 8
        rho[0, 0] = np.nan
        np.save(tmp_path / "init.npy", rho)
        cfg = write_config(tmp_path, variant(initial_state=str(tmp_path / "init.npy")))
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "t.csv")]) == 1
        assert "initial_state" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["text", "npz", "empty"])
    def test_unreadable_initial_state_named(self, tmp_path, capsys, kind):
        path = tmp_path / "init.npy"
        if kind == "text":
            path.write_text("0.125 0 0\n")
        elif kind == "npz":
            path = tmp_path / "init.npz"
            np.savez(path, rho=np.eye(8) / 8)
        else:
            path.write_bytes(b"")
        cfg = write_config(tmp_path, variant(initial_state=str(path)))
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "t.csv")]) == 1
        assert "config error: initial_state" in capsys.readouterr().err

    def test_output_format_mismatch(self, tmp_path):
        cfg = write_config(tmp_path, variant(**{"output.format": "json"}))
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "t.csv")]) == 1


class TestReport:
    def test_generic_report(self, tmp_path, capsys):
        cfg = write_config(tmp_path, GENERIC)
        assert main(["report", "--config", cfg]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["eq18_residual"] < 1e-8
        assert abs(doc["eta"] - doc["eta_predicted"]) < 1e-8
        assert doc["spectral_gap"] > 0.1

    def test_zero_coupling_degenerate(self, tmp_path, capsys):
        doc = variant(**{"chain.J": [0.0, 0.0], "chain.K": [0.0, 0.0], "chain.F": [0.0, 0.0]})
        cfg = write_config(tmp_path, doc)
        assert main(["report", "--config", cfg]) == 3
        assert "near-unit eigenvalues" in capsys.readouterr().err

    def test_degenerate_eigenvalues_named_by_sector(self, tmp_path, capsys):
        # zero couplings and stroke times leave the middle qubit untouched: its
        # populations give two unit eigenvalues in q = 0, its coherences q = -1, +1
        doc = {"chain": {"n": 3, "E": [1.0, 1.3, 2.0], "J": [0.0, 0.0], "K": [0.0, 0.0],
                         "F": [0.0, 0.0]},
               "cycle": {"beta1": 1.0, "beta2": 0.75, "tau1": 0.0, "tau2": 0.0},
               "seed": 0}
        assert main(["report", "--config", write_config(tmp_path, doc)]) == 3
        err = capsys.readouterr().err
        assert "near-unit eigenvalues" in err
        assert err.count("(q=0)") == 2
        assert "(q=-1)" in err and "(q=1)" in err

    def test_matched_bath_report_has_ansatz_distance(self, tmp_path, capsys):
        # beta2 = beta1 * E_1 / E_N is exact in binary for these values
        doc = variant(**{"cycle.beta1": 1.5, "cycle.beta2": 0.75})
        cfg = write_config(tmp_path, doc)
        assert main(["report", "--config", cfg]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["ansatz_distance"] < 1e-8
        assert out["eta"] is None  # no transported heat at the matched point

    def test_matched_bath_iterate_eta_null(self, tmp_path, capsys):
        # the iterate lands about tol from the fixed point, which leaves q_h at 3.4e-11
        # rather than rounding; below 10 tol |E_N| that heat is no heat
        doc = {"chain": {"n": 5, "E": [0.9131652892127087, 1.981666365008762,
                                       0.949622235757263, 0.8828966611052188,
                                       2.1372709394849916],
                         "J": [-0.22346675779426134, -0.3734164121908062,
                               0.35381925279680015, 0.2923921254029992],
                         "K": [-0.7493218958776404, 0.4644855870054037,
                               0.23980044381106258, 0.4093912531311628],
                         "F": [0.6386933458668431, 0.6458778318333795,
                               -0.7379997939069745, -0.4814933934243145]},
               "cycle": {"beta1": 0.6696698728259383, "beta2": 0.28612155426746727,
                         "tau1": 0.7053587653267195, "tau2": 1.8489566109205093},
               "solver": {"method": "iterate"},
               "seed": 983522172}
        assert main(["report", "--config", write_config(tmp_path, doc)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert 0.0 < abs(out["q_h_star"]) <= 10 * 1e-10 * doc["chain"]["E"][-1]
        assert out["eta"] is None

    def test_deterministic_document(self, tmp_path):
        cfg = write_config(tmp_path, GENERIC)
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        main(["report", "--config", cfg, "--out", str(out1)])
        main(["report", "--config", cfg, "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_output_path_from_config(self, tmp_path):
        target = tmp_path / "from_config.json"
        cfg = write_config(tmp_path, variant(**{"output.path": str(target),
                                                "output.format": "json"}))
        assert main(["report", "--config", cfg]) == 0
        assert json.loads(target.read_text())["eta_predicted"] == 0.5

    def test_non_convergence_explained(self, tmp_path, capsys):
        cfg = write_config(tmp_path, variant(**{"solver.max_iter": 1}))
        assert main(["report", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("qcycle: fixed-point iteration did not converge: "
                                       "1 iterations, final delta ")
        assert ", tol " in captured.err

    def test_slowly_mixing_solvers_agree(self, tmp_path, capsys):
        # spectral gap 0.039: stopping the iteration when one step moves less than
        # tol left it 2.4e-9 from the fixed point, and report warned that the solvers
        # disagreed by more than 10 tol
        doc = {"chain": {"n": 4, "E": [0.9848634828167946, 0.5023793855262364,
                                       0.9294688376836533, 3.666042636148085],
                         "J": [-0.6730926806605473, -0.5352461219582629, -0.5885474006356826],
                         "K": [0.3123149888487918, -0.7387538124236359, -0.7038414829307136],
                         "F": [0.7708356776610883, 0.6697969279130231, 0.37427196679683916]},
               "cycle": {"beta1": 2.901721277494388, "beta2": 0.9394189830407498,
                         "tau1": 1.854691427251925, "tau2": 1.6786677738211424},
               "seed": 1857809650}
        assert main(["report", "--config", write_config(tmp_path, doc)]) == 0
        assert capsys.readouterr().err == ""

    def test_iterate_method_still_detects_degeneracy(self, tmp_path):
        doc = variant(**{"chain.J": [0.0, 0.0], "chain.K": [0.0, 0.0], "chain.F": [0.0, 0.0],
                         "solver.method": "iterate", "cycle.tau1": 0.0, "cycle.tau2": 0.0})
        cfg = write_config(tmp_path, doc)
        assert main(["report", "--config", cfg]) == 3


class TestReverse:
    def test_generic_reverse(self, tmp_path, capsys):
        cfg = write_config(tmp_path, GENERIC)
        assert main(["reverse", "--config", cfg]) == 0
        doc = json.loads(capsys.readouterr().out)
        for key in ("cb", "ac"):
            section = doc[key]
            assert section["completeness_residual"] < 1e-10
            assert section["reconstruction_residual"] < 1e-10
            assert section["reversed_fixed_point_distance"] < 1e-9
            assert section["max_detailed_balance_violation"] < 1e-9
            assert section["choi_output_trace_residual"] < 1e-10
            assert section["kraus_count"] >= 1

    def test_slowly_mixing_ill_conditioned_point(self, tmp_path, capsys):
        # the seventh reverse-n6 point of benchmark seed 12: CB cond(rho_star) = 2.3e8, gap
        # 0.026; the rounding of rho_star's entries between popcount blocks, carried by the
        # map into its 1e-8 block, put the CB reversed completeness at 1.57e-10
        doc = {"chain": {"n": 6,
                         "E": [1.1319760882910113, 1.8289437512462674, 1.4707114516048694,
                               0.6909971249971828, 1.5198564136276, 6.827000652627963],
                         "J": [0.6836453703353496, -0.7293303663286581, 0.7406536884965726,
                               -0.5717647008264165, -0.6632489365180771],
                         "K": [-0.6721415405692712, 0.4728623476913465, -0.4966794704863428,
                               0.6709419697910364, -0.3341275427836406],
                         "F": [-0.4546680653178439, 0.7498563069529323, 0.36231865554636805,
                               0.20758174576935873, 0.30250776208698993]},
               "cycle": {"beta1": 2.989041785059351, "beta2": 0.7490425371237124,
                         "tau1": 1.2231095634900022, "tau2": 0.4732138686761764},
               "seed": 165008929}
        assert main(["reverse", "--config", write_config(tmp_path, doc)]) == 0
        out = json.loads(capsys.readouterr().out)
        for key in ("cb", "ac"):
            assert out[key]["reversed_completeness_residual"] < 1e-10

    def test_ac_carried_from_spectral_fixed_point(self, tmp_path, capsys):
        # the 27th reverse-n6 point of benchmark seed 0: AC cond(rho_star) = 2.7e7; carried
        # from CB's refined fixed point instead of its spectral one, AC's reversed
        # completeness read 9.2e-12, the rounding of CB's two refinement steps amplified
        doc = {"chain": {"n": 6,
                         "E": [1.1363264857333941, 1.3510584885478443, 1.032092275085464,
                               1.1847494407309231, 1.3989605858016965, 5.943711471523708],
                         "J": [-0.5648003990482642, -0.2557942760394006, -0.34525664128687805,
                               -0.6823950926354083, 0.7041689359097587],
                         "K": [-0.36628415181928564, 0.623664933388089, -0.5272739741942687,
                               -0.4640594473415975, 0.5938653657042661],
                         "F": [0.6083375658617589, -0.6237411880168247, 0.6084564945116161,
                               -0.6605702639382456, -0.2477309366082408]},
               "cycle": {"beta1": 2.9171965481627113, "beta2": 0.7156979687803686,
                         "tau1": 0.480011144306103, "tau2": 1.7540969724455937},
               "seed": 630981085}
        assert main(["reverse", "--config", write_config(tmp_path, doc)]) == 0
        assert json.loads(capsys.readouterr().out)["ac"]["reversed_completeness_residual"] < 2e-12

    def test_near_pure_fixed_point_rank_deficient(self, tmp_path, capsys):
        doc = variant(**{"cycle.beta1": 200.0, "cycle.beta2": 150.0})
        cfg = write_config(tmp_path, doc)
        assert main(["reverse", "--config", cfg]) == 4
        assert "rank deficient" in capsys.readouterr().err

    def test_zero_coupling_degenerate(self, tmp_path):
        doc = variant(**{"chain.J": [0.0, 0.0], "chain.K": [0.0, 0.0], "chain.F": [0.0, 0.0]})
        cfg = write_config(tmp_path, doc)
        assert main(["reverse", "--config", cfg]) == 3


class TestSpectrum:
    def test_generic_spectrum(self, tmp_path, capsys):
        cfg = write_config(tmp_path, GENERIC)
        assert main(["spectrum", "--config", cfg]) == 0
        doc = json.loads(capsys.readouterr().out)
        for key in ("cb", "ac"):
            section = doc[key]
            assert section["degenerate"] is False
            assert 0.0 < section["spectral_gap"] <= 1.0
            assert len(section["eigenvalue_moduli"]) == 16
            assert abs(section["eigenvalue_moduli"][0] - 1.0) < 1e-9

    def test_degenerate_spectrum_reported_not_fatal(self, tmp_path, capsys):
        doc = variant(**{"chain.J": [0.0, 0.0], "chain.K": [0.0, 0.0], "chain.F": [0.0, 0.0]})
        cfg = write_config(tmp_path, doc)
        assert main(["spectrum", "--config", cfg]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["cb"]["degenerate"] is True
        assert len(out["cb"]["near_unit_eigenvalues"]) > 1

    @pytest.mark.parametrize("doc", [GENERIC, DECOUPLED], ids=["readme", "decoupled"])
    def test_agrees_with_spectral_solver(self, tmp_path, capsys, doc):
        cfg_path = write_config(tmp_path, doc)
        assert main(["spectrum", "--config", cfg_path]) == 0
        out = json.loads(capsys.readouterr().out)
        cfg = parse_config(cfg_path)
        ops = cycle_operators(build_hamiltonian(cfg.spec), cfg.params)
        for key, build in (("cb", cycle_channel_cb), ("ac", cycle_channel_ac)):
            try:
                result = fixed_point_spectral(build(ops))
            except DegenerateFixedPointError as exc:
                result = exc.result
            assert out[key]["degenerate"] is result.degenerate
            # eigvals and eig are separate LAPACK calls, equal to rounding
            assert out[key]["spectral_gap"] == pytest.approx(result.spectral_gap, abs=1e-12)


class TestOneSolvePerConfig:
    """One set of cycle operators and one decomposition per config."""

    @pytest.mark.parametrize("command", ["report", "spectrum", "reverse"])
    def test_one_call_each(self, tmp_path, capsys, monkeypatch, command):
        calls = {"cycle_operators": 0, "sector_eigenvalues": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        # every module that binds the names, so an indirect call is counted too
        for module in (qcycle.cli, qcycle.engine, qcycle.limitcycle, qcycle.reversal,
                       qcycle.thermo):
            for name in calls:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        configs = [write_config(tmp_path, GENERIC, "a.json"),
                   write_config(tmp_path, variant(**{"cycle.tau1": 0.9}), "b.json")]
        assert main([command, "--config", *configs, "--sweep"]) == 0
        assert all(entry["status"] == 0 for entry in json.loads(capsys.readouterr().out))
        assert calls == {"cycle_operators": 2, "sector_eigenvalues": 2}  # one each per config


class TestUnwritableOutput:
    """A write into a missing directory is reported, after the run, with exit status 1."""

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_out_flag(self, tmp_path, capsys, command):
        target = tmp_path / "missing" / "out.txt"
        assert main([command, "--config", write_config(tmp_path, GENERIC),
                     "--out", str(target)]) == 1
        assert f"qcycle: cannot write {target}: " in capsys.readouterr().err

    def test_output_path_from_config(self, tmp_path, capsys):
        target = tmp_path / "missing" / "out.json"
        cfg = write_config(tmp_path, variant(**{"output.path": str(target)}))
        assert main(["report", "--config", cfg]) == 1
        assert f"qcycle: cannot write {target}: " in capsys.readouterr().err

    def test_sweep(self, tmp_path, capsys):
        target = tmp_path / "missing" / "sweep.json"
        configs = [write_config(tmp_path, GENERIC, "a.json"),
                   write_config(tmp_path, GENERIC, "b.json")]
        assert main(["spectrum", "--config", *configs, "--sweep", "--out", str(target)]) == 1
        assert f"qcycle: cannot write {target}: " in capsys.readouterr().err


class TestSweep:
    def test_sweep_merges_in_config_order(self, tmp_path, capsys):
        good = write_config(tmp_path, GENERIC, "good.json")
        degenerate = write_config(
            tmp_path,
            variant(**{"chain.J": [0.0, 0.0], "chain.K": [0.0, 0.0], "chain.F": [0.0, 0.0]}),
            "degenerate.json")
        status = main(["report", "--config", good, degenerate, "--sweep"])
        assert status == 3  # worst status wins
        doc = json.loads(capsys.readouterr().out)
        assert [entry["config"] for entry in doc] == [good, degenerate]
        assert doc[0]["status"] == 0 and "document" in doc[0]
        assert doc[1]["status"] == 3 and "document" not in doc[1]

    def test_failing_member_keeps_other_documents(self, tmp_path, capsys):
        # a tolerance below rounding makes the closure certificate fail
        tight = write_config(tmp_path, variant(**{"solver.method": "spectral",
                                                  "solver.tol": 1e-17}), "tight.json")
        good = write_config(tmp_path, GENERIC, "good.json")
        assert main(["report", "--config", tight, good, "--sweep"]) == 5
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert [entry["config"] for entry in doc] == [tight, good]
        assert doc[0]["status"] == 5 and "document" not in doc[0]
        assert doc[1]["status"] == 0 and "document" in doc[1]
        assert "closure" in captured.err

    def test_multiple_configs_require_sweep_flag(self, tmp_path, capsys):
        a = write_config(tmp_path, GENERIC, "a.json")
        b = write_config(tmp_path, GENERIC, "b.json")
        assert main(["report", "--config", a, b]) == 1

    def test_sweep_rejected_for_simulate(self, tmp_path):
        a = write_config(tmp_path, GENERIC, "a.json")
        b = write_config(tmp_path, GENERIC, "b.json")
        assert main(["simulate", "--config", a, b, "--sweep"]) == 1
