import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import qcycle.cli
import qcycle.engine
import qcycle.limitcycle
import qcycle.reversal
import qcycle.thermo
from qcycle import (build_hamiltonian, cycle_channel_ac, cycle_channel_cb, cycle_operators,
                    random_density_matrix, sequence_probability, trace_distance)
from qcycle.cli import COMMANDS, TOL_FLOOR, TRACE_COLUMNS, _run_one, dumps, main, parse_config
from qcycle.errors import (ConfigError, DegenerateFixedPointError, NotFixedPointError,
                           QcycleError, RankDeficientError)
from qcycle.limitcycle import DEFAULT_MAX_ITER, DEFAULT_TOL, sector_spectra, spectral_summary
from qcycle.linalg import hermitian_part
from cli_documents import compare, parse
from oracle_naive import NaiveCycle, full_chain_simulate

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

    def test_solver_defaults_are_the_library_defaults(self, tmp_path):
        doc = {key: val for key, val in GENERIC.items() if key != "solver"}
        cfg = parse_config(write_config(tmp_path, doc))
        assert (cfg.tol, cfg.max_iter, cfg.method) == (DEFAULT_TOL, DEFAULT_MAX_ITER, "both")

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

    @pytest.mark.parametrize("method", ["spectral", "both"])
    def test_tolerance_below_floor_named(self, tmp_path, capsys, method):
        # tol 1e-17 failed the closure at rounding (spectral) or ran every iteration (both)
        doc = variant(**{"solver.tol": 1e-17, "solver.method": method})
        assert main(["report", "--config", write_config(tmp_path, doc)]) == 1
        assert capsys.readouterr().err.startswith(
            "qcycle: config error: solver.tol: must be at least 1e-15")
        assert parse_config(write_config(tmp_path, variant(**{"solver.tol": TOL_FLOOR}))).tol \
            == TOL_FLOOR

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

    @pytest.mark.parametrize("field, value, message", [
        ("chain.n", 3.0, "chain.n: must be an integer, got 3.0"),
        ("chain.n", 2, "chain.n: must be >= 3, got 2"),
        ("chain.E", [1.0, True, 2.0], "chain.E: must be a list of numbers"),
        ("chain.F", "0.3", "chain.F: must be a list of numbers"),
        ("cycle.beta1", "1.0", "cycle.beta1: must be a number, got '1.0'"),
        ("cycle.tau2", None, "cycle.tau2: must be a number, got None"),
        ("chain.E", [1.0, 1.3, 0.0],
         "chain.E[2]: must be nonzero (end qubit B needs a finite gap)"),
        ("solver", [1e-11], "solver: must be an object, got list"),
        ("initial_state", 3, "initial_state: must be a path string"),
        ("output.format", "xml", "output.format: must be json or csv, got 'xml'"),
        ("output.path", 5, "output.path: must be a path string"),
    ])
    def test_wrong_json_type_named(self, tmp_path, field, value, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parse_config(write_config(tmp_path, variant(**{field: value})))

    @pytest.mark.parametrize("field", ["chain.n", "chain.K", "cycle.tau1"])
    def test_missing_field_named(self, tmp_path, field):
        doc = variant()
        section, key = field.split(".")
        del doc[section][key]
        with pytest.raises(ConfigError, match=f"^{field}: missing required field$"):
            parse_config(write_config(tmp_path, doc))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="config"):
            parse_config(str(path))

    @pytest.mark.parametrize("content, message", [
        (None, "config: cannot read "), ("[1, 2]", "config: top level must be a JSON object")])
    def test_unusable_config_file_named(self, tmp_path, content, message):
        path = tmp_path / "cfg.json"
        if content is not None:
            path.write_text(content)
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}"):
            parse_config(str(path))


class Unreachable(Exception):
    pass


def long_chain(n):
    return {"chain": {"n": n, "E": [1.0] * (n - 1) + [2.0], "J": [0.4] * (n - 1),
                      "K": [0.2] * (n - 1), "F": [0.3] * (n - 1)},
            "cycle": GENERIC["cycle"], "seed": 7}


class TestChainSize:
    """Chains the dense route cannot hold or decompose exit 1 before any operator is built."""

    @pytest.fixture(autouse=True)
    def unbuilt(self, monkeypatch):
        def build_hamiltonian(spec):
            raise Unreachable

        monkeypatch.setattr(qcycle.cli, "build_hamiltonian", build_hamiltonian)

    @pytest.mark.parametrize("command, n, message", [
        ("report", 10, "report cannot run at n = 10: its q = 0 sector block is 48620^2 complex, "
                       "35.2 GiB, above the 8 GiB bound"),
        ("reverse", 10, "reverse cannot run at n = 10"),
        ("spectrum", 9, "spectrum decomposes every sector densely and runs up to n = 8, got "
                        "n = 9: its q = 0 sector block is 12870^2 complex, 2.5 GiB"),
        ("simulate", 16, "simulate cannot run at n = 16: its peak is projected at 13 complex "
                         "2^16 x 2^16 arrays, 832.0 GiB, above the 8 GiB bound"),
        ("simulate", 13, "simulate cannot run at n = 13"),
    ])
    def test_refused(self, tmp_path, capsys, command, n, message):
        assert main([command, "--config", write_config(tmp_path, long_chain(n))]) == 1
        assert capsys.readouterr().err.startswith(f"qcycle: config error: chain.n: {message}")

    @pytest.mark.parametrize("command, n", [("report", 9), ("reverse", 9), ("spectrum", 8),
                                            ("simulate", 10), ("simulate", 12)])
    def test_admitted(self, tmp_path, command, n):
        with pytest.raises(Unreachable):
            main([command, "--config", write_config(tmp_path, long_chain(n))])


def chain_of(n):
    """The chain of the n = 6 CI config, cut to n sites and keeping its last field."""
    return {"n": n, "E": [1.0, 1.3, 0.9, 1.6, 1.1][:n - 1] + [2.0],
            "J": [0.4, 0.5, -0.3, 0.6, 0.45][:n - 1], "K": [0.2, 0.1, 0.25, -0.15, 0.3][:n - 1],
            "F": [0.3, 0.2, -0.25, 0.35, 0.15][:n - 1]}


class TestSimulate:
    @staticmethod
    def assert_full_chain_deltas(tmp_path, doc, status):
        """Run simulate; each row's delta_prev must be the full-chain trace distance
        between the full-chain start states (NaiveCycle.run) of its cycle and the one before."""
        cfg_path = write_config(tmp_path, doc)
        out = tmp_path / "trace.csv"
        assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == status
        rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
        cfg = parse_config(cfg_path)
        oracle = NaiveCycle(cfg.spec, cfg.params)
        rho0, prev = qcycle.cli._initial_full_state(cfg), None
        for row in rows:
            if prev is None:
                assert row[1] == "nan"
            else:
                assert abs(float(row[1]) - trace_distance(rho0, prev)) <= 1e-14, row[0]
            prev, rho0 = rho0, oracle.run(rho0)[3]
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

    @pytest.mark.parametrize("case", ["n3", "n4", "n5", "n6", "initial-state", "matched-bath",
                                      "decoupled-stall"])
    def test_matches_full_chain_loop(self, tmp_path, capsys, case):
        # simulate steps the reduced states with the half-cycle channels and reads its records
        # through the ledger observables; the full-chain NaiveCycle loop must give the same run
        if case == "initial-state":
            np.save(tmp_path / "init.npy", random_density_matrix(16, np.random.default_rng(5)))
            doc = variant(chain=chain_of(4), initial_state=str(tmp_path / "init.npy"))
        elif case == "matched-bath":
            doc = variant(**{"cycle.beta2": 0.5})  # beta1 E_1 = beta2 E_N
        elif case == "decoupled-stall":
            doc = DECOUPLED
        else:
            doc = variant(chain=chain_of(int(case[1:])))
        cfg_path = write_config(tmp_path, doc)
        status = main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "t.csv")])
        err = capsys.readouterr().err
        want_status, want_text = full_chain_simulate(parse_config(cfg_path))
        assert (status, err) == (want_status, capsys.readouterr().err)
        want = parse("simulate", want_text)
        got = parse("simulate", (tmp_path / "t.csv").read_text())
        assert len(got) == len(want)
        worst, errors = {}, []
        compare(want, got, case, worst, errors)
        assert not errors, errors[:5]
        if case == "decoupled-stall":
            assert status == 2 and "simulate stalled" in err

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

    def test_initial_state_within_hermiticity_tolerance(self, tmp_path, capsys):
        # the load check accepts 0.9e-10 of drift per entry, and Tr_A adds the drifts of
        # entries [0, 1] and [4, 5] past HERMITICITY_ATOL: only the load check may judge it
        rho = hermitian_part(random_density_matrix(8, np.random.default_rng(0)))
        rho[0, 1] += 0.9e-10
        rho[4, 5] += 0.9e-10
        np.save(tmp_path / "init.npy", rho)
        cfg = write_config(tmp_path, variant(initial_state=str(tmp_path / "init.npy")))
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "t.csv")]) == 0
        assert capsys.readouterr().err == ""

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

    @pytest.mark.parametrize("dtype", [[("a", "f8"), ("b", "f8")], bool], ids=["structured", "bool"])
    def test_non_numeric_initial_state_named(self, tmp_path, capsys, dtype):
        # a structured array failed the complex cast of check_density_matrix with a TypeError
        np.save(tmp_path / "init.npy", np.zeros((8, 8), dtype=dtype))
        cfg = write_config(tmp_path, variant(initial_state=str(tmp_path / "init.npy")))
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "t.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("qcycle: config error: initial_state: expected a numeric array")

    @pytest.mark.parametrize("change, message", [
        (lambda rho: rho + np.triu(np.full_like(rho, 1e-9), 1), "not Hermitian"),
        (lambda rho: 2.0 * rho, "trace (2+0j) differs from 1"),
        (lambda rho: rho - 0.25 * np.diag(np.eye(8)[0]) + 0.25 * np.diag(np.eye(8)[1]),
         "not PSD"),
    ], ids=["hermiticity", "trace", "psd"])
    def test_invalid_initial_state_named(self, tmp_path, capsys, change, message):
        np.save(tmp_path / "init.npy", change(np.eye(8) / 8))
        cfg = write_config(tmp_path, variant(initial_state=str(tmp_path / "init.npy")))
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "t.csv")]) == 1
        assert capsys.readouterr().err.startswith(f"qcycle: config error: initial_state: {message}")

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


class TestSimulateMemory:
    """simulate drops each 2^n x 2^n array after its last reader. On these configs, in units of
    one such complex array, tracemalloc reads 11.9 and 11.7 at the peak, cycle 2's stroke 4, at
    n = 8 and 9, and 6.8 live from cycle 3 on; while the Hamiltonian parts and the initial state
    were held for the whole run, 14.9 and 14.7, and 11.2 and 11.1. The bounds sit 1.1 to 1.3
    arrays above today's figures and 1.7 to 3.2 below the held ones. tracemalloc counts numpy's array
    buffers, not LAPACK's workspaces, so the BLAS thread count does not enter; the figures are
    numpy 2.4.6's, the version CI installs."""

    @pytest.mark.parametrize("n", [8, 9])
    def test_full_chain_arrays_released(self, tmp_path, monkeypatch, n):
        cfg = parse_config(write_config(tmp_path, {**long_chain(n), "solver": {"max_iter": 3}}))
        unit = 16 * 4**n
        live = []

        def sampled(a, b):
            if len(a) < 2**n:  # from cycle 3 on, between AC states
                live.append(tracemalloc.get_traced_memory()[0] / unit)
            return trace_distance(a, b)

        monkeypatch.setattr(qcycle.cli, "trace_distance", sampled)
        tracemalloc.start()
        try:
            qcycle.cli.cmd_simulate(cfg)
            peak = tracemalloc.get_traced_memory()[1] / unit
        finally:
            tracemalloc.stop()
        assert peak <= 13.0
        assert len(live) == 1 and live[0] <= 8.0


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

    def test_iteration_stall_exits_early(self, tmp_path, capsys):
        # at solver.tol 1e-15 the gap-scaled tol is 2.4e-16, below the 4.4e-16 to 5.7e-16 that
        # the steps' trace distances keep from step 150 on; without the stall rule the default
        # max_iter ran all 100000 iterations
        doc = json.loads((Path(__file__).parent / "documents" / "generic-n6.json").read_text())
        doc["solver"] = {"tol": 1e-15}
        assert main(["report", "--config", write_config(tmp_path, doc)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("qcycle: fixed-point iteration stalled: its step fell by less "
                              "than 1e-06 over 100 iterations: ")
        iterations = int(err.split("iterations: ")[1].split()[0])
        assert iterations % 100 == 0 and iterations <= 1000

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

    def test_detailed_balance_over_every_pair(self, tmp_path, capsys, monkeypatch):
        # with the forward set standing in for the reversed one, the violation is the forward
        # path probabilities' asymmetry, far above rounding, and the field is its largest value
        # over every ordered pair of operators
        reverse, seen = qcycle.cli.reverse_channel, []

        def unreversed(forward, rho_star):
            rho_star = reverse(forward, rho_star)[1]
            seen.append((forward.kraus, rho_star))
            return forward, rho_star

        monkeypatch.setattr(qcycle.cli, "reverse_channel", unreversed)
        assert main(["reverse", "--config", write_config(tmp_path, GENERIC)]) == 0
        doc = json.loads(capsys.readouterr().out)
        for side, (ops, rho) in zip(("cb", "ac"), seen):
            want = max(abs(sequence_probability([a, b], rho) - sequence_probability([b, a], rho))
                       for a in ops for b in ops)
            assert want > 1e-6
            assert abs(doc[side]["max_detailed_balance_violation"] - want) <= 1e-14

    def test_seed_leaves_document_unchanged(self, tmp_path, capsys):
        cfg = write_config(tmp_path, GENERIC)
        docs = []
        for seed in ("7", "1"):
            assert main(["reverse", "--config", cfg, "--seed", seed]) == 0
            docs.append(capsys.readouterr().out)
        assert docs[0] == docs[1]

    def test_discarded_weight_is_a_float(self, tmp_path, capsys):
        # an exact 0.0 was written as the integer 0
        assert main(["reverse", "--config", write_config(tmp_path, GENERIC)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [type(doc[side]["discarded_choi_weight"]) for side in ("cb", "ac")] == [float] * 2

    def test_slowly_mixing_ill_conditioned_point(self, tmp_path, capsys):
        # the seventh reverse-n6 point of benchmark seed 12: CB cond(rho_star) = 2.3e8, gap
        # 0.026. With one dense eigh, the rounding of the whole matrix reached rho_star's 1e-8
        # popcount block and its inverse square root: the CB reversed completeness read
        # 1.57e-10 before those entries were zeroed, and 2.8e-13 after. Per class it is 3.3e-15
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
            assert out[key]["reversed_completeness_residual"] <= 1e-13

    def test_ac_carried_from_spectral_fixed_point(self, tmp_path, capsys):
        # the 27th reverse-n6 point of benchmark seed 0: AC cond(rho_star) = 2.7e7; carried
        # from CB's refined fixed point instead of its spectral one, AC's reversed
        # completeness read 9.2e-12, the rounding of CB's refinement amplified; 5.9e-13 with
        # the dense square roots, 2.7e-15 with the per-class ones
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
        assert json.loads(capsys.readouterr().out)["ac"]["reversed_completeness_residual"] <= 1e-13

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
            # the verdict and gap of fixed_point_spectral's certificate pass, degenerate or not
            _, gap, _, _, degenerate = spectral_summary(
                *sector_spectra(build(ops), certificate=True)[:2])
            assert out[key]["degenerate"] is degenerate
            # eigvals and eig are separate LAPACK calls, equal to rounding
            assert out[key]["spectral_gap"] == pytest.approx(gap, abs=1e-12)


def count_calls(monkeypatch):
    """Calls of cycle_operators, limit_cycle_states, and sector_spectra per certificate mode."""
    calls = {"cycle_operators": 0, "limit_cycle_states": 0, "certificate": 0, "dense": 0}
    keys = {"cycle_operators": lambda *args, **kwargs: "cycle_operators",
            "limit_cycle_states": lambda *args, **kwargs: "limit_cycle_states",
            "sector_spectra": lambda ch, certificate: "certificate" if certificate else "dense"}

    def counted(fn, key):
        def wrapper(*args, **kwargs):
            calls[key(*args, **kwargs)] += 1
            return fn(*args, **kwargs)
        return wrapper

    # every module that binds the names, so an indirect call is counted too
    for module in (qcycle.cli, qcycle.engine, qcycle.limitcycle, qcycle.reversal, qcycle.thermo):
        for name, key in keys.items():
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(getattr(module, name), key))
    return calls


class TestOneSolvePerConfig:
    """One set of cycle operators and one ``sector_spectra`` pass per config, degenerate or not.

    ``report`` and ``reverse`` decompose by the certificate (top eigenvalues,
    and every eigenvalue of a sector whose top is near unit), ``spectrum`` by
    the full dense listing. ``report`` and ``reverse`` read their limit cycle
    through one ``limit_cycle_states`` call per config; ``spectrum`` reads none.
    """

    @pytest.mark.parametrize("command", ["report", "spectrum", "reverse"])
    def test_one_call_each(self, tmp_path, capsys, monkeypatch, command):
        decomposition = "dense" if command == "spectrum" else "certificate"
        calls = count_calls(monkeypatch)
        configs = [write_config(tmp_path, GENERIC, "a.json"),
                   write_config(tmp_path, variant(**{"cycle.tau1": 0.9}), "b.json")]
        assert main([command, "--config", *configs, "--sweep"]) == 0
        assert all(entry["status"] == 0 for entry in json.loads(capsys.readouterr().out))
        expected = {name: 0 for name in calls}
        expected.update({"cycle_operators": 2, decomposition: 2})  # one each per config
        if command != "spectrum":
            expected["limit_cycle_states"] = 2
        assert calls == expected

    @pytest.mark.parametrize("command", ["report", "reverse"])
    def test_degenerate_one_pass(self, tmp_path, capsys, monkeypatch, command):
        # the n = 6 zero-coupling chain: its sectors of 120 entries and more take the Arnoldi,
        # and its degenerate error comes from that one pass, without a dense re-listing
        doc = json.loads(json.dumps(N6))
        doc["chain"].update(J=[0.0] * 5, K=[0.0] * 5, F=[0.0] * 5)
        calls = count_calls(monkeypatch)
        assert main([command, "--config", write_config(tmp_path, doc)]) == 3
        assert capsys.readouterr().err.startswith(
            "qcycle: degenerate fixed point; near-unit eigenvalues: [")
        assert calls == {"cycle_operators": 1, "limit_cycle_states": 0, "certificate": 1,
                         "dense": 0}


class TestOneCutPerPoint:
    """Each half-cycle's Kraus stack is cut once per point, into the point's CycleOperators.

    Every cycle map composes the two stacks and the ledger reads through them, so no command
    cuts them again.
    """

    @staticmethod
    def count_cuts(monkeypatch):
        cuts = {"cold": 0, "hot": 0}
        cut = qcycle.engine._half_cycle_kraus

        def counted(ops, cold):
            cuts["cold" if cold else "hot"] += 1
            return cut(ops, cold)

        monkeypatch.setattr(qcycle.engine, "_half_cycle_kraus", counted)
        return cuts

    @pytest.mark.parametrize("command", ["simulate", "report", "reverse", "spectrum"])
    def test_once_per_point(self, tmp_path, capsys, monkeypatch, command):
        cuts = self.count_cuts(monkeypatch)
        assert main([command, "--config", write_config(tmp_path, GENERIC)]) == 0
        assert cuts == {"cold": 1, "hot": 1}

    def test_sweep_once_per_config(self, tmp_path, capsys, monkeypatch):
        configs = [write_config(tmp_path, variant(**{"cycle.tau1": tau}), f"{k}.json")
                   for k, tau in enumerate((0.7, 0.9, 1.1))]
        cuts = self.count_cuts(monkeypatch)
        assert main(["report", "--config", *configs, "--sweep"]) == 0
        assert cuts == {"cold": 3, "hot": 3}


# the n = 6 config of the CI Large chain step: its q = 0, 1 and 2 sectors take the Arnoldi
N6 = {"chain": {"n": 6, "E": [1.0, 1.3, 0.9, 1.6, 1.1, 2.0], "J": [0.4, 0.5, -0.3, 0.6, 0.45],
                "K": [0.2, 0.1, 0.25, -0.15, 0.3], "F": [0.3, 0.2, -0.25, 0.35, 0.15]},
      "cycle": {"beta1": 1.0, "beta2": 0.75, "tau1": 0.7, "tau2": 1.3}, "seed": 7}


class TestArnoldiCertificate:
    """report and reverse at n = 6, where the certificate runs the Arnoldi."""

    def test_report_identical_alone_twice_and_in_sweep(self, tmp_path, capsys):
        # the start vector comes from its own fixed-seed generator: no state carries over
        cfg = write_config(tmp_path, N6, "n6.json")
        docs = []
        for _ in range(2):
            assert main(["report", "--config", cfg]) == 0
            docs.append(capsys.readouterr().out)
        assert main(["report", "--config", write_config(tmp_path, GENERIC), cfg, "--sweep"]) == 0
        docs.append(dumps(json.loads(capsys.readouterr().out)[1]["document"]) + "\n")
        assert docs[0] == docs[1] == docs[2]

    @pytest.mark.parametrize("command", ["report", "reverse"])
    def test_zero_coupling_lists_dense_spectrum(self, tmp_path, capsys, command):
        doc = json.loads(json.dumps(N6))
        doc["chain"].update(J=[0.0] * 5, K=[0.0] * 5, F=[0.0] * 5)
        cfg = write_config(tmp_path, doc)
        assert main([command, "--config", cfg]) == 3
        parsed = parse_config(cfg)
        evals, charges, _ = sector_spectra(cycle_channel_cb(
            cycle_operators(build_hamiltonian(parsed.spec), parsed.params)), certificate=False)
        _, _, near_unit, near_charges, _ = spectral_summary(evals, charges)
        listed = ", ".join(f"{ev:.12g} (q={q})" for ev, q in zip(near_unit, near_charges))
        assert capsys.readouterr().err == (
            f"qcycle: degenerate fixed point; near-unit eigenvalues: [{listed}]\n")

    @staticmethod
    def cold_report_imports(tmp_path, doc):
        """The modules a fresh interpreter imports to run ``report`` on ``doc``."""
        cfg = write_config(tmp_path, doc)
        src = str(Path(qcycle.cli.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        run = subprocess.run([sys.executable, "-X", "importtime", "-m", "qcycle.cli", "report",
                              "--config", cfg, "--out", str(tmp_path / "report.json")],
                             env=env, capture_output=True, text=True, check=True)
        imported = [line.rsplit("|", 1)[-1].strip() for line in run.stderr.splitlines()]
        assert "qcycle.limitcycle" in imported
        return imported

    def test_report_imports_no_scipy(self, tmp_path):
        imported = self.cold_report_imports(tmp_path, N6)
        assert not [name for name in imported if name.split(".")[0] == "scipy"]

    def test_report_imports_no_numpy_ma(self, tmp_path):
        # numpy.ma costs a cold start about 6 ms; numpy.matrixlib shares its prefix, not its name
        imported = self.cold_report_imports(tmp_path, GENERIC)
        assert not [name for name in imported if name.split(".")[:2] == ["numpy", "ma"]]


class TestParser:
    """One parser: the command is a positional choice of ``COMMANDS``, the options are shared."""

    def test_help_lists_commands_and_options(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "{simulate,report,reverse,spectrum}" in out
        assert all(option in out for option in ("--config", "--out", "--seed", "--sweep"))

    def test_unknown_command_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bogus", "--config", write_config(tmp_path, GENERIC)])
        assert exc.value.code == 2
        assert "invalid choice: 'bogus'" in capsys.readouterr().err


def error_classes(cls=QcycleError):
    """Every subclass of cls, however deep."""
    for sub in cls.__subclasses__():
        yield sub
        yield from error_classes(sub)


# constructor arguments of each error class; a class missing here fails the test below
ERROR_ARGS = {
    ConfigError: ("chain.n", "must be >= 2, got 1"),
    RankDeficientError: (1, 4),
    DegenerateFixedPointError: ([1.0, 1.0], [0, 0]),
    NotFixedPointError: (1e-3, 1e-9, "cycle closure violated: distance"),
}


class TestExitStatuses:
    @pytest.mark.parametrize("cls", list(error_classes()), ids=lambda cls: cls.__name__)
    def test_every_error_maps_to_a_status(self, tmp_path, monkeypatch, capsys, cls):
        error = cls(*ERROR_ARGS[cls])

        def fail(cfg):
            raise error

        monkeypatch.setitem(COMMANDS, "report", fail)
        status, payload, _ = _run_one("report", write_config(tmp_path, GENERIC), None, sweep=False)
        assert status in {1, 3, 4, 5} and payload is None
        err = capsys.readouterr().err
        assert err.startswith("qcycle: ") and err.count("\n") == 1 and err.endswith("\n")


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


class TestDumps:
    def test_floats_read_back_bit_for_bit(self, rng):
        values = list(rng.normal(size=200) * 10.0 ** rng.integers(-300, 300, size=200))
        values += [0.0, -0.0, 5e-324, -2.5e-310, 1.0, -3.0, 2.0**60, 1e308, -1e308, 0.1]
        back = json.loads(dumps({"x": values}))["x"]
        assert [type(x) for x in back] == [float] * len(values)
        assert np.array_equal(np.array(values).view(np.uint64), np.array(back).view(np.uint64))

    def test_non_finite_floats(self):
        text = dumps([float("nan"), np.float64("inf"), -math.inf, {"eta": np.nan}])
        assert json.loads(text) == [None, "Infinity", "-Infinity", {"eta": None}]

    def test_layout(self):
        doc = {"a": [1, 2.5, True, None], "b": {}, "c": [], "d": "\u00e9"}
        assert dumps(doc) == ('{\n  "a": [\n    1,\n    2.5,\n    true,\n    null\n  ],\n'
                              '  "b": {},\n  "c": [],\n  "d": "\\u00e9"\n}')


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

    @pytest.mark.parametrize("command", ["report", "reverse"])
    def test_failing_member_keeps_other_documents(self, tmp_path, capsys, monkeypatch, command):
        # no tol at or above the floor fails the closure at rounding, so the failure is forced
        unclosed = write_config(tmp_path, variant(**{"solver.tol": 2e-15}), "unclosed.json")
        good = write_config(tmp_path, GENERIC, "good.json")
        states = qcycle.cli.limit_cycle_states

        def limit_cycle_states(rho, ops, tol):
            if tol == 2e-15:
                raise NotFixedPointError(3.5e-14, 10.0 * tol, "cycle closure violated: distance")
            return states(rho, ops, tol=tol)

        monkeypatch.setattr(qcycle.cli, "limit_cycle_states", limit_cycle_states)
        assert main([command, "--config", unclosed, good, "--sweep"]) == 5
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert [entry["config"] for entry in doc] == [unclosed, good]
        assert doc[0]["status"] == 5 and "document" not in doc[0]
        assert doc[1]["status"] == 0 and "document" in doc[1]
        assert captured.err == ("qcycle: certificate failed: cycle closure violated: distance "
                                "3.500e-14 exceeds 2.000e-14\n")

    def test_output_path_rejected_under_sweep(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        with_path = write_config(tmp_path, variant(**{"output.path": str(target)}), "path.json")
        good = write_config(tmp_path, GENERIC, "good.json")
        assert main(["report", "--config", with_path, good, "--sweep"]) == 1
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert [entry["config"] for entry in doc] == [with_path, good]
        assert doc[0]["status"] == 1 and "document" not in doc[0]
        assert doc[1]["status"] == 0 and "document" in doc[1]
        assert not target.exists()
        assert captured.err == ("qcycle: config error: output.path: not used with --sweep; "
                                "the merged document goes to --out or stdout\n")

    def test_multiple_configs_require_sweep_flag(self, tmp_path, capsys):
        a = write_config(tmp_path, GENERIC, "a.json")
        b = write_config(tmp_path, GENERIC, "b.json")
        assert main(["report", "--config", a, b]) == 1

    def test_sweep_rejected_for_simulate(self, tmp_path):
        a = write_config(tmp_path, GENERIC, "a.json")
        b = write_config(tmp_path, GENERIC, "b.json")
        assert main(["simulate", "--config", a, b, "--sweep"]) == 1
