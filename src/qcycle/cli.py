"""Operator-facing command line: config ingestion, runs, structured output.

Subcommands: ``simulate`` (per-cycle CSV trace), ``report`` (limit-cycle
thermodynamics as JSON), ``reverse`` (Kraus extraction and time-reversal
certificates as JSON), ``spectrum`` (channel eigenvalue diagnostics as
JSON). Exit statuses are one per error family: 0 ok, 1 config, 2
non-convergence, 3 degenerate fixed point, 4 rank deficiency, 5 failed
certificate (cycle closure, reversal fixed point).
``--sweep`` runs its configs one after another, in the order given.

All floats are emitted with up to 17 significant digits, enough to
round-trip doubles exactly; identical config and seed give bit-identical
output. NaN (an undefined efficiency) is emitted as JSON null.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections import deque
from dataclasses import dataclass

import numpy as np

from .chain import ChainSpec, build_hamiltonian
from .engine import CycleParams, cycle_operators, run_cycle
from .errors import (ClosureViolationError, ConfigError, DegenerateFixedPointError,
                     NotFixedPointError, RankDeficientError)
from .limitcycle import (DEGENERACY_TOL, cold_half_cycle, cycle_channel_ac, cycle_channel_cb,
                         fixed_point_iterate, fixed_point_spectral, limit_cycle_states,
                         sector_eigenvalues, spectral_summary)
from .linalg import (check_density_matrix, partial_trace, random_density_matrix, to_state,
                     trace_distance)
from .reversal import kraus_from_stack, reverse_channel, sequence_probability
from .thermo import limit_cycle_report

TRACE_COLUMNS = ("cycle", "delta_prev", "q_c", "q_h", "w1", "w2", "w3", "w4",
                 "w_total", "w_ledger", "first_law_residual_paper",
                 "first_law_residual_ledger")

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NO_CONVERGENCE = 2
EXIT_DEGENERATE = 3
EXIT_RANK_DEFICIENT = 4
EXIT_CERTIFICATE = 5

# simulate stops once delta_prev fell by less than STALL_WINDOW * DEGENERACY_TOL (relative)
# over STALL_WINDOW cycles, as under a map whose |lambda_2| report calls degenerate. That
# threshold, 1e-6, is far above the distance's rounding: 7e-14 relative over 2000 cycles of
# the README chain with zero couplings.
STALL_WINDOW = 100


@dataclass
class RunConfig:
    spec: ChainSpec
    params: CycleParams
    tol: float
    max_iter: int
    method: str
    seed: int
    initial_state: str | None
    out_format: str | None
    out_path: str | None


# ---------------------------------------------------------------------------
# config parsing with field-path errors


def _known(section: dict, prefix: str, fields) -> None:
    """Reject the first key of ``section`` that is not one of its documented ``fields``."""
    for key in section:
        if key not in fields:
            raise ConfigError(prefix + key, "unknown field")


def _section(raw: dict, key: str, fields, required: bool = True):
    if key not in raw:
        if required:
            raise ConfigError(key, "missing required section")
        return {}
    val = raw[key]
    if not isinstance(val, dict):
        raise ConfigError(key, f"must be an object, got {type(val).__name__}")
    _known(val, key + ".", fields)
    return val


def _int_field(section: dict, key: str, path: str, default=None, minimum=None) -> int:
    if key not in section:
        if default is not None:
            return default
        raise ConfigError(path, "missing required field")
    val = section[key]
    if isinstance(val, bool) or not isinstance(val, int):
        raise ConfigError(path, f"must be an integer, got {val!r}")
    if minimum is not None and val < minimum:
        raise ConfigError(path, f"must be >= {minimum}, got {val}")
    return val


def _float_field(section: dict, key: str, path: str, default=None) -> float:
    if key not in section:
        if default is not None:
            return default
        raise ConfigError(path, "missing required field")
    val = section[key]
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(path, f"must be a number, got {val!r}")
    return float(val)


def _float_list(section: dict, key: str, path: str) -> list:
    if key not in section:
        raise ConfigError(path, "missing required field")
    val = section[key]
    if not isinstance(val, list) or any(isinstance(x, bool) or not isinstance(x, (int, float)) for x in val):
        raise ConfigError(path, "must be a list of numbers")
    return [float(x) for x in val]


def _build(section: str, cls, **fields):
    """``cls(**fields)``, its field errors re-raised under the config section path."""
    try:
        return cls(**fields)
    except ConfigError as exc:
        raise ConfigError(f"{section}.{exc.field}", exc.message) from exc


def parse_config(path: str) -> RunConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError("config", f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config", "top level must be a JSON object")
    _known(raw, "", ("chain", "cycle", "solver", "seed", "initial_state", "output"))

    # JSON types are checked here; lengths and value rules belong to ChainSpec/CycleParams
    chain = _section(raw, "chain", ("n", "E", "J", "K", "F"))
    n = _int_field(chain, "n", "chain.n", minimum=3)
    spec = _build("chain", ChainSpec, n=n, **{key: _float_list(chain, key, f"chain.{key}")
                                              for key in ("E", "J", "K", "F")})
    fields = ("beta1", "beta2", "tau1", "tau2")
    cyc = _section(raw, "cycle", fields)
    params = _build("cycle", CycleParams, **{key: _float_field(cyc, key, f"cycle.{key}")
                                             for key in fields})
    tau = "tau1" if params.tau1 >= params.tau2 else "tau2"
    if not math.isfinite(spec.energy_bound * getattr(params, tau)):
        # the stroke unitaries' phases, energy times duration, would overflow
        raise ConfigError(f"cycle.{tau}", "too long: the chain's energy bound times it overflows")

    solver = _section(raw, "solver", ("tol", "max_iter", "method"), required=False)
    tol = _float_field(solver, "tol", "solver.tol", default=1e-10)
    if not 0.0 < tol < math.inf:
        raise ConfigError("solver.tol", f"must be finite and positive, got {tol}")
    max_iter = _int_field(solver, "max_iter", "solver.max_iter", default=100_000, minimum=1)
    method = solver.get("method", "both")
    if method not in ("iterate", "spectral", "both"):
        raise ConfigError("solver.method", f"must be iterate, spectral or both, got {method!r}")

    seed = _int_field(raw, "seed", "seed", default=0, minimum=0)

    initial_state = raw.get("initial_state")
    if initial_state is not None and not isinstance(initial_state, str):
        raise ConfigError("initial_state", "must be a path string")

    output = _section(raw, "output", ("format", "path"), required=False)
    out_format = output.get("format")
    if out_format is not None and out_format not in ("json", "csv"):
        raise ConfigError("output.format", f"must be json or csv, got {out_format!r}")
    out_path = output.get("path")
    if out_path is not None and not isinstance(out_path, str):
        raise ConfigError("output.path", "must be a path string")

    return RunConfig(spec=spec, params=params, tol=tol, max_iter=max_iter, method=method,
                     seed=seed, initial_state=initial_state,
                     out_format=out_format, out_path=out_path)


# ---------------------------------------------------------------------------
# deterministic serialization


def _fmt_float(x: float) -> str:
    if math.isnan(x):
        return "null"
    if math.isinf(x):
        return '"Infinity"' if x > 0 else '"-Infinity"'
    return f"{x:.17g}"


def dumps(obj, indent: int = 0) -> str:
    """JSON text with floats at 17 significant digits; NaN becomes null."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{inner}{json.dumps(str(k))}: {dumps(v, indent + 1)}' for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{inner}{dumps(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if obj is None:
        return "null"
    return json.dumps(str(obj))


def _csv_cell(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return _fmt_float(float(x)).strip('"') if not math.isnan(float(x)) else "nan"


def _write_text(text: str, out_path: str | None, status: int) -> int:
    """Write text to out_path (stdout for None or "-"); returns status, or 1 if the write fails."""
    text = text if text.endswith("\n") else text + "\n"
    if out_path is None or out_path == "-":
        sys.stdout.write(text)
        return status
    try:
        with open(out_path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"qcycle: cannot write {out_path}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return status


# ---------------------------------------------------------------------------
# commands


def _initial_full_state(cfg: RunConfig) -> np.ndarray:
    dim = 2**cfg.spec.n
    if cfg.initial_state is not None:
        try:
            with open(cfg.initial_state, "rb") as fh:
                rho = np.load(fh)
        except (OSError, ValueError, EOFError) as exc:
            raise ConfigError("initial_state", f"cannot read {cfg.initial_state}: {exc}") from exc
        if not isinstance(rho, np.ndarray):  # an .npz archive
            raise ConfigError("initial_state", f"{cfg.initial_state} is not a .npy array")
        if rho.shape != (dim, dim):
            raise ConfigError("initial_state", f"expected shape ({dim}, {dim}), got {rho.shape}")
        try:
            check_density_matrix(rho, herm_atol=1e-10, trace_atol=1e-10)
        except ValueError as exc:
            raise ConfigError("initial_state", str(exc)) from exc
        return np.asarray(rho, dtype=complex)
    rng = np.random.default_rng(cfg.seed)
    return random_density_matrix(dim, rng)


def cmd_simulate(cfg: RunConfig):
    """Iterate full-chain cycles; returns (exit_status, csv_text).

    From cycle 3 on, both start states that ``delta_prev`` compares are
    U2 (Z (x) sigma_b) U2* with Z = Tr_B rho2. The trace distance ignores the
    unitary and the sigma_b factor, so it is taken between the two Z.
    Cycle 2 compares with the initial state, on the full chain. The later
    distances never grow, and a run exits 2 where they stall (``STALL_WINDOW``).
    """
    parts = build_hamiltonian(cfg.spec)
    ops = cycle_operators(parts, cfg.params)
    rho0 = initial = _initial_full_state(cfg)
    n = cfg.spec.n

    lines = [",".join(TRACE_COLUMNS)]
    ac = prev_ac = None  # the AC states of the last two cycles
    window = deque(maxlen=STALL_WINDOW + 1)  # the last delta_prev values between AC states
    stall = STALL_WINDOW * DEGENERACY_TOL
    converged = False
    for cycle_idx in range(1, cfg.max_iter + 1):
        state, rec = run_cycle(rho0, parts, ops)
        if prev_ac is not None:
            rec.delta_prev = trace_distance(ac, prev_ac)
            window.append(rec.delta_prev)
        elif cycle_idx == 2:
            rec.delta_prev = trace_distance(rho0, initial)
        row = (cycle_idx, rec.delta_prev, rec.q_c, rec.q_h, rec.w1, rec.w2, rec.w3,
               rec.w4, rec.w_total, rec.w_ledger, rec.first_law_residual_paper,
               rec.first_law_residual_ledger)
        lines.append(",".join(_csv_cell(x) for x in row))
        if not math.isnan(rec.delta_prev) and rec.delta_prev < cfg.tol:
            converged = True
            break
        if len(window) > STALL_WINDOW and window[0] - window[-1] < stall * window[0]:
            print(f"qcycle: simulate stalled at cycle {cycle_idx}: delta_prev fell by less than "
                  f"{stall:.0e} over {STALL_WINDOW} cycles; see spectrum", file=sys.stderr)
            break
        prev_ac, ac = ac, partial_trace(state.rho2, range(n - 1), [2] * n)
        rho0 = state.rho4
    status = EXIT_OK if converged else EXIT_NO_CONVERGENCE
    return status, "\n".join(lines) + "\n"


def _solve_fixed_point(cfg: RunConfig, channel):
    """Fixed point per solver.method, plus the spectral certificate.

    The spectral decomposition always runs: it is the only reliable
    degeneracy detector, and a degenerate sector must never be passed off
    as a unique fixed point. The iteration stops when one step moves less
    than its tolerance, which leaves it about tolerance/gap from the fixed
    point, so it runs at tol * min(1, gap / (1 - gap)) to land within tol.
    """
    spectral = fixed_point_spectral(channel)  # raises DegenerateFixedPointError
    iterate = None
    if cfg.method in ("iterate", "both"):
        gap = spectral.spectral_gap
        tol = cfg.tol * (min(1.0, gap / (1.0 - gap)) if gap < 1.0 else 1.0)
        rng = np.random.default_rng(cfg.seed)
        init = random_density_matrix(channel.dim, rng)
        iterate = fixed_point_iterate(channel, init, tol=tol, max_iter=cfg.max_iter)
        if not iterate.converged:
            print(f"qcycle: fixed-point iteration did not converge: {iterate.iterations} "
                  f"iterations, final delta {iterate.final_delta:.3e}, tol {tol:.3e}",
                  file=sys.stderr)
            return None, spectral, iterate
        if cfg.method == "both":
            gap_between = trace_distance(iterate.rho_star, spectral.rho_star)
            if gap_between > 10.0 * cfg.tol:
                print(f"qcycle: warning: solvers disagree by {gap_between:.3e}", file=sys.stderr)
    rho_star = iterate.rho_star if cfg.method == "iterate" else spectral.rho_star
    return rho_star, spectral, iterate


def cmd_report(cfg: RunConfig):
    """Limit-cycle thermodynamic report; returns (exit_status, doc or None)."""
    parts = build_hamiltonian(cfg.spec)
    ops = cycle_operators(parts, cfg.params)
    rho_star, spectral, _ = _solve_fixed_point(cfg, cycle_channel_cb(ops))
    if rho_star is None:
        return EXIT_NO_CONVERGENCE, None
    cycle = limit_cycle_states(rho_star, parts, ops, tol=cfg.tol)
    report = limit_cycle_report(cycle, parts, cfg.spec, cfg.params, spectral.spectral_gap, ops,
                                tol=cfg.tol)
    return EXIT_OK, report.to_dict()  # an undefined eta is NaN, emitted as null


def _reverse_one(cfg: RunConfig, channel, rho_star):
    """Certificates of one channel, reversed around its fixed point ``rho_star``."""
    forward, discarded, recon = kraus_from_stack(channel.kraus)
    rev, rho_star = reverse_channel(forward, rho_star, fp_tol=cfg.tol)
    rev_fp_dist = trace_distance(rev.apply(rho_star), rho_star)

    rng = np.random.default_rng(cfg.seed)
    ops, reversed_ops = forward.kraus, rev.kraus
    pairs = rng.integers(0, len(ops), size=(50, 2))
    balance = 0.0
    for a1, a2 in pairs:
        p_fwd = sequence_probability([ops[a1], ops[a2]], rho_star)
        p_rev = sequence_probability([reversed_ops[a2], reversed_ops[a1]], rho_star)
        balance = max(balance, abs(p_fwd - p_rev))

    return {
        "dim": channel.dim,
        "kraus_count": len(ops),
        "discarded_choi_weight": discarded,
        # the Choi matrix's output trace is (sum_k K_k^* K_k)^T over any Kraus set of the map
        "choi_output_trace_residual": channel.completeness_residual(),
        "completeness_residual": forward.completeness_residual(),
        "reversed_completeness_residual": rev.completeness_residual(),
        "reconstruction_residual": recon,
        "reversed_fixed_point_distance": rev_fp_dist,
        "max_detailed_balance_violation": balance,
    }


def cmd_reverse(cfg: RunConfig):
    """Time-reversal certificates for both cycle channels.

    Only CB is solved spectrally, which raises
    :class:`DegenerateFixedPointError` on a degenerate channel. AC's fixed
    point is the cold half-cycle's image of CB's, and its uniqueness is CB's
    (the :mod:`qcycle.limitcycle` docstring).
    """
    ops = cycle_operators(build_hamiltonian(cfg.spec), cfg.params)
    cb = cycle_channel_cb(ops)
    rho_star = fixed_point_spectral(cb).rho_star
    rho_ac = to_state(cold_half_cycle(ops).apply(rho_star))
    return EXIT_OK, {"cb": _reverse_one(cfg, cb, rho_star),
                     "ac": _reverse_one(cfg, cycle_channel_ac(ops), rho_ac)}


def _spectrum_one(channel):
    evals, _, _ = sector_eigenvalues(channel)
    moduli, gap, near = spectral_summary(evals)
    near_unit = evals[near]
    return {
        "dim": channel.dim,
        "spectral_gap": gap,
        "degenerate": len(near_unit) > 1,
        "near_unit_eigenvalues": [[float(ev.real), float(ev.imag)] for ev in near_unit],
        "eigenvalue_moduli": [float(m) for m in moduli],
    }


def cmd_spectrum(cfg: RunConfig):
    """Channel spectrum diagnostics; degenerate sectors are reported, not fatal.

    Only CB is decomposed: AC's channel matrix is C H where CB's is H C, so
    the two share their eigenvalues sector by sector (the
    :mod:`qcycle.limitcycle` docstring), and the ``ac`` block is CB's.
    """
    cb = _spectrum_one(cycle_channel_cb(cycle_operators(build_hamiltonian(cfg.spec), cfg.params)))
    return EXIT_OK, {"cb": cb, "ac": dict(cb)}


# ---------------------------------------------------------------------------
# driver


def _check_output_format(cfg: RunConfig, command: str) -> None:
    expected = "csv" if command == "simulate" else "json"
    if cfg.out_format is not None and cfg.out_format != expected:
        raise ConfigError("output.format", f"{command} emits {expected}, got {cfg.out_format!r}")


COMMANDS = {"simulate": cmd_simulate, "report": cmd_report,
            "reverse": cmd_reverse, "spectrum": cmd_spectrum}


def _run_one(command: str, config_path: str, seed_override: int | None):
    """Returns (exit_status, text_or_doc, cfg). Exceptions mapped to statuses."""
    try:
        cfg = parse_config(config_path)
        if seed_override is not None:
            cfg.seed = _int_field({"seed": seed_override}, "seed", "--seed", minimum=0)
        _check_output_format(cfg, command)
        status, payload = COMMANDS[command](cfg)
        return status, payload, cfg
    except ConfigError as exc:
        print(f"qcycle: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG, None, None
    except DegenerateFixedPointError as exc:
        evs = ", ".join(f"{ev:.12g}" + ("" if q is None else f" (q={q})")
                        for ev, q in zip(np.asarray(exc.eigenvalues), exc.charges))
        print(f"qcycle: degenerate fixed point; near-unit eigenvalues: [{evs}]", file=sys.stderr)
        return EXIT_DEGENERATE, None, None
    except RankDeficientError as exc:
        print(f"qcycle: {exc}", file=sys.stderr)
        return EXIT_RANK_DEFICIENT, None, None
    except (ClosureViolationError, NotFixedPointError) as exc:
        print(f"qcycle: certificate failed: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATE, None, None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcycle",
        description="Four-stroke quantum engine on a spin-conserving chain: "
                    "limit cycles, thermodynamic reports, time reversal.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("simulate", "iterate cycles and write a per-cycle CSV trace"),
        ("report", "solve the limit cycle and emit the thermodynamic report (JSON)"),
        ("reverse", "extract Kraus operators and certify the time-reversed channel (JSON)"),
        ("spectrum", "emit channel eigenvalue diagnostics (JSON)"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, nargs="+", metavar="PATH",
                       help="JSON run configuration (several paths allowed with --sweep)")
        p.add_argument("--out", default=None, metavar="PATH",
                       help="output file (default: output.path from config, else stdout)")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--sweep", action="store_true",
                       help="run each config in turn and merge the documents "
                            "into one JSON array, in config order")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    configs = args.config

    if len(configs) > 1 and not args.sweep:
        print("qcycle: error: multiple --config paths require --sweep", file=sys.stderr)
        return EXIT_CONFIG
    if args.sweep and args.command == "simulate":
        print("qcycle: error: --sweep is not supported for simulate (one CSV per run)",
              file=sys.stderr)
        return EXIT_CONFIG

    if not args.sweep:
        status, payload, cfg = _run_one(args.command, configs[0], args.seed)
        if payload is not None:
            out_path = args.out if args.out is not None else (cfg.out_path if cfg else None)
            text = payload if isinstance(payload, str) else dumps(payload)
            return _write_text(text, out_path, status)
        return status

    merged = []
    worst = EXIT_OK
    for path in configs:
        status, payload, _ = _run_one(args.command, path, args.seed)
        entry = {"config": path, "status": status}
        if payload is not None:
            entry["document"] = payload
        merged.append(entry)
        worst = max(worst, status)
    return _write_text(dumps(merged), args.out, worst)


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
