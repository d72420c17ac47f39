"""Operator-facing command line: config ingestion, runs, structured output.

Subcommands: ``simulate`` (per-cycle CSV trace), ``report`` (limit-cycle
thermodynamics as JSON), ``reverse`` (Kraus extraction and time-reversal
certificates as JSON), ``spectrum`` (channel eigenvalue diagnostics as
JSON). Exit statuses are one per error family: 0 ok, 1 config, 2
non-convergence, 3 degenerate fixed point, 4 rank deficiency, 5 failed
certificate (cycle closure, reversal fixed point).
``--sweep`` runs its configs one after another, in the order given.

Config checks refuse, with exit 1 and the field named, a ``solver.tol``
below ``TOL_FLOOR``, and a chain a command cannot run: ``report`` and
``reverse`` when the q = 0 sector block exceeds ``MEMORY_BOUND_BYTES``
(n >= 10), ``simulate`` when its projected peak does (n >= 13), and
``spectrum`` above n = 8.

Floats are written in the shortest form that reads back as the same double
(``0.1``, ``0.0``, ``-0.0``); identical config and seed give bit-identical
output. NaN (an undefined efficiency) is emitted as JSON null, and +-inf as
"Infinity" and "-Infinity"; in the CSV they read ``nan``, ``inf``, ``-inf``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections import deque
from dataclasses import dataclass, fields, replace

import numpy as np

from .chain import ChainSpec, build_hamiltonian
from .engine import CycleParams, cycle_ledger, cycle_operators, start_energies, stroke_4
from .errors import (ConfigError, DegenerateFixedPointError, NotFixedPointError,
                     RankDeficientError, integer, real)
from .limitcycle import (CLOSURE_FACTOR, DEFAULT_MAX_ITER, DEFAULT_TOL, STALL_DROP, STALL_WINDOW,
                         Channel, cycle_channel_ac, cycle_channel_cb, fixed_point_iterate,
                         fixed_point_spectral, limit_cycle_states, sector_spectra,
                         spectral_summary, stalled)
from .linalg import (HERMITICITY_ATOL, check_density_matrix, hermitian_part, partial_trace,
                     random_density_matrix, trace_distance)
from .reversal import kraus_from_stack, path_probabilities, reverse_channel
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

# solver.tol's least value. limit_cycle_states checks the closure distance, between the hot
# half-cycle's image of the AC state and the CB fixed point, against CLOSURE_FACTOR (10) times
# tol, and at the spectral fixed point that distance is rounding: 3.3e-17 to 5.9e-16 over the
# stored documents' configs and the CI n = 6 to 8 chains, the largest at n = 8. 10 x 1e-15
# clears it seventeenfold; tol = 1e-17 would accept 1e-16, below most of them.
TOL_FLOOR = 1e-15
# report and reverse build each S^Z sector's block densely, the largest being q = 0's complex
# C(2n - 2, n - 1)^2 at 16 bytes an entry. n = 9's 2.5 GiB block runs, at a 3.9 GB peak; n =
# 10's 35 GiB cannot be allocated. The bound admits n = 9 with room and refuses n = 10.
MEMORY_BOUND_BYTES = 8 * 2**30
# simulate holds a few 2^n x 2^n complex arrays at once (the ledger, the half-cycle stacks and,
# up to cycle 2, the initial state; each Hamiltonian part only up to its last reader), and peaks
# in cycle 2's full-chain stroke 4: tracemalloc reads 12.6, 11.9 and 11.7 such arrays there at
# n = 8, 9 and 10. On the CI configs its peak RSS was 14.5, 52.2 and 198.4 MiB above the
# interpreter's 37.4 MiB at n = 8, 9 and 10: 14.5, 13.1 and 12.4 such arrays, falling toward
# tracemalloc's count as n grows. Projected at 13, n = 12 needs 3.3 GiB and runs within the
# bound; n = 13 needs 13 GiB and is refused.
SIMULATE_FULL_ARRAYS = 13


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


def _known(section: dict, prefix: str, names) -> None:
    """Reject the first key of ``section`` that is not one of its documented field ``names``."""
    for key in section:
        if key not in names:
            raise ConfigError(prefix + key, "unknown field")


def _section(raw: dict, key: str, names, required: bool = True):
    """The object ``raw[key]``; a required section must hold every one of its field ``names``."""
    if key not in raw:
        if required:
            raise ConfigError(key, "missing required section")
        return {}
    val = raw[key]
    if not isinstance(val, dict):
        raise ConfigError(key, f"must be an object, got {type(val).__name__}")
    _known(val, key + ".", names)
    for name in names if required else ():
        if name not in val:
            raise ConfigError(f"{key}.{name}", "missing required field")
    return val


def _build(section: str, cls, **kwargs):
    """``cls(**kwargs)``, its field errors re-raised under the config section path."""
    try:
        return cls(**kwargs)
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

    # ChainSpec and CycleParams name their sections' fields and check their types and values
    spec, params = (_build(key, cls, **_section(raw, key, [f.name for f in fields(cls)]))
                    for key, cls in (("chain", ChainSpec), ("cycle", CycleParams)))

    solver = _section(raw, "solver", ("tol", "max_iter", "method"), required=False)
    tol = real(solver.get("tol", DEFAULT_TOL), "solver.tol")
    if not TOL_FLOOR <= tol < math.inf:
        raise ConfigError("solver.tol", f"must be at least {TOL_FLOOR:g} (the closure check "
                                        f"fails at rounding below it) and finite, got {tol}")
    max_iter = integer(solver.get("max_iter", DEFAULT_MAX_ITER), "solver.max_iter", minimum=1)
    method = solver.get("method", "both")
    if method not in ("iterate", "spectral", "both"):
        raise ConfigError("solver.method", f"must be iterate, spectral or both, got {method!r}")

    seed = integer(raw.get("seed", 0), "seed", minimum=0)

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


def _plain(obj):
    """obj with NaN as None and +-inf as the strings "Infinity" and "-Infinity"."""
    if isinstance(obj, dict):
        return {key: _plain(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(val) for val in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None if math.isnan(obj) else ("Infinity" if obj > 0 else "-Infinity")
    return obj


def dumps(obj) -> str:
    """JSON text, indented by 2, floats in their shortest round-trip form; NaN becomes null."""
    return json.dumps(_plain(obj), indent=2)


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
        if rho.dtype.kind not in "iufc":  # a structured, boolean or string array is no matrix
            raise ConfigError("initial_state", f"expected a numeric array, got dtype {rho.dtype}")
        if rho.shape != (dim, dim):
            raise ConfigError("initial_state", f"expected shape ({dim}, {dim}), got {rho.shape}")
        try:
            check_density_matrix(rho, herm_atol=HERMITICITY_ATOL, trace_atol=1e-10)
        except ValueError as exc:
            raise ConfigError("initial_state", str(exc)) from exc
        return hermitian_part(rho)  # exact, so stroke 1's check sees none of the drift accepted
    rng = np.random.default_rng(cfg.seed)
    return random_density_matrix(dim, rng)


def _operators(cfg: RunConfig):
    """The point's (parts, ops); an overflowing stroke phase is a config error under ``cycle.``."""
    parts = build_hamiltonian(cfg.spec)
    return parts, _build("cycle", cycle_operators, parts=parts, params=cfg.params)


def cmd_simulate(cfg: RunConfig):
    """Iterate cycles on the reduced chain; returns (exit_status, csv_text).

    After stroke 1 the chain is sigma_a (x) X and after stroke 3 Z (x) sigma_b,
    so the run carries the 2^(n-1) CB state X and AC state Z and steps them with
    the half-cycle channels: Z is the cold half-cycle's image of X, and the next
    X the hot half-cycle's image of Z. Each record is read off X and Z through
    the point's :class:`~qcycle.engine.CycleLedger`, so its ledger identity
    holds to rounding; cycle 1 reads the terms of its start state off the
    initial state. From cycle 3 on, both start states that ``delta_prev``
    compares are U2 (Z (x) sigma_b) U2* for successive Z. The trace distance
    ignores the unitary and the sigma_b factor, so it is taken between the two Z.
    Cycle 2 compares with the initial state, on the full chain. The later
    distances never grow, and a run exits 2 where they stall (:func:`~qcycle.limitcycle.stalled`).
    """
    parts, ops = _operators(cfg)
    parts = replace(parts, h_s=None)  # cycle_operators' cut of the unitaries was its one reader
    # built before the initial state, so that their temporaries are not held on top of it
    ledger, cold, hot = cycle_ledger(parts, ops), Channel(ops.cold), Channel(ops.hot)
    initial = _initial_full_state(cfg)
    n = cfg.spec.n
    start = start_energies(initial, parts)
    # Each 2^n x 2^n array goes after its last reader: the bond terms here, and the initial
    # state and the unitary blocks once cycle 2's distance is taken.
    del parts
    x = hermitian_part(partial_trace(initial, range(1, n), [2] * n))  # stroke 1 keeps Tr_A rho0

    lines = [",".join(TRACE_COLUMNS)]
    ac = prev_ac = None  # the AC states of the last two cycles
    window = deque(maxlen=STALL_WINDOW + 1)  # the last delta_prev values between AC states
    converged = False
    for cycle_idx in range(1, cfg.max_iter + 1):
        z = hermitian_part(cold.apply(x))
        rec, start = ledger.record(x, z, start)
        if prev_ac is not None:
            rec.delta_prev = trace_distance(ac, prev_ac)
            window.append(rec.delta_prev)
        elif cycle_idx == 2:
            rec.delta_prev = trace_distance(stroke_4(ac, ops), initial)
            initial = ops = None
        lines.append(",".join([str(cycle_idx)] + [repr(float(getattr(rec, c)))
                                                  for c in TRACE_COLUMNS[1:]]))
        if not math.isnan(rec.delta_prev) and rec.delta_prev < cfg.tol:
            converged = True
            break
        if len(window) > STALL_WINDOW and stalled(window[0], window[-1]):
            print(f"qcycle: simulate stalled at cycle {cycle_idx}: delta_prev fell by less than "
                  f"{STALL_DROP:.0e} over {STALL_WINDOW} cycles; see spectrum", file=sys.stderr)
            break
        prev_ac, ac = ac, z
        x = hermitian_part(hot.apply(z))
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
    if cfg.method in ("iterate", "both"):
        gap = spectral.spectral_gap
        tol = cfg.tol * (min(1.0, gap / (1.0 - gap)) if gap < 1.0 else 1.0)
        rng = np.random.default_rng(cfg.seed)
        init = random_density_matrix(channel.dim, rng)
        iterate = fixed_point_iterate(channel, init, tol=tol, max_iter=cfg.max_iter)
        if not iterate.converged:
            why = ("did not converge" if iterate.iterations == cfg.max_iter else
                   f"stalled: its step fell by less than {STALL_DROP:.0e} over {STALL_WINDOW} "
                   f"iterations")
            print(f"qcycle: fixed-point iteration {why}: {iterate.iterations} iterations, final "
                  f"delta {iterate.final_delta:.3e}, tol {tol:.3e}", file=sys.stderr)
            return None, spectral
        if cfg.method == "both":
            gap_between = trace_distance(iterate.rho_star, spectral.rho_star)
            if gap_between > CLOSURE_FACTOR * cfg.tol:
                print(f"qcycle: warning: solvers disagree by {gap_between:.3e}", file=sys.stderr)
    return (iterate.rho_star if cfg.method == "iterate" else spectral.rho_star), spectral


def cmd_report(cfg: RunConfig):
    """Limit-cycle thermodynamic report; returns (exit_status, doc or None)."""
    parts, ops = _operators(cfg)
    rho_star, spectral = _solve_fixed_point(cfg, cycle_channel_cb(ops))
    if rho_star is None:
        return EXIT_NO_CONVERGENCE, None
    x, z = limit_cycle_states(rho_star, ops, tol=cfg.tol)
    report = limit_cycle_report(x, z, cycle_ledger(parts, ops), cfg.spec, cfg.params,
                                spectral.spectral_gap, tol=cfg.tol)
    return EXIT_OK, report.to_dict()  # an undefined eta is NaN, emitted as null


def _reverse_one(channel, rho_star):
    """Certificates of one channel, reversed around its fixed point ``rho_star``."""
    forward, discarded, recon = kraus_from_stack(channel.kraus)
    rev, rho_star = reverse_channel(forward, rho_star)
    rev_fp_dist = trace_distance(rev.apply(rho_star), rho_star)

    ops = forward.kraus
    # forward a then b, p_fwd[b, a], against reversed b then a over every pair; one
    # direction's stacks at a time
    p_fwd = path_probabilities(ops, rho_star)
    balance = float(np.abs(p_fwd - path_probabilities(rev.kraus, rho_star).T).max())

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
    """Time-reversal certificates for both cycle channels, around the limit cycle's two states.

    Only CB is solved, spectrally, which raises :class:`DegenerateFixedPointError` on a
    degenerate channel; AC's state comes from :func:`limit_cycle_states`, closure checked, as
    in ``report``. Its uniqueness is CB's (the :mod:`qcycle.limitcycle` docstring).
    """
    _, ops = _operators(cfg)
    cb = cycle_channel_cb(ops)
    x, z = limit_cycle_states(fixed_point_spectral(cb).rho_star, ops, tol=cfg.tol)
    return EXIT_OK, {"cb": _reverse_one(cb, x), "ac": _reverse_one(cycle_channel_ac(ops), z)}


def _spectrum_one(channel):
    moduli, gap, near_unit, _, degenerate = spectral_summary(
        *sector_spectra(channel, certificate=False)[:2])
    return {
        "dim": channel.dim,
        "spectral_gap": gap,
        "degenerate": degenerate,
        "near_unit_eigenvalues": [[float(ev.real), float(ev.imag)] for ev in near_unit],
        "eigenvalue_moduli": [float(m) for m in moduli],
    }


def cmd_spectrum(cfg: RunConfig):
    """Channel spectrum diagnostics; degenerate sectors are reported, not fatal.

    Only CB is decomposed: AC's channel matrix is C H where CB's is H C, so
    the two share their eigenvalues sector by sector (the
    :mod:`qcycle.limitcycle` docstring), and the ``ac`` block is CB's.
    """
    cb = _spectrum_one(cycle_channel_cb(_operators(cfg)[1]))
    return EXIT_OK, {"cb": cb, "ac": dict(cb)}


# ---------------------------------------------------------------------------
# driver


def _check_output(cfg: RunConfig, command: str, sweep: bool) -> None:
    expected = "csv" if command == "simulate" else "json"
    if cfg.out_format is not None and cfg.out_format != expected:
        raise ConfigError("output.format", f"{command} emits {expected}, got {cfg.out_format!r}")
    if sweep and cfg.out_path is not None:
        raise ConfigError("output.path", "not used with --sweep; the merged document goes to "
                                         "--out or stdout")


def _check_size(cfg: RunConfig, command: str) -> None:
    """Refuse a chain whose arrays cannot be held, or sector blocks decomposed, in practice."""
    n = cfg.spec.n
    peak = SIMULATE_FULL_ARRAYS * 16 * 4**n
    if command == "simulate" and peak > MEMORY_BOUND_BYTES:
        raise ConfigError("chain.n", f"simulate cannot run at n = {n}: its peak is projected "
                                     f"at {SIMULATE_FULL_ARRAYS} complex 2^{n} x 2^{n} arrays, "
                                     f"{peak / 2**30:.1f} GiB, above the "
                                     f"{MEMORY_BOUND_BYTES / 2**30:g} GiB bound")
    block = math.comb(2 * n - 2, n - 1)  # the q = 0 sector's size
    size = f"its q = 0 sector block is {block}^2 complex, {16 * block**2 / 2**30:.1f} GiB"
    if command in ("report", "reverse") and 16 * block**2 > MEMORY_BOUND_BYTES:
        raise ConfigError("chain.n", f"{command} cannot run at n = {n}: {size}, above the "
                                     f"{MEMORY_BOUND_BYTES / 2**30:g} GiB bound")
    # dense eigvals on n = 9's 12870-entry q = 0 block ran past 600 s
    if command == "spectrum" and n > 8:
        raise ConfigError("chain.n", f"spectrum decomposes every sector densely and runs up to "
                                     f"n = 8, got n = {n}: {size}")


COMMANDS = {"simulate": cmd_simulate, "report": cmd_report,
            "reverse": cmd_reverse, "spectrum": cmd_spectrum}


def _run_one(command: str, config_path: str, seed_override: int | None, sweep: bool):
    """Returns (exit_status, text_or_doc, cfg). Exceptions mapped to statuses."""
    try:
        cfg = parse_config(config_path)
        if seed_override is not None:
            cfg.seed = integer(seed_override, "--seed", minimum=0)
        _check_output(cfg, command, sweep)
        _check_size(cfg, command)
        status, payload = COMMANDS[command](cfg)
        return status, payload, cfg
    except ConfigError as exc:
        print(f"qcycle: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG, None, None
    except DegenerateFixedPointError as exc:
        evs = ", ".join(f"{ev:.12g} (q={q})"
                        for ev, q in zip(np.asarray(exc.eigenvalues), exc.charges))
        print(f"qcycle: degenerate fixed point; near-unit eigenvalues: [{evs}]", file=sys.stderr)
        return EXIT_DEGENERATE, None, None
    except RankDeficientError as exc:
        print(f"qcycle: {exc}", file=sys.stderr)
        return EXIT_RANK_DEFICIENT, None, None
    except NotFixedPointError as exc:
        print(f"qcycle: certificate failed: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATE, None, None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcycle",
        description="Four-stroke quantum engine on a spin-conserving chain: "
                    "limit cycles, thermodynamic reports, time reversal.",
    )
    parser.add_argument("command", choices=COMMANDS,
                        help="simulate: iterate cycles and write a per-cycle CSV trace; "
                             "report: solve the limit cycle and emit the thermodynamic report "
                             "(JSON); reverse: extract Kraus operators and certify the "
                             "time-reversed channel (JSON); spectrum: emit channel eigenvalue "
                             "diagnostics (JSON)")
    parser.add_argument("--config", required=True, nargs="+", metavar="PATH",
                        help="JSON run configuration (several paths allowed with --sweep)")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="output file (default: output.path from config, else stdout)")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--sweep", action="store_true",
                        help="run each config in turn and merge the documents into one JSON "
                             "array, in config order (a config may not set output.path)")
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
        status, payload, cfg = _run_one(args.command, configs[0], args.seed, sweep=False)
        if payload is not None:
            out_path = args.out if args.out is not None else cfg.out_path
            text = payload if isinstance(payload, str) else dumps(payload)
            return _write_text(text, out_path, status)
        return status

    merged = []
    worst = EXIT_OK
    for path in configs:
        status, payload, _ = _run_one(args.command, path, args.seed, sweep=True)
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
