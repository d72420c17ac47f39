"""qcycle benchmark: times the CLI on seeded workloads and checks every output.

    python3 perfbench/run.py --workload certify-n6 --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 15   # every workload, one table
    python3 perfbench/run.py --smoke                                # the benchmark's own test

Run from the root of a source checkout; the program is imported from
``src/``, never from an installed copy. ``--trace 0`` reports the end-to-end
metrics, ``--trace 1`` the per-layer metrics of a separate traced pass and
writes its spans to ``.perfbench_out/``. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SETUP_REPEATS = 8
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "QCYCLE_THREADS")


def import_cli():
    """qcycle.cli from this checkout's src/, or exit 1 without a result."""
    sys.path.insert(0, str(SRC))
    try:
        import qcycle.cli
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import qcycle from {SRC}: {exc}")
    if Path(qcycle.cli.__file__).resolve().parents[1] != SRC:
        sys.exit(f"perfbench: qcycle was imported from {qcycle.cli.__file__}, not {SRC}")
    return qcycle.cli


def machine_record() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "env": {name: os.environ.get(name) for name in THREAD_VARIABLES},
    }


def cold_starts(config: str, workdir: Path, count: int) -> list:
    """``count`` cold ``report`` runs on ``config``, each in a fresh interpreter."""
    import checks
    from workloads import Result, parse_json

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = workdir / "setup.json"
    runs = []
    for _ in range(count):
        out.unlink(missing_ok=True)
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "qcycle.cli", "report", "--config", config,
                               "--out", str(out)], cwd=ROOT, env=env, capture_output=True,
                              timeout=120)
        seconds = time.perf_counter() - start
        text = out.read_text() if out.exists() else None
        problems = checks.report(proc.returncode, parse_json(text), matched=False)
        runs.append(Result(seconds=seconds, units=1, failed=bool(problems), problems=problems))
    return runs


def warm_up(cli) -> None:
    """Start BLAS threads and load every code path before anything is timed."""
    import numpy as np
    import points

    rng = np.random.default_rng(0)
    np.linalg.eig(rng.standard_normal((256, 256)))
    cli.call(["report", "--config", cli.write(points.generic_point(rng, 3))])


def measure(workload, cli, items, seconds: float):
    """Run operations until ``seconds`` have passed (at least one)."""
    results, done = [], []
    deadline = time.perf_counter() + seconds
    while True:
        item = next(items)
        results.append(workload.run(cli, item))
        done.append(item)
        if time.perf_counter() >= deadline:
            return results, done


def run_workload(name: str, workload, seed: int, seconds: float, trace: bool,
                 workdir: Path, measure_setup: bool = True):
    """One benchmark run. Returns (metrics, summary lines, attempted, failed, problems)."""
    import numpy as np
    import points
    import tracing
    from workloads import Cli

    main = import_cli().main
    cli = Cli(main, workdir)
    rng = np.random.default_rng(seed)
    # setup_s: half the cold starts before the timed operations and half after,
    # so that machine drift during the run is sampled as the operations see it.
    setup = []
    if not trace and measure_setup:
        setup_config = cli.write(points.generic_point(np.random.default_rng(0), 3))
        setup = cold_starts(setup_config, workdir, SETUP_REPEATS // 2)
    warm_up(cli)

    results, items = measure(workload, cli, workload.inputs(cli, rng), seconds)
    if setup:
        setup += cold_starts(setup_config, workdir, SETUP_REPEATS - len(setup))
    if trace:
        tracer = tracing.Tracer()
        traced_cli = Cli(main, workdir, tracer)
        with tracer:
            traced = [workload.run(traced_cli, item) for item in items]
        speedup = 0.0
        if hasattr(workload, "serial_seconds"):
            speedup = workload.serial_seconds(cli, items[0]) / results[0].seconds
        overhead = sum(r.seconds for r in traced) / sum(r.seconds for r in results) - 1.0
        layer = tracing.layer_metrics(tracer.spans, speedup, overhead)
        metrics = {key: (value, _layer_unit(key)) for key, value in layer.items()}
        self_times = tracing.self_times(tracer.spans)
        _write_trace(name, seed, tracer, self_times)
        results += traced
    else:
        metrics = {
            "setup_s": (statistics.median(r.seconds for r in setup) if setup else 0.0, "s"),
            "op_s": (statistics.median(r.seconds / max(r.units, 1) for r in results), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    attempted = sum(r.attempted for r in setup + results)
    failed = sum(r.failed for r in setup + results)
    problems = [p for r in setup + results for p in r.problems]

    lines = [f"{name} seed={seed} trace={int(trace)}: {len(items)} ops, "
             f"{sum(r.units for r in results[:len(items)])} {workload.unit}s, "
             f"{sum(r.seconds for r in results[:len(items)]):.2f} s timed"]
    if trace:
        lines += [f"  span {span:<32} {row['calls']:>7} calls {row['total_s']:10.4f} s incl "
                  f"{row['self_s']:10.4f} s self" for span, row in sorted(self_times.items())]
    else:
        for key, (value, unit) in workload.summary(results).items():
            lines.append(f"  {key:<36} {value:.6g} {unit}")
    for key, (value, unit) in metrics.items():
        lines.append(f"  {key:<36} {value:.6g} {unit}")
    lines.append(f"  {'ops_failed_frac':<36} {failed / max(attempted, 1):.6g} ratio "
                 f"({failed} of {attempted})")
    return metrics, lines, attempted, failed, problems


def _layer_unit(key: str) -> str:
    if key.endswith("_s"):
        return "s"
    return "ratio" if key.startswith("trace.") or key.endswith("speedup") else "count"


def _write_trace(name: str, seed: int, tracer, self_times: dict) -> None:
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    doc = {"workload": name, "seed": seed, "machine": machine_record(),
           "span_fields": ["id", "name", "start", "end", "parent", "op", "thread", "value"],
           "self_times": self_times, "spans": tracer.spans}
    (out / f"trace-{name}-seed{seed}.json").write_text(json.dumps(doc))


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}})


def run_all(args) -> int:
    """Each workload in its own process (so peak memory is its own), one table."""
    from workloads import WORKLOADS

    attempted = failed = 0
    merged = {}
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", name, "--seed",
                               str(args.seed), "--seconds", str(args.seconds), "--trace",
                               str(args.trace)], cwd=ROOT, capture_output=True, text=True,
                              timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return 1
        print("\n".join(lines[:-1]), flush=True)
        doc = json.loads(lines[-1])
        attempted += doc["attempted"]
        failed += doc["failed"]
        for key, metric in doc["metrics"].items():
            merged[f"{name}.{key}"] = (metric["value"], metric["unit"])
    print(result_line(failed == 0, attempted, failed, merged))
    return 0


def smoke(workdir: Path) -> int:
    """Tiny versions of every workload through the checks and the traced run."""
    import checks
    import numpy as np
    from workloads import WORKLOADS, Cli, parse_json, reference_for

    ok = True
    for name, (_, small) in WORKLOADS.items():
        for trace in (False, True):
            _, lines, attempted, failed, problems = run_workload(
                name, small, seed=0, seconds=0.0, trace=trace, workdir=workdir,
                measure_setup=name == "certify-n6")
            print("\n".join(lines))
            for problem in problems:
                print(f"  FAIL {problem}")
            ok &= failed == 0 and attempted > 0
    # The checks must catch a corrupted expectation: flip one sweep entry's status.
    cli = Cli(import_cli().main, workdir)
    sweep = WORKLOADS["sweep-small"][1]
    paths, expected = next(sweep.inputs(cli, np.random.default_rng(1)))
    flipped = list(expected)
    flipped[0] = checks.EXIT_DEGENERATE if expected[0] == checks.EXIT_OK else checks.EXIT_OK
    caught = sweep.run(cli, (paths, flipped)).failed
    print(f"smoke: flipped sweep expectation counted as {caught} failed op(s), want 1")
    ok &= caught == 1
    # ... and a spectral gap that moved away from the value recorded for its config.
    certify = WORKLOADS["certify-n6"][1]
    path, _ = next(certify.inputs(cli, np.random.default_rng(0)))
    recorded = reference_for(path)
    status, _, text = cli.call(["spectrum", "--config", path])
    dim = 2 ** (certify.n - 1)
    if recorded is None:
        print(f"smoke: no spectrum reference recorded for {path}")
        ok = False
    else:
        shifted = dict(recorded, cb_gap=recorded["cb_gap"] + 10 * checks.SPECTRUM_GAP)
        matches = checks.spectrum(status, parse_json(text), dim, None, recorded)
        caught = checks.spectrum(status, parse_json(text), dim, None, shifted)
        print(f"smoke: spectrum vs its reference: {len(matches)} problem(s), want 0; "
              f"vs a shifted reference: {len(caught)}, want 1")
        ok &= not matches and len(caught) == 1
    print(f"smoke: {'ok' if ok else 'FAILED'}")
    return 0 if ok else 1


def main(argv=None) -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run tiny versions of every workload as a self-test")
    args = parser.parse_args(argv)
    import_cli()
    if args.workload == "all" and not args.smoke:
        return run_all(args)

    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        if args.smoke:
            return smoke(workdir)
        metrics, lines, attempted, failed, problems = run_workload(
            args.workload, WORKLOADS[args.workload][0], args.seed, args.seconds,
            bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("machine " + json.dumps(machine_record()))
    print("\n".join(lines))
    for problem in problems[:20]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(result_line(failed == 0, attempted, failed, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
