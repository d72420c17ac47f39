"""The benchmark's workloads: seeded inputs, the CLI calls they time, their checks.

Every workload is a closed loop with one caller: the next command starts
when the previous one has returned. Commands run through ``qcycle.cli.main``
in this process, on config files written beforehand, with ``--out`` to a
file, as a user would call them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import points

SOLVER_TOL = 1e-10  # the config default, which every generated config keeps
REFERENCE = json.loads((Path(__file__).with_name("reference.json")).read_text())


def config_key(text: str) -> str:
    """Key of a config document in the spectrum reference table."""
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class Result:
    """One timed operation: its wall time, work units and check outcome."""

    seconds: float
    units: int
    parts: dict = field(default_factory=dict)
    attempted: int = 1
    failed: int = 0
    problems: list = field(default_factory=list)


class Cli:
    """Writes config files and runs CLI commands in-process, timing each call."""

    def __init__(self, main, workdir: Path, tracer=None):
        self.main = main
        self.workdir = workdir
        self.tracer = tracer
        self._names = itertools.count()

    def write(self, doc: dict) -> str:
        text = json.dumps(doc)
        path = self.workdir / f"config-{next(self._names)}-{config_key(text)}.json"
        path.write_text(text)
        return str(path)

    def call(self, argv):
        """Returns (exit status or error text, wall seconds, output text or None)."""
        out = self.workdir / f"out-{next(self._names)}.txt"
        argv = argv + ["--out", str(out)]
        with contextlib.redirect_stderr(io.StringIO()):  # solver warnings are not results
            start = time.perf_counter()
            try:
                status = self.tracer.command(self.main, argv) if self.tracer else self.main(argv)
            except Exception as exc:  # a command that raises is a failed operation
                status = f"raised {type(exc).__name__}: {exc}"
            wall = time.perf_counter() - start
        text = out.read_text() if out.exists() else None
        out.unlink(missing_ok=True)
        return status, wall, text


def parse_json(text):
    """The JSON document in ``text``, or None if there is none."""
    try:
        return json.loads(text) if text is not None else None
    except json.JSONDecodeError:
        return None


def reference_for(path: str):
    """The spectrum recorded for this config at the seed commit, if any."""
    return REFERENCE.get(config_key(Path(path).read_text()))


class Certify:
    """``report`` then ``spectrum`` per point; the first point is on the matched-bath line."""

    unit = "point"

    def __init__(self, n: int):
        self.n = n

    def inputs(self, cli, rng):
        yield cli.write(points.matched_point(rng, self.n)), True
        while True:
            yield cli.write(points.generic_point(rng, self.n)), False

    def run(self, cli, item) -> Result:
        path, matched = item
        status, report_s, text = cli.call(["report", "--config", path])
        doc = parse_json(text)
        problems = checks.report(status, doc, matched)
        failed = bool(problems)
        report_gap = doc.get("spectral_gap") if isinstance(doc, dict) else None
        status, spectrum_s, text = cli.call(["spectrum", "--config", path])
        bad = checks.spectrum(status, parse_json(text), 2 ** (self.n - 1), report_gap, reference_for(path))
        return Result(seconds=report_s + spectrum_s, units=1,
                      parts={"report": report_s, "spectrum": spectrum_s}, attempted=2,
                      failed=failed + bool(bad), problems=problems + bad)

    @staticmethod
    def summary(results) -> dict:
        return {"report_s": (statistics.median(r.parts["report"] for r in results), "s"),
                "spectrum_s": (statistics.median(r.parts["spectrum"] for r in results), "s")}


class Reverse:
    """``reverse`` (both channels) per point."""

    unit = "point"

    def __init__(self, n: int):
        self.n = n

    def inputs(self, cli, rng):
        while True:
            yield cli.write(points.generic_point(rng, self.n))

    def run(self, cli, path) -> Result:
        status, wall, text = cli.call(["reverse", "--config", path])
        problems = checks.reverse(status, parse_json(text), 2 ** (self.n - 1))
        return Result(seconds=wall, units=1, failed=bool(problems), problems=problems)

    @staticmethod
    def summary(results) -> dict:
        return {"reverse_s": (statistics.median(r.seconds for r in results), "s")}


class Sweep:
    """One ``report --sweep`` per batch of small points plus the decoupled point.

    The batch holds equal shares of each chain length, so its total work
    does not depend on the seed's draw of lengths.
    """

    unit = "point"

    def __init__(self, size: int, lengths=(3, 4, 5)):
        self.size = size
        self.lengths = lengths

    def inputs(self, cli, rng):
        while True:
            lengths = [self.lengths[i % len(self.lengths)] for i in range(self.size)]
            rng.shuffle(lengths)
            docs = [points.generic_point(rng, n) for n in lengths]
            slot = int(rng.integers(0, self.size + 1))
            docs.insert(slot, points.decoupled_point())
            expected = [checks.EXIT_DEGENERATE if i == slot else checks.EXIT_OK
                        for i in range(len(docs))]
            yield [cli.write(doc) for doc in docs], expected

    def run(self, cli, item) -> Result:
        paths, expected = item
        status, wall, text = cli.call(["report", "--sweep", "--config", *paths])
        per_entry = checks.sweep(status, parse_json(text), paths, expected)
        failed = sum(1 for p in per_entry if p)
        return Result(seconds=wall, units=len(paths) - failed, attempted=len(paths),
                      failed=failed, problems=[x for p in per_entry for x in p])

    @staticmethod
    def serial_seconds(cli, item) -> float:
        """Wall time of the batch's points as single ``report`` calls, one after another."""
        return sum(cli.call(["report", "--config", path])[1] for path in item[0])

    @staticmethod
    def summary(results) -> dict:
        return {"sweep_points_per_s": (sum(r.units for r in results)
                                       / sum(r.seconds for r in results), "points/s")}


class Simulate:
    """``simulate`` to convergence per point; the work unit is one engine cycle."""

    unit = "cycle"

    def __init__(self, n: int):
        self.n = n

    def inputs(self, cli, rng):
        while True:
            yield cli.write(points.generic_point(rng, self.n))

    def run(self, cli, path) -> Result:
        status, wall, text = cli.call(["simulate", "--config", path])
        problems, cycles = checks.simulate(status, text, SOLVER_TOL)
        return Result(seconds=wall, units=cycles, failed=bool(problems), problems=problems)

    @staticmethod
    def summary(results) -> dict:
        return {"simulate_s": (statistics.median(r.seconds for r in results), "s"),
                "cycles": (statistics.median(r.units for r in results), "count")}


# Name -> (full-size workload, smoke-size workload).
WORKLOADS = {
    "certify-n6": (Certify(6), Certify(4)),
    "reverse-n6": (Reverse(6), Reverse(4)),
    "sweep-small": (Sweep(99), Sweep(6, lengths=(3, 4))),
    "simulate-n8": (Simulate(8), Simulate(4)),
}
