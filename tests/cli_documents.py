"""The stored CLI documents: stdout, stderr and exit status of each command on fixed configs.

``tests/documents/`` holds the configs, all at n <= 6, and ``expected/``
what the CLI gave on them: ``<config>.<command>.out`` (stdout) for each
run, and ``runs.json`` (argv, exit status and stderr of each run). Every
config is run under ``report``, ``spectrum``, ``reverse`` and
``simulate``, and ``report --sweep`` runs over ``SWEEP``. The runs are
in-process and start in ``tests/documents``, so config paths, the
``initial_state`` path and the sweep's ``config`` entries are relative.

``tests/test_documents.py`` compares fresh runs with the stored ones. Run
this file to regenerate them::

    PYTHONPATH=src python tests/cli_documents.py

It prints, per field, the largest change against the stored documents,
and how many runs are byte-identical.

Comparison (:func:`compare`). Structure, keys, strings, booleans, nulls,
integers and exit statuses must be equal. Floats must agree within
``TOLERANCE``, absolute: residual fields near 1e-14 move by large
relative amounts between equally correct codes. ``simulate``'s CSV is
compared cell by cell, its ``nan`` cells read as nulls. stderr must be
equal outside its numbers, which are compared as floats, because a
message such as a closure distance prints a value at rounding level,
which another BLAS build may round differently.
"""

from __future__ import annotations

import io
import json
import os
import re
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

DOCUMENTS = Path(__file__).resolve().parent / "documents"
EXPECTED = DOCUMENTS / "expected"
COMMANDS = ("report", "spectrum", "reverse", "simulate")
SWEEP = ("readme.json", "decoupled.json", "matched-iterate.json", "overflow.json", "ill-n4.json")
# The history of rounding-level moves sets it: up to 6.9e-14 at n = 8 and 6e-13 in a reversed
# completeness residual at n = 6, against a changed float's smallest meaningful move of 1e-9.
TOLERANCE = 1e-12
_NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:e[-+]?\d+)?)")


def configs() -> list:
    return sorted(p.name for p in DOCUMENTS.glob("*.json"))


def cases() -> dict:
    """``{name: argv}`` for every stored run."""
    runs = {f"{Path(c).stem}.{command}": [command, "--config", c]
            for c in configs() for command in COMMANDS}
    runs["sweep.report"] = ["report", "--sweep", "--config", *SWEEP]
    return runs


def run(argv) -> dict:
    """The exit status, stdout and stderr of ``qcycle`` on argv, run from ``DOCUMENTS``."""
    from qcycle.cli import main

    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(DOCUMENTS)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            status = main(list(argv))
    finally:
        os.chdir(cwd)
    return {"argv": list(argv), "status": status, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


def stored() -> dict:
    """``{name: run}`` as stored, in the form :func:`run` returns."""
    runs = json.loads((EXPECTED / "runs.json").read_text())
    for name, entry in runs.items():
        entry["stdout"] = (EXPECTED / f"{name}.out").read_text()
    return runs


def _cell(token: str):
    if token == "nan":
        return None
    return int(token) if re.fullmatch(r"-?\d+", token) else float(token)


def parse(command: str, stdout: str):
    """The document of one run: JSON, or ``simulate``'s CSV as rows of cells."""
    if not stdout:
        return None
    if command == "simulate":
        header, *rows = stdout.split()
        return [dict(zip(header.split(","), map(_cell, row.split(",")))) for row in rows]
    return json.loads(stdout)


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def compare(expected, fresh, path: str, worst: dict, errors: list) -> None:
    """Walk two documents; record float differences in ``worst[path]``, mismatches in ``errors``."""
    if _is_number(expected) and _is_number(fresh):
        if isinstance(expected, int) and isinstance(fresh, int):
            if expected != fresh:
                errors.append(f"{path}: {expected} != {fresh}")
            return
        diff = 0.0 if expected == fresh else abs(expected - fresh)  # equal infinities too
        worst[path] = max(worst.get(path, 0.0), diff)
        if not diff <= TOLERANCE:
            errors.append(f"{path}: {expected!r} and {fresh!r} differ by {diff:.3e}")
    elif isinstance(expected, dict) and isinstance(fresh, dict):
        if list(expected) != list(fresh):
            errors.append(f"{path}: keys {list(expected)} != {list(fresh)}")
            return
        for key in expected:
            compare(expected[key], fresh[key], f"{path}.{key}", worst, errors)
    elif isinstance(expected, list) and isinstance(fresh, list):
        if len(expected) != len(fresh):
            errors.append(f"{path}: length {len(expected)} != {len(fresh)}")
            return
        for a, b in zip(expected, fresh):
            compare(a, b, f"{path}[]", worst, errors)
    elif type(expected) is not type(fresh) or expected != fresh:
        errors.append(f"{path}: {expected!r} != {fresh!r}")


def compare_run(name: str, expected: dict, fresh: dict, worst: dict, errors: list) -> None:
    """Compare one run's argv, status, stderr and document."""
    command = name.rsplit(".", 1)[1]
    for key in ("argv", "status"):
        if expected[key] != fresh[key]:
            errors.append(f"{name} {key}: {expected[key]!r} != {fresh[key]!r}")
    parts = [_NUMBER.split(run["stderr"]) for run in (expected, fresh)]
    stderr = [[float(p) if i % 2 else p for i, p in enumerate(split)] for split in parts]
    compare(stderr[0], stderr[1], f"{name} stderr", worst, errors)
    compare(parse(command, expected["stdout"]), parse(command, fresh["stdout"]),
            f"{name} document", worst, errors)


def field_report(worst: dict) -> list:
    """Lines ``field  largest difference`` over all runs, for the fields that moved at all.

    A field is the path below the command, so one field collects every config's value.
    """
    by_field = {}
    for path, diff in worst.items():
        name, _, rest = path.partition(" ")
        field = f"{name.rsplit('.', 1)[1]} {rest}"
        by_field[field] = max(by_field.get(field, 0.0), diff)
    return [f"{field:70s} {diff:.3e}" for field, diff in sorted(by_field.items()) if diff > 0.0]


def regenerate() -> int:
    old = stored() if (EXPECTED / "runs.json").exists() else {}
    EXPECTED.mkdir(exist_ok=True)
    for path in EXPECTED.glob("*.out"):
        path.unlink()
    runs, worst, errors, identical = {}, {}, [], 0
    for name, argv in cases().items():
        fresh = run(argv)
        (EXPECTED / f"{name}.out").write_text(fresh["stdout"])
        runs[name] = {key: fresh[key] for key in ("argv", "status", "stderr")}
        if name in old:
            identical += old[name] == fresh
            compare_run(name, old[name], fresh, worst, errors)
    (EXPECTED / "runs.json").write_text(json.dumps(runs, indent=1) + "\n")
    print(f"{len(runs)} runs stored; {identical} byte-identical to the previous documents")
    print("\n".join(field_report(worst) + errors))
    return 0


if __name__ == "__main__":
    sys.exit(regenerate())
