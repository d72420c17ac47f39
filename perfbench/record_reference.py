"""Record the spectrum reference table the certify-n6 check compares against.

    python3 perfbench/record_reference.py --seeds 0-19 --points 4

Runs ``spectrum`` on the first ``--points`` certify-n6 inputs of each seed,
at full size and at the smoke size, and stores both channels' spectral gap and degeneracy flag in
``reference.json``, keyed by the config text's hash. Entries already in the
table are kept. Run it only at a commit whose spectra are trusted: the
table was recorded at the commit that added the benchmark.
"""

from __future__ import annotations

import argparse
import itertools
import json
import shutil
import sys
from pathlib import Path

import numpy as np

import run
from workloads import REFERENCE, WORKLOADS, Cli, config_key


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-19", help="inclusive range, e.g. 0-19")
    parser.add_argument("--points", type=int, default=4)
    args = parser.parse_args()
    first, last = (int(x) for x in args.seeds.split("-"))
    main_fn = run.import_cli().main
    workdir = run.ROOT / ".perfbench_work" / "reference"
    workdir.mkdir(parents=True, exist_ok=True)
    table = dict(REFERENCE)
    try:
        cli = Cli(main_fn, workdir)
        for seed, workload in itertools.product(range(first, last + 1), WORKLOADS["certify-n6"]):
            items = workload.inputs(cli, np.random.default_rng(seed))
            for path, _ in itertools.islice(items, args.points):
                key = config_key(Path(path).read_text())
                if key in table:
                    continue
                status, _, text = cli.call(["spectrum", "--config", path])
                if status != 0:
                    print(f"seed {seed}: spectrum exit {status}", file=sys.stderr)
                    return 1
                doc = json.loads(text)
                table[key] = {f"{side}_{field}": doc[side][name]
                              for side in ("cb", "ac")
                              for field, name in (("gap", "spectral_gap"),
                                                  ("degenerate", "degenerate"))}
                print(seed, key, table[key], flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    out = Path(__file__).with_name("reference.json")
    out.write_text(json.dumps(dict(sorted(table.items())), indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
