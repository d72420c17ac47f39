"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workloads certify-n6,reverse-n6 --seeds 0-9 --seconds 15
    python3 perfbench/spread.py --seeds 0-9 --out perfbench/baseline.json

Runs ``run.py`` once per (workload, seed), one after another, each in its own
process, and reports per metric the median of the runs and the distance
between their first and third quartiles (``statistics.quantiles(n=4)``) as a
share of the median. With ``--out`` it writes that table, the machine record
and every run's values as JSON. This is how ``baseline.json`` was recorded.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def seed_range(text: str) -> list:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def one_run(workload: str, seed: int, seconds: float) -> tuple:
    """(result object, machine record) of one ``run.py`` run, or exit on failure."""
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=HERE.parent, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"spread: {workload} seed {seed} exited {proc.returncode}\n{proc.stderr}")
    machine = next((json.loads(line[len("machine "):]) for line in lines
                    if line.startswith("machine ")), None)
    return json.loads(lines[-1]), machine


def summarize(values: list) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "iqr_over_median": (q3 - q1) / median}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", default="0-9", help="inclusive range, e.g. 0-9")
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--out", help="write the table and every run's values here")
    args = parser.parse_args()

    doc = {"seconds": args.seconds, "seeds": args.seeds, "machine": None, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seed_range(args.seeds):
            result, doc["machine"] = one_run(workload, seed, args.seconds)
            values = {k: m["value"] for k, m in result["metrics"].items()}
            runs.append({"seed": seed, "attempted": result["attempted"],
                         "failed": result["failed"], "metrics": values})
            print(workload, seed, result["correct"], result["attempted"], result["failed"],
                  {k: round(v, 5) for k, v in values.items()}, flush=True)
        table = {key: summarize([r["metrics"][key] for r in runs]) for key in runs[0]["metrics"]}
        for key, row in table.items():
            print(f"SPREAD {workload} {key} median={row['median']:.6g} "
                  f"iqr/median={row['iqr_over_median']:.4f}", flush=True)
        doc["workloads"][workload] = {"spread": table, "runs": runs}
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
