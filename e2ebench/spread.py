"""Run-to-run spread of BENCH_E2E's metrics over several seeds.

Run from the repository root::

    python3 e2ebench/spread.py --workload warm-mutating --seeds 1-10

Runs ``run.py`` once per seed, one run at a time, and prints for every
metric the median, every run's value, the quartile spread (``(q3 - q1) / median`` from
``statistics.quantiles(values, n=4)``) and the bound BENCHMARK.json sets
for it; the runs are judged steady when every spread other than
``setup_s``'s stays below a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from measure import spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds_of(text: str) -> list[int]:
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(part) for part in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    values: dict[str, list[float]] = {}
    for seed in seeds_of(args.seeds):
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        ).stdout
        result = json.loads(out.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: wrong answers", file=sys.stderr)
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed} done", file=sys.stderr)
    steady = True
    for name, series in values.items():
        median = statistics.median(series)
        bound = bounds.get(name)
        wide = spread(series) if len(series) > 1 and median else 0.0
        mark = ""
        if bound is not None and name != "setup_s" and wide >= bound / 3:
            mark = "  <-- not steady"
            steady = False
        bound_text = f"{bound:.3f}" if bound is not None else "-"
        print(f"{name:36} median {median:12.4f}  spread {wide:7.4f}  "
              f"bound {bound_text}{mark}")
        print("    " + " ".join(f"{v:.4g}" for v in series))
    return 0 if steady else 3


if __name__ == "__main__":
    sys.exit(main())
