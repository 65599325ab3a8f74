"""Run the benchmark in two sets, one after the other, and summarize each.

    python3 perfbench/repeat.py --workload kac --runs 10

Runs ``perfbench/run.py`` untraced, one run at a time, with the
``run_seconds`` of BENCHMARK.json: set A with seeds 1, 2, ..., then set B
with the same seeds.  Both sets run the same code, so the two sets show how
far the benchmark drifts on this host while nothing changes.  For each set and metric it prints the
median of the runs and the spread: the distance between the first and
third quartile (``statistics.quantiles(values, n=4)``) as a share of the
median.  It then prints how much set B's median differs from set A's, next
to the metric's bound.  The last line is the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 180
SETS = ("A", "B")


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S, check=True)
    result = json.loads(done.stdout.splitlines()[-1])
    if not result["correct"]:
        print(f"seed {seed}: {result['failed']} of {result['attempted']} jobs failed",
              file=sys.stderr)
    return result


def summarize(vals: list[float]) -> dict:
    mid = median(vals)
    q1, _, q3 = quantiles(vals, n=4)
    return {"median": mid, "spread": (q3 - q1) / mid, "values": vals}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values = {s: {} for s in SETS}
    for side in SETS:
        for seed in range(1, args.runs + 1):
            result = run_once(args.workload, seed, spec["run_seconds"])
            for name, metric in result["metrics"].items():
                values[side].setdefault(name, []).append(metric["value"])
            print(f"seed {seed} set {side}: " + ", ".join(
                f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()), flush=True)

    summary = {}
    for name, bound in bounds.items():
        sets = {side: summarize(values[side][name]) for side in SETS}
        drift = sets["B"]["median"] / sets["A"]["median"] - 1
        summary[name] = {"bound": bound, "drift": drift, **sets}
        print(f"  {name:<14} " + "  ".join(
            f"{side}: median {sets[side]['median']:.6g} spread {sets[side]['spread']:.4f}"
            for side in SETS) + f"  B/A-1 {drift:+.4f}  bound {bound}")
    print(json.dumps({"workload": args.workload, "runs": args.runs, "metrics": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
