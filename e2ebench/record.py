"""Steadiness check and baseline record for the repository benchmark.

Runs ``run.py`` once per (workload, seed), each in a fresh process, and
reports for every end-to-end metric the median of the runs and its
spread: the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, next
to the bound fixed in ``BENCHMARK.json``::

    python3 e2ebench/record.py --seeds 1-10
    python3 e2ebench/record.py --seeds 1-5 --workloads adaptive_links
    python3 e2ebench/record.py --seeds 1-10 --sets 2 --write

With ``--sets 2`` the seed list runs twice over and every metric's
second median is compared with the first (the worse-by share against the
bound, in the metric's ``better`` direction).

Only ``--write`` touches ``e2ebench/baseline.json``, and it records
full-size untraced runs only; ``run.py`` never writes it, in any mode.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BASELINE = HERE / "baseline.json"


def _seeds(text: str) -> list[int]:
    if "-" in text:
        first, last = text.split("-", 1)
        return list(range(int(first), int(last) + 1))
    return [int(part) for part in text.split(",")]


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    """(result line, report) of one benchmark process."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=300, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} failed "
                           f"(exit {done.returncode}): {done.stderr[-2000:]}"
                           f"{lines[-2:] if lines else ''}")
    return json.loads(lines[-1]), json.loads(lines[-2])["report"]


def spread(values: list[float]) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else float("inf")


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of it."""
    change = (second - first) / first
    return change if better == "lower" else -change


def run_set(workload: str, seeds: list[int], seconds: int,
            bounds: dict) -> dict:
    """One run per seed; returns the runs and each metric's summary."""
    runs = []
    started = time.perf_counter()
    for seed in seeds:
        line, report = run_once(workload, seed, seconds)
        if not line["correct"]:
            raise RuntimeError(f"{workload} seed {seed} incorrect: "
                               f"{report.get('failures')}")
        runs.append({"seed": seed, "metrics": {
            k: v["value"] for k, v in line["metrics"].items()},
            "attempted": line["attempted"], "failed": line["failed"],
            "report": report})
        print(f"  seed {seed}: " + " ".join(
            f"{name}={runs[-1]['metrics'][name]:.4g}"
            for name in sorted(bounds)), flush=True)
    print(f"== {workload}: {len(seeds)} runs in "
          f"{time.perf_counter() - started:.0f} s")
    summary = {}
    for name in sorted(bounds):
        values = [run["metrics"][name] for run in runs]
        share = spread(values)
        flag = "" if share < bounds[name] / 3 else "  <-- above bound/3"
        summary[name] = {"median": statistics.median(values),
                         "spread": share, "bound": bounds[name]}
        print(f"  {name:22s} median {statistics.median(values):12.4f} "
              f"spread {share:7.4f} bound {bounds[name]:.2f}{flag}"
              f"  [{min(values):.4f} .. {max(values):.4f}]")
    return {"summary": summary, "runs": runs}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--sets", type=int, default=1,
                        help="run the seed list this many times over and "
                             "compare the sets' medians")
    parser.add_argument("--workloads", default=None,
                        help="comma-separated (default: all in "
                             "BENCHMARK.json)")
    parser.add_argument("--write", action="store_true",
                        help="record the runs as e2ebench/baseline.json")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seeds = _seeds(args.seeds)
    record = {"run_seconds": seconds, "seeds": seeds, "workloads": {}}
    worst_spread = worst_drift = 0.0
    for workload in workloads:
        sets = [run_set(workload, seeds, seconds, bounds)
                for _ in range(args.sets)]
        for name in bounds:
            for one in sets:
                worst_spread = max(worst_spread,
                                   one["summary"][name]["spread"]
                                   / bounds[name])
            first = sets[0]["summary"][name]["median"]
            for one in sets[1:]:
                drift = worse_by(first, one["summary"][name]["median"],
                                 better[name])
                worst_drift = max(worst_drift, drift / bounds[name])
                if drift > bounds[name]:
                    print(f"  {workload} {name}: a later set's median is "
                          f"{drift:.3f} worse than the first's "
                          f"(bound {bounds[name]})")
        record["workloads"][workload] = {"sets": sets}
    if args.write:
        record["provenance"] = record["workloads"][workloads[0]]["sets"][0][
            "runs"][0]["report"]["provenance"]
        BASELINE.write_text(json.dumps(record, indent=1, sort_keys=True,
                                       default=str) + "\n")
        print(f"wrote {BASELINE.relative_to(ROOT)}")
    print(f"worst spread / bound: {worst_spread:.3f}")
    if args.sets > 1:
        print(f"worst later-set median drift / bound: {worst_drift:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
