"""Run the benchmark over every workload and several seeds and summarize the spread.

    python3 bench/sweep.py                          # every workload, seed 1
    python3 bench/sweep.py --seeds 1-10             # ten runs per workload
    python3 bench/sweep.py --trace 1                # per-layer metrics
    python3 bench/sweep.py --seeds 1-10 --write     # store as the baseline
    python3 bench/sweep.py --trace 1 --write

Each run is one ``bench/run.py`` process, started only after the previous one
has ended; seeds form the outer loop so that drift in machine load falls on
every workload alike.  For each workload and metric the summary gives the
median, the quartiles (``statistics.quantiles(n=4)``), the spread
``(q3 - q1) / median`` and, for end-to-end metrics, the spread as a share of
the metric's bound in ``BENCHMARK.json``.  ``--write`` stores the summary
and the machine's environment under the key ``end_to_end`` or ``per_layer``
of ``bench/baseline.json``, keeping the file's other keys.  Exits 1 if any
run failed or reported an incorrect output.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BASELINE = BENCH_DIR / "baseline.json"


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {},
                "exit_code": proc.returncode}
    return json.loads(lines[-1])


def spread(values: list) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / median if median else 0.0}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1", help="e.g. 1-10 or 3,7 (default: 1)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write", action="store_true",
                        help=f"also store the summary in {BASELINE.relative_to(ROOT)}")
    args = parser.parse_args(argv)

    metrics = spec["per_layer" if args.trace else "end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in metrics}
    results = {w: [] for w in workloads}
    for seed in parse_seeds(args.seeds):
        for workload in workloads:
            result = run_once(workload, seed, spec["run_seconds"], args.trace)
            results[workload].append(result)
            values = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                              if bounds.get(k) is not None and v["value"] is not None)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} {values}", flush=True)

    record = ROOT / ".bench_out" / f"{workloads[-1]}-seed{seed}-trace{args.trace}.json"
    environment = (json.loads(record.read_text(encoding="utf-8"))["environment"]
                   if record.exists() else None)
    summary = {"seconds": spec["run_seconds"], "seeds": args.seeds, "environment": environment,
               "workloads": {}}
    ok = True
    for workload, runs in results.items():
        ok = ok and all(r["correct"] and r["failed"] == 0 for r in runs)
        table = {}
        print(f"\n{workload}: {len(runs)} runs, "
              f"{sum(r['failed'] for r in runs)} failed of {sum(r['attempted'] for r in runs)}")
        for metric in metrics:
            values = [r["metrics"][metric["name"]]["value"] for r in runs
                      if r["metrics"].get(metric["name"], {}).get("value") is not None]
            if not values:
                continue
            stats = spread(values)
            table[metric["name"]] = {**stats, "unit": metric["unit"]}
            bound = bounds[metric["name"]]
            share = f"  spread/bound {stats['spread'] / bound:.2f}" if bound else ""
            print(f"  {metric['name']:<44} median {stats['median']:>12.6g} {metric['unit']:<6}"
                  f" q1 {stats['q1']:.6g} q3 {stats['q3']:.6g}"
                  f" spread {stats['spread']:.4f}{share}")
        summary["workloads"][workload] = {
            "runs": len(runs), "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs), "metrics": table}
    if args.write:
        merged = json.loads(BASELINE.read_text(encoding="utf-8")) if BASELINE.exists() else {}
        merged["per_layer" if args.trace else "end_to_end"] = summary
        BASELINE.write_text(json.dumps(merged, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
