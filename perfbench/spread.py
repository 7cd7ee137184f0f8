"""Run-to-run spread of the end-to-end metrics, and the recorded baseline.

    python3 perfbench/spread.py [--workloads A,B] [--seeds 1-10] [--seconds S]
                                [--write-baseline]

Runs run.py once per (workload, seed), one run at a time, and prints for
each end-to-end metric the median of its values and the spread: the
distance between the first and third quartiles (statistics.quantiles with
n=4) as a share of the median. BENCHMARK.json's bound for a metric should
be at least three times the spread seen here.

--write-baseline stores the medians, spreads and every run's values in
perfbench/baseline.json with a machine label, together with the per-layer
metrics of one traced run per workload (on the first seed). The machine's speed drifts
over an hour by more than the bounds, so compare two commits with paired,
alternating runs on one machine, never against these absolute numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import sys
import time

import run

BASELINE = pathlib.Path(__file__).resolve().parent / "baseline.json"


def machine_label() -> dict:
    model = "unknown"
    try:
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    import numpy

    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(), "numpy": numpy.__version__}


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(run.WORKLOADS))
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--seconds", type=float, default=run.RUN_SECONDS)
    ap.add_argument("--write-baseline", action="store_true")
    args = ap.parse_args(argv)

    seeds = seed_range(args.seeds)
    report = {}
    for name in args.workloads.split(","):
        runs = []
        for seed in seeds:
            t0 = time.perf_counter()
            code, out, err = run.run_workload(name, seed, args.seconds, 0)
            result = run.parse_result(out) if code == 0 else None
            if result is None or not result["correct"]:
                sys.stderr.write(out + err)
                print(f"{name} seed {seed}: failed", file=sys.stderr)
                return 1
            runs.append({"seed": seed, "wall_s": time.perf_counter() - t0,
                         **{k: m["value"] for k, m in result["metrics"].items()}})
            # The header line reads "workload NAME  seed N  workers W  trace T".
            workers = int(out.split("workers", 1)[1].split()[0])
            print(f"{name} seed {seed}: " + "  ".join(
                f"{k}={v:.6g}" for k, v in runs[-1].items() if k != "seed"), flush=True)
        metrics = {}
        for key in runs[0]:
            if key in ("seed", "wall_s"):
                continue
            values = [r[key] for r in runs]
            metrics[key] = {"median": statistics.median(values), "spread": spread(values)}
            print(f"  {name:<24} {key:<12} median {metrics[key]['median']:.6g}  "
                  f"spread {metrics[key]['spread']:.4f}")
        report[name] = {"workers": workers, "metrics": metrics, "runs": runs}
        if args.write_baseline:
            code, out, err = run.run_workload(name, seeds[0], args.seconds, 1)
            result = run.parse_result(out) if code == 0 else None
            if result is None or not result["correct"]:
                sys.stderr.write(out + err)
                print(f"{name}: traced run failed", file=sys.stderr)
                return 1
            report[name]["per_layer"] = {
                k: m["value"] for k, m in result["metrics"].items()}

    if args.write_baseline:
        BASELINE.write_text(json.dumps({
            "machine": machine_label(),
            "taken": time.strftime("%Y-%m-%d %H:%M UTC", time.gmtime()),
            "seconds_per_run": args.seconds,
            "note": "The machine drifts: compare commits with paired, alternating "
                    "runs, never against these absolute numbers.",
            "workloads": report,
        }, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
