"""certias benchmark: four seeded workloads, each in a fresh process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S] [--trace 0|1]

Workloads (workloads.py), all with certify's workers=1:
  certify-exact-rand     certify a random 5x9x3 mpQP, exact arithmetic
  certify-polyhedral-di  certify the double integrator N=2, polyhedral errors
  validate-hypercube-di  validate_conformance, 2000 samples, double integrator N=3
  cli-sweep-report-di    cli sweep (6 cells) then report --metric slack

The seed picks an exact relabeling of the problem (inputs.py), or for
validate-hypercube-di the validation seed. A run repeats the workload's
operation for S seconds. --trace 0 prints the end-to-end metrics:

  setup_s      import of certias plus the median of three set-ups (problem
               build and validation; the partition's certify for
               validate-hypercube-di)
  op_s         median time of one operation
  lp_calls     LPs solved per operation (geometry.lp_call_count delta)
  peak_rss_mb  peak resident memory of the workload process

Times are in reference seconds, which take out the machine's drifting
speed (probe.py). --trace 1 prints per-layer metrics from a traced run
(tracing.py), per operation, and the tracing overhead. The last line of
standard output is one JSON object {correct, attempted, failed, metrics};
with --all it maps each workload to its object. Every output is checked
against pins.json and a mismatch counts as a failed operation.

The program is run from the source tree beside this directory (src/), with
the BLAS and OpenMP thread counts set to 1 in the workload's environment.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("certify-exact-rand", "certify-polyhedral-di",
             "validate-hypercube-di", "cli-sweep-report-di")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# A workload process that has not finished by then is killed, so that this
# command always ends within its 180 s allowance.
CHILD_TIMEOUT_S = 170
# Measuring window of one run; BENCHMARK.json's run_seconds.
RUN_SECONDS = 20
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_workload(name: str, seed: int, seconds: float, trace: int) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one workload run in a fresh interpreter."""
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    env.pop("PYTHONPATH", None)
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return 124, "", f"{name}: killed after {CHILD_TIMEOUT_S} s\n"
    return proc.returncode, proc.stdout, proc.stderr


def parse_result(stdout: str):
    """The trailing JSON result of a workload's output, or None."""
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    return result if isinstance(result, dict) and set(result) == RESULT_KEYS else None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="certias benchmark")
    which = ap.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=WORKLOADS)
    which.add_argument("--all", action="store_true", help="run every workload")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    names = WORKLOADS if args.all else (args.workload,)
    results = {}
    for name in names:
        code, out, err = run_workload(name, args.seed, args.seconds, args.trace)
        result = parse_result(out) if code == 0 else None
        if result is None:
            sys.stderr.write(out + err)
            print(f"{name}: workload process failed (exit {code})", file=sys.stderr)
            return 1
        sys.stderr.write(err)
        sys.stdout.write("\n".join(out.strip().splitlines()[:-1]) + "\n")
        results[name] = result
    print(json.dumps(results if args.all else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
