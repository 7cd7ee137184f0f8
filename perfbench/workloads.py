"""One benchmark workload, measured in this process.

Started by run.py in a fresh interpreter per workload, with the BLAS and
OpenMP thread counts set to 1, so that the peak RSS and the process-wide LP
counter belong to one workload and nothing runs beside the measured thread.

A run imports certias, sets the workload up SETUP_REPEATS times, then
repeats the workload's operation until --seconds have passed (at least
once), all under the speed probe (probe.py), checking every output against
pins.json. With --trace 1 it instead alternates untraced operations with
operations during which every public function of every certias module is
wrapped by tracing.Tracer, and reports per-layer figures per operation plus
the tracing overhead.

The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import pathlib
import resource
import statistics
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
PINS = pathlib.Path(__file__).resolve().parent / "pins.json"
# Scratch space inside the checkout for CLI input and output documents and
# span files; .gitignore lists it.
WORK = ".perfbench"
SETUP_REPEATS = 3

import numpy as np  # noqa: E402

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
from probe import SpeedProbe  # noqa: E402

with SpeedProbe() as _import:
    sys.path.insert(0, str(ROOT / "src"))
    import certias  # noqa: E402
    from certias import analysis, certifier, cli, examples, geometry, lpp, mpqp, validation  # noqa: E402,F401

import inputs  # noqa: E402
from tracing import Tracer  # noqa: E402


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def partition_observation(result) -> dict:
    """Pinned facts about one certification result."""
    doc = cli.result_to_document(result, cli.RunConfig(command="certify"))
    return {
        "partition_sha256": sha256(cli.dump_document(doc)),
        "regions": result.stats["regions"],
        "explored": result.stats["explored"],
        "worst": max(r.iterations for r in result.regions),
        "lp_calls": result.stats["lp_calls"],
    }


class Workload:
    """Base: subclasses define setup(), op() and observe(); see main()."""

    name = ""
    # certify's worker threads; see CliSweepReportDi for why all use one.
    workers = 1
    # Observation keys pinned for every seed; the rest (digests of documents,
    # which change with the relabeling) are pinned per seed.
    invariant: tuple[str, ...] = ()

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self) -> None:
        raise NotImplementedError

    def op(self) -> dict:
        """Run the timed operation; return named sub-timings (may be empty)."""
        raise NotImplementedError

    def observe(self) -> dict:
        """Facts about the last op's output, compared against the pins."""
        raise NotImplementedError

    def extra_checks(self, obs: dict) -> list[str]:
        return []

    def conformance(self) -> list[str]:
        """Seed-independent check of the first op's output, run once."""
        return []


class CertifyWorkload(Workload):
    """certify on a relabeled base problem."""

    invariant = ("regions", "explored", "worst", "lp_calls")
    CONFORMANCE_SAMPLES = 200

    def base(self) -> dict:
        """The problem document before relabeling."""
        raise NotImplementedError

    def model(self):
        raise NotImplementedError

    def setup(self) -> None:
        doc = inputs.relabel(self.base(), self.seed)
        self.prob = mpqp.load_problem(inputs.to_plain(doc))
        self.err = self.model()
        self.tol = certias.Tolerances()

    def op(self) -> dict:
        self.result = certifier.certify(self.prob, self.tol, self.err,
                                        workers=self.workers)
        return {"certify_s": None}

    def observe(self) -> dict:
        return partition_observation(self.result)

    def conformance(self) -> list[str]:
        """Sampled solver runs must follow the certified sequences. Errors
        are not sampled (validation draws hypercube errors only); zero error
        is admissible under every model here."""
        report = validation.validate_conformance(
            self.prob, self.result, n_samples=self.CONFORMANCE_SAMPLES,
            seed=self.seed, model=lpp.ErrorModel())
        return [] if report.passed else [f"conformance: {report.summary()}"]


class CertifyExactRand(CertifyWorkload):
    name = "certify-exact-rand"

    def base(self) -> dict:
        return inputs.random_problem_document(inputs.RANDOM_INSTANCE_SEED,
                                              *inputs.RANDOM_SIZES)

    def model(self):
        return lpp.ErrorModel()


class CertifyPolyhedralDi(CertifyWorkload):
    name = "certify-polyhedral-di"
    BOUND = 1e-4

    def base(self) -> dict:
        return examples.double_integrator_problem(2).to_document()

    def model(self):
        E, e = inputs.polyhedral_error_set(self.prob.m, self.BOUND)
        return lpp.ErrorModel(kind=lpp.KIND_POLYHEDRAL, set=geometry.Polyhedron(E, e))


class ValidateHypercubeDi(Workload):
    """validate_conformance over the certified double integrator; the seed
    is the validation seed (parameter draws and error sequences)."""

    name = "validate-hypercube-di"
    SAMPLES = 2000
    EPS_BAR = 1e-4
    invariant = ("partition_sha256", "regions", "explored", "worst", "setup_lp_calls")

    def setup(self) -> None:
        doc = json.loads((ROOT / "problems" / "double_integrator.json").read_text())
        self.prob = mpqp.load_problem(doc)
        model = lpp.ErrorModel(kind=lpp.KIND_HYPERCUBE, bound=self.EPS_BAR)
        self.partition = certifier.certify(self.prob, certias.Tolerances(), model,
                                           workers=self.workers)

    def op(self) -> dict:
        self.report = validation.validate_conformance(
            self.prob, self.partition, n_samples=self.SAMPLES, seed=self.seed)
        return {}

    def observe(self) -> dict:
        obs = partition_observation(self.partition)
        obs["setup_lp_calls"] = obs.pop("lp_calls")
        obs["summary"] = self.report.summary()
        return obs

    def extra_checks(self, obs: dict) -> list[str]:
        out = []
        if not self.report.passed:
            out.append(f"validation failed: {obs['summary']}")
        if self.report.samples_total != self.SAMPLES:
            out.append(f"{self.report.samples_total} samples, expected {self.SAMPLES}")
        return out


class CliSweepReportDi(Workload):
    """sweep then report through cli.main on a relabeled
    problems/double_integrator.json, with default flags except --workers 1.

    The default --workers (all cores) runs certify's thread pool, and no
    timing of it is steady on the benchmark machine: wall times spread by
    12% between runs, and the speed probe cannot correct them, because the
    probe shares the interpreter with the worker threads and is slowed by
    them as much as the program is, which would hide the pool's own cost.
    """

    name = "cli-sweep-report-di"
    invariant = ("sweep_worst", "sweep_regions", "slack")
    PROBLEM = f"{WORK}/cli/problem.json"
    SWEEP_OUT = f"{WORK}/cli/sweep.json"
    REPORT_OUT = f"{WORK}/cli/report.json"

    def setup(self) -> None:
        doc = json.loads((ROOT / "problems" / "double_integrator.json").read_text())
        doc = inputs.relabel(doc, self.seed)
        path = ROOT / self.PROBLEM
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(inputs.to_plain(doc), indent=1) + "\n")
        mpqp.load_problem(json.loads(path.read_text()))

    def op(self) -> dict:
        t0 = time.perf_counter()
        self.sweep_rc = cli.main(["sweep", "--problem", self.PROBLEM,
                                  "--primal-tols", "1e-6,1e-4",
                                  "--eps-bars", "0,1e-4,1e-3", "--workers", str(self.workers),
                                  "--out", self.SWEEP_OUT])
        t1 = time.perf_counter()
        self.report_rc = cli.main(["report", "--problem", self.PROBLEM,
                                   "--metric", "slack", "--eps-bar", "1e-4",
                                   "--workers", str(self.workers),
                                   "--out", self.REPORT_OUT])
        t2 = time.perf_counter()
        return {"sweep_s": t1 - t0, "report_s": t2 - t1}

    def observe(self) -> dict:
        sweep_text = (ROOT / self.SWEEP_OUT).read_text()
        report_text = (ROOT / self.REPORT_OUT).read_text()
        sweep_doc, report_doc = json.loads(sweep_text), json.loads(report_text)
        self.annotations = sweep_doc["annotations"]
        self.lp_failures = report_doc["lp_failures"]
        return {
            "sweep_sha256": sha256(sweep_text),
            "report_sha256": sha256(report_text),
            "sweep_worst": [[r["eps_primal"], r["eps_bar"], r["worst_iterations"]]
                            for r in sweep_doc["rows"]],
            "sweep_regions": [r["region_count"] for r in sweep_doc["rows"]],
            "slack": [e["worst_slack"] for e in report_doc["per_iteration"]],
        }

    def extra_checks(self, obs: dict) -> list[str]:
        out = []
        if self.sweep_rc != 0 or self.report_rc != 0:
            out.append(f"exit codes sweep={self.sweep_rc} report={self.report_rc}")
        if self.annotations:
            out.append(f"sweep annotations: {self.annotations}")
        if self.lp_failures:
            out.append(f"report lp_failures={self.lp_failures}")
        return out


WORKLOADS = {w.name: w for w in (CertifyExactRand, CertifyPolyhedralDi,
                                  ValidateHypercubeDi, CliSweepReportDi)}

# Relabeling moves slack values by rounding only; pinned values hold to this.
SLACK_RTOL = 1e-9


def _same(key: str, got, want) -> bool:
    if key == "slack":
        return len(got) == len(want) and all(
            math.isclose(g, w, rel_tol=SLACK_RTOL, abs_tol=1e-12)
            for g, w in zip(got, want))
    return got == want


def check(workload: Workload, obs: dict, pins, first: dict) -> list[str]:
    """Failures of one op: pins for any seed, pins for this seed (pins is
    None while recording them), repeats that differ from the run's first
    op, and the workload's own checks."""
    out = []
    entry = None if pins is None else pins.get(workload.name)
    if pins is not None and entry is None:
        out.append("no pins for this workload")
    if entry is not None:
        expected = {**entry["any_seed"], **entry["seeds"].get(str(workload.seed), {})}
        for key, want in expected.items():
            if not _same(key, obs.get(key), want):
                out.append(f"{key}: got {obs.get(key)!r}, pinned {want!r}")
    for key, want in first.items():
        if obs.get(key) != want:
            out.append(f"{key} changed between repeats of one run")
    return out + workload.extra_checks(obs)


def record_pins(workload: Workload, obs: dict) -> None:
    """Store this run's observation as the pins for its workload and seed."""
    pins = json.loads(PINS.read_text()) if PINS.exists() else {}
    entry = pins.setdefault(workload.name, {"any_seed": {}, "seeds": {}})
    entry["any_seed"] = {k: obs[k] for k in workload.invariant}
    entry["seeds"][str(workload.seed)] = {
        k: v for k, v in obs.items() if k not in workload.invariant}
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


class Runner:
    """Times ops of one workload and collects their check failures."""

    def __init__(self, workload: Workload, pins) -> None:
        self.workload = workload
        self.pins = pins
        self.attempted = 0
        self.failures: list[str] = []
        self.first: dict = {}
        self.last_obs: dict = {}

    def one(self) -> dict:
        """Run and check one op under the speed probe. Returns its wall
        time, its time in reference seconds, its LP calls and its
        sub-timings in reference seconds."""
        self.attempted += 1
        lp0 = geometry.lp_call_count()
        with SpeedProbe() as clock:
            parts = self.workload.op()
        wall, ref = clock.wall, clock.reference_s
        lp = geometry.lp_call_count() - lp0
        obs = self.workload.observe()
        bad = check(self.workload, obs, self.pins, self.first)
        if not self.first:
            bad += self.workload.conformance()
            self.first = obs
        self.last_obs = obs
        if bad:
            self.failures.append("; ".join(bad))
        scale = ref / wall
        return {"wall": wall, "ref": ref, "lp": lp,
                "parts": {k: (ref if v is None else v * scale) for k, v in parts.items()}}

    def loop(self, seconds: float) -> list[dict]:
        """Probed ops until `seconds` have passed (at least one)."""
        ops = []
        start = time.perf_counter()
        while not ops or time.perf_counter() - start < seconds:
            ops.append(self.one())
        return ops


def traced_run(runner: Runner, seconds: float) -> tuple[dict, list[str]]:
    """Per-layer metrics from traced ops, alternating with untraced ones.

    Ops run in (untraced, traced) pairs until `seconds` have passed, so
    the overhead (median traced minus median untraced time) compares
    neighbours rather than the start and end of a drifting run. Both run
    under the speed probe, and span times are converted to reference
    seconds with the traced ops' overall factor.
    """
    tracer = Tracer()
    untraced, traced, traced_lps = [], [], 0
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        untraced.append(runner.one())
        tracer.install()
        try:
            traced.append(runner.one())
        finally:
            tracer.uninstall()
        traced_lps += traced[-1]["lp"]
    factor = sum(op["ref"] for op in traced) / sum(op["wall"] for op in traced)
    layer = {k: v * factor if k.endswith("_s") else v
             for k, v in tracer.summary(len(traced)).items()}
    wrapped_lps = (tracer.total_calls("geometry.solve_lp")
                   + tracer.total_calls("geometry.phase1_measure"))
    if wrapped_lps != traced_lps:
        runner.failures.append(f"trace self-check: wrapped LP calls {wrapped_lps} "
                               f"!= lp_call_count delta {traced_lps}")
    layer["trace.overhead_s"] = (statistics.median(op["ref"] for op in traced)
                                 - statistics.median(op["ref"] for op in untraced))
    spans = ROOT / WORK / f"spans-{runner.workload.name}.npz"
    spans.parent.mkdir(parents=True, exist_ok=True)
    tracer.save(spans)
    lines = [
        "times in reference seconds (see probe.py); wall seconds in brackets",
        "  untraced ops " + _pairs((op["ref"], op["wall"]) for op in untraced),
        "  traced ops   " + _pairs((op["ref"], op["wall"]) for op in traced),
        f"LP self-check: wrapped solve_lp + phase1_measure calls {wrapped_lps}, "
        f"lp_call_count delta {traced_lps}: {'ok' if wrapped_lps == traced_lps else 'MISMATCH'}",
        "bindings wrapped: " + ", ".join(f"{k}={v}" for k, v in tracer.bindings.items()),
        f"spans written to {spans.relative_to(ROOT)}",
        f"per-layer figures are per traced op ({len(traced)} ops):",
    ]
    metrics = {k: {"value": float(v), "unit": _layer_unit(k)} for k, v in layer.items()}
    return metrics, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-pins", action="store_true",
                    help="write this run's outputs to pins.json instead of "
                         "comparing them with it")
    args = ap.parse_args(argv)

    src = (ROOT / "src" / "certias").resolve()
    if pathlib.Path(certias.__file__).resolve().parent != src:
        print(f"certias was imported from {certias.__file__}, not {src}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload](args.seed)
    pins = json.loads(PINS.read_text()) if PINS.exists() else {}
    runner = Runner(workload, None if args.record_pins else pins)

    lines = [f"workload {workload.name}  seed {args.seed}  workers {workload.workers}  "
             f"trace {args.trace}"]
    if args.trace:
        workload.setup()
        metrics, more = traced_run(runner, args.seconds)
        lines += more
    else:
        setups = []
        for _ in range(SETUP_REPEATS):
            with SpeedProbe() as clock:
                workload.setup()
            setups.append(clock)
        ops = runner.loop(args.seconds)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        op_s = statistics.median(op["ref"] for op in ops)
        metrics = {
            "setup_s": {"value": _import.reference_s
                        + statistics.median(c.reference_s for c in setups), "unit": "s"},
            "op_s": {"value": op_s, "unit": "s"},
            "lp_calls": {"value": statistics.median(op["lp"] for op in ops), "unit": "count"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }
        lines += [
            "times in reference seconds (see probe.py); wall seconds in brackets",
            f"  import certias {_import.reference_s:.4f} [{_import.wall:.4f}]",
            "  setups " + _pairs((c.reference_s, c.wall) for c in setups),
            "  ops    " + _pairs((op["ref"], op["wall"]) for op in ops),
        ]
        for k in ops[0]["parts"]:
            lines.append(f"  {k:<24} {statistics.median(op['parts'][k] for op in ops):12.4f} s"
                         f"   (median of {len(ops)})")
        if isinstance(workload, ValidateHypercubeDi):
            lines.append(f"  {'validate_samples_per_s':<24} {workload.SAMPLES / op_s:12.2f} 1/s"
                         f" (median of {len(ops)} runs of {workload.SAMPLES} samples)")

    if args.record_pins:
        record_pins(workload, runner.last_obs)
        lines.append(f"pins recorded for seed {args.seed}")
    for name, m in metrics.items():
        lines.append(f"  {name:<44} {m['value']:14.6g} {m['unit']}")
    lines.append(f"  ops_total {runner.attempted}  ops_failed {len(runner.failures)}")
    for f in runner.failures:
        lines.append(f"  FAILED: {f}")
    print("\n".join(lines))
    print(json.dumps({"correct": not runner.failures, "attempted": runner.attempted,
                      "failed": len(runner.failures), "metrics": metrics}))
    return 0


def _pairs(pairs) -> str:
    return ", ".join(f"{ref:.4f} [{wall:.4f}]" for ref, wall in pairs)


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
