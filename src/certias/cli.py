"""Command-line front end: certify, validate, sweep, and report.

Every command writes through _emit: the result's to_document() plus the
echoed run configuration, or for the analysis tables of sweep and report,
to_csv() unless --out ends in .json. Documents are JSON with matrices as
row-major nested arrays; floats are written in their shortest round-tripping
decimal form, so reading a document back reproduces every matrix bit for
bit. Keys are sorted and indentation is fixed, which makes output documents
byte-stable: the same problem, flags, and seed give identical bytes on
every run. certias runs on one thread; --workers is accepted for
compatibility and changes nothing. Parallel work means separate processes,
each its own certias invocation.

Exit codes: 0 success, 1 validation found mismatches or coverage gaps,
2 input problems (a flag the command does not take as spelled, abbreviations
included, or a required one missing; a file that is missing, unreadable,
not UTF-8 or malformed; an --out that cannot be written; bad flag values,
a repeated sweep grid value among them; an error set whose dimension is not
the problem's constraint count), 3 anything
unexpected, 4 a numerical failure in the geometry kernel (GeometryError: the
simplex pivot cap or the Fourier-Motzkin row cap), a frontier that outgrew
its budget (BudgetExceededError, from certify or report), or a sweep cell
that failed either way; sweep still writes the finished cells and names
each failed one on stderr.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import pathlib
import sys
from dataclasses import dataclass, fields, replace
from typing import Optional

from certias.analysis import iteration_cdf, slack_profile, sweep
from certias.certifier import BudgetExceededError, CertificationResult, certify
from certias.geometry import GeometryError
from certias.lpp import KIND_RELATIVE, ErrorModel
from certias.mpqp import MpQP, load_problem
from certias.solver import Tolerances
from certias.validation import validate_conformance

log = logging.getLogger("certias.cli")

_LOG_LEVELS = {"error": logging.ERROR, "warn": logging.WARNING,
               "info": logging.INFO, "debug": logging.DEBUG}


@dataclass
class RunConfig:
    """Effective settings of one invocation.

    Everything except the worker count and the output path is echoed into
    the output document; those two cannot affect the computed content, and
    leaving them out keeps documents byte-identical across machines and
    --workers values. workers is accepted for compatibility and otherwise
    unused: certias runs on one thread, and parallel work means separate
    processes.
    """

    command: str
    problem_path: Optional[str] = None
    partition_path: Optional[str] = None
    out: Optional[str] = None
    primal_tol: float = Tolerances.eps_primal
    dual_tol: Optional[float] = None
    iter_limit: int = Tolerances.iter_limit
    eps_bar: Optional[float] = None
    error_model_path: Optional[str] = None
    rel_bound: Optional[float] = None
    samples: int = 10000
    seed: int = 0
    workers: int = 1
    metric: Optional[str] = None
    primal_tols: Optional[list] = None
    eps_bars: Optional[list] = None

    def echo(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.name not in ("out", "workers")}

    def tolerances(self) -> Tolerances:
        try:
            return Tolerances(eps_primal=self.primal_tol, eps_dual=self.dual_tol,
                              iter_limit=self.iter_limit)
        except ValueError as exc:
            raise InputError(str(exc)) from exc


class InputError(Exception):
    """Anything wrong with files or flag values the user gave us."""


def _setup_logging() -> None:
    name = os.environ.get("CERTIAS_LOG", "warn").lower()
    if name not in _LOG_LEVELS:
        raise InputError(f"CERTIAS_LOG must be one of {sorted(_LOG_LEVELS)}, "
                         f"got {name!r}")
    logging.basicConfig(level=_LOG_LEVELS[name], stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")


def _read(path: str, what: str, parse):
    """parse() of the JSON document at path. A file that cannot be read, is
    not UTF-8 or JSON, or that parse refuses is bad input naming what the
    document should have been: a problem, partition or error-model."""
    p = pathlib.Path(path)
    if not p.is_file():
        raise InputError(f"no such file: {path}")
    try:
        return parse(json.loads(p.read_text(encoding="utf-8")))
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise InputError(f"bad {what} document {path}: {exc}") from exc


def _load_partition(path: str, prob: Optional[MpQP]) -> CertificationResult:
    """The partition document at path. With a problem, it must be that
    problem's, and every working-set row one of its constraint rows."""
    result = _read(path, "partition", CertificationResult.from_document)
    if prob is not None:
        if result.problem_digest != prob.digest():
            raise InputError("the partition belongs to a different problem")
        rows = {i for r in result.regions for s in r.sequence for i in s.working_set}
        for i in sorted(rows):
            if not 0 <= i < prob.m:
                raise InputError(f"working-set index {i} out of range")
    return result


# Each model or tolerance flag and its RunConfig field. The parsers leave
# both kinds None when not given, so report with --partition can refuse one
# before _tol_defaults fills the rest.
_MODEL_FLAGS = {"--error-model": "error_model_path", "--eps-bar": "eps_bar",
                "--rel-bound": "rel_bound"}
_TOL_FLAGS = {"--primal-tol": "primal_tol", "--dual-tol": "dual_tol",
              "--iter-limit": "iter_limit"}


def _given(cfg: RunConfig, flags: dict) -> list:
    """Names of the flags given, of those in flags."""
    return [flag for flag, name in flags.items() if getattr(cfg, name) is not None]


def _tol_defaults(cfg: RunConfig) -> RunConfig:
    """cfg with RunConfig's default for each tolerance flag not given."""
    return replace(cfg, **{name: getattr(RunConfig, name) for name in _TOL_FLAGS.values()
                           if getattr(cfg, name) is None})


def build_model(cfg: RunConfig, prob: Optional[MpQP] = None) -> Optional[ErrorModel]:
    """Error model the flags select, None when no model flag is given.
    --eps-bar 0 selects exact arithmetic. With prob, each polyhedral set of
    a model file must match the problem's constraint count."""
    if cfg.error_model_path is not None:
        def parse(doc):
            model = ErrorModel.from_document(doc)
            if prob is not None:
                model.check_dimension(prob.m)
            return model
        return _read(cfg.error_model_path, "error-model", parse)
    try:
        if cfg.rel_bound is not None:
            return ErrorModel(kind=KIND_RELATIVE, rel_bound=cfg.rel_bound)
        if cfg.eps_bar is not None:
            return ErrorModel.from_eps_bar(cfg.eps_bar)
    except ValueError as exc:
        raise InputError(f"{_given(cfg, _MODEL_FLAGS)[0]}: {exc}") from exc
    return None


def result_to_document(result, cfg: RunConfig) -> dict:
    """result's to_document() with the echoed run configuration."""
    return {"config": cfg.echo(), **result.to_document()}


def dump_document(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _emit(obj, cfg: RunConfig) -> None:
    """Write obj to --out, or to stdout without one: as CSV when obj is an
    analysis table and --out does not end in .json, else as its document."""
    if hasattr(obj, "to_csv") and not (cfg.out or "").endswith(".json"):
        text = obj.to_csv()
    else:
        text = dump_document(result_to_document(obj, cfg))
    if cfg.out is None:
        sys.stdout.write(text)
        return
    try:
        pathlib.Path(cfg.out).write_text(text)
    except OSError as exc:
        raise InputError(f"cannot write {cfg.out}: {exc.strerror}") from exc


def cmd_certify(cfg: RunConfig) -> int:
    prob = _read(cfg.problem_path, "problem", load_problem)
    cfg = _tol_defaults(cfg)
    result = certify(prob, cfg.tolerances(), build_model(cfg, prob))
    _emit(result, cfg)
    log.info("certified %d regions (%s)", len(result.regions), result.stats)
    return 0


def _partition_config(cfg: RunConfig, result: CertificationResult) -> RunConfig:
    """cfg with the partition's tolerances, the ones a command reading a
    saved partition works with, to echo in place of the flags'."""
    tol = Tolerances.from_document(result.settings)
    return replace(cfg, primal_tol=tol.eps_primal, dual_tol=tol.eps_dual,
                   iter_limit=tol.iter_limit)


def cmd_validate(cfg: RunConfig) -> int:
    prob = _read(cfg.problem_path, "problem", load_problem)
    result = _load_partition(cfg.partition_path, prob)
    override = build_model(cfg)
    if cfg.samples < 1:
        raise InputError("--samples must be at least 1")
    try:
        report = validate_conformance(prob, result, n_samples=cfg.samples,
                                      seed=cfg.seed, model=override)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    if cfg.out is not None:
        _emit(report, _partition_config(cfg, result))
    print(report.summary())
    return 0 if report.passed else 1


def cmd_sweep(cfg: RunConfig) -> int:
    cfg = _tol_defaults(cfg)
    prob = _read(cfg.problem_path, "problem", load_problem)
    try:
        table = sweep(prob, cfg.primal_tols, cfg.eps_bars, cfg.tolerances())
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    _emit(table, cfg)
    for ep, eb, message in table.annotations:
        print(f"sweep cell failed (eps_primal {ep:g}, eps_bar {eb:g}): {message}",
              file=sys.stderr)
    return 4 if table.annotations else 0


def cmd_report(cfg: RunConfig) -> int:
    # slack reads the subproblem maps of --problem.
    if cfg.metric == "slack" and cfg.problem_path is None:
        raise InputError("report needs --problem")
    if cfg.problem_path is None and cfg.partition_path is None:
        raise InputError("report needs --problem or --partition")
    prob = None if cfg.problem_path is None else _read(cfg.problem_path, "problem", load_problem)
    if cfg.partition_path is None:
        cfg = _tol_defaults(cfg)
        result = certify(prob, cfg.tolerances(), build_model(cfg, prob))
    else:
        given = _given(cfg, _MODEL_FLAGS) + _given(cfg, _TOL_FLAGS)
        if given:
            raise InputError(f"{' and '.join(given)} cannot be used with --partition")
        result = _load_partition(cfg.partition_path, prob)
        cfg = _partition_config(cfg, result)
    try:
        table = iteration_cdf(result) if cfg.metric == "cdf" else slack_profile(prob, result)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    _emit(table, cfg)
    return 0


def _float_list(text: str) -> list:
    try:
        return [float(part) for part in text.split(",") if part != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a comma list of numbers: "
                                         f"{text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    # allow_abbrev=False throughout: a flag is read only as spelled, so a
    # misspelt or abbreviated one exits 2 instead of standing for another.
    parser = argparse.ArgumentParser(
        prog="certias", allow_abbrev=False,
        description="Certify worst-case behaviour of a dual active-set QP "
                    "solver over a parameter set.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, needs_problem=True, model_flags=True, tol_flags=True,
               dual_default=None):
        p.add_argument("--problem", dest="problem_path", metavar="PATH",
                       required=needs_problem, help="problem document (JSON)")
        p.add_argument("--out", metavar="PATH", help="output file; stdout "
                       "when omitted (sweep and report write CSV unless it "
                       "ends in .json)")
        if tol_flags:
            # sweep takes each cell's slack tolerance from --primal-tols.
            if dual_default is None:
                p.add_argument("--primal-tol", dest="primal_tol", type=float,
                               help=f"slack tolerance (default {RunConfig.primal_tol})")
            p.add_argument("--dual-tol", dest="dual_tol", type=float,
                           help="multiplier tolerance (default: "
                           f"{dual_default or '--primal-tol'})")
            p.add_argument("--iter-limit", dest="iter_limit", type=int,
                           help=f"iteration cap (default {RunConfig.iter_limit})")
        p.add_argument("--workers", type=int, default=RunConfig.workers,
                       help="accepted for compatibility and ignored: "
                       "certias runs on one thread")
        if model_flags:
            model = p.add_mutually_exclusive_group()
            model.add_argument("--eps-bar", dest="eps_bar", type=float,
                               help="per-iteration hypercube error bound")
            model.add_argument("--error-model", dest="error_model_path",
                               metavar="PATH", help="error-model document (JSON)")
            model.add_argument("--rel-bound", dest="rel_bound", type=float,
                               help="relative error bound")

    p_cert = sub.add_parser("certify", allow_abbrev=False,
                            help="partition the parameter set")
    common(p_cert)

    # validate runs with the partition's own tolerances, so it takes none.
    p_val = sub.add_parser("validate", allow_abbrev=False,
                           help="sample the solver against a partition")
    common(p_val, tol_flags=False)
    p_val.add_argument("--partition", dest="partition_path", metavar="PATH",
                       required=True, help="partition document from certify")
    p_val.add_argument("--samples", type=int, default=RunConfig.samples)
    p_val.add_argument("--seed", type=int, default=RunConfig.seed)

    p_sweep = sub.add_parser("sweep", allow_abbrev=False,
                             help="grid of certifications")
    common(p_sweep, model_flags=False,
           dual_default="each cell's --primal-tols entry")
    p_sweep.add_argument("--primal-tols", dest="primal_tols", required=True,
                         type=_float_list, metavar="A,B,...",
                         help="comma list of slack tolerances")
    p_sweep.add_argument("--eps-bars", dest="eps_bars", required=True,
                         type=_float_list, metavar="A,B,...",
                         help="comma list of error bounds")

    p_rep = sub.add_parser("report", allow_abbrev=False,
                           help="emit analysis tables")
    common(p_rep, needs_problem=False)
    p_rep.add_argument("--metric", choices=("slack", "cdf"), required=True)
    p_rep.add_argument("--partition", dest="partition_path", metavar="PATH",
                       help="partition document from certify, whose "
                       "tolerances and model the report uses; without it, "
                       "report certifies --problem under the tolerance and "
                       "model flags")
    return parser


_COMMANDS = {"certify": cmd_certify, "validate": cmd_validate,
             "sweep": cmd_sweep, "report": cmd_report}


def main(argv=None) -> int:
    try:
        _setup_logging()
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    cfg = RunConfig(**vars(args))
    try:
        return _COMMANDS[cfg.command](cfg)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GeometryError as exc:
        log.debug("numerical failure", exc_info=True)
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 4
    except Exception as exc:
        log.exception("internal failure")
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
