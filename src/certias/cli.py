"""Command-line front end: certify, validate, sweep, and report.

Every command writes through _emit: the result's to_document() plus the
echoed run configuration, or for the analysis tables of sweep and report,
to_csv() unless --out ends in .json. Documents are JSON with matrices as
row-major nested arrays; floats are written in their shortest round-tripping
decimal form, so reading a document back reproduces every matrix bit for
bit. Keys are sorted and indentation is fixed, which makes output documents
byte-stable: the same problem, flags, and seed give identical bytes on
every run. --workers is accepted for compatibility; certification runs on
the calling thread.

Exit codes: 0 success, 1 validation found mismatches or coverage gaps,
2 input problems (missing or malformed files, bad flag values, an error set
whose dimension is not the problem's constraint count), 3 anything
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
    unused: certification runs on the calling thread.
    """

    command: str
    problem_path: Optional[str] = None
    partition_path: Optional[str] = None
    out: Optional[str] = None
    primal_tol: float = 1e-6
    dual_tol: Optional[float] = None
    iter_limit: int = 15
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


def _load_json(path: str) -> dict:
    p = pathlib.Path(path)
    if not p.is_file():
        raise InputError(f"no such file: {path}")
    try:
        return json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc


def _load_mpqp(path: str) -> MpQP:
    try:
        return load_problem(_load_json(path))
    except (KeyError, ValueError, TypeError) as exc:
        raise InputError(f"bad problem document {path}: {exc}") from exc


def _load_partition(path: str, prob: Optional[MpQP]) -> CertificationResult:
    """The partition document at path. With a problem, it must be that
    problem's, and every working-set row one of its constraint rows."""
    doc = _load_json(path)
    try:
        result = CertificationResult.from_document(doc)
    except (KeyError, ValueError, TypeError) as exc:
        raise InputError(f"bad partition document: {exc}") from exc
    if prob is not None:
        if result.problem_digest != prob.digest():
            raise InputError("the partition belongs to a different problem")
        rows = {i for r in result.regions for s in r.sequence for i in s.working_set}
        for i in sorted(rows):
            if not 0 <= i < prob.m:
                raise InputError(f"working-set index {i} out of range")
    return result


# Each model or tolerance flag and its RunConfig field. report's parser
# leaves the tolerance flags None when not given, as every parser does the
# model flags, so it can refuse them with --partition.
_MODEL_FLAGS = {"--error-model": "error_model_path", "--eps-bar": "eps_bar",
                "--rel-bound": "rel_bound"}
_TOL_FLAGS = {"--primal-tol": "primal_tol", "--dual-tol": "dual_tol",
              "--iter-limit": "iter_limit"}


def _given(cfg: RunConfig, flags: dict) -> list:
    """Names of the flags given, of those in flags."""
    return [flag for flag, name in flags.items() if getattr(cfg, name) is not None]


def build_model(cfg: RunConfig) -> Optional[ErrorModel]:
    """Error model the flags select, None when no model flag is given.
    --eps-bar 0 selects exact arithmetic."""
    given = _given(cfg, _MODEL_FLAGS)
    if len(given) > 1:
        raise InputError(f"{' and '.join(given)} are mutually exclusive")
    if cfg.error_model_path is not None:
        try:
            return ErrorModel.from_document(_load_json(cfg.error_model_path))
        except (KeyError, ValueError, TypeError) as exc:
            raise InputError(f"bad error-model document "
                             f"{cfg.error_model_path}: {exc}") from exc
    try:
        if cfg.rel_bound is not None:
            return ErrorModel(kind=KIND_RELATIVE, rel_bound=cfg.rel_bound)
        if cfg.eps_bar is not None:
            return ErrorModel.from_eps_bar(cfg.eps_bar)
    except ValueError as exc:
        raise InputError(f"{given[0]}: {exc}") from exc
    return None


def _model_for(cfg: RunConfig, prob: MpQP) -> Optional[ErrorModel]:
    """build_model's model, refused when one of its polyhedral sets does not
    match the problem's constraint count."""
    model = build_model(cfg)
    if model is not None:
        try:
            model.check_dimension(prob.m)
        except ValueError as exc:
            raise InputError(f"bad error-model document "
                             f"{cfg.error_model_path}: {exc}") from exc
    return model


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
    else:
        pathlib.Path(cfg.out).write_text(text)


def _require(cfg: RunConfig, field_name: str, flag: str):
    value = getattr(cfg, field_name)
    if value is None:
        raise InputError(f"{cfg.command} needs {flag}")
    return value


def cmd_certify(cfg: RunConfig) -> int:
    prob = _load_mpqp(_require(cfg, "problem_path", "--problem"))
    result = certify(prob, cfg.tolerances(), _model_for(cfg, prob))
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
    prob = _load_mpqp(_require(cfg, "problem_path", "--problem"))
    result = _load_partition(_require(cfg, "partition_path", "--partition"), prob)
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
    prob = _load_mpqp(_require(cfg, "problem_path", "--problem"))
    eps_list = _require(cfg, "primal_tols", "--primal-tols")
    bar_list = _require(cfg, "eps_bars", "--eps-bars")
    try:
        table = sweep(prob, eps_list, bar_list, cfg.tolerances())
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    _emit(table, cfg)
    for ep, eb, message in table.annotations:
        print(f"sweep cell failed (eps_primal {ep:g}, eps_bar {eb:g}): {message}",
              file=sys.stderr)
    return 4 if table.annotations else 0


def cmd_report(cfg: RunConfig) -> int:
    metric = _require(cfg, "metric", "--metric")
    # slack reads the subproblem maps of --problem.
    if metric == "slack":
        _require(cfg, "problem_path", "--problem")
    elif cfg.problem_path is None and cfg.partition_path is None:
        raise InputError("report needs --problem or --partition")
    prob = None if cfg.problem_path is None else _load_mpqp(cfg.problem_path)
    if cfg.partition_path is None:
        cfg = replace(cfg, **{name: getattr(RunConfig, name) for name in _TOL_FLAGS.values()
                              if getattr(cfg, name) is None})
        result = certify(prob, cfg.tolerances(), _model_for(cfg, prob))
    else:
        given = _given(cfg, _MODEL_FLAGS) + _given(cfg, _TOL_FLAGS)
        if given:
            raise InputError(f"{' and '.join(given)} cannot be used with --partition")
        result = _load_partition(cfg.partition_path, prob)
        cfg = _partition_config(cfg, result)
    try:
        table = iteration_cdf(result) if metric == "cdf" else slack_profile(prob, result)
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
    parser = argparse.ArgumentParser(
        prog="certias",
        description="Certify worst-case behaviour of a dual active-set QP "
                    "solver over a parameter set.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, model_flags=True, tol_flags=True, tol_defaults=True):
        p.add_argument("--problem", dest="problem_path", metavar="PATH",
                       help="problem document (JSON)")
        p.add_argument("--out", metavar="PATH", help="output file; stdout "
                       "when omitted (sweep and report write CSV unless it "
                       "ends in .json)")
        if tol_flags:
            p.add_argument("--primal-tol", dest="primal_tol", type=float,
                           default=RunConfig.primal_tol if tol_defaults else None,
                           help=f"slack tolerance (default {RunConfig.primal_tol})")
            p.add_argument("--dual-tol", dest="dual_tol", type=float,
                           default=None,
                           help="multiplier tolerance (default: --primal-tol)")
            p.add_argument("--iter-limit", dest="iter_limit", type=int,
                           default=RunConfig.iter_limit if tol_defaults else None,
                           help=f"iteration cap (default {RunConfig.iter_limit})")
        p.add_argument("--workers", type=int, default=RunConfig.workers,
                       help="accepted for compatibility; certification runs "
                       "on the calling thread")
        if model_flags:
            p.add_argument("--eps-bar", dest="eps_bar", type=float,
                           default=None,
                           help="per-iteration hypercube error bound")
            p.add_argument("--error-model", dest="error_model_path",
                           metavar="PATH",
                           help="error-model document (JSON)")
            p.add_argument("--rel-bound", dest="rel_bound", type=float,
                           default=None, help="relative error bound")

    p_cert = sub.add_parser("certify", help="partition the parameter set")
    common(p_cert)

    # validate runs with the partition's own tolerances, so it takes none.
    p_val = sub.add_parser("validate",
                           help="sample the solver against a partition")
    common(p_val, tol_flags=False)
    p_val.add_argument("--partition", dest="partition_path", metavar="PATH",
                       help="partition document from certify")
    p_val.add_argument("--samples", type=int, default=RunConfig.samples)
    p_val.add_argument("--seed", type=int, default=RunConfig.seed)

    p_sweep = sub.add_parser("sweep", help="grid of certifications")
    common(p_sweep, model_flags=False)
    p_sweep.add_argument("--primal-tols", dest="primal_tols",
                         type=_float_list, metavar="A,B,...",
                         help="comma list of slack tolerances")
    p_sweep.add_argument("--eps-bars", dest="eps_bars", type=_float_list,
                         metavar="A,B,...",
                         help="comma list of error bounds")

    p_rep = sub.add_parser("report", help="emit analysis tables")
    common(p_rep, tol_defaults=False)
    p_rep.add_argument("--metric", choices=("slack", "cdf"))
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
    cfg = RunConfig(**{k: v for k, v in vars(args).items()})
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
