"""Post-certification analytics: slack profiles, iteration CDFs, sweeps.

Everything here is derived from certification output by linear programming
over the stored regions, so each number is reproducible from a saved
partition document. Each table writes its own JSON document, and its CSV is
that document's rows under the table's fixed column header, so downstream
plotting scripts can rely on both.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace
from typing import Optional

from certias.certifier import BudgetExceededError, CertificationResult, certify
from certias.geometry import GeometryError, solve_lp
from certias.lpp import ErrorModel
from certias.mpqp import MpQP, subproblem_maps
from certias.solver import Tolerances

log = logging.getLogger("certias.analysis")

INF = math.inf


class _Table:
    """A table whose document lists its rows under the key ROWS, each row a
    dict over the column names COLUMNS in order."""

    def _rows(self, values) -> list:
        return [dict(zip(self.COLUMNS, v)) for v in values]

    def to_csv(self) -> str:
        """The header COLUMNS, then one line per row of the document."""
        lines = [",".join(self.COLUMNS)]
        lines += [",".join(str(v) for v in row.values())
                  for row in self.to_document()[self.ROWS]]
        return "\n".join(lines) + "\n"


@dataclass
class SlackProfile(_Table):
    """Worst-case primal constraint violation after k executed iterations.

    per_iteration[k] = (k, worst_slack) where worst_slack maximizes
    -mu_j(theta) over every region live at depth k and every constraint row
    j. Regions whose runs have already ended keep contributing their final
    iterate's slack at later depths, because a stopped solver holds its
    iterate. Regions that ended on a singular working set have no iterate
    map and are skipped (counted in skipped_singular).
    """

    per_iteration: list
    skipped_singular: int = 0
    lp_failures: int = 0

    COLUMNS = ("k", "worst_slack")
    ROWS = "per_iteration"

    def values(self) -> list:
        return [v for _, v in self.per_iteration]

    def to_document(self) -> dict:
        return {self.ROWS: self._rows((k, float(v)) for k, v in self.per_iteration),
                "skipped_singular": self.skipped_singular,
                "lp_failures": self.lp_failures}


@dataclass
class IterationCdf(_Table):
    """points: (k, fraction of regions done within k iterations) for
    k = 1..max, as iteration_cdf computes them."""

    points: list

    COLUMNS = ("k", "fraction")
    ROWS = "cdf"

    def to_document(self) -> dict:
        return {self.ROWS: self._rows((k, float(v)) for k, v in self.points)}


@dataclass
class SweepTable(_Table):
    """Grid of certified worst-case iteration counts.

    rows: (eps_primal, eps_bar, worst_iterations, region_count) sorted by
    (eps_primal, eps_bar) ascending. worst_iterations is math.inf exactly
    when the cell's partition contains an iteration-limit region; the
    document writes it as the string INF. Cells whose certification failed
    appear in annotations instead of rows.
    """

    rows: list = field(default_factory=list)
    annotations: list = field(default_factory=list)

    COLUMNS = ("eps_primal", "eps_bar", "worst_iterations", "region_count")
    ROWS = "rows"

    def to_document(self) -> dict:
        rows = self._rows((float(ep), float(eb),
                           "INF" if math.isinf(worst) else int(worst), count)
                          for ep, eb, worst, count in self.rows)
        notes = [{"eps_primal": float(ep), "eps_bar": float(eb), "message": msg}
                 for ep, eb, msg in self.annotations]
        return {self.ROWS: rows, "annotations": notes}


def _region_worst(prob: MpQP, region, working_set) -> Optional[float]:
    """max over rows j and theta in region of -mu_j(theta), or None on an
    LP failure."""
    maps = subproblem_maps(prob, working_set)
    if maps.singular:
        return None
    F, g = maps.mu_map.F, maps.mu_map.g
    worst = -INF
    for j in range(F.shape[0]):
        res = solve_lp(-F[j], region, sense="max")
        if res.status != "optimal":
            log.warning("slack LP %s on a region with %d rows; excluded",
                        res.status, region.nrows)
            return None
        worst = max(worst, res.value - g[j])
    return worst


def slack_profile(prob: MpQP, result: CertificationResult) -> SlackProfile:
    """Per-depth worst primal slack over the certified leaves, of a result
    certify returned or one read back from its document. Raises ValueError
    when the result belongs to another problem.

    A split's children lie inside their parent and cover it, so the leaves
    cover the regions live at each depth k, about to run their (k+1)-th
    iteration. A leaf's working set at depth k, which gives the slack map,
    is the one its k-th slack check (position 2k) split on. Past its last
    slack check it is the one the run ended with; a degenerate leaf, whose
    last executed state was singular and never split, has none.
    """
    if result.problem_digest != prob.digest():
        raise ValueError("certification result belongs to a different problem")
    leaves = []
    for reg in result.regions:
        degenerate = reg.status == "degenerate"
        split = [s.working_set for s in reg.sequence[:-2 if degenerate else -1:2]]
        leaves.append((reg.region, split, None if degenerate else reg.sequence[-1].working_set))

    # Keyed by content: many leaves share a region's rows, and a leaf meets
    # one working set at several depths. A failure counts once per leaf and
    # working set.
    cache: dict = {}
    failed = set()
    per_iteration = []
    for k in range(max((len(split) + (end is not None) for _, split, end in leaves),
                       default=0)):
        worst = -INF
        for i, (region, split, end) in enumerate(leaves):
            working_set = split[k] if k < len(split) else end
            if working_set is None:
                continue
            key = (region.A.tobytes(), region.b.tobytes(), tuple(working_set))
            if key not in cache:
                cache[key] = _region_worst(prob, region, working_set)
            if cache[key] is None:
                failed.add((i, key[2]))
            else:
                worst = max(worst, cache[key])
        per_iteration.append((k, worst))
    skipped = sum(end is None for _, _, end in leaves)
    return SlackProfile(per_iteration, skipped_singular=skipped,
                        lp_failures=len(failed))


def iteration_cdf(result: CertificationResult) -> IterationCdf:
    """(k, fraction of regions done within k iterations) for k = 1..max.

    Fractions weigh regions by count, not volume. Regions that hit the
    iteration limit never count as done; runs ending on a singular working
    set count at the iteration where they stopped.
    """
    if not result.regions:
        raise ValueError("empty certification result")
    top = max(r.iterations for r in result.regions)
    total = len(result.regions)
    out = []
    for k in range(1, top + 1):
        done = sum(1 for r in result.regions
                   if r.status != "iter_limit" and r.iterations <= k)
        out.append((k, done / total))
    return IterationCdf(out)


def sweep(prob: MpQP, eps_primal_list, eps_bar_list,
          tol_base: Optional[Tolerances] = None) -> SweepTable:
    """Certify the cross product of tolerances and error bounds.

    Rows come out sorted by (eps_primal, eps_bar) ascending regardless of
    input order. Every cell's Tolerances and ErrorModel are built before the
    first is certified, so a value either constructor refuses (a NaN, an
    infinity, a negative eps_bar) raises ValueError before any work. A cell
    whose certification fails numerically (GeometryError) or outgrows its
    budget (BudgetExceededError) is recorded as an annotation and the sweep
    moves on; any other exception propagates.
    """
    if not eps_primal_list or not eps_bar_list:
        raise ValueError("tolerance and error-bound lists must be nonempty")
    if any(ep <= 0 for ep in eps_primal_list):
        raise ValueError("eps_primal values must be positive")
    # 0 and -0 compare equal, so they count as one value.
    if any(len(set(xs)) < len(xs) for xs in (eps_primal_list, eps_bar_list)):
        raise ValueError("tolerance and error-bound lists must not repeat a value")
    tol_base = tol_base or Tolerances()
    cells = [(ep, eb, replace(tol_base, eps_primal=ep), ErrorModel.from_eps_bar(eb))
             for ep in sorted(eps_primal_list) for eb in sorted(eps_bar_list)]

    table = SweepTable()
    for ep, eb, tol, model in cells:
        try:
            result = certify(prob, tol, model)
        except (GeometryError, BudgetExceededError) as exc:
            table.annotations.append((ep, eb, f"{type(exc).__name__}: {exc}"))
            continue
        capped = any(r.status == "iter_limit" for r in result.regions)
        worst = INF if capped else max(r.iterations for r in result.regions)
        table.rows.append((ep, eb, worst, len(result.regions)))
    return table
