"""Monte-Carlo checks tying certified regions back to actual solver runs.

Certification claims that every parameter's realized state sequence appears
among the certified ones. This module samples parameters (and, with a
nonzero error model, error sequences), runs the solver, and compares. It
also provides a witness search in the opposite direction: given a certified
region and a parameter in it, find an error sequence that actually realizes
the region's sequence there.

Samples within a small normalized distance of any certified-region boundary
are skipped rather than judged: tie-breaking on shared boundaries depends on
the region representation, and the guarantees are interior statements.

validate_conformance draws every sample's parameter first, all with one
Generator.random call: lo + (hi - lo) u per coordinate, (lo, hi) being the
problem's theta_box, so it solves no LP. Membership in the parameter set
and the boundary test (over the partition's distinct rows) are then decided
a block of samples at a time, with one product each; a block's products
take about BLOCK_BYTES, so the double integrator's samples go in one block.
The judged samples run through the solver in one lockstep, which asks
for error rows only at the steps it reaches: at each slack check, and at
each dual check under perturb_dual, the step's live samples, in ascending
order, get -b + (b - (-b)) u per component from one Generator.random
call, b being the step's bound; a step of bound 0 gets zeros and draws
nothing. Those are the doubles, the order and the two roundings of one
Generator.uniform(-b, b, m) call per live sample, so the draws are the
ones a sample-by-sample loop makes when it advances every live sample a
step at a time. Neither the draws nor the report depend on BLOCK_BYTES.

The judge works per solver path, not per sample or leaf: each group the
lockstep ends with ran one sequence, and its members are tested only
against the one region certified with that sequence, if any (a
certificate has one leaf per sequence). A member it admits passes; the
rest fail. Only the failures are located, all in one call and only when
some sample failed, by `contains` over the partition's distinct regions: a
failure with no host is a coverage gap, one with hosts a mismatch. Every
product is geometry.row_products, which sums column by column in a fixed
order, and every membership test is `contains`, so each point gets the
answers it gets alone, and the report is the one of drawing, locating and
judging each sample on its own.

search_realization is exact for exact, hypercube and scheduled-hypercube
models. Each step's decision reads only its own error row and is monotone
in each component of it, so one hypercube vertex per step is the most
favorable admissible error: found=False proves that no admissible error
sequence makes the solver follow the region's sequence at that parameter.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from certias.certifier import CertificationResult, CertifiedRegion
from certias.geometry import (
    MEMBERSHIP_SLACK,
    contains,
    normalize_rows,
    row_products,
)
from certias.lpp import ErrorModel
from certias.mpqp import MpQP
from certias.solver import Tolerances, _lockstep, decision_of, run

DELTA_MARGIN = 1e-7
# Bytes of one block's products in the membership and boundary pass: a block
# holds BLOCK_BYTES // (8 rows) samples, rows being the larger of the
# partition's distinct rows and the parameter set's. The double integrator's
# 22 rows take 5957 samples a block; about 1000 rows take 131.
BLOCK_BYTES = 1 << 20


@dataclass
class ValidationReport:
    """Outcome of a conformance sweep.

    mismatches holds (theta, realized sequence, ids of regions containing
    theta); conformance passed exactly when it is empty. coverage_gaps are
    parameters no certified region contains. Entries are sorted by theta so
    reports are reproducible regardless of evaluation order.
    """

    samples_total: int = 0
    samples_outside: int = 0
    samples_skipped_boundary: int = 0
    mismatches: list = field(default_factory=list)
    coverage_gaps: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.mismatches and not self.coverage_gaps

    def summary(self) -> str:
        return (f"samples={self.samples_total} outside={self.samples_outside} "
                f"boundary_skips={self.samples_skipped_boundary} "
                f"mismatches={len(self.mismatches)} "
                f"coverage_gaps={len(self.coverage_gaps)}")

    def to_document(self) -> dict:
        """Counts, mismatches as {theta, realized sequence, containing_regions},
        and coverage gaps."""
        return {
            "samples_total": self.samples_total,
            "samples_outside": self.samples_outside,
            "samples_skipped_boundary": self.samples_skipped_boundary,
            "mismatches": [{"theta": list(theta),
                            "sequence": [s.to_document() for s in seq],
                            "containing_regions": ids}
                           for theta, seq, ids in self.mismatches],
            "coverage_gaps": [list(t) for t in self.coverage_gaps],
        }


class _RegionStack:
    """The partition's distinct regions, for the boundary test and for
    locating the samples the judge fails. The judge tests each end group
    with `contains` against the one region of its sequence alone.

    Leaves whose regions have the same A and b bytes share one distinct
    region, on which `contains` answers alike for them; region_of names each
    leaf's. near_A/near_b are the distinct rows of the distinct regions with
    unit-norm coefficients, for the boundary-distance test. Every product
    here is geometry.row_products, whose value for a row and a point does
    not depend on the other rows or points, so identical rows give identical
    bits: the distinct rows decide what every leaf's rows decide, and a
    block gives each point the answer it gets alone.
    """

    def __init__(self, result: CertificationResult):
        leaves = [r.region for r in result.regions]
        first: dict = {}
        self.region_of = np.array([first.setdefault((P.A.tobytes(), P.b.tobytes()),
                                                    len(first)) for P in leaves], dtype=np.intp)
        self.regions = [leaves[i] for i in np.unique(self.region_of, return_index=True)[1]]
        rows = np.column_stack(normalize_rows(np.vstack([P.A for P in self.regions]),
                                              np.concatenate([P.b for P in self.regions])))
        keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
        rows = rows[np.unique(keys, return_index=True)[1]]
        self.near_A, self.near_b = rows[:, :-1].copy(), rows[:, -1].copy()

    def near_boundary(self, theta: np.ndarray):
        """Whether theta lies within DELTA_MARGIN (normalized) of any region row.

        theta is one point, giving a bool, or a 2-D block of points, one per
        row, giving a bool array with each point's answer alone.
        """
        gaps = row_products(self.near_A, theta)
        gaps -= self.near_b
        near = np.abs(gaps, out=gaps).min(axis=-1, initial=np.inf) < DELTA_MARGIN
        return near if theta.ndim == 2 else bool(near)

    def locate(self, thetas: np.ndarray) -> np.ndarray:
        """Host matrix of the rows of thetas: entry (i, j) says whether leaf
        j contains point i (slack MEMBERSHIP_SLACK), as `contains` decides,
        each distinct region decided once. The judge calls it on failed
        samples only, to name their hosts.
        """
        return np.column_stack([contains(P, thetas, slack=MEMBERSHIP_SLACK)
                                for P in self.regions])[:, self.region_of]


def _error_draws(rng: np.random.Generator, bounds: np.ndarray, m: int):
    """validate_conformance's row source for _lockstep: the error rows of
    step k for the live samples, uniform within bounds[k] (from
    ErrorModel.step_bounds), from one rng.random call; zeros, and no draw,
    where bounds[k] is 0. A step past the last bound reads the last one:
    given the schedule's bounds and then the base model's, every step gets
    the bound it sees, however high the iteration cap."""
    low = -bounds
    span = bounds - low
    last = len(bounds) - 1

    def rows_at(k, live):
        k = min(k, last)
        if bounds[k] == 0.0:
            return np.zeros((len(live), m))
        u = rng.random((len(live), m))
        u *= span[k]
        u += low[k]
        return u

    return rows_at


def validate_conformance(prob: MpQP, result: CertificationResult,
                         n_samples: int = 10000, seed: int = 0,
                         model: Optional[ErrorModel] = None) -> ValidationReport:
    """Sample parameters, run the solver, and compare realized sequences.

    Parameters are drawn uniformly from the bounding box of the parameter
    set; draws outside the set are counted and ignored, draws within
    DELTA_MARGIN (normalized) of any certified-region boundary are counted
    as skipped. Each remaining draw gets a fresh error sequence admissible
    under the result's model (or the `model` override), and the one region
    certified with its realized sequence must contain it. Raises ValueError
    when some step of the model is polyhedral or relative, which cannot be
    sampled, and when two leaves share a sequence, which certify never
    writes.

    Deterministic for a fixed seed. Raises ValueError unless n_samples is
    a nonnegative integer.
    """
    if isinstance(n_samples, bool) or not isinstance(n_samples, numbers.Integral) \
            or n_samples < 0:
        raise ValueError(f"n_samples must be a nonnegative integer, not {n_samples!r}")
    if result.problem_digest != prob.digest():
        raise ValueError("certification result belongs to a different problem")
    if model is None:
        model = ErrorModel.from_document(result.settings["error_model"])
    tol = Tolerances.from_document(result.settings)
    # Steps past the schedule see the base model, whose bound comes last.
    bounds = model.step_bounds(len(model.schedule or ()) + 1)
    lo, hi = prob.theta_box
    stack = _RegionStack(result)
    # The one region certified with each sequence: a group's member passes
    # when it admits the member, and only the failures are located.
    region_of = dict(zip((r.sequence for r in result.regions), stack.region_of))
    if len(region_of) < len(result.regions):
        raise ValueError("two leaves share a sequence")
    rng = np.random.default_rng(seed)
    report = ValidationReport(samples_total=int(n_samples))
    thetas = lo + (hi - lo) * rng.random((n_samples, len(lo)))
    judged = np.empty(n_samples, dtype=bool)
    size = max(1, BLOCK_BYTES // (8 * max(len(stack.near_b), prob.theta_set.nrows)))
    for start in range(0, n_samples, size):
        block = thetas[start:start + size]
        inside = contains(prob.theta_set, block, slack=MEMBERSHIP_SLACK)
        judged[start:start + size] = inside & ~stack.near_boundary(block)
        report.samples_outside += len(block) - int(inside.sum())
    thetas = thetas[judged]
    report.samples_skipped_boundary = n_samples - report.samples_outside - len(thetas)
    if not len(thetas):
        return report
    ends = _lockstep(prob, thetas, _error_draws(rng, bounds, prob.m), tol,
                     model.perturb_dual)
    failed, failed_end = [], []
    for j, (sequence, members) in enumerate(ends):
        g = region_of.get(sequence)
        if g is not None:
            members = members[~contains(stack.regions[g], thetas[members],
                                        slack=MEMBERSHIP_SLACK)]
        failed.append(members)
        failed_end.append(np.full(len(members), j))
    failed = np.concatenate(failed)
    order = np.argsort(failed)
    failed, failed_end = failed[order], np.concatenate(failed_end)[order]
    if len(failed):
        for i, j, row in zip(failed.tolist(), failed_end.tolist(), stack.locate(thetas[failed])):
            theta, host_ids = tuple(thetas[i]), row.nonzero()[0].tolist()
            if not host_ids:
                report.coverage_gaps.append(theta)
            else:
                report.mismatches.append((theta, ends[j][0], host_ids))

    report.mismatches.sort(key=lambda entry: entry[0])
    report.coverage_gaps.sort()
    return report


def _vertex(sequence, bounds: np.ndarray, m: int) -> np.ndarray:
    """Error rows most favorable to each step of a certified sequence.

    Row k is bounds[k] everywhere except on the row that step k adds or
    drops, where it is -bounds[k]: a smaller error on the chosen row helps
    it win, larger errors elsewhere keep the competition out, and a pass,
    keep or singular step wants every component at the upper bound. Dual
    errors enter through the working set's constraint rows, which is the
    labeling the certified sequence uses. A sequence that is no run of the
    automaton (decision_of) raises ValueError.
    """
    if any(state.terminal for state in sequence[:-1]):
        raise ValueError("unexpected terminal state mid-sequence")
    rows = np.repeat(bounds[:, None], m, axis=1)
    for k, (state, nxt) in enumerate(zip(sequence, sequence[1:])):
        index = decision_of(state, nxt)
        if index >= 0:
            rows[k, index] = -bounds[k]
    return rows


def search_realization(prob: MpQP, region: CertifiedRegion, theta,
                       model: ErrorModel, tol: Optional[Tolerances] = None):
    """Decide whether some admissible error sequence makes the solver trace
    this region's sequence at theta.

    Tries no error, then the per-step hypercube vertex of `_vertex`. Every
    decision is monotone in each component of its own step's error row, so
    if any admissible rows realize the sequence, the vertex does. Returns
    (found, witness), the witness being the error rows to hand to `run`,
    or (False, None) when no admissible error realizes the sequence. Raises
    ValueError when some step of the model is polyhedral or relative.
    """
    theta = np.asarray(theta, dtype=float).ravel()
    if not contains(region.region, theta, slack=MEMBERSHIP_SLACK):
        raise ValueError("theta lies outside the region")
    tol = tol or Tolerances()
    target = region.sequence
    vertex = _vertex(target, model.step_bounds(len(target) - 1), prob.m)
    for errors in (np.zeros((1, prob.m)), vertex):
        if run(prob, theta, errors, tol, model.perturb_dual).sequence == target:
            return True, errors
    return False, None
