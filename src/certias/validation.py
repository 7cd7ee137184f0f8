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

validate_conformance works in two passes. The draw pass takes every sample
from the generator in the order a one-sample-at-a-time loop would: the
parameter, then its error rows only if the parameter is judged. The judge
pass takes the judged parameters LOCATE_BLOCK at a time: it locates a
block with one matrix product and runs the solver on the whole block in
lockstep, which tests the block's membership once. The generator stream,
the draws and the report are the same as locating and judging each sample
on its own.

search_realization is exact for exact, hypercube and scheduled-hypercube
models. Each step's decision reads only its own error row and is monotone
in each component of it, so one hypercube vertex per step is the most
favorable admissible error: found=False proves that no admissible error
sequence makes the solver follow the region's sequence at that parameter.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from certias.certifier import CertificationResult, CertifiedRegion
from certias.geometry import (
    MEMBERSHIP_SLACK,
    bounding_box,
    contains,
    normalize_rows,
    product_rounding,
)
from certias.lpp import ErrorModel
from certias.mpqp import MpQP
from certias.solver import DUAL_CHECK, SLACK_CHECK, Tolerances, run

DELTA_MARGIN = 1e-7
# Judged samples per block, located with one matrix product and run in
# lockstep: on the double integrator's 888 region rows a block's product is
# about 1 MB.
LOCATE_BLOCK = 128


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
    """Every region's rows stacked once, so locating points is one product.

    A holds the raw rows region after region and rhs their right-hand sides
    plus MEMBERSHIP_SLACK, so the per-row test A theta <= rhs is the one
    `contains` makes with that slack. starts marks where each region with
    rows begins, and owner names the region of each row; a region without
    rows contains every point. unit_A/unit_b are the same rows with unit-norm
    coefficients, for the boundary-distance test. rounding bounds how far
    two roundings of a row's product with a theta can differ, per unit of
    max_j |theta_j| (geometry.product_rounding).
    """

    def __init__(self, result: CertificationResult):
        self.regions = [r.region for r in result.regions]
        counts = np.array([P.nrows for P in self.regions])
        self.A = np.vstack([P.A for P in self.regions])
        b = np.concatenate([P.b for P in self.regions])
        self.rhs = b + MEMBERSHIP_SLACK
        self.rowful = (counts > 0).nonzero()[0]
        self.starts = (np.cumsum(counts) - counts)[self.rowful]
        self.owner = np.repeat(np.arange(len(self.regions)), counts)
        self.unit_A, self.unit_b = normalize_rows(self.A, b)
        self.rounding = product_rounding(self.A)

    def near_boundary(self, theta: np.ndarray) -> bool:
        """Whether theta lies within DELTA_MARGIN (normalized) of any region row."""
        if not self.unit_A.size:
            return False
        gaps = self.unit_A @ theta
        gaps -= self.unit_b
        return bool(np.abs(gaps, out=gaps).min() < DELTA_MARGIN)

    def locate(self, thetas: np.ndarray) -> list[list[int]]:
        """Ids of the regions containing each row of thetas (slack
        MEMBERSHIP_SLACK), ascending: for each point, the regions `contains`
        accepts.

        The block takes one product, which may round a row's value
        differently from the region's own product in `contains`. Where a
        row's value lies within that rounding of its bound, `contains`
        decides for the row's region.
        """
        hosts = np.ones((len(thetas), len(self.regions)), dtype=bool)
        if self.starts.size:
            gaps = self.A @ thetas.T
            gaps -= self.rhs[:, None]
            hosts[:, self.rowful] = np.logical_and.reduceat(gaps <= 0.0, self.starts).T
            np.abs(gaps, out=gaps)
            doubt = gaps <= (self.rounding * np.abs(thetas).max())[:, None]
            for row, i in zip(*doubt.nonzero()):
                k = self.owner[row]
                hosts[i, k] = contains(self.regions[k], thetas[i], slack=MEMBERSHIP_SLACK)
        return [row.nonzero()[0].tolist() for row in hosts]


class _ErrorDraw:
    """Draws one sample's error rows, row k uniform within bounds[k] (from
    ErrorModel.step_bounds).

    Each run of equal nonzero bounds is one Generator.uniform call with
    scalar bounds; rows of bound 0 stay zero. The values and the
    generator's final state equal those of one rng.uniform(-b, b, size=m)
    call per step with a nonzero bound b, in step order: the generator
    fills a block in C order, element by element, from the same stream of
    doubles, and scalar bounds skip only the set-up of broadcasting arrays.
    """

    def __init__(self, bounds: np.ndarray, m: int):
        self.shape = (len(bounds), m)
        self.runs = []
        start = 0
        for bound, steps in itertools.groupby(bounds.tolist()):
            stop = start + len(list(steps))
            if bound != 0.0:
                self.runs.append((start, stop, bound))
            start = stop

    def __call__(self, rng: np.random.Generator) -> np.ndarray:
        errors = np.zeros(self.shape)
        for start, stop, bound in self.runs:
            errors[start:stop] = rng.uniform(-bound, bound,
                                             size=(stop - start, self.shape[1]))
        return errors


def _draw_point(rng: np.random.Generator, box: list[tuple[float, float]]) -> np.ndarray:
    """A point uniform in box, a list of (lo, hi) per coordinate.

    Each coordinate is one Generator.uniform call with scalar bounds, first
    coordinate first: the same doubles in the same order as one call with
    the box's bound arrays.
    """
    return np.array([rng.uniform(low, high) for low, high in box])


def validate_conformance(prob: MpQP, result: CertificationResult,
                         n_samples: int = 10000, seed: int = 0,
                         model: Optional[ErrorModel] = None) -> ValidationReport:
    """Sample parameters, run the solver, and compare realized sequences.

    Parameters are drawn uniformly from the bounding box of the parameter
    set; draws outside the set are counted and ignored, draws within
    DELTA_MARGIN (normalized) of any certified-region boundary are counted
    as skipped. Each remaining draw gets a fresh error sequence admissible
    under the result's model (or the `model` override) and its realized run
    must match the sequence of some certified region containing it.
    Raises ValueError when some step of the model is polyhedral or
    relative: those cannot be sampled.

    Deterministic for a fixed seed.
    """
    if result.problem_digest != prob.digest():
        raise ValueError("certification result belongs to a different problem")
    if model is None:
        model = ErrorModel.from_document(result.settings["error_model"])
    tol = Tolerances.from_document(result.settings)
    rng = np.random.default_rng(seed)
    lo, hi = bounding_box(prob.theta_set)
    box = list(zip(lo.tolist(), hi.tolist()))
    stack = _RegionStack(result)
    draw_errors = _ErrorDraw(model.step_bounds(2 * tol.iter_limit + 2), prob.m)
    report = ValidationReport(samples_total=n_samples)

    def judged():
        """Draw pass: count the samples outside the parameter set or near a
        region boundary, and yield (theta, error rows) for the others. A
        sample's error rows are drawn right after its parameter, and only
        when it is judged."""
        for _ in range(n_samples):
            theta = _draw_point(rng, box)
            if not contains(prob.theta_set, theta, slack=MEMBERSHIP_SLACK):
                report.samples_outside += 1
            elif stack.near_boundary(theta):
                report.samples_skipped_boundary += 1
            else:
                yield theta, draw_errors(rng)

    draws = judged()
    while block := list(itertools.islice(draws, LOCATE_BLOCK)):
        thetas = np.array([theta for theta, _ in block])
        hosts = stack.locate(thetas)
        runs = run(prob, thetas, np.array([errors for _, errors in block]), tol,
                   model.perturb_dual)
        for (theta, _), solved, host_ids in zip(block, runs, hosts):
            if not host_ids:
                report.coverage_gaps.append(tuple(theta))
            elif solved.sequence not in [result.regions[i].sequence for i in host_ids]:
                report.mismatches.append((tuple(theta), solved.sequence, host_ids))

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
    labeling the certified sequence uses.
    """
    rows = np.repeat(bounds[:, None], m, axis=1)
    for k, (state, nxt) in enumerate(zip(sequence, sequence[1:])):
        if state.mode not in (SLACK_CHECK, DUAL_CHECK):
            raise ValueError(f"unexpected mode {state.mode!r} mid-sequence")
        W, V = state.working_set, nxt.working_set
        if len(V) > len(W):
            rows[k, V[-1]] = -bounds[k]
        elif len(V) < len(W):
            # The dropped row sits where the two working sets first part.
            rows[k, next((w for w, v in zip(W, V) if w != v), W[-1])] = -bounds[k]
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
