"""Region-wise simulation of the solver automaton.

Where the pointwise solver evaluates one decision vector and branches, the
certifier splits the current parameter region into the subsets on which each
branch is taken, in the same loop (solver._explore) and with the same
transition rule. Exploring the resulting tree to its leaves, step by step,
yields, for every parameter in the initial set, the exact
state sequence the solver will execute and hence its iteration count, before
the solver ever runs.

With a nonzero error model the per-branch subsets are inflated by the lpp
module instead of sliced exactly: the certifier asks the model for the one a
check at step k sees (ErrorModel.at) and hands it to lift_partition_project,
which owns every rule about error kinds. The subsets may then overlap; each
leaf still certifies that its sequence is realizable only within its region,
so a parameter covered by several leaves gets the worst case over all of
them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from certias.geometry import Polyhedron, feasible_point, lp_call_count, remove_redundant
from certias.lpp import (KIND_HYPERCUBE, KIND_NONE, ErrorModel, lift_partition_project,
                         lift_rows)
from certias.mpqp import MpQP, subproblem_maps
from certias.solver import (
    DEGENERATE,
    DUAL_CHECK,
    NO_INDEX,
    PASS_INDEX,
    SLACK_CHECK,
    TERMINATED_ITER_LIMIT,
    TERMINATED_OPTIMAL,
    SolverState,
    Tolerances,
    _explore,
    decision_of,
    iterations,
    transition,
)

__all__ = [
    "BudgetExceededError",
    "CertificationResult",
    "CertifiedRegion",
    "certify",
    "halfplane_family",
    "partition_step",
    "sequence_key",
    "transition",
]


class BudgetExceededError(RuntimeError):
    """Raised when the live-region frontier outgrows the configured cap."""


_MODE_RANK = {
    SLACK_CHECK: 0,
    DUAL_CHECK: 1,
    TERMINATED_OPTIMAL: 2,
    TERMINATED_ITER_LIMIT: 3,
    DEGENERATE: 4,
}

_STATUS_BY_MODE = {
    TERMINATED_OPTIMAL: "optimal",
    TERMINATED_ITER_LIMIT: "iter_limit",
    DEGENERATE: "degenerate",
}


def sequence_key(sequence) -> tuple:
    """Sort key making region order independent of exploration order."""
    return tuple((_MODE_RANK[s.mode], s.working_set) for s in sequence)


@dataclass
class CertifiedRegion:
    """A leaf of the exploration tree.

    sequence lists executed states plus the final terminal marker, exactly
    as solver.run reports it for any parameter inside the region. status
    and iterations are read off the sequence: the status its marker names,
    and iterations(sequence), the certified iteration count.
    """

    region: Polyhedron
    sequence: tuple[SolverState, ...]

    @property
    def status(self) -> str:
        return _STATUS_BY_MODE[self.sequence[-1].mode]

    @property
    def iterations(self) -> int:
        return iterations(self.sequence)

    def to_document(self) -> dict:
        return {**self.region.to_document(),
                "sequence": [s.to_document() for s in self.sequence],
                "status": self.status, "iterations": self.iterations}

    @classmethod
    def from_document(cls, doc: dict, steps: Optional[set] = None) -> "CertifiedRegion":
        """Leaf from its document. Raises ValueError unless the sequence is
        a run of the automaton, from the empty slack check to its one
        terminal state (decision_of), and gives the document's status and
        iterations. steps, shared by a document's leaves, holds the pairs of
        states already found to follow one another, so each is checked once."""
        leaf = cls(Polyhedron.from_document(doc),
                   tuple(SolverState.from_document(s) for s in doc["sequence"]))
        if not leaf.sequence:
            raise ValueError("a certified sequence cannot be empty")
        if not leaf.sequence[-1].terminal or any(s.terminal for s in leaf.sequence[:-1]):
            raise ValueError("a certified sequence must end in its one terminal state")
        if leaf.sequence[0] != SolverState((), SLACK_CHECK):
            raise ValueError("a certified sequence must start at the empty slack check")
        steps = set() if steps is None else steps
        for pair in zip(leaf.sequence, leaf.sequence[1:]):
            if pair not in steps:
                decision_of(*pair)
                steps.add(pair)
        claimed, derived = (doc["status"], doc["iterations"]), (leaf.status, leaf.iterations)
        if claimed != derived or type(doc["iterations"]) is not int:
            raise ValueError(f"status and iterations {claimed} disagree with the "
                             f"sequence, which gives {derived}")
        return leaf


@dataclass
class CertificationResult:
    """Certified leaves; settings holds the tolerances and the error model's
    document, stats the counters. The document holds all of it, so a result
    read back with from_document is the result certify returned."""

    regions: list[CertifiedRegion]
    problem_digest: str
    settings: dict
    stats: dict

    def to_document(self) -> dict:
        return {"problem_digest": self.problem_digest, "settings": self.settings,
                "regions": [r.to_document() for r in self.regions],
                "stats": self.stats}

    @classmethod
    def from_document(cls, doc: dict) -> "CertificationResult":
        """Result from a partition document; every matrix reads back bit for
        bit. Raises KeyError, ValueError or TypeError on a malformed one,
        and ValueError on one without regions: certify always returns at
        least one leaf. A leaf obeys the document's iteration cap L as
        certify does: at most 2L + 1 states, and the cap marker at exactly
        2L + 1."""
        cap = 2 * Tolerances.from_document(doc["settings"]).iter_limit + 1
        if not doc["regions"]:
            raise ValueError("partition has no regions")
        steps: set = set()
        regions = [CertifiedRegion.from_document(r, steps) for r in doc["regions"]]
        for leaf in regions:
            states = len(leaf.sequence)
            if states > cap or (leaf.status == "iter_limit" and states != cap):
                raise ValueError(f"a sequence of {states} states with status "
                                 f"{leaf.status!r} breaks the cap of {cap} states")
        return cls(regions=regions, problem_digest=doc["problem_digest"],
                   settings=doc["settings"], stats=doc["stats"])


def _argmin_family(n: int, pick: int, threshold: float) -> tuple[np.ndarray, np.ndarray]:
    """Half-planes selecting component `pick` as the winner.

    Rows: z_pick <= -threshold, and z_pick <= z_r for every other r. Ties on
    the pairwise boundaries are shared between families; the pointwise rule
    resolves them by lowest index, so shared boundaries are where certified
    regions may touch.
    """
    A = np.zeros((n, n))
    b = np.zeros(n)
    A[0, pick] = 1.0
    b[0] = -threshold
    row = 1
    for other in range(n):
        if other != pick:
            A[row, pick] = 1.0
            A[row, other] = -1.0
            row += 1
    return A, b


def halfplane_family(state: SolverState, m: int, tol: Tolerances
                     ) -> list[tuple[np.ndarray, np.ndarray, int]]:
    """Decision half-planes for a state, as (A, b, index) triples over the
    state's decision vector (slack: length m; dual: length of working set).

    The first triple is the pass branch (terminate, or keep the working
    set); the rest pick each candidate component as the most negative one
    below the threshold. Indices are constraint rows, PASS_INDEX for pass.
    """
    if state.mode == SLACK_CHECK:
        n, threshold = m, tol.eps_primal
        labels = list(range(m))
    elif state.mode == DUAL_CHECK:
        n, threshold = len(state.working_set), tol.dual
        labels = list(state.working_set)
    else:
        raise ValueError(f"no half-plane family for mode {state.mode!r}")
    fams = [(-np.eye(n), threshold * np.ones(n), PASS_INDEX)]
    for pos in range(n):
        A, b = _argmin_family(n, pos, threshold)
        fams.append((A, b, labels[pos]))
    return fams


def partition_step(region: Polyhedron, state: SolverState, prob: MpQP,
                   tol: Tolerances, model: ErrorModel, k: int,
                   point: Optional[np.ndarray] = None,
                   lifted: Optional[dict] = None
                   ) -> tuple[list[tuple[int, Polyhedron, np.ndarray]], int]:
    """Split a region by the decisions the state can take inside it: the
    region form of the lockstep's check.

    Returns (branches, pruned): an (index, subregion, point) triple for each
    nonempty branch, and the number of empty ones. Subregions come back in
    reduced form; point is the one the subregion's emptiness test found.
    `point`, a point of the region such as the one its own test found,
    starts each branch's emptiness test (feasible_point's `start`). With a
    zero model the subregions tile the region exactly; with errors they
    cover it and overlap. A singular subproblem takes no decision: its one
    branch is (NO_INDEX, region, point), which transition ends DEGENERATE.

    lifted, a dict one certify call shares among its steps (a fresh one
    when None), is the one memo of what a check needs, keyed by (working
    set, mode, model.at(k)); the model is None for a multiplier check
    without perturb_dual, which sees exact arithmetic at every step. Each
    entry is built once: the check's labels, half-planes and map, the model
    it sees (ErrorModel.at, whose polyhedral slice solves LPs), and, when
    that model is of kind none or hypercube, the families' rows over theta
    (lift_rows), which depend on no region and are stacked onto each one as
    region.intersect would stack them. Relative and polyhedral models are
    lifted region by region (lift_partition_project). The model is keyed
    by identity, since models that compare equal may lift to different
    bits (a bound of -0.0 equals 0.0, yet -0.0 + -0.0 is -0.0 where
    -0.0 + 0.0 is +0.0); a schedule entry or the model itself lives for the
    whole call, so no stored id is reused within it. Nothing outlives the
    call: stats.lp_calls depends on the call alone, and one model may serve
    any number of calls.
    """
    maps = subproblem_maps(prob, state.working_set)
    if maps.singular:
        return [(NO_INDEX, region, point)], 0
    lifted = {} if lifted is None else lifted
    dual = state.mode == DUAL_CHECK
    key = (state.working_set, state.mode,
           id(model.at(k) if model.perturb_dual or not dual else None))
    memo = lifted.get(key)
    if memo is None:
        zmap = maps.mu_map if state.mode == SLACK_CHECK else maps.lambda_map
        family = halfplane_family(state, prob.m, tol)
        halfplanes = [(A, b) for A, b, _ in family]
        mk = model.at(k, state.working_set if dual else None)
        rows = (lift_rows(halfplanes, zmap, mk)
                if mk.kind in (KIND_NONE, KIND_HYPERCUBE) else None)
        labels = [idx for _, _, idx in family]
        memo = lifted[key] = (labels, halfplanes, zmap, mk, rows)
    labels, halfplanes, zmap, mk, rows = memo
    if rows is None:
        kids = lift_partition_project(region, halfplanes, zmap, mk)
    else:
        kids = [region._stacked(A_t, b_t) for A_t, b_t in rows]
    out = []
    for idx, kid in zip(labels, kids):
        x0 = feasible_point(kid, start=point)
        if x0 is None:
            continue
        out.append((idx, remove_redundant(kid, point=x0), x0))
    return out, len(labels) - len(out)


def certify(prob: MpQP, tol: Optional[Tolerances] = None,
            model: Optional[ErrorModel] = None, *, workers: int = 1,
            max_live: int = 20000) -> CertificationResult:
    """Explore the whole parameter set and certify every leaf.

    certify is solver._explore, the lockstep's step-by-step loop, over
    regions: its items are (region, the point that proved the region
    nonempty, None at the root), and its check splits each region live at
    step k by partition_step. Every next state comes from transition, and
    the cap marker from _explore, as in the lockstep; a leaf is its region
    and its sequence, whose status and iterations it reads off as run
    does. The splits share one memo of what each check needs
    (partition_step's `lifted`), freed when certify returns. The result is
    canonically sorted by sequence, so it does not depend on exploration
    order. stats["explored"] counts the partition_step calls and the capped
    leaves.

    max_live bounds the regions live at one step, to guard against
    error-model-induced blowup (BudgetExceededError). It does not bound
    total work: a frontier that cycles under errors stays within it while
    the work grows linearly with iter_limit. A polyhedral set of the wrong
    dimension, in the model or in any schedule entry, raises ValueError
    before anything is explored.

    certify runs on the calling thread, and workers is accepted for
    compatibility only. Calls on several threads at once are safe: each
    one's stats["lp_calls"] counts the LPs of that call alone.
    """
    tol = tol or Tolerances()
    model = model or ErrorModel()
    model.check_dimension(prob.m)
    lp_before = lp_call_count()
    lifted: dict = {}
    calls = pruned = 0

    def check(k, live):
        nonlocal calls, pruned
        if len(live) > max_live:
            raise BudgetExceededError(
                f"live regions ({len(live)}) exceed max_live={max_live}")
        calls += len(live)
        for _, state, (region, point) in live:
            kids, cut = partition_step(region, state, prob, tol, model, k, point, lifted)
            pruned += cut
            yield [(idx, (kid, x0)) for idx, kid, x0 in kids]

    ends = _explore((remove_redundant(prob.theta_set), None), check, tol)
    finals = sorted((CertifiedRegion(region, seq) for seq, (region, _) in ends),
                    key=lambda r: sequence_key(r.sequence))
    settings = {**tol.to_document(), "error_model": model.to_document()}
    stats = {
        "regions": len(finals),
        "explored": calls + sum(r.status == "iter_limit" for r in finals),
        "pruned": pruned,
        "lp_calls": lp_call_count() - lp_before,
    }
    return CertificationResult(regions=finals, problem_digest=prob.digest(),
                               settings=settings, stats=stats)
