"""Pointwise dual active-set solver, written as an explicit state machine.

Each automaton step examines one intermediate vector. In slack_check mode
that is the perturbed constraint slack: if no component falls below the
primal tolerance the run ends optimal, otherwise the most violated row joins
the working set. In dual_check mode it is the multiplier vector of the
current working set: a sufficiently negative multiplier sends its row back
out.

Perturbations model inexact slack evaluation: run takes a K x m array of
error rows, and step k adds row k (zero once the rows run out) to the slack
before it is compared against the tolerance. Multipliers are checked
exactly unless perturb_dual is set, in which case they see the working-set
components of the same row.

One loop (_explore) runs the automaton for points and regions alike: at
step k it asks a check to split each live group by decision, takes each
part's next state from transition, which also ends a singular check
DEGENERATE, and caps the groups still live at step 2 * iter_limit. It
takes one of two checks. The lockstep (_lockstep) is the one pointwise
engine: run is its block of one, and validation drives it on a block. Its
check groups the live parameters by solver path, each group an array of
indices into the block; each group looks its subproblem maps up once and
decides every member with one vectorized rule (_decide). The lockstep
reads error rows from a row source, once per step that reads them, for the
step's live parameters in ascending order. The certifier's check is
partition_step, which splits a region instead. The maps evaluate elementwise in a fixed order
(AffineMap), so a parameter's run is bit for bit the same in any block.
run and the certifier count iterations with one rule (iterations).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from certias.geometry import MEMBERSHIP_SLACK, contains
from certias.lpp import check_number
from certias.mpqp import MpQP, subproblem_maps

SLACK_CHECK = "slack_check"
DUAL_CHECK = "dual_check"
TERMINATED_OPTIMAL = "terminated_optimal"
TERMINATED_ITER_LIMIT = "terminated_iter_limit"
DEGENERATE = "degenerate"

TERMINAL_MODES = frozenset({TERMINATED_OPTIMAL, TERMINATED_ITER_LIMIT, DEGENERATE})
_MODES = frozenset({SLACK_CHECK, DUAL_CHECK}) | TERMINAL_MODES

# Transition index meaning "stop checking": terminate in slack_check mode,
# keep the working set in dual_check mode.
PASS_INDEX = -1
# Index reported when no decision was taken (singular subproblem).
NO_INDEX = -2


@dataclass(frozen=True)
class SolverState:
    """One automaton state: the ordered working set plus the check mode.

    The working set lists constraint rows in insertion order. Entries are
    normally distinct; a perturbed slack can re-add a working row, which the
    next subproblem solve then reports as singular.

    The hash is computed once, at construction: sequences (tuples of
    states) key the certified-sequence tables, which hash them state by
    state.
    """

    working_set: tuple[int, ...]
    mode: str
    _hash: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "working_set", tuple(map(int, self.working_set)))
        if self.mode not in _MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        object.__setattr__(self, "_hash", hash((self.working_set, self.mode)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # A str hash differs between processes, so pickling and copying
        # rebuild through the constructor instead of restoring _hash.
        return type(self), (self.working_set, self.mode)

    @property
    def terminal(self) -> bool:
        return self.mode in TERMINAL_MODES

    def to_document(self) -> dict:
        return {"working_set": list(self.working_set), "mode": self.mode}

    @classmethod
    def from_document(cls, doc: dict) -> "SolverState":
        # Entries are checked here, not in __post_init__: that runs on every transition.
        working_set = doc["working_set"]
        if not all(isinstance(i, numbers.Integral) and not isinstance(i, bool)
                   for i in working_set):
            raise ValueError(f"working-set entries must be integers, got {working_set!r}")
        return cls(working_set, doc["mode"])


@dataclass(frozen=True)
class Tolerances:
    """Solver tolerances. eps_dual defaults to eps_primal when left None."""

    eps_primal: float = 1e-6
    eps_dual: Optional[float] = None
    iter_limit: int = 15

    def __post_init__(self):
        # Numbers a partition document can hold, as for error bounds.
        if any(isinstance(v, bool) for v in (self.eps_primal, self.eps_dual, self.iter_limit)):
            raise ValueError("tolerances must be numbers, not booleans")
        # eps_dual defaults to eps_primal, which is checked first.
        for name, value in (("eps_primal", self.eps_primal), ("eps_dual", self.dual)):
            check_number(name, value)
            if not 0 <= value < math.inf:
                raise ValueError(f"{name} must be finite and nonnegative")
        if not isinstance(self.iter_limit, int):
            raise ValueError(f"iter_limit must be an integer, not {self.iter_limit!r}")
        if self.iter_limit < 1:
            raise ValueError("iter_limit must be at least 1")

    @property
    def dual(self) -> float:
        return self.eps_primal if self.eps_dual is None else self.eps_dual

    def to_document(self) -> dict:
        """The partition document's tolerance settings; eps_dual is resolved."""
        return {"eps_primal": self.eps_primal, "eps_dual": self.dual,
                "iter_limit": self.iter_limit}

    @classmethod
    def from_document(cls, doc: dict) -> "Tolerances":
        return cls(eps_primal=doc["eps_primal"], eps_dual=doc["eps_dual"],
                   iter_limit=doc["iter_limit"])


def transition(state: SolverState, index: int) -> SolverState:
    """Next automaton state after taking decision `index` in `state`, the one
    rule the pointwise solver and the certifier share.

    In slack_check mode, index >= 0 adds that constraint row and moves to
    dual_check; PASS_INDEX terminates optimal. In dual_check mode, index >= 0
    removes that row and PASS_INDEX keeps the working set; both return to
    slack_check. NO_INDEX (a singular subproblem) ends DEGENERATE from either
    mode. Any other index, or any index in a terminal state, raises ValueError.
    """
    W = state.working_set
    if state.terminal:
        raise ValueError(f"no transitions from terminal mode {state.mode!r}")
    if index == NO_INDEX:
        return SolverState(W, DEGENERATE)
    if index == PASS_INDEX:
        return SolverState(W, TERMINATED_OPTIMAL if state.mode == SLACK_CHECK else SLACK_CHECK)
    if index < 0:
        raise ValueError(f"no decision {index}")
    if state.mode == SLACK_CHECK:
        return SolverState(W + (int(index),), DUAL_CHECK)
    if index not in W:
        raise ValueError(f"cannot drop row {index}: not in working set {W}")
    pos = W.index(int(index))
    return SolverState(W[:pos] + W[pos + 1:], SLACK_CHECK)


def decision_of(state: SolverState, nxt: SolverState) -> int:
    """The decision i with transition(state, i) == nxt, a cap marker standing
    for the slack check it replaces; ValueError when there is none. A longer
    nxt added its last row, a shorter one dropped the row where the working
    sets first part, one of equal length passed or ended DEGENERATE."""
    W, V = state.working_set, nxt.working_set
    if len(V) == len(W) + 1:
        index = V[-1]
    elif len(V) == len(W) - 1:
        index = next((w for w, v in zip(W, V) if w != v), W[-1])
    else:
        index = NO_INDEX if nxt.mode == DEGENERATE else PASS_INDEX
    want = SolverState(V, SLACK_CHECK) if nxt.mode == TERMINATED_ITER_LIMIT else nxt
    if transition(state, index) != want:
        raise ValueError(f"no decision takes {state} to {nxt}")
    return index


def iterations(sequence: Sequence[SolverState]) -> int:
    """The slack checks of a sequence of executed states plus its terminal
    marker. Modes alternate from a slack check, so slack checks sit at the
    even positions. The marker follows the last state, at j, giving j + 2
    states and j // 2 + 1 slack checks, or replaces the capped slack check
    at an even k, giving k + 1 states and k // 2: n states hold n // 2."""
    return len(sequence) // 2


def _decide(values: np.ndarray, labels: Sequence[int], threshold: float) -> np.ndarray:
    """The decision of each row of values: among the row's values below
    -threshold, the label of the smallest, exact ties going to the lowest
    label; PASS_INDEX when no value is below.

    values has one row per parameter and one column per label. Labels are
    constraint rows: 0..m-1 for a slack check, the working set in insertion
    order for a dual check, so a tie goes to the lowest row, not to the
    first column. The columns are put in ascending label order, which only
    a working set not added in row order needs; one argmin then finds each
    row's first smallest value, so its lowest label. No labels, an empty
    working set, give PASS_INDEX.
    """
    labels = np.asarray(labels)
    if not labels.size:
        return np.full(len(values), PASS_INDEX)
    if (labels[1:] < labels[:-1]).any():
        order = labels.argsort(kind="stable")
        labels, values = labels[order], values[:, order]
    masked = np.where(values < -threshold, values, np.inf)
    pick = masked.argmin(axis=1)
    below = masked[np.arange(len(pick)), pick] < np.inf
    return np.where(below, labels[pick], PASS_INDEX)


def _check(prob: MpQP, state: SolverState, thetas: np.ndarray, rows: Optional[np.ndarray],
           tol: Tolerances, perturb_dual: bool) -> tuple[np.ndarray, np.ndarray]:
    """Decide the non-terminal `state` at each row of thetas (s x n_theta).

    rows holds each parameter's error row for this step (s x m); an exact
    dual check does not read it. Returns the s decisions, NO_INDEX on a
    singular subproblem, and the s x n vectors they were based on.
    """
    maps = subproblem_maps(prob, state.working_set)
    if maps.singular:
        return np.full(len(thetas), NO_INDEX), np.zeros((len(thetas), 0))
    if state.mode == SLACK_CHECK:
        z = maps.mu_map(thetas)
        z += rows
        return _decide(z, np.arange(prob.m), tol.eps_primal), z
    W = state.working_set
    z = maps.lambda_map(thetas)
    if perturb_dual:
        z += rows[:, list(W)]
    return _decide(z, W, tol.dual), z


def step(prob: MpQP, state: SolverState, theta, epsilon, tol: Tolerances,
         perturb_dual: bool = False) -> tuple[SolverState, int, np.ndarray]:
    """One automaton step at a fixed parameter: the lockstep's check on a
    block of one. A terminal state raises ValueError (transition).

    Args:
        prob: problem instance.
        state: current non-terminal state.
        theta: parameter vector.
        epsilon: length-m perturbation added to the slack (slack_check mode)
            and, when perturb_dual is set, whose working-set components are
            added to the multipliers (dual_check mode).
        tol: tolerances in effect.
        perturb_dual: whether dual checks see epsilon too.

    Returns:
        (next_state, chosen_index, snapshot) where snapshot is the vector the
        decision was based on. chosen_index is the added or dropped row,
        PASS_INDEX for terminate/keep, NO_INDEX on a singular subproblem.
    """
    theta = np.asarray(theta, dtype=float).ravel()
    rows = None
    if state.mode == SLACK_CHECK or perturb_dual:
        rows = np.asarray(epsilon, dtype=float).reshape(1, -1)
        if rows.size != prob.m:
            raise ValueError(f"epsilon must have {prob.m} entries")
    (index,), (snapshot,) = _check(prob, state, theta[None], rows, tol, perturb_dual)
    index = int(index)
    return transition(state, index), index, snapshot


@dataclass
class RunResult:
    """Trace of one pointwise solve.

    sequence lists every executed state and ends with the terminal marker.
    status and iterations are read off it: the marker's mode and
    iterations(sequence). x is the final iterate, None when the run ended
    degenerate.
    """

    sequence: tuple[SolverState, ...]
    x: Optional[np.ndarray]
    snapshots: list[np.ndarray] = field(default_factory=list)

    @property
    def status(self) -> str:
        return self.sequence[-1].mode

    @property
    def iterations(self) -> int:
        return iterations(self.sequence)


def run(prob: MpQP, theta, errors=None, tol: Optional[Tolerances] = None,
        perturb_dual: bool = False) -> RunResult:
    """Run the solver at one parameter until it terminates: the lockstep on
    a block of one.

    theta is a parameter vector of the problem's parameter set (within
    MEMBERSHIP_SLACK). errors is a K x m array of error rows: automaton
    step k adds row k to its slack (and, with perturb_dual, the row's
    working-set components to its multipliers); steps past row K-1 add
    zero, as does every step when errors is None. Iterations (slack
    checks) are capped at tol.iter_limit, after which the run ends with
    TERMINATED_ITER_LIMIT. Any other shape of theta or errors raises
    ValueError.
    """
    tol = tol or Tolerances()
    theta = np.asarray(theta, dtype=float).ravel()
    errors = np.zeros((0, prob.m)) if errors is None else np.asarray(errors, dtype=float)
    if errors.ndim != 2 or errors.shape[1] != prob.m:
        raise ValueError(f"errors must be a 2-D array with {prob.m} columns")
    if not contains(prob.theta_set, theta, slack=MEMBERSHIP_SLACK):
        raise ValueError("theta lies outside the parameter set")

    def rows_at(k, live):
        return errors[k:k + 1] if k < len(errors) else np.zeros((1, prob.m))

    blocks: list[tuple[np.ndarray, np.ndarray]] = []
    ((sequence, _),) = _lockstep(prob, theta[None], rows_at, tol, perturb_dual, blocks)
    end = sequence[-1]
    x = None if end.mode == DEGENERATE else \
        subproblem_maps(prob, end.working_set).x_map(theta[None])[0]
    return RunResult(sequence=sequence, x=x, snapshots=[z[0] for _, z in blocks])


def _explore(root, check, tol: Tolerances) -> list:
    """The automaton run on groups, step by step: the one loop of the
    lockstep and of the certifier.

    A live group is (path, state, item): path is the tuple of states run
    so far, state the one run next, item what the check splits (member
    indices for the lockstep, a (region, point) pair for the certifier).
    At step k, check(k, live) gives each live group's branches, in order:
    (index, item) pairs, each the decision index taken on its item. Each
    next state comes from transition; a terminal one ends its branch.
    Step k is a slack check when k is even (see iterations), so a group
    still live at step 2 * iter_limit has made iter_limit slack checks and
    ends there with the cap marker, which nothing else builds.

    Returns the (sequence, item) of every ended branch, sequence being its
    path plus its terminal marker.
    """
    ends: list = []
    live = [((), SolverState((), SLACK_CHECK), root)]
    for k in range(2 * tol.iter_limit):
        if not live:
            break
        moved = []
        for (path, state, _), branches in zip(live, check(k, live)):
            path += (state,)
            for index, item in branches:
                nxt = transition(state, index)
                if nxt.terminal:
                    ends.append(((*path, nxt), item))
                else:
                    moved.append((path, nxt, item))
        live = moved
    return ends + [((*path, SolverState(state.working_set, TERMINATED_ITER_LIMIT)), item)
                   for path, state, item in live]


def _lockstep(prob: MpQP, thetas: np.ndarray, rows_at, tol: Tolerances,
              perturb_dual: bool, blocks: Optional[list] = None) -> list:
    """The pointwise solver on a block, grouped by solver path: _explore
    with items the members' indices into the block, ascending. Step k
    checks each live group once (_check) and splits it by decision. Groups
    never merge, so every member of a group shares one path.

    rows_at(k, live) is the row source: it returns the error rows of step
    k, one per entry of live, the step's live indices in ascending order.
    It is called once for each step that reads error rows, every slack
    check and, with perturb_dual, every dual check, and never for an exact
    dual check.

    Returns ends, the (sequence, members) of each finished group, sequence
    being its path plus the terminal marker (the cap's included). When
    blocks is given, (members, z) is appended to it for each check in step
    order, z holding the vectors its members' decisions were based on, row
    by row: run reads its snapshots from it.
    """
    where = np.empty(len(thetas), dtype=np.intp)

    def check(k, live):
        rows = None
        if k % 2 == 0 or perturb_dual:
            indices = np.sort(np.concatenate([members for _, _, members in live]))
            rows = rows_at(k, indices)
            where[indices] = np.arange(len(indices))
        for _, state, members in live:
            decisions, z = _check(prob, state, thetas[members],
                                  None if rows is None else rows[where[members]],
                                  tol, perturb_dual)
            if blocks is not None:
                blocks.append((members, z))
            distinct = set(decisions.tolist())
            yield [(index, members if len(distinct) == 1 else members[decisions == index])
                   for index in distinct]

    return _explore(np.arange(len(thetas)), check, tol)
