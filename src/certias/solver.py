"""Pointwise dual active-set solver, written as an explicit state machine.

Each automaton step examines one intermediate vector. In slack_check mode
that is the perturbed constraint slack: if no component falls below the
primal tolerance the run ends optimal, otherwise the most violated row joins
the working set. In dual_check mode it is the multiplier vector of the
current working set: a sufficiently negative multiplier sends its row back
out. The same transition function drives the region certifier, so the two
must never be edited apart.

Perturbations model inexact slack evaluation: run takes a K x m array of
error rows, and step k adds row k (zero once the rows run out) to the slack
before it is compared against the tolerance. Multipliers are checked
exactly unless perturb_dual is set, in which case they see the working-set
components of the same row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from certias.geometry import MEMBERSHIP_SLACK, contains
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
    """

    working_set: tuple[int, ...]
    mode: str

    def __post_init__(self):
        object.__setattr__(self, "working_set", tuple(int(i) for i in self.working_set))
        if self.mode not in _MODES:
            raise ValueError(f"unknown mode {self.mode!r}")

    @property
    def terminal(self) -> bool:
        return self.mode in TERMINAL_MODES

    def to_document(self) -> dict:
        return {"working_set": list(self.working_set), "mode": self.mode}

    @classmethod
    def from_document(cls, doc: dict) -> "SolverState":
        return cls(doc["working_set"], doc["mode"])


@dataclass(frozen=True)
class Tolerances:
    """Solver tolerances. eps_dual defaults to eps_primal when left None."""

    eps_primal: float = 1e-6
    eps_dual: Optional[float] = None
    iter_limit: int = 15

    def __post_init__(self):
        if not 0 <= self.eps_primal < math.inf:
            raise ValueError("eps_primal must be finite and nonnegative")
        if self.eps_dual is not None and not 0 <= self.eps_dual < math.inf:
            raise ValueError("eps_dual must be finite and nonnegative")
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
    """Next automaton state after taking decision `index` in `state`.

    In slack_check mode, index >= 0 adds that constraint row and moves to
    dual_check; PASS_INDEX terminates optimal. In dual_check mode, index >= 0
    removes that row and PASS_INDEX keeps the working set; both return to
    slack_check. This single function is shared by the pointwise solver and
    the certifier.
    """
    W = state.working_set
    if state.mode == SLACK_CHECK:
        if index == PASS_INDEX:
            return SolverState(W, TERMINATED_OPTIMAL)
        return SolverState(W + (int(index),), DUAL_CHECK)
    if state.mode == DUAL_CHECK:
        if index == PASS_INDEX:
            return SolverState(W, SLACK_CHECK)
        if index not in W:
            raise ValueError(f"cannot drop row {index}: not in working set {W}")
        pos = W.index(int(index))
        return SolverState(W[:pos] + W[pos + 1:], SLACK_CHECK)
    raise ValueError(f"no transitions from terminal mode {state.mode!r}")


def _argmin_lowest_index(values: np.ndarray, labels: Sequence[int]) -> int:
    """Label of the smallest value; exact ties resolved by the lowest label."""
    values = values.tolist()
    best = min(values)
    return min(label for value, label in zip(values, labels) if value == best)


def step(prob: MpQP, state: SolverState, theta, epsilon, tol: Tolerances,
         perturb_dual: bool = False) -> tuple[SolverState, int, np.ndarray]:
    """One automaton step at a fixed parameter.

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
    if state.terminal:
        raise ValueError("cannot step a terminal state")
    maps = subproblem_maps(prob, state.working_set)
    if maps.singular:
        return SolverState(state.working_set, DEGENERATE), NO_INDEX, np.zeros(0)
    theta = np.asarray(theta, dtype=float).ravel()
    is_slack = state.mode == SLACK_CHECK
    if is_slack or perturb_dual:
        epsilon = np.asarray(epsilon, dtype=float).ravel()
        if epsilon.size != prob.m:
            raise ValueError(f"epsilon must have {prob.m} entries")

    if is_slack:
        slack = maps.mu_map(theta) + epsilon
        violated = np.nonzero(slack < -tol.eps_primal)[0]
        if violated.size == 0:
            return transition(state, PASS_INDEX), PASS_INDEX, slack
        j = _argmin_lowest_index(slack[violated], violated.tolist())
        return transition(state, j), j, slack

    lam = maps.lambda_map(theta)
    if perturb_dual:
        lam = lam + epsilon[list(state.working_set)]
    return _dual_decision(state, lam, tol)


@dataclass
class RunResult:
    """Trace of one pointwise solve.

    sequence lists every executed state and ends with the terminal marker.
    status is the terminal mode; iterations counts slack-check states. x is
    the final iterate, None when the run ended degenerate.
    """

    sequence: list[SolverState]
    status: str
    iterations: int
    x: Optional[np.ndarray]
    snapshots: list[np.ndarray] = field(default_factory=list)


def run(prob: MpQP, theta, errors=None, tol: Optional[Tolerances] = None,
        perturb_dual: bool = False) -> RunResult:
    """Run the solver at one parameter value until it terminates.

    theta must lie in the problem's parameter set (within MEMBERSHIP_SLACK).
    errors is a K x m array: automaton step k adds row k to its slack (and,
    with perturb_dual, the row's working-set components to its multipliers);
    steps past row K-1 add zero, as does every step when errors is None.
    Iterations are counted as slack-check steps and capped at
    tol.iter_limit, after which the run ends with TERMINATED_ITER_LIMIT.
    """
    tol = tol or Tolerances()
    zero = np.zeros(prob.m)
    errors = np.empty((0, prob.m)) if errors is None else np.asarray(errors, dtype=float)
    if errors.ndim != 2 or errors.shape[1] != prob.m:
        raise ValueError(f"errors must be a 2-D array with {prob.m} columns")
    theta = np.asarray(theta, dtype=float).ravel()
    if not contains(prob.theta_set, theta, slack=MEMBERSHIP_SLACK):
        raise ValueError("theta lies outside the parameter set")

    state = SolverState((), SLACK_CHECK)
    sequence: list[SolverState] = []
    snapshots: list[np.ndarray] = []
    slack_done = 0
    k = 0
    while True:
        if state.terminal:
            sequence.append(state)
            break
        if state.mode == SLACK_CHECK and slack_done == tol.iter_limit:
            sequence.append(SolverState(state.working_set, TERMINATED_ITER_LIMIT))
            break
        sequence.append(state)
        was_slack = state.mode == SLACK_CHECK
        eps = errors[k] if k < len(errors) else zero
        nxt, _, snap = step(prob, state, theta, eps, tol, perturb_dual)
        snapshots.append(snap)
        if was_slack:
            slack_done += 1
        state = nxt
        k += 1

    final = sequence[-1]
    x = None
    if final.mode != DEGENERATE:
        maps = subproblem_maps(prob, final.working_set)
        if not maps.singular:
            x = maps.x_map(theta)
    return RunResult(sequence=sequence, status=final.mode,
                     iterations=slack_done, x=x, snapshots=snapshots)


def _dual_decision(state: SolverState, lam: np.ndarray, tol: Tolerances
                   ) -> tuple[SolverState, int, np.ndarray]:
    if lam.size and lam.min() < -tol.dual:
        neg = np.nonzero(lam < -tol.dual)[0]
        i = _argmin_lowest_index(lam[neg], [state.working_set[p] for p in neg])
        return transition(state, i), i, lam
    return transition(state, PASS_INDEX), PASS_INDEX, lam
