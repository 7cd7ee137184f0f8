"""Error-aware region splitting, and every rule of the error model.

A partition step asks, for each candidate decision i, where in parameter
space the decision vector z(theta) lands inside the half-plane set
A_i z <= b_i. When z is evaluated with an additive error drawn from a known
set, the honest answer is the projection of the lifted set

    {(theta, eps) : A_i (z(theta) + eps) <= b_i, eps in E}

onto theta. ErrorModel.at decides which set E a check sees: the schedule's
entry for the step, and for a multiplier check either no error or the
set's slice on the working set. lift_partition_project then inflates each
family by that set, in one loop over the four kinds: nothing for exact
arithmetic, a closed-form right-hand-side relaxation for a sup-norm ball,
and Fourier-Motzkin elimination for a general polyhedral E. A relative
bound is first converted, per region, to a sup-norm ball by bounding |z|
over the region with a pair of linear programs per component (rel_to_abs).
The lift itself, lift_rows, takes no region: its rows are stacked onto
the region afterwards. ErrorModel.step_bounds gives the per-step hypercube
bounds that pointwise runs draw their error rows from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from certias.geometry import GeometryError, Polyhedron, contains, project_fm, solve_lp
from certias.mpqp import AffineMap

KIND_NONE = "none"
KIND_HYPERCUBE = "hypercube"
KIND_POLYHEDRAL = "polyhedral"
KIND_RELATIVE = "relative"
# Every kind, with the one document key that carries its size.
_KINDS = {KIND_NONE: None, KIND_HYPERCUBE: "bound", KIND_POLYHEDRAL: "set",
          KIND_RELATIVE: "rel_bound"}


@dataclass(frozen=True)
class ErrorModel:
    """Description of the additive evaluation error, one of four kinds.

    none       the error is identically zero
    hypercube  componentwise |eps_j| <= bound
    polyhedral eps ranges over `set`, a polyhedron containing the origin
    relative   componentwise |eps_j| <= rel_bound * max |z| over the region,
               converted to a hypercube bound region by region

    A bound or rel_bound that is not a finite nonnegative number (a bool is
    not one), or a nonzero bound, a nonzero rel_bound or a set given to a
    kind that does not take it, raises ValueError.

    schedule, when given, overrides the model per automaton step: entry k
    applies at step k, and steps past the end fall back to this model.
    perturb_dual extends the error to multiplier checks (the same set) at
    every step; schedule entries cannot set it.
    """

    kind: str = KIND_NONE
    bound: float = 0.0
    set: Optional[Polyhedron] = None
    rel_bound: float = 0.0
    schedule: Optional[tuple["ErrorModel", ...]] = None
    perturb_dual: bool = False

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown error model kind {self.kind!r}")
        check_number("bound", self.bound)
        check_number("rel_bound", self.rel_bound)
        if not (0 <= self.bound < math.inf and 0 <= self.rel_bound < math.inf):
            raise ValueError("error bounds must be finite and nonnegative")
        # A size the kind does not read would be dropped without a word.
        for name, given in (("bound", self.bound != 0), ("rel_bound", self.rel_bound != 0),
                            ("set", self.set is not None)):
            if given and _KINDS[self.kind] != name:
                raise ValueError(f"a {self.kind} error model takes no {name}")
        if self.kind == KIND_POLYHEDRAL:
            if self.set is None:
                raise ValueError("polyhedral error model needs a set")
            if not contains(self.set, np.zeros(self.set.dim), slack=0.0):
                raise ValueError("polyhedral error set must contain the origin")
        if self.schedule is not None:
            object.__setattr__(self, "schedule", tuple(self.schedule))
            for entry in self.schedule:
                if not isinstance(entry, ErrorModel):
                    raise TypeError("schedule entries must be ErrorModel instances")
                if entry.schedule is not None:
                    raise ValueError("schedule entries cannot nest schedules")
                if entry.perturb_dual:
                    raise ValueError("perturb_dual applies to every step; set it "
                                     "on the base model, not a schedule entry")

    def at(self, k: int, rows: Optional[tuple[int, ...]] = None) -> "ErrorModel":
        """Model a check at automaton step k sees: schedule entry k, or this
        model itself where the schedule has no entry.

        A slack check leaves rows None. A multiplier check passes its working
        set as rows: it sees exact arithmetic unless this model sets
        perturb_dual, and then a polyhedral set projected onto those rows'
        coordinates, in order: a new model on every call, whose projection
        solves LPs, so callers memoize it (certifier.partition_step).
        """
        mk = self
        if self.schedule is not None and 0 <= k < len(self.schedule):
            mk = self.schedule[k]
        if rows is None:
            return mk
        if not self.perturb_dual:
            return _EXACT
        if mk.kind == KIND_POLYHEDRAL:
            return ErrorModel(kind=KIND_POLYHEDRAL,
                              set=_coordinate_slice(mk.set, tuple(rows)))
        return mk

    def step_bounds(self, n_steps: int) -> np.ndarray:
        """Componentwise sampling bound of each of the first n_steps
        automaton steps: the hypercube bound the step's slack check sees, 0
        where it sees no error. Raises ValueError when some step is
        polyhedral or relative: those cannot be sampled."""
        bounds = np.zeros(n_steps)
        for k in range(n_steps):
            mk = self.at(k)
            if mk.kind == KIND_HYPERCUBE:
                bounds[k] = mk.bound
            elif mk.kind != KIND_NONE:
                raise ValueError(f"cannot sample from error model kind {mk.kind!r}")
        return bounds

    def check_dimension(self, m: int) -> None:
        """Raise ValueError unless every polyhedral set of this model, the
        base one and each schedule entry's, has dimension m, the constraint
        count of the problem it is applied to."""
        for where, mk in [("", self), *((f"schedule entry {i}: ", e)
                                        for i, e in enumerate(self.schedule or ()))]:
            if mk.kind == KIND_POLYHEDRAL and mk.set.dim != m:
                raise ValueError(f"{where}error set dimension {mk.set.dim} "
                                 f"!= z dimension {m}")

    def to_document(self) -> dict:
        """JSON form for result documents. A polyhedral set is written only
        as its row and dimension counts, which from_document refuses."""
        out = {"kind": self.kind}
        if self.kind == KIND_HYPERCUBE:
            out["bound"] = self.bound
        elif self.kind == KIND_POLYHEDRAL:
            out["set_rows"] = self.set.nrows
            out["set_dim"] = self.set.dim
        elif self.kind == KIND_RELATIVE:
            out["rel_bound"] = self.rel_bound
        if self.perturb_dual:
            out["perturb_dual"] = True
        if self.schedule is not None:
            out["schedule"] = [e.to_document() for e in self.schedule]
        return out

    @classmethod
    def from_eps_bar(cls, eps_bar: float) -> "ErrorModel":
        """Exact arithmetic (kind none) at 0, else the hypercube of that bound."""
        return cls() if eps_bar == 0.0 else cls(kind=KIND_HYPERCUBE, bound=eps_bar)

    @classmethod
    def from_document(cls, doc: dict) -> "ErrorModel":
        """Model from its JSON form: to_document's output, or an error-model
        file whose polyhedral set is given in full as {"A": ..., "b": ...}.

        The hypercube bound may be spelled eps_bar. Raises ValueError on a
        key the kind does not take, on a missing bound or set, on a bound
        that is not a finite nonnegative number (a bool is not), on a
        perturb_dual that is not a bool, and on a polyhedral set given only
        as its summary.
        """
        if not isinstance(doc, dict):
            raise ValueError("an error model must be a JSON object")
        doc = dict(doc)
        for key in ("bound", "eps_bar", "rel_bound"):
            if key in doc:
                check_number(key, doc[key])
        if not isinstance(doc.get("perturb_dual", False), bool):
            raise ValueError(f"perturb_dual must be true or false, "
                             f"not {doc['perturb_dual']!r}")
        if "eps_bar" in doc:
            if "bound" in doc:
                raise ValueError("give bound or eps_bar, not both")
            doc["bound"] = doc.pop("eps_bar")
        kind = doc.pop("kind", KIND_NONE)
        if kind not in _KINDS:
            raise ValueError(f"unknown error model kind {kind!r}")
        if kind == KIND_POLYHEDRAL and "set" not in doc and "set_rows" in doc:
            raise ValueError("polyhedral error models do not round-trip through "
                             "settings; pass the model explicitly")
        param = _KINDS[kind]
        unknown = sorted(set(doc) - {param, "schedule", "perturb_dual"})
        if unknown:
            raise ValueError(f"unknown keys for a {kind} error model: {unknown}")
        if param is not None and param not in doc:
            raise ValueError(f"{kind} error model needs {param!r}")
        schedule = doc.get("schedule")
        return cls(kind=kind, bound=doc.get("bound", 0.0),
                   set=Polyhedron.from_document(doc["set"]) if "set" in doc else None,
                   rel_bound=doc.get("rel_bound", 0.0),
                   schedule=None if schedule is None
                   else tuple(cls.from_document(e) for e in schedule),
                   perturb_dual=doc.get("perturb_dual", False))


def check_number(name: str, value) -> None:
    """Raise ValueError unless value is an int or a float other than a bool,
    which JSON writes (numpy's float64 is a float; float32 and int64 are not)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, not {value!r}")


_EXACT = ErrorModel()


def _coordinate_slice(err_set: Polyhedron, coords: tuple[int, ...]) -> Polyhedron:
    """Projection of the error set onto the given coordinates, in order.
    When they are all of its coordinates, nothing is projected away."""
    rest = [c for c in range(err_set.dim) if c not in coords]
    shuffled = Polyhedron(err_set.A[:, list(coords) + rest], err_set.b)
    return project_fm(shuffled, len(coords)) if rest else shuffled


def lift_partition_project(region: Polyhedron, halfplanes: Sequence[tuple],
                           zmap: AffineMap, model: ErrorModel) -> list[Polyhedron]:
    """One region per half-plane set, inflated by the error model.

    halfplanes is a list of (A_i, b_i) over z-space; zmap carries z(theta).
    Entry i of the result is the set of theta in `region` for which some
    admissible error puts z(theta)+eps inside A_i z <= b_i. Empty entries
    are kept so indices stay aligned with the input; callers prune.

    model is the one the check sees (ErrorModel.at); a schedule on it is
    not read. A relative model is converted against `region` once, before
    the families are lifted by lift_rows; each entry is `region` with its
    family's rows stacked on, as region.intersect would give it.
    """
    if zmap.F.shape[0] and zmap.F.shape[1] != region.dim:
        raise ValueError("zmap and region dimensions disagree")
    if model.kind == KIND_RELATIVE:
        model = ErrorModel(kind=KIND_HYPERCUBE,
                           bound=rel_to_abs(zmap, region, model.rel_bound))
    return [region._stacked(A_t, b_t) for A_t, b_t in lift_rows(halfplanes, zmap, model)]


def lift_rows(halfplanes: Sequence[tuple], zmap: AffineMap, model: ErrorModel
              ) -> list[tuple[np.ndarray, np.ndarray]]:
    """Rows (A_t, b_t) over theta of each half-plane set, inflated by a model
    that needs no region: none, hypercube or polyhedral, not relative.

    The rows are checked as region.intersect checks appended rows: finite,
    trivial ones dropped, and they are frozen, so one lift may be stacked on
    any number of regions. Exact arithmetic maps A_i z <= b_i through zmap.
    A hypercube relaxes each row's right-hand side by its 1-norm times the
    bound, since the sup over the ball of a linear form is the 1-norm;
    neither solves an LP. A polyhedral set projects each lifted family with
    Fourier-Motzkin elimination, which solves LPs.
    """
    if model.kind == KIND_RELATIVE:
        raise ValueError("a relative model is converted against a region first")
    if model.kind == KIND_POLYHEDRAL:
        model.check_dimension(zmap.rows)
    out = []
    for A_i, b_i in halfplanes:
        A_i = np.atleast_2d(np.asarray(A_i, dtype=float))
        b_i = np.asarray(b_i, dtype=float).ravel()
        if model.kind == KIND_POLYHEDRAL:
            A_t, b_t = _polyhedral_shadow(A_i, b_i, zmap, model.set)
        else:
            A_t, b_t = A_i @ zmap.F, b_i - A_i @ zmap.g
            if model.kind == KIND_HYPERCUBE:
                b_t = b_t + np.abs(A_i).sum(axis=1) * model.bound
        A_t, b_t = Polyhedron._nontrivial(A_t, b_t)
        A_t.setflags(write=False)
        b_t.setflags(write=False)
        out.append((A_t, b_t))
    return out


def _polyhedral_shadow(A_i: np.ndarray, b_i: np.ndarray, zmap: AffineMap,
                       err_set: Polyhedron) -> tuple[np.ndarray, np.ndarray]:
    """Rows over theta of {theta : A_i(z(theta)+eps) <= b_i for some eps in
    the set}: lift to (theta, eps), project eps back out by Fourier-Motzkin."""
    n_t = zmap.F.shape[1]
    # [A_i F | A_i] [theta; eps] <= b_i - A_i g, plus eps in the error set.
    top = np.hstack([A_i @ zmap.F, A_i])
    bot = np.hstack([np.zeros((err_set.nrows, n_t)), err_set.A])
    lifted = Polyhedron(np.vstack([top, bot]),
                        np.concatenate([b_i - A_i @ zmap.g, err_set.b]),
                        n_t + zmap.rows)
    shadow = project_fm(lifted, n_t)
    return shadow.A, shadow.b


def rel_to_abs(zmap: AffineMap, region: Polyhedron, rel_bound: float) -> float:
    """Worst absolute error implied by a relative bound on z over the region.

    For each component, |eps_i| <= rel_bound * |z_i(theta)|; maximizing over
    the region and all components gives a single sup-norm radius. Each
    component costs two linear programs (max z_i and max -z_i).
    """
    if rel_bound < 0:
        raise ValueError("rel_bound must be nonnegative")
    if rel_bound == 0.0 or zmap.rows == 0:
        return 0.0
    worst = 0.0
    for i in range(zmap.rows):
        row = zmap.F[i]
        for sign in (1.0, -1.0):
            res = solve_lp(sign * row, region, sense="max")
            if res.status != "optimal":
                raise GeometryError(
                    f"cannot bound component {i}: LP status {res.status}")
            worst = max(worst, res.value + sign * zmap.g[i])
    return rel_bound * worst
