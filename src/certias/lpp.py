"""Error-aware region splitting.

A partition step asks, for each candidate decision i, where in parameter
space the decision vector z(theta) lands inside the half-plane set
A_i z <= b_i. When z is evaluated with an additive error drawn from a known
set, the honest answer is the projection of the lifted set

    {(theta, eps) : A_i (z(theta) + eps) <= b_i, eps in E}

onto theta. This module provides that projection three ways: exactly for the
error-free case, in closed form when E is a sup-norm ball, and by
Fourier-Motzkin elimination for a general polyhedral E. A relative error
bound is converted to a sup-norm ball by bounding |z| over the region with
a pair of linear programs per component.
"""

from __future__ import annotations

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
               converted to a hypercube bound step by step

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
        if self.bound < 0 or self.rel_bound < 0:
            raise ValueError("error bounds must be nonnegative")
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

    @property
    def is_zero(self) -> bool:
        """True when the model admits no error at any step."""
        base = self.kind == KIND_NONE or (self.kind == KIND_HYPERCUBE and self.bound == 0.0) \
            or (self.kind == KIND_RELATIVE and self.rel_bound == 0.0)
        if not base:
            return False
        return all(e.is_zero for e in self.schedule) if self.schedule else True

    def at(self, k: int) -> "ErrorModel":
        """Model in effect at automaton step k: schedule entry k, or this
        model itself where the schedule has no entry. perturb_dual is this
        model's."""
        if self.schedule is not None and 0 <= k < len(self.schedule):
            return self.schedule[k]
        return self

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
        key the kind does not take, on a missing bound or set, and on a
        polyhedral set given only as its summary.
        """
        if not isinstance(doc, dict):
            raise ValueError("an error model must be a JSON object")
        doc = dict(doc)
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


def _nominal_rows(A_i: np.ndarray, b_i: np.ndarray, zmap: AffineMap
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Rows of A_i z(theta) <= b_i written over theta."""
    return A_i @ zmap.F, b_i - A_i @ zmap.g


def hypercube_inflate(region: Polyhedron, A_i, b_i, zmap: AffineMap,
                      eps_bar: float) -> Polyhedron:
    """Region where A_i(z(theta)+eps) <= b_i holds for some |eps|_inf <= eps_bar.

    Closed form: relax each row's right-hand side by its 1-norm times
    eps_bar, since sup over the ball of a linear form is the 1-norm. With
    eps_bar = 0 this is exactly the nominal intersection.
    """
    if eps_bar < 0:
        raise ValueError("eps_bar must be nonnegative")
    A_i = np.atleast_2d(np.asarray(A_i, dtype=float))
    b_i = np.asarray(b_i, dtype=float).ravel()
    A_t, b_t = _nominal_rows(A_i, b_i, zmap)
    b_t = b_t + np.abs(A_i).sum(axis=1) * eps_bar
    return region.intersect(A_t, b_t)


def lift_partition_project(region: Polyhedron, halfplanes: Sequence[tuple],
                           zmap: AffineMap, model: ErrorModel) -> list[Polyhedron]:
    """One region per half-plane set, inflated by the error model.

    halfplanes is a list of (A_i, b_i) over z-space; zmap carries z(theta).
    Entry i of the result is the set of theta in `region` for which some
    admissible error puts z(theta)+eps inside A_i z <= b_i. Empty entries
    are kept so indices stay aligned with the input; callers prune.

    The relative kind must be converted (rel_to_abs) before calling here.
    """
    if zmap.F.shape[0] and zmap.F.shape[1] != region.dim:
        raise ValueError("zmap and region dimensions disagree")
    out = []
    for A_i, b_i in halfplanes:
        A_i = np.atleast_2d(np.asarray(A_i, dtype=float))
        b_i = np.asarray(b_i, dtype=float).ravel()
        if model.kind == KIND_NONE:
            A_t, b_t = _nominal_rows(A_i, b_i, zmap)
            out.append(region.intersect(A_t, b_t))
        elif model.kind == KIND_HYPERCUBE:
            out.append(hypercube_inflate(region, A_i, b_i, zmap, model.bound))
        elif model.kind == KIND_POLYHEDRAL:
            out.append(_project_polyhedral(region, A_i, b_i, zmap, model.set))
        else:
            raise ValueError("convert a relative model with rel_to_abs first")
    return out


def _project_polyhedral(region: Polyhedron, A_i: np.ndarray, b_i: np.ndarray,
                        zmap: AffineMap, err_set: Polyhedron) -> Polyhedron:
    """Fourier-Motzkin route: lift to (theta, eps), project eps back out."""
    n_t = region.dim
    n_z = zmap.rows
    if err_set.dim != n_z:
        raise ValueError(f"error set dimension {err_set.dim} != z dimension {n_z}")
    # [A_i F | A_i] [theta; eps] <= b_i - A_i g, plus eps in the error set.
    top = np.hstack([A_i @ zmap.F, A_i])
    bot = np.hstack([np.zeros((err_set.nrows, n_t)), err_set.A])
    lifted = Polyhedron(np.vstack([top, bot]),
                        np.concatenate([b_i - A_i @ zmap.g, err_set.b]),
                        n_t + n_z)
    shadow = project_fm(lifted, n_t)
    return region.intersect(shadow.A, shadow.b)


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
