"""Parameter-dependent strictly convex QPs and their working-set subproblems.

The problem family is

    minimize    0.5 x' H x + f(theta)' x
    subject to  C x <= d(theta)

with H symmetric positive definite and both f and d affine in the parameter
theta, which ranges over a bounded polyhedron. For a fixed working set W the
equality-constrained subproblem (rows of W held active) has a solution that
is itself affine in theta; subproblem_maps returns those affine maps, which
is what both the pointwise solver and the region certifier consume.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from certias.geometry import (EmptyPolyhedronError, GeometryError, LpPivotLimitError,
                              Polyhedron, bounding_box, row_products)

# A Schur-complement Cholesky pivot below this marks the working set as
# rank deficient rather than letting the solve produce garbage.
RANK_TOL = 1e-10

_SYM_TOL = 1e-12


class ProblemFormatError(ValueError):
    """The problem description is malformed or violates a precondition."""


@dataclass(frozen=True)
class AffineMap:
    """z(theta) = F theta + g.

    A map is evaluated at one parameter or at each row of a block as
    geometry.row_products(F, theta) plus g, with no BLAS call, so a
    parameter's z is the same bits whatever block it is evaluated in.
    """

    F: np.ndarray
    g: np.ndarray

    def __post_init__(self):
        F = np.atleast_2d(np.asarray(self.F, dtype=float))
        g = np.asarray(self.g, dtype=float).ravel()
        if F.shape[0] != g.size:
            raise ValueError(f"F has {F.shape[0]} rows, g has {g.size}")
        F.setflags(write=False)
        g.setflags(write=False)
        object.__setattr__(self, "F", F)
        object.__setattr__(self, "g", g)

    @property
    def rows(self) -> int:
        return self.F.shape[0]

    def __call__(self, theta) -> np.ndarray:
        """z at theta, a parameter vector; for an s x n_theta block, the
        s x rows array of z at each row."""
        theta = np.asarray(theta, dtype=float)
        if theta.ndim != 2:
            theta = theta.ravel()
        if theta.shape[-1] != self.F.shape[1]:
            raise ValueError(f"theta must have {self.F.shape[1]} entries")
        return row_products(self.F, theta) + self.g


@dataclass(frozen=True)
class SubproblemMaps:
    """Affine solution maps of one working-set subproblem.

    x_map gives the primal solution, mu_map the constraint slack
    d(theta) - C x(theta) across all rows, lambda_map the multipliers of the
    working rows (in working-set order). When the working rows are
    linearly dependent there are no maps: all three are None, and singular
    says so.
    """

    x_map: Optional[AffineMap]
    mu_map: Optional[AffineMap]
    lambda_map: Optional[AffineMap]

    @property
    def singular(self) -> bool:
        return self.x_map is None


class MpQP:
    """Validated problem data plus a per-working-set map cache.

    theta_box is the parameter set's bounding box (lo, hi) as read-only
    arrays: the constructor solves it to prove the set bounded and keeps
    it, so nothing solves those LPs again.

    A problem pickles without its cache: a copy starts with an empty
    cache and computes the same maps bit for bit. Its theta_box is the
    same bits, read-only again.
    """

    def __init__(self, H, C, f_lin, f_const, d_lin, d_const, theta_set: Polyhedron):
        H = np.atleast_2d(np.asarray(H, dtype=float))
        C = np.atleast_2d(np.asarray(C, dtype=float))
        f_lin = np.atleast_2d(np.asarray(f_lin, dtype=float))
        f_const = np.asarray(f_const, dtype=float).ravel()
        d_lin = np.atleast_2d(np.asarray(d_lin, dtype=float))
        d_const = np.asarray(d_const, dtype=float).ravel()

        n = H.shape[0]
        if H.shape != (n, n):
            raise ProblemFormatError("H must be square")
        if np.max(np.abs(H - H.T), initial=0.0) > _SYM_TOL:
            raise ProblemFormatError("H must be symmetric")
        m = C.shape[0]
        if C.shape[1] != n:
            raise ProblemFormatError(f"C has {C.shape[1]} columns, expected {n}")
        n_theta = theta_set.dim
        if f_lin.shape != (n, n_theta):
            raise ProblemFormatError(f"f_lin must be {n}x{n_theta}, got {f_lin.shape}")
        if f_const.size != n:
            raise ProblemFormatError(f"f_const must have {n} entries")
        if d_lin.shape != (m, n_theta):
            raise ProblemFormatError(f"d_lin must be {m}x{n_theta}, got {d_lin.shape}")
        if d_const.size != m:
            raise ProblemFormatError(f"d_const must have {m} entries")
        for name, arr in (("H", H), ("C", C), ("f_lin", f_lin), ("f_const", f_const),
                          ("d_lin", d_lin), ("d_const", d_const)):
            if not np.isfinite(arr).all():
                raise ProblemFormatError(f"{name} contains non-finite entries")
        try:
            chol = np.linalg.cholesky(H)
        except np.linalg.LinAlgError:
            raise ProblemFormatError("H is not positive definite") from None
        # bounding_box's LPs prove the set nonempty and bounded.
        try:
            box = bounding_box(theta_set)
        except LpPivotLimitError:
            raise
        except EmptyPolyhedronError:
            raise ProblemFormatError("the parameter set is empty") from None
        except GeometryError:
            raise ProblemFormatError("the parameter set is unbounded") from None

        self.H = H
        self.C = C
        self.f_lin = f_lin
        self.f_const = f_const
        self.d_lin = d_lin
        self.d_const = d_const
        self.theta_set = theta_set
        for bound in box:
            bound.setflags(write=False)
        self.theta_box = box
        self._chol = chol
        self._cache: dict[tuple[int, ...], SubproblemMaps] = {}

    def __getstate__(self) -> dict:
        return {**self.__dict__, "_cache": {}}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        for bound in self.theta_box:
            bound.setflags(write=False)

    @property
    def n_x(self) -> int:
        return self.H.shape[0]

    @property
    def m(self) -> int:
        return self.C.shape[0]

    @property
    def n_theta(self) -> int:
        return self.theta_set.dim

    def f(self, theta) -> np.ndarray:
        return self.f_lin @ np.asarray(theta, dtype=float).ravel() + self.f_const

    def d(self, theta) -> np.ndarray:
        return self.d_lin @ np.asarray(theta, dtype=float).ravel() + self.d_const

    def _solve_h(self, rhs: np.ndarray) -> np.ndarray:
        y = np.linalg.solve(self._chol, rhs)
        return np.linalg.solve(self._chol.T, y)

    def to_document(self) -> dict:
        """Plain-data problem description, the same shape load_problem reads."""
        return {
            "H": self.H.tolist(),
            "C": self.C.tolist(),
            "f_lin": self.f_lin.tolist(),
            "f_const": self.f_const.tolist(),
            "d_lin": self.d_lin.tolist(),
            "d_const": self.d_const.tolist(),
            "theta_set": self.theta_set.to_document(),
        }

    def digest(self) -> str:
        """Stable checksum of the problem data, echoed into result documents."""
        canon = json.dumps(self.to_document(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()

    def __repr__(self) -> str:
        return f"MpQP(n_x={self.n_x}, m={self.m}, n_theta={self.n_theta})"


def load_problem(document: dict) -> MpQP:
    """Build a validated MpQP from a parsed problem description.

    The document layout is the one produced by MpQP.to_document. Raises
    ProblemFormatError with a speaking message on any shape, finiteness,
    definiteness or parameter-set violation.
    """
    if not isinstance(document, dict):
        raise ProblemFormatError("problem description must be a JSON object")
    required = ("H", "C", "f_lin", "f_const", "d_lin", "d_const", "theta_set")
    for key in required:
        if key not in document:
            raise ProblemFormatError(f"missing field {key!r}")
    ts = document["theta_set"]
    if not isinstance(ts, dict) or "A" not in ts or "b" not in ts:
        raise ProblemFormatError("theta_set must carry matrices A and b")
    try:
        theta_set = Polyhedron.from_document(ts)
    except (ValueError, TypeError) as exc:
        raise ProblemFormatError(f"bad theta_set: {exc}") from None
    try:
        return MpQP(document["H"], document["C"], document["f_lin"], document["f_const"],
                    document["d_lin"], document["d_const"], theta_set)
    except ProblemFormatError:
        raise
    except (ValueError, TypeError) as exc:
        raise ProblemFormatError(f"bad problem data: {exc}") from None


def _chol_with_pivot_check(S: np.ndarray, tol: float) -> Optional[np.ndarray]:
    """Cholesky factor of S, or None when a pivot drops below tol."""
    w = S.shape[0]
    L = np.zeros_like(S)
    for k in range(w):
        pivot = S[k, k] - L[k, :k] @ L[k, :k]
        if pivot < tol:
            return None
        L[k, k] = np.sqrt(pivot)
        for i in range(k + 1, w):
            L[i, k] = (S[i, k] - L[i, :k] @ L[k, :k]) / L[k, k]
    return L


def subproblem_maps(prob: MpQP, working_set: Sequence[int]) -> SubproblemMaps:
    """Affine solution maps for the subproblem with the given rows active.

    Solves the stationarity system through a Cholesky factorization of H and
    a Schur complement over the working rows. Results are cached per working
    set on the problem object, and the returned maps are immutable.
    """
    W = tuple(map(int, working_set))
    hit = prob._cache.get(W)
    if hit is not None:
        return hit
    # Only checked rows are cached, so a hit needs no check.
    for i in W:
        if not 0 <= i < prob.m:
            raise ValueError(f"working-set index {i} out of range")

    n_th = prob.n_theta
    # Parameter-wise batch: column j of the lin part plus one const column.
    F_rhs = np.hstack([prob.f_lin, prob.f_const[:, None]])
    Hinv_f = prob._solve_h(F_rhs)

    if len(W) == 0:
        x_all = -Hinv_f
        lam = AffineMap(np.zeros((0, n_th)), np.zeros(0))
    else:
        C_W = prob.C[list(W)]
        d_all = np.hstack([prob.d_lin[list(W)], prob.d_const[list(W), None]])
        E = prob._solve_h(C_W.T)
        S = C_W @ E
        L = _chol_with_pivot_check(S, RANK_TOL)
        if L is None:
            result = prob._cache[W] = SubproblemMaps(None, None, None)
            return result
        rhs = d_all + C_W @ Hinv_f
        y = np.linalg.solve(L, rhs)
        lam_all = -np.linalg.solve(L.T, y)
        lam = AffineMap(lam_all[:, :n_th], lam_all[:, n_th])
        x_all = -(Hinv_f + E @ lam_all)

    x_map = AffineMap(x_all[:, :n_th], x_all[:, n_th])
    mu_all = np.hstack([prob.d_lin, prob.d_const[:, None]]) - prob.C @ x_all
    mu_map = AffineMap(mu_all[:, :n_th], mu_all[:, n_th])
    result = prob._cache[W] = SubproblemMaps(x_map, mu_map, lam)
    return result
