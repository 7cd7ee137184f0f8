"""Closed half-plane polyhedra and a dense two-phase simplex kernel.

Every set here is {x : A x <= b} with free (sign-unrestricted) x. The LP
kernel is a plain dense tableau simplex: Dantzig pricing with a Bland
fallback once pivots stop making progress. That is slow compared to a real
LP library, but the systems this package solves are desk-scale (tens of
rows, dimension below ten or so) and a hand-rolled kernel keeps results
bit-reproducible across platforms.

Each LP lives in one augmented array M = [T rhs; obj .]: the constraint
rows with their right-hand side in the last column, and the objective row
last. Each pivot is one numpy block elimination (_eliminate) over all of
M: the pivot row is scaled, then every row with a nonzero multiplier in the
entering column, the objective row included, gets `row -= f * pivot_row` at
once. Rows whose multiplier is zero are left untouched rather than
multiplied by zero, so the signs of zeros, and with them every pivot choice,
LP count and partition document, are bit for bit those of a row-at-a-time
elimination with a separate right-hand side and objective. The objective
rows of both phases are built by sequential subtraction in row order for
the same reason: a summed reduction rounds differently. The phase-2
objective is written over the objective row in place. It is priced out
against the basis only when phase 1 ran; otherwise the basis is all
slacks, whose costs are zero, and the row is c, -c and zeros as written.

The right-hand side enters the tableau as |b|, on flipped and unflipped
rows alike, so a -0.0 in b becomes +0.0. Copying b as it stands would keep
the -0.0, and a ratio test on that row would carry its sign into x.

One tiny-rhs rule is shared by the kernel and the shifted systems it is
handed: a right-hand side in (-_TINY_RHS, 0) is rounding noise and is set
to 0. The kernel applies it after every pivot; remove_redundant and
feasible_point apply it to b - A point when they shift a system to a known
point, so such a system starts feasible and needs no phase 1.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional

import numpy as np

log = logging.getLogger(__name__)

# Feasibility slack used when deciding whether a region is empty.
FEAS_TOL = 1e-9
# Slack of the membership test `contains(P, point, MEMBERSHIP_SLACK)` that
# decides whether a parameter lies in the parameter set or in a region.
MEMBERSHIP_SLACK = 1e-9
# A row is redundant when its LP maximum stays below b_i + REDUNDANCY_TOL.
REDUNDANCY_TOL = 1e-9
# Reduced-cost threshold for simplex pricing.
OPT_TOL = 1e-9
# Pivot budget factor: a solve may use at most PIVOT_CAP_FACTOR*(rows+dim) pivots.
PIVOT_CAP_FACTOR = 50
# Hard cap on intermediate row counts during projection.
FM_ROW_CAP = 10_000

_PIVOT_EPS = 1e-11
_BLAND_AFTER = 12
# Right-hand sides in (-_TINY_RHS, 0) are rounding noise and are set to 0.
_TINY_RHS = 1e-11


class GeometryError(RuntimeError):
    """Base class for numerical failures in the geometry kernel."""


class LpPivotLimitError(GeometryError):
    """The simplex kernel ran out of its pivot budget."""


class RowExplosionError(GeometryError):
    """Projection produced more intermediate rows than the configured cap."""


class EmptyPolyhedronError(GeometryError):
    """An operation that needs a nonempty set was handed an empty one."""


# LPs and pivots solved so far in this process.
_LPS = 0
_PIVOTS = 0


def lp_call_count() -> int:
    """Number of simplex solves made so far in this process."""
    return _LPS


def pivot_count() -> int:
    """Number of simplex pivots taken by completed solves in this process."""
    return _PIVOTS


class Polyhedron:
    """Immutable {x : A x <= b}.

    Rows whose coefficients are exactly zero with b >= 0 are dropped at
    construction (they constrain nothing). Zero rows with b < 0 are kept:
    they mark the set empty and is_empty() reports them as such. A is
    always 2-D, (rows, dim), so a set without rows keeps its dimension;
    `dim=` is needed only to build one.
    """

    __slots__ = ("A", "b")

    def __init__(self, A, b, dim: Optional[int] = None):
        A = np.asarray(A, dtype=float)
        b = np.asarray(b, dtype=float).ravel()
        if A.size == 0:
            if dim is None:
                raise ValueError("dim is required for a constraint-free polyhedron")
            A = A.reshape(0, dim)
        A = np.atleast_2d(A)
        if dim is None:
            dim = A.shape[1]
        if A.shape != (b.size, dim):
            raise ValueError(f"shape mismatch: A is {A.shape}, b has {b.size} rows, dim={dim}")
        if dim < 1:
            raise ValueError("dimension must be at least 1")
        A, b = self._nontrivial(A, b)
        self._freeze(A.copy(), b.copy())

    @staticmethod
    def _nontrivial(A, b):
        """Finite rows A, b with the trivial ones (zero row, b >= 0) dropped."""
        if not (np.isfinite(A).all() and np.isfinite(b).all()):
            raise ValueError("polyhedron data must be finite")
        trivial = ~A.any(axis=1) & (b >= 0.0)
        if trivial.any():
            A, b = A[~trivial], b[~trivial]
        return A, b

    @classmethod
    def _from_rows(cls, A, b) -> "Polyhedron":
        """{x : A x <= b} from rows the constructor has already validated.

        A and b must be float arrays, of shapes (k, dim) and (k,), with no
        trivial rows, that nothing writes to later: they are frozen in place
        rather than copied, so another Polyhedron's frozen A will do.
        """
        self = object.__new__(cls)
        self._freeze(A, b)
        return self

    def _freeze(self, A, b) -> None:
        A.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)

    def __setattr__(self, name, value):
        raise AttributeError("Polyhedron is immutable")

    def __reduce__(self):
        # Pickling and copying rebuild through _from_rows, which freezes the
        # arrays again; restoring the slots would go through __setattr__.
        return self._from_rows, (self.A, self.b)

    @property
    def dim(self) -> int:
        return self.A.shape[1]

    @property
    def nrows(self) -> int:
        return self.A.shape[0]

    def to_document(self) -> dict:
        """{"A": rows, "b": right-hand sides} as plain lists."""
        return {"A": self.A.tolist(), "b": self.b.tolist()}

    @classmethod
    def from_document(cls, doc: dict) -> "Polyhedron":
        return cls(doc["A"], doc["b"])

    @classmethod
    def box(cls, lo, hi) -> "Polyhedron":
        """Axis-aligned box {x : lo <= x <= hi}."""
        lo = np.asarray(lo, dtype=float).ravel()
        hi = np.asarray(hi, dtype=float).ravel()
        if lo.size != hi.size:
            raise ValueError("lo and hi must have equal length")
        eye = np.eye(lo.size)
        return cls(np.vstack([eye, -eye]), np.concatenate([hi, -lo]))

    @classmethod
    def empty(cls, dim: int) -> "Polyhedron":
        """Canonical empty set in the given dimension."""
        return cls(np.zeros((1, dim)), np.array([-1.0]), dim)

    def intersect(self, A, b) -> "Polyhedron":
        """This set with additional rows A x <= b stacked on.

        Only the appended rows are checked and cleared of trivial rows, as
        the constructor would: this set's own rows passed it already.
        """
        A = np.asarray(A, dtype=float)
        if A.ndim < 2:
            A = A.reshape(-1, self.dim)
        b = np.asarray(b, dtype=float).ravel()
        if A.shape != (b.size, self.dim):
            raise ValueError(f"shape mismatch: A is {A.shape}, b has {b.size} rows, "
                             f"dim={self.dim}")
        return self._stacked(*self._nontrivial(A, b))

    def _stacked(self, A, b) -> "Polyhedron":
        """This set with rows A x <= b stacked on, rows that _nontrivial has
        already returned, of shapes (k, dim) and (k,)."""
        return Polyhedron._from_rows(np.vstack([self.A, A]), np.concatenate([self.b, b]))

    def __repr__(self) -> str:
        return f"Polyhedron(rows={self.nrows}, dim={self.dim})"


@dataclass(frozen=True, slots=True)
class LpResult:
    """Outcome of one linear program.

    status is one of "optimal", "infeasible", "unbounded", "target". value
    is the optimal objective when optimal, +/-inf when unbounded (sign
    matching the sense) and nan when infeasible. "target" means the solve
    stopped early, at a basic point already beyond the target solve_lp was
    given; value and point are that point's. point is None unless optimal or
    "target".
    """

    status: str
    value: float
    point: Optional[np.ndarray]


def _eliminate(M, row, col):
    """Scale `row` to a unit entry in `col`, then clear `col` from every other row.

    Only rows with a nonzero multiplier are touched; subtracting 0 * pivot
    row could turn a -0.0 into +0.0 and change later pivot decisions.
    """
    M[row] /= M[row, col]
    f = M[:, col, None].copy()
    f[row] = 0.0
    np.subtract(M, f * M[row], out=M, where=f != 0.0)


def _optimize(M, basis, nprice, pivots, budget, tol, target=np.inf):
    """Pivot the tableau M until its objective row prices out.

    M is [T rhs; obj .] with m = len(basis) constraint rows; only the first
    `nprice` columns may enter. Returns (status, pivots), status "optimal"
    or "unbounded", or "target" at the first basic point short of optimal
    whose running value M[m, -1] (minus the objective) exceeds `target`;
    pivots is the running total the budget is checked against.
    """
    m = basis.size
    obj = M[m, :nprice]
    rhs = M[:m, -1]
    streak = 0
    bland = False
    while True:
        # argmin is the first most negative reduced cost, as Dantzig's rule
        # over the candidates would pick.
        col = obj.argmin()
        if not obj[col] < -tol:
            return "optimal", pivots
        if M[m, -1] > target:
            return "target", pivots
        if bland:
            col = (obj < -tol).argmax()
        if pivots >= budget:
            raise LpPivotLimitError(f"simplex exceeded {budget} pivots")
        d = M[:m, col]
        rows = (d > _PIVOT_EPS).nonzero()[0]
        if rows.size == 0:
            return "unbounded", pivots
        ratios = rhs[rows] / d[rows]
        # x[x.argmin()] is x.min() without min's Python-level wrapper.
        ties = rows[ratios <= ratios[ratios.argmin()] + 1e-15]
        # Lowest basic column index among ties keeps Bland's rule honest.
        leave = ties[0] if ties.size == 1 else ties[basis[ties].argmin()]
        _eliminate(M, leave, col)
        basis[leave] = col
        if rhs[rhs.argmin()] < 0.0:
            rhs[(rhs < 0.0) & (rhs > -_TINY_RHS)] = 0.0
        pivots += 1
        if rhs[leave] <= 1e-13:
            streak += 1
            bland = bland or streak >= _BLAND_AFTER
        else:
            streak = 0


def _simplex(A, b, c, budget, tol, target=np.inf):
    """min c^T x over {A x <= b}, x free.

    Returns (status, x, phase1_measure, pivots). status: "optimal" |
    "infeasible" | "unbounded" | "target". "target" stops phase 2 at the
    first basic point short of optimal where -c^T x exceeds `target`; phase
    2 never lowers -c^T x, so the optimum lies beyond `target` too. x is None
    unless optimal or "target". phase1_measure is the minimal total
    constraint violation (0 when feasible). pivots counts every tableau
    pivot, the drive-out of leftover artificials included.
    """
    m, n = A.shape
    if m == 0:
        if np.allclose(c, 0.0):
            return "optimal", np.zeros(n), 0.0, 0
        return "unbounded", None, 0.0, 0
    # Rows with b < 0 are negated and get an artificial column.
    flipped = (b < 0.0).nonzero()[0]
    nart = flipped.size
    nreal = 2 * n + m
    ncols = nreal + nart
    # Columns: x+, x-, slacks, artificials; then the right-hand side. The
    # last row is the objective, eliminated along with the constraint rows.
    M = np.zeros((m + 1, ncols + 1))
    M[:m, :n] = A
    np.negative(A, out=M[:m, n:2 * n])
    # The slack diagonal M[i, 2n + i], one strided write over the flat array.
    M.reshape(-1)[2 * n:2 * n + m * (ncols + 2):ncols + 2] = 1.0
    rhs = M[:m, -1]
    np.abs(b, out=rhs)
    basis = np.arange(2 * n, nreal)

    # Phase 1: minimize the total artificial content.
    pivots = 0
    drive_outs = 0
    if nart > 0:
        # Negating a flipped row's x+ and x- entries flips sign bits only, so
        # they are bitwise -A and A.
        M[flipped, :2 * n] *= -1.0
        M[flipped, 2 * n + flipped] = -1.0
        art_cols = np.arange(nreal, ncols)
        M[flipped, art_cols] = 1.0
        basis[flipped] = art_cols
        M[m, nreal:ncols] = 1.0
        for i in flipped:
            M[m] -= M[i]
        _, pivots = _optimize(M, basis, ncols, pivots, budget, tol)
        measure = float(rhs[basis >= nreal].sum())
        if measure > tol:
            return "infeasible", None, measure, pivots
        # Drive leftover basic artificials out on their own row. Such a row
        # always has a pivot among the first 2n+m columns: each artificial
        # column starts as the exact negative of its row's slack column, and
        # row scaling and row -= f * pivot_row keep that bitwise (IEEE
        # rounding is sign-symmetric). A basic artificial's column is the unit
        # vector of its row, so that row holds -1 in the paired slack column.
        # These eliminations also touch the phase-1 objective row, which is
        # rebuilt below.
        for i in (basis >= nreal).nonzero()[0]:
            cols = (np.abs(M[i, :nreal]) > _PIVOT_EPS).nonzero()[0]
            if cols.size == 0:
                raise GeometryError("basic artificial row has no structural "
                                    "or slack pivot")
            j = cols[0]
            _eliminate(M, i, j)
            basis[i] = j
            drive_outs += 1
        M[m] = 0.0
    else:
        measure = 0.0

    # Phase 2 on the real objective. The artificial columns are last, so
    # pricing only the first 2n+m columns bars them from entering.
    obj = M[m]
    obj[:n] = c
    np.negative(c, out=obj[n:2 * n])
    if nart > 0:
        # Price out the basic columns. An all-slack basis, the only one
        # without phase 1, has zero costs and needs nothing.
        cb = obj[basis]
        for i in cb.nonzero()[0]:
            obj -= cb[i] * M[i]
    status, pivots = _optimize(M, basis, nreal, pivots, budget, tol, target)
    pivots += drive_outs
    if status == "unbounded":
        return "unbounded", None, measure, pivots
    x_full = np.zeros(ncols)
    x_full[basis] = rhs
    x = x_full[:n] - x_full[n:2 * n]
    return status, x, measure, pivots


def _solve(P: Polyhedron, c, tol, target=np.inf):
    """(status, x, phase1_measure) of min c^T x over P, counted and budgeted."""
    global _LPS, _PIVOTS
    _LPS += 1
    budget = PIVOT_CAP_FACTOR * (P.nrows + P.dim)
    status, x, measure, pivots = _simplex(P.A, P.b, c, budget, tol, target)
    _PIVOTS += pivots
    return status, x, measure


def solve_lp(c, P: Polyhedron, sense: str = "min", *,
             target: Optional[float] = None) -> LpResult:
    """Optimize the linear objective c over P.

    Args:
        c: objective coefficients, length P.dim.
        P: feasible set.
        sense: "min" or "max".
        target: when given, the solve stops with status "target" at the
            first basic point short of optimal whose objective is beyond
            `target` (above it for "max", below for "min"). The simplex only
            improves the objective, so the optimum is beyond `target` too.
            A solve that never gets there returns exactly what it returns
            without a target, in as many pivots.

    Returns:
        LpResult. The pivot budget is PIVOT_CAP_FACTOR*(rows+dim); running
        past it raises LpPivotLimitError rather than returning garbage.
    """
    c = np.asarray(c, dtype=float).ravel()
    if c.size != P.dim:
        raise ValueError(f"objective has {c.size} entries, polyhedron dim is {P.dim}")
    if sense not in ("min", "max"):
        raise ValueError(f"unknown sense {sense!r}")
    # The tableau tracks -(c^T x) for "min" and c^T x for "max".
    bound = np.inf if target is None else (target if sense == "max" else -target)
    status, x, _ = _solve(P, c if sense == "min" else -c, OPT_TOL, bound)
    if status == "infeasible":
        return LpResult("infeasible", float("nan"), None)
    if status == "unbounded":
        return LpResult("unbounded", float("-inf") if sense == "min" else float("inf"), None)
    return LpResult(status, float(c @ x), x)


def phase1_measure(P: Polyhedron) -> tuple[float, Optional[np.ndarray]]:
    """(measure, x) of P's phase-1 LP.

    measure is the minimal total violation of P's rows (0 means feasible); x
    is the basic point phase 1 ends on, None when the kernel finds P
    infeasible.
    """
    _, x, measure = _solve(P, np.zeros(P.dim), OPT_TOL)
    return measure, x


def _shifted_rhs(P: Polyhedron, point) -> Optional[np.ndarray]:
    """b - A point with rounding negatives set to 0, or None when `point`
    violates a row of P by more than FEAS_TOL."""
    rhs = P.b - P.A @ point
    if rhs.min() < -FEAS_TOL:
        return None
    rhs[(rhs < 0.0) & (rhs > -_TINY_RHS)] = 0.0
    return rhs


def feasible_point(P: Polyhedron, start: Optional[np.ndarray] = None
                   ) -> Optional[np.ndarray]:
    """A point of P from one phase-1 LP, or None when P is empty.

    P is empty when its phase-1 violation exceeds FEAS_TOL. The point is the
    basic solution phase 1 ends on, so it may violate a row by rounding
    error, and on badly conditioned rows by more; remove_redundant checks it
    before use. A set that is nonempty but has no interior (a single point, a
    facet) is nonempty: the test measures infeasibility, not thinness.

    `start`, a point believed to lie in P, poses the phase-1 LP in
    y = x - start instead. When start satisfies every row to within
    FEAS_TOL, the right-hand side b - A start is nonnegative up to rounding
    noise (cleared by the tiny-rhs rule) or tiny violations, so phase 1 has
    little or nothing to do, and start + y is returned. A start that violates
    a row by more is ignored: the LP is posed as without it.
    """
    zero = ~P.A.any(axis=1)
    if (zero & (P.b < 0.0)).any():
        return None
    if P.nrows == 0:
        return np.zeros(P.dim)
    rhs = None if start is None else _shifted_rhs(P, start)
    if rhs is None:
        measure, x = phase1_measure(P)
    else:
        # P has no zero rows here, so the shifted rows are all nontrivial.
        measure, y = phase1_measure(Polyhedron._from_rows(P.A, rhs))
        x = None if y is None else start + y
    return None if x is None or measure > FEAS_TOL else x


def is_empty(P: Polyhedron) -> bool:
    """True iff P is empty, judged by the phase-1 violation exceeding FEAS_TOL."""
    return feasible_point(P) is None


def row_products(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A x for one point x, or for an s x d block, the s x rows array of A x
    at each row: the sum over j of x_j * A[:, j] accumulated elementwise,
    column 0 first, with no BLAS call. A point's products are therefore the
    same bits whatever block, and whatever other rows of A, they are
    evaluated with, which a BLAS product does not promise."""
    z = x[..., 0, None] * A[:, 0]
    for j in range(1, A.shape[1]):
        z += x[..., j, None] * A[:, j]
    return z


def contains(P: Polyhedron, point, slack: float = 0.0):
    """Membership check row_products(P.A, point) <= P.b + slack, row by row.

    point is one point, giving a bool, or a 2-D block of points, one per
    row, giving a bool array with each point's answer alone. The products
    are row_products(points, P.A), the rows x s transpose of
    row_products(P.A, points): each is the same product (floating-point
    multiplication commutes), summed in the same column order, so it has the
    same bits, and the test across P's few rows runs along the long axis of
    points.
    """
    point = np.asarray(point, dtype=float)
    if point.ndim != 2:
        point = point.ravel()
    if point.shape[-1] != P.dim:
        raise ValueError("point dimension mismatch")
    inside = (row_products(np.atleast_2d(point), P.A) <= (P.b + slack)[:, None]).all(axis=0)
    return inside if point.ndim == 2 else bool(inside[0])


def remove_redundant(P: Polyhedron, point: Optional[np.ndarray] = None) -> Polyhedron:
    """Minimal sub-representation of a nonempty P with the same point set.

    Exact duplicate rows (up to positive scaling) are dropped first, then
    each remaining row is kept only if maximizing its left-hand side subject
    to the other rows can exceed b_i + REDUNDANCY_TOL. A row whose test LP
    fails numerically is retained: keeping a redundant row is harmless,
    dropping a needed one is not.

    `point`, a point of P such as feasible_point(P) returns, lets every test
    LP skip phase 1: the LPs are solved in y = x - point, where the right-hand
    side b - A point is nonnegative once rounding negatives in (-_TINY_RHS, 0)
    are set to 0, and row i is kept when a_i y can exceed
    (b_i - a_i point) + REDUNDANCY_TOL. In exact arithmetic these are the
    same LPs. A point that violates some row by more than FEAS_TOL is
    ignored.

    Each test LP stops as soon as its objective passes the row's bound by
    2*REDUNDANCY_TOL: the simplex only raises it, so the full LP would keep
    the row as well, and the extra REDUNDANCY_TOL absorbs rounding.
    """
    r = P.nrows
    if r <= 1:
        return P
    shifted = None if point is None else _shifted_rhs(P, point)
    rhs = P.b if shifted is None else shifted
    # Python floats compare with the same IEEE results as numpy scalars, at a
    # fraction of the cost per pair.
    An, bn = normalize_rows(P.A, P.b)
    An, bn = An.tolist(), bn.tolist()
    keep = []
    for i in range(r):
        if not any(abs(bn[i] - bn[j]) <= 1e-12
                   and max(abs(x - y) for x, y in zip(An[i], An[j])) <= 1e-12
                   for j in keep):
            keep.append(i)

    # Guard rows are rows of P, so only a zero row of P, whose raised bound
    # b_i + 1 may make it trivial, needs the constructor's checks.
    zero = (~P.A.any(axis=1)).tolist()
    bounds = rhs.tolist()
    # The survivors as a list, for positions, and as an index array, for
    # take. Row i's guard is every survivor but i, in order, then i; when i
    # goes, the survivors left are that guard's rows without its last.
    survivors = list(keep)
    alive = np.array(keep)
    for i in keep:
        if len(survivors) == 1:
            break
        p = survivors.index(i)
        rows = np.concatenate((alive[:p], alive[p + 1:], alive[p:p + 1]))
        guard_A = P.A.take(rows, axis=0)
        guard_b = rhs.take(rows)
        guard_b[-1] = bounds[i] + 1.0
        if zero[i]:
            guard = Polyhedron(guard_A, guard_b, P.dim)
        else:
            guard = Polyhedron._from_rows(guard_A, guard_b)
        try:
            res = solve_lp(P.A[i], guard, "max", target=bounds[i] + 2.0 * REDUNDANCY_TOL)
        except LpPivotLimitError:
            log.debug("redundancy LP hit the pivot cap, retaining row %d", i)
            continue
        if res.status == "optimal" and res.value <= bounds[i] + REDUNDANCY_TOL:
            del survivors[p]
            alive = rows[:-1]
    if len(survivors) == r:
        return P
    return Polyhedron._from_rows(P.A.take(alive, axis=0), P.b.take(alive))


def interior_point(P: Polyhedron) -> tuple[np.ndarray, float]:
    """Chebyshev center of P and the radius of the inscribed ball.

    Raises EmptyPolyhedronError when P is empty and GeometryError when the
    center LP is unbounded (P has an unbounded interior).
    """
    if P.nrows == 0:
        raise GeometryError("polyhedron is the whole space, center is undefined")
    norms = np.linalg.norm(P.A, axis=1)
    A_ext = np.hstack([P.A, norms[:, None]])
    guard = np.zeros((1, P.dim + 1))
    guard[0, -1] = -1.0
    Q = Polyhedron(np.vstack([A_ext, guard]), np.concatenate([P.b, [0.0]]), P.dim + 1)
    c = np.zeros(P.dim + 1)
    c[-1] = 1.0
    res = solve_lp(c, Q, "max")
    if res.status == "infeasible":
        raise EmptyPolyhedronError("cannot compute an interior point of an empty set")
    if res.status == "unbounded":
        raise GeometryError("inscribed-ball LP is unbounded")
    return res.point[:-1], float(res.value)


def bounding_box(P: Polyhedron) -> tuple[np.ndarray, np.ndarray]:
    """Componentwise (lo, hi) bounds of a nonempty bounded P via 2*dim LPs."""
    lo = np.empty(P.dim)
    hi = np.empty(P.dim)
    for k in range(P.dim):
        e = np.zeros(P.dim)
        e[k] = 1.0
        fall = solve_lp(e, P, "min")
        rise = solve_lp(e, P, "max")
        if fall.status == "infeasible" or rise.status == "infeasible":
            raise EmptyPolyhedronError("bounding box of an empty set")
        if fall.status == "unbounded" or rise.status == "unbounded":
            raise GeometryError("polyhedron is unbounded")
        lo[k], hi[k] = fall.value, rise.value
    return lo, hi


def project_fm(P: Polyhedron, keep: int) -> Polyhedron:
    """Orthogonal projection of P onto its first `keep` coordinates.

    Coordinates are eliminated one at a time from the back. After each
    elimination the result is pruned: trivial rows vanish in the Polyhedron
    constructor, an empty intermediate short-circuits to the canonical empty
    set, and remove_redundant keeps the row count from snowballing. When an
    intermediate system would exceed FM_ROW_CAP rows, RowExplosionError is
    raised rather than grinding on. Each stage's emptiness test starts at
    the previous stage's point with its last coordinate dropped, which lies
    in the projection.
    """
    if not 0 < keep < P.dim:
        raise ValueError(f"keep must lie strictly between 0 and {P.dim}")
    cur = P
    x0 = None
    while cur.dim > keep:
        A, b = cur.A, cur.b
        scale = np.maximum(np.abs(A).max(axis=1, initial=0.0), np.abs(b))
        scale = np.where(scale > 0.0, scale, 1.0)
        A = A / scale[:, None]
        b = b / scale
        col = A[:, -1]
        zero = np.abs(col) <= 1e-12
        pos = np.nonzero(col > 1e-12)[0]
        neg = np.nonzero(col < -1e-12)[0]
        n_new = int(zero.sum()) + pos.size * neg.size
        if n_new > FM_ROW_CAP:
            raise RowExplosionError(
                f"projection needs {n_new} rows, cap is {FM_ROW_CAP}")
        parts_A = [A[zero][:, :-1]]
        parts_b = [b[zero]]
        if pos.size and neg.size:
            # Pairing an upper bound (positive coefficient) with a lower bound:
            # |col_n| * row_p + col_p * row_n, the eliminated column cancels.
            wp = (-col[neg])[None, :, None]   # |col_n|, broadcast over pairs
            wn = col[pos][:, None, None]      # col_p
            comb_A = wp * A[pos][:, None, :-1] + wn * A[neg][None, :, :-1]
            comb_b = (-col[neg])[None, :] * b[pos][:, None] + col[pos][:, None] * b[neg][None, :]
            parts_A.append(comb_A.reshape(-1, A.shape[1] - 1))
            parts_b.append(comb_b.reshape(-1))
        cur = Polyhedron(np.vstack(parts_A), np.concatenate(parts_b), cur.dim - 1)
        x0 = feasible_point(cur, start=None if x0 is None else x0[:-1])
        if x0 is None:
            return Polyhedron.empty(keep)
        cur = remove_redundant(cur, point=x0)
    return cur


def normalize_rows(A, b) -> tuple[np.ndarray, np.ndarray]:
    """Rows rescaled to unit coefficient norm (zero rows left alone)."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).ravel()
    norms = np.linalg.norm(A, axis=1)
    scale = np.where(norms > 0.0, norms, 1.0)
    return A / scale[:, None], b / scale
