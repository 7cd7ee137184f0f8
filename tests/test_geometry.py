import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import certias.geometry as geo
from certias.geometry import (
    EmptyPolyhedronError,
    GeometryError,
    LpPivotLimitError,
    Polyhedron,
    RowExplosionError,
    bounding_box,
    contains,
    interior_point,
    is_empty,
    project_fm,
    remove_redundant,
    solve_lp,
)

from oracles import enumerate_vertices, lp_by_vertices


def random_bounded(rng, dim, extra_rows, spread=2.0):
    """A random polytope: a shifted box plus a few random cuts through it."""
    center = rng.uniform(-1.0, 1.0, size=dim)
    half = rng.uniform(0.5, spread, size=dim)
    box = Polyhedron.box(center - half, center + half)
    if extra_rows == 0:
        return box
    A = rng.standard_normal((extra_rows, dim))
    # Cut somewhere beyond the center so the set stays nonempty.
    b = A @ center + rng.uniform(0.1, 1.5, size=extra_rows)
    return box.intersect(A, b)


class TestPolyhedronConstruction:
    def test_trivial_rows_dropped(self):
        P = Polyhedron([[0.0, 0.0], [1.0, 0.0]], [3.0, 1.0])
        assert P.nrows == 1

    def test_zero_row_negative_rhs_marks_empty(self):
        P = Polyhedron([[0.0]], [-1.0], dim=1)
        assert P.nrows == 1
        assert is_empty(P)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Polyhedron([[np.inf]], [1.0])
        with pytest.raises(ValueError):
            Polyhedron([[1.0]], [np.nan])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            Polyhedron([[1.0, 0.0]], [1.0, 2.0])

    def test_immutable(self):
        P = Polyhedron([[1.0]], [1.0])
        with pytest.raises(AttributeError):
            P.dim = 4
        with pytest.raises(ValueError):
            P.A[0, 0] = 5.0


class TestSolveLp:
    def test_interval_max(self):
        P = Polyhedron([[1.0]], [1.0])
        res = solve_lp([1.0], P, "max")
        assert res.status == "optimal"
        assert res.value == pytest.approx(1.0, abs=1e-9)

    def test_capped_simplex(self):
        P = Polyhedron([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [1.0, 1.0, 1.5])
        res = solve_lp([1.0, 1.0], P, "max")
        assert res.status == "optimal"
        assert res.value == pytest.approx(1.5, abs=1e-9)
        assert np.all(P.A @ res.point <= P.b + 1e-9)

    def test_infeasible(self):
        P = Polyhedron([[1.0], [-1.0]], [-1.0, -1.0])
        res = solve_lp([1.0], P, "max")
        assert res.status == "infeasible"
        assert res.point is None

    def test_unbounded(self):
        P = Polyhedron([[-1.0]], [0.0])
        res = solve_lp([1.0], P, "max")
        assert res.status == "unbounded"
        assert res.value == np.inf

    def test_min_sense(self):
        P = Polyhedron.box([-3.0], [3.0])
        res = solve_lp([1.0], P, "min")
        assert res.value == pytest.approx(-3.0, abs=1e-9)

    def test_negative_rhs_needs_phase1(self):
        # x >= 2, x <= 5: phase 1 must fire because -x <= -2 flips.
        P = Polyhedron([[-1.0], [1.0]], [-2.0, 5.0])
        res = solve_lp([1.0], P, "min")
        assert res.status == "optimal"
        assert res.value == pytest.approx(2.0, abs=1e-9)

    def test_matches_vertex_brute_force(self):
        rng = np.random.default_rng(5)
        for trial in range(120):
            dim = rng.integers(1, 4)
            P = random_bounded(rng, int(dim), int(rng.integers(0, 4)))
            c = rng.standard_normal(P.dim)
            want = lp_by_vertices(c, P.A, P.b, "max")
            res = solve_lp(c, P, "max")
            assert res.status == "optimal"
            assert res.value == pytest.approx(want, abs=1e-8)

    def test_deterministic_repeat(self):
        rng = np.random.default_rng(11)
        P = random_bounded(rng, 3, 4)
        c = rng.standard_normal(3)
        a = solve_lp(c, P, "max")
        b = solve_lp(c, P, "max")
        assert a.value == b.value
        assert np.array_equal(a.point, b.point)

    def test_pivot_cap_enforced(self, monkeypatch):
        monkeypatch.setattr(geo, "PIVOT_CAP_FACTOR", 0)
        P = Polyhedron.box([0.0, 0.0], [1.0, 1.0])
        with pytest.raises(LpPivotLimitError):
            solve_lp([1.0, 1.0], P, "max")

    def test_bad_sense_rejected(self):
        with pytest.raises(ValueError):
            solve_lp([1.0], Polyhedron([[1.0]], [1.0]), "best")


class TestIsEmpty:
    def test_contradictory_pair(self):
        assert is_empty(Polyhedron([[1.0], [-1.0]], [-1.0, -1.0]))

    def test_halfline_not_empty(self):
        assert not is_empty(Polyhedron([[1.0]], [1.0]))

    def test_sum_contradiction(self):
        P = Polyhedron([[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]], [-1.0, 0.0, 0.0])
        assert is_empty(P)

    def test_single_point_is_not_empty(self):
        P = Polyhedron([[1.0], [-1.0]], [2.0, -2.0])
        assert not is_empty(P)

    def test_agrees_with_vertex_oracle(self):
        rng = np.random.default_rng(23)
        for trial in range(150):
            dim = int(rng.integers(1, 4))
            box = Polyhedron.box(-np.ones(dim), np.ones(dim))
            extra = int(rng.integers(1, max(2, 9 - 2 * dim)))
            A = rng.standard_normal((extra, dim))
            b = rng.uniform(-1.5, 1.5, size=extra)
            P = box.intersect(A, b)
            # Instances include the box, so nonempty implies a vertex exists.
            has_vertex = len(enumerate_vertices(P.A, P.b)) > 0
            assert is_empty(P) == (not has_vertex)


class TestContains:
    def test_box_membership(self):
        P = Polyhedron.box([0.0, 0.0], [1.0, 1.0])
        assert contains(P, [0.5, 0.5])
        assert not contains(P, [1.1, 0.5])

    def test_slack_admits_boundary_overshoot(self):
        P = Polyhedron.box([0.0], [1.0])
        assert not contains(P, [1.0 + 1e-9])
        assert contains(P, [1.0 + 1e-9], slack=1e-8)

    @given(st.floats(-0.5, 1.5), st.floats(-0.5, 1.5))
    @settings(max_examples=60, deadline=None)
    def test_matches_direct_inequalities(self, x, y):
        P = Polyhedron.box([0.0, 0.0], [1.0, 1.0])
        want = 0.0 <= x <= 1.0 and 0.0 <= y <= 1.0
        assert contains(P, [x, y]) == want


class TestRemoveRedundant:
    def test_drops_dominated_row(self):
        P = Polyhedron([[1.0], [1.0]], [1.0, 2.0])
        R = remove_redundant(P)
        assert R.nrows == 1
        assert R.b[0] == 1.0

    def test_drops_duplicate_row(self):
        P = Polyhedron([[1.0], [-1.0], [1.0]], [1.0, 0.0, 1.0])
        R = remove_redundant(P)
        assert R.nrows == 2
        assert list(R.b) == [1.0, 0.0]

    def test_scaled_duplicate_dropped(self):
        P = Polyhedron([[2.0], [-1.0], [1.0]], [2.0, 0.0, 1.0])
        assert remove_redundant(P).nrows == 2

    def test_preserves_membership_on_samples(self):
        rng = np.random.default_rng(7)
        for trial in range(25):
            dim = int(rng.integers(1, 4))
            P = random_bounded(rng, dim, int(rng.integers(2, 6)))
            R = remove_redundant(P)
            assert R.nrows <= P.nrows
            pts = rng.uniform(-4.0, 4.0, size=(40, dim))
            for p in pts:
                assert contains(P, p, 1e-9) == contains(R, p, 1e-9)

    def test_irredundant_set_unchanged(self):
        P = Polyhedron.box([0.0, 0.0], [1.0, 1.0])
        assert remove_redundant(P).nrows == 4


class TestInteriorPoint:
    def test_right_triangle_incircle(self):
        # x >= 0, y >= 0, x + y <= 1. Inscribed circle radius (2 - sqrt(2)) / 2.
        P = Polyhedron([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]], [0.0, 0.0, 1.0])
        center, radius = interior_point(P)
        want = (2.0 - np.sqrt(2.0)) / 2.0
        assert radius == pytest.approx(want, abs=1e-9)
        assert center[0] == pytest.approx(want, abs=1e-8)
        assert center[1] == pytest.approx(want, abs=1e-8)

    def test_interval(self):
        P = Polyhedron.box([-3.0], [-1.0])
        center, radius = interior_point(P)
        assert center[0] == pytest.approx(-2.0, abs=1e-9)
        assert radius == pytest.approx(1.0, abs=1e-9)

    def test_unit_box(self):
        P = Polyhedron.box([0.0, 0.0], [1.0, 1.0])
        center, radius = interior_point(P)
        assert np.allclose(center, [0.5, 0.5], atol=1e-8)
        assert radius == pytest.approx(0.5, abs=1e-9)

    def test_empty_raises(self):
        P = Polyhedron([[1.0], [-1.0]], [-1.0, -1.0])
        with pytest.raises(EmptyPolyhedronError):
            interior_point(P)

    def test_ball_fits(self):
        rng = np.random.default_rng(3)
        for trial in range(20):
            P = random_bounded(rng, int(rng.integers(1, 4)), 3)
            center, radius = interior_point(P)
            norms = np.linalg.norm(P.A, axis=1)
            assert np.all(P.A @ center + norms * radius <= P.b + 1e-8)


class TestProjectFm:
    def test_strip_tail_coordinate(self):
        # x + e <= 0, |e| <= 0.1 projects to x <= 0.1.
        P = Polyhedron([[1.0, 1.0], [0.0, -1.0], [0.0, 1.0]], [0.0, 0.1, 0.1])
        R = project_fm(P, 1)
        res = solve_lp([1.0], R, "max")
        assert res.value == pytest.approx(0.1, abs=1e-9)
        assert not is_empty(R)
        assert contains(R, [0.1], 1e-12)
        assert not contains(R, [0.1 + 1e-6])

    def test_box_projects_to_interval(self):
        P = Polyhedron.box([0.0, 0.0], [1.0, 1.0])
        R = project_fm(P, 1)
        assert contains(R, [0.0]) and contains(R, [1.0])
        assert not contains(R, [-1e-6]) and not contains(R, [1.0 + 1e-6])

    def test_empty_input_projects_empty(self):
        P = Polyhedron([[1.0, 0.0], [-1.0, 0.0]], [-1.0, -1.0])
        assert is_empty(project_fm(P, 1))

    def test_projection_sound_and_complete(self):
        rng = np.random.default_rng(17)
        for trial in range(20):
            dim = int(rng.integers(2, 5))
            keep = int(rng.integers(1, dim))
            P = random_bounded(rng, dim, int(rng.integers(0, 4)))
            R = project_fm(P, keep)
            lo, hi = bounding_box(P)
            pts = rng.uniform(lo, hi, size=(60, dim))
            for p in pts:
                if contains(P, p, 1e-9):
                    # Members of P land inside the projection.
                    assert contains(R, p[:keep], 1e-7)
            qts = rng.uniform(lo[:keep], hi[:keep], size=(40, keep))
            for q in qts:
                if contains(R, q, -1e-7):
                    # Projection points lift back into P.
                    fiber = Polyhedron(
                        P.A[:, keep:], P.b - P.A[:, :keep] @ q, P.dim - keep)
                    assert not is_empty(fiber)

    def test_row_cap(self):
        rng = np.random.default_rng(2)
        P = random_bounded(rng, 3, 6)
        with pytest.raises(RowExplosionError):
            project_fm(P, 1, row_cap=2)

    def test_keep_bounds_checked(self):
        P = Polyhedron.box([0.0, 0.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            project_fm(P, 2)
        with pytest.raises(ValueError):
            project_fm(P, 0)


class TestBoundingBox:
    def test_box_roundtrip(self):
        P = Polyhedron.box([-1.0, 2.0], [3.0, 5.0])
        lo, hi = bounding_box(P)
        assert np.allclose(lo, [-1.0, 2.0], atol=1e-9)
        assert np.allclose(hi, [3.0, 5.0], atol=1e-9)

    def test_unbounded_raises(self):
        with pytest.raises(GeometryError):
            bounding_box(Polyhedron([[1.0]], [1.0]))


@given(st.floats(0.1, 3.0), st.floats(0.1, 3.0))
@settings(max_examples=40, deadline=None)
def test_box_chebyshev_radius_is_half_min_side(w, h):
    P = Polyhedron.box([0.0, 0.0], [w, h])
    _, radius = interior_point(P)
    assert radius == pytest.approx(min(w, h) / 2.0, rel=1e-7)


def _eliminate_by_rows(T, rhs, row, col):
    """Row-at-a-time elimination the vectorized kernel must match bit for bit."""
    piv = T[row, col]
    T[row] /= piv
    rhs[row] /= piv
    for r in range(T.shape[0]):
        if r != row and T[r, col] != 0.0:
            f = T[r, col]
            T[r] -= f * T[row]
            rhs[r] -= f * rhs[row]


def _same_bits(x, y):
    return x.shape == y.shape and np.array_equal(x.view(np.int64), y.view(np.int64))


def _pivot_batch():
    """A fixed seeded mix of optimal, phase-1 and redundancy LPs."""
    rng = np.random.default_rng(2211)
    for trial in range(40):
        dim = int(rng.integers(1, 5))
        P = random_bounded(rng, dim, int(rng.integers(0, 6)))
        solve_lp(rng.standard_normal(dim), P, "max")
        Q = P.intersect(rng.standard_normal((2, dim)), rng.uniform(-4.0, 0.5, size=2))
        geo.phase1_measure(Q)
        if not is_empty(Q):
            remove_redundant(Q)


class TestKernel:
    def test_elimination_matches_row_loop_bitwise(self):
        rng = np.random.default_rng(19)
        for trial in range(200):
            m, ncols = int(rng.integers(2, 9)), int(rng.integers(2, 9))
            T = rng.standard_normal((m, ncols))
            # Zeros of both signs, whole zero multipliers included, are where
            # a multiply-by-zero update would flip bits.
            T[rng.random((m, ncols)) < 0.3] = 0.0
            T[rng.random((m, ncols)) < 0.2] = -0.0
            rhs = rng.standard_normal(m)
            rhs[rng.random(m) < 0.3] = -0.0
            row, col = int(rng.integers(m)), int(rng.integers(ncols))
            T[row, col] = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)
            T_ref, rhs_ref = T.copy(), rhs.copy()
            _eliminate_by_rows(T_ref, rhs_ref, row, col)
            geo._eliminate(T, rhs, row, col)
            assert _same_bits(T, T_ref), trial
            assert _same_bits(rhs, rhs_ref), trial

    def test_pivot_total_of_seeded_batch(self):
        # Counts recorded with the row-at-a-time kernel; they must not move.
        lps, pivots = geo.lp_call_count(), geo.pivot_count()
        _pivot_batch()
        assert geo.lp_call_count() - lps == 182
        assert geo.pivot_count() - pivots == 683

    def test_pivot_count_follows_each_solve(self):
        P = Polyhedron([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]], [-0.5, -0.5, 3.0])
        before = geo.pivot_count()
        _, _, _, pivots = geo._simplex(P.A, P.b, np.array([-1.0, -2.0]), 100, geo.OPT_TOL)
        assert pivots > 0
        assert geo.pivot_count() == before
        solve_lp([1.0, 2.0], P, "max")
        assert geo.pivot_count() - before == pivots
        geo.phase1_measure(P)
        assert geo.pivot_count() - before > pivots

    @pytest.mark.parametrize("A, b, c, point", [
        ([[1.0], [-1.0], [-1.0], [2.0], [-2.0]], [1.0, -1.0, -1.0, 2.0, -2.0],
         [1.0], [1.0]),
        ([[1.0, 0.0], [-1.0, 0.0], [0.0, -1.0], [0.0, 1.0], [-1.0, -1.0]],
         [1.0, -1.0, -1.0, 1.0, -2.0], [1.0, 1.0], [1.0, 1.0]),
    ])
    def test_dependent_rows_drive_out_on_slack_columns(self, monkeypatch, A, b, c, point):
        # Repeated equalities leave artificials basic at level zero after
        # phase 1, on rows with no structural entry left. Each is driven out
        # on a slack column, so no row ever has to be dropped.
        drive_outs, in_pivot = [], [False]
        pivot_once, eliminate = geo._pivot_once, geo._eliminate

        def pivot(*args):
            in_pivot[0] = True
            try:
                return pivot_once(*args)
            finally:
                in_pivot[0] = False

        def elim(T, rhs, row, col):
            if not in_pivot[0]:
                drive_outs.append(col)
            eliminate(T, rhs, row, col)

        monkeypatch.setattr(geo, "_pivot_once", pivot)
        monkeypatch.setattr(geo, "_eliminate", elim)
        P = Polyhedron(A, b)
        status, x, measure, _ = geo._simplex(P.A, P.b, np.array(c), 100, geo.OPT_TOL)
        assert status == "optimal" and measure == 0.0
        assert np.allclose(x, point)
        n, m = P.dim, P.nrows
        assert drive_outs and all(2 * n <= j < 2 * n + m for j in drive_outs)


def _hard_instances(seed, count=60):
    """(kind, P, c): degenerate vertices, near-parallel rows, rows scaled 1e+-4.

    Every instance sits inside the box [-1, 1]^dim, so a nonempty one is
    bounded and has a vertex the oracle can find.
    """
    rng = np.random.default_rng(seed)
    out = []
    for trial in range(count):
        dim = int(rng.integers(2, 4))
        box = Polyhedron.box(-np.ones(dim), np.ones(dim))
        kind = ("degenerate", "parallel", "scaled")[trial % 3]
        if kind == "degenerate":
            # Several cuts through one box corner, one of them repeated.
            corner = rng.choice([-1.0, 1.0], size=dim)
            A = rng.standard_normal((3, dim))
            A = np.vstack([A, A[:1]])
            P = box.intersect(A, A @ corner)
            c = corner + 0.1 * rng.standard_normal(dim)
        elif kind == "parallel":
            # a x <= beta against (a + 1e-9 noise) x >= beta + gap: a sliver of
            # width 1e-3 when gap < 0, empty when gap > 0; plus a near-duplicate.
            a = rng.standard_normal(dim)
            a2 = a + 1e-9 * rng.standard_normal(dim)
            beta = float(a @ rng.uniform(-0.5, 0.5, size=dim))
            gap = 1e-3 * rng.choice([-1.0, 1.0])
            a3 = a + 1e-9 * rng.standard_normal(dim)
            P = box.intersect(np.vstack([a, -a2, a3]),
                              [beta, -(beta + gap), beta + 1e-10])
            c = rng.standard_normal(dim)
        else:
            P = random_bounded(rng, dim, int(rng.integers(1, 5)), spread=0.9)
            if trial % 2:
                # A clearly contradictory pair keeps empties in the mix.
                e = rng.standard_normal(dim)
                P = P.intersect(np.vstack([e, -e]), [0.0, -0.5])
            s = 10.0 ** rng.choice([-4.0, 0.0, 4.0], size=P.nrows)
            P = Polyhedron(P.A * s[:, None], P.b * s, dim)
            c = rng.standard_normal(dim)
        out.append((kind, P, c))
    return out


def _unit_rows(P):
    """Rows of P scaled to unit norm, for the scale-sensitive vertex oracle."""
    norms = np.linalg.norm(P.A, axis=1)
    return P.A / norms[:, None], P.b / norms


def _highs(c, P, sense="max"):
    """(status, value) of scipy's HiGHS on the same LP."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    sgn = -1.0 if sense == "max" else 1.0
    res = linprog(sgn * np.asarray(c), A_ub=P.A, b_ub=P.b,
                  bounds=[(None, None)] * P.dim, method="highs")
    status = {0: "optimal", 2: "infeasible", 3: "unbounded"}[res.status]
    return status, (sgn * res.fun if status == "optimal" else None)


class TestKernelDifferential:
    """solve_lp, is_empty and remove_redundant against independent references."""

    def test_solve_lp_matches_vertex_oracle(self):
        for kind, P, c in _hard_instances(101):
            An, bn = _unit_rows(P)
            want = lp_by_vertices(c, An, bn, "max")
            res = solve_lp(c, P, "max")
            if want is None:
                assert res.status == "infeasible", kind
            else:
                assert res.status == "optimal", kind
                assert res.value == pytest.approx(want, abs=1e-7), kind

    def test_solve_lp_matches_highs(self):
        rng = np.random.default_rng(103)
        cases = [(P, c) for _, P, c in _hard_instances(102)]
        # Unboxed cones make unbounded LPs part of the comparison.
        for trial in range(20):
            dim = int(rng.integers(2, 4))
            A = rng.standard_normal((int(rng.integers(1, 5)), dim))
            cases.append((Polyhedron(A, rng.uniform(0.1, 1.0, size=A.shape[0])),
                          rng.standard_normal(dim)))
        statuses = set()
        for P, c in cases:
            for sense in ("max", "min"):
                status, value = _highs(c, P, sense)
                res = solve_lp(c, P, sense)
                assert res.status == status
                statuses.add(status)
                if status == "optimal":
                    assert res.value == pytest.approx(value, abs=1e-6)
        assert statuses == {"optimal", "infeasible", "unbounded"}

    def test_is_empty_matches_references(self):
        seen = set()
        for kind, P, _ in _hard_instances(104):
            empty = is_empty(P)
            assert empty == (not enumerate_vertices(*_unit_rows(P))), kind
            assert empty == (_highs(np.zeros(P.dim), P)[0] == "infeasible"), kind
            seen.add(empty)
        assert seen == {True, False}

    def test_remove_redundant_matches_references(self):
        for kind, P, _ in _hard_instances(105):
            if is_empty(P):
                continue
            R = remove_redundant(P)
            # R keeps a subset of P's rows, so it contains P. Every row of P
            # must also hold on R, up to tolerance: the oracle maximizes each
            # unit-norm row of P over R's vertices.
            Rn = _unit_rows(R)
            for a, beta in zip(*_unit_rows(P)):
                assert lp_by_vertices(a, *Rn, "max") <= beta + 1e-7, kind
            # No kept row is implied by the other kept rows.
            for i in range(R.nrows):
                others = np.arange(R.nrows) != i
                guard = Polyhedron(np.vstack([R.A[others], R.A[i]]),
                                   np.concatenate([R.b[others], [R.b[i] + 1.0]]),
                                   R.dim)
                status, value = _highs(R.A[i], guard)
                tol = 1e-7 * max(1.0, np.linalg.norm(R.A[i]))
                assert status == "optimal" and value > R.b[i] - tol, kind

