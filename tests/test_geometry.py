import copy
import json
import pathlib
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import certias.geometry as geo
from certias.certifier import certify
from certias.cli import dump_document
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
    row_products,
    solve_lp,
)
from certias.lpp import ErrorModel
from certias.mpqp import load_problem

from oracles import enumerate_vertices, lp_by_vertices
from test_mpqp import random_problem


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

    def test_dimension_needed_and_positive(self):
        # A set without rows takes its dimension from dim=, which must be
        # at least 1.
        with pytest.raises(ValueError, match="dim is required"):
            Polyhedron(np.zeros((0, 2)), [])
        with pytest.raises(ValueError, match="at least 1"):
            Polyhedron(np.zeros((0, 0)), [], dim=0)

    def test_box_needs_equal_lengths(self):
        with pytest.raises(ValueError, match="equal length"):
            Polyhedron.box([0.0, 0.0], [1.0])

    def test_immutable(self):
        P = Polyhedron([[1.0]], [1.0])
        with pytest.raises(AttributeError):
            P.dim = 4
        with pytest.raises(ValueError):
            P.A[0, 0] = 5.0

    @pytest.mark.parametrize("how", ["pickle", "copy", "deepcopy"])
    def test_pickle_and_copy(self, how):
        # Rebuilt through _from_rows: the same rows and dim, still frozen. A
        # set without rows keeps its dim, which is its A's column count.
        rebuild = {"pickle": lambda P: pickle.loads(pickle.dumps(P)),
                   "copy": copy.copy, "deepcopy": copy.deepcopy}[how]
        P = random_bounded(np.random.default_rng(4), 3, 2)
        Q = rebuild(P)
        assert type(Q) is Polyhedron and Q.dim == P.dim == 3
        assert (Q.A.tobytes(), Q.b.tobytes()) == (P.A.tobytes(), P.b.tobytes())
        assert not Q.A.flags.writeable and not Q.b.flags.writeable
        with pytest.raises(AttributeError):
            Q.dim = 4
        with pytest.raises(ValueError):
            Q.b[0] = 5.0
        free = rebuild(Polyhedron(np.zeros((0, 2)), [], dim=2))
        assert (free.nrows, free.dim, free.A.shape) == (0, 2, (0, 2))
        assert not free.A.flags.writeable and not free.b.flags.writeable


class TestIntersect:
    """intersect checks only the rows it appends; the result must be the
    public constructor's on the stacked rows, bit for bit."""

    @staticmethod
    def _stacked(P, A, b):
        A = np.asarray(A, dtype=float).reshape(-1, P.dim)
        return Polyhedron(np.vstack([P.A, A]), np.concatenate([P.b, np.ravel(b)]), P.dim)

    def _check(self, P, A, b):
        got, want = P.intersect(A, b), self._stacked(P, A, b)
        assert got.dim == want.dim
        assert _same_bits(got.A, want.A) and _same_bits(got.b, want.b)
        assert not (got.A.flags.writeable or got.b.flags.writeable)
        return got

    def test_seeded_cases_match_constructor(self):
        rng = np.random.default_rng(71)
        dropped = kept_zero = 0
        for trial in range(300):
            dim = int(rng.integers(1, 4))
            P = (Polyhedron(np.zeros((0, dim)), [], dim) if trial % 7 == 0
                 else random_bounded(rng, dim, int(rng.integers(0, 3))))
            k = int(rng.integers(0, 5))
            A = rng.standard_normal((k, dim))
            A[rng.random(A.shape) < 0.3] = 0.0
            A[rng.random(k) < 0.3] = 0.0
            b = rng.uniform(-1.0, 1.0, size=k)
            b[rng.random(k) < 0.2] = 0.0
            b[rng.random(k) < 0.2] = -0.0
            zero = ~A.any(axis=1)
            dropped += int((zero & (b >= 0.0)).sum())
            kept_zero += int((zero & (b < 0.0)).sum())
            self._check(P, A, b)
            if k == 1:
                self._check(P, A[0], b)
        assert dropped > 20 and kept_zero > 10

    def test_trivial_rows_are_dropped(self):
        P = Polyhedron.box([0.0, 0.0], [1.0, 1.0])
        Q = self._check(P, [[0.0, 0.0], [1.0, 1.0], [0.0, 0.0]], [2.0, 1.5, -0.0])
        assert Q.nrows == 5

    def test_zero_row_with_negative_rhs_is_kept(self):
        P = Polyhedron.box([0.0, 0.0], [1.0, 1.0])
        Q = self._check(P, [[0.0, 0.0]], [-1e-3])
        assert Q.nrows == 5
        assert geo.feasible_point(Q) is None

    @pytest.mark.parametrize("A, b", [([[np.nan, 0.0]], [1.0]), ([[1.0, 0.0]], [np.inf]),
                                      ([[1.0, -np.inf]], [0.0])])
    def test_non_finite_row_raises(self, A, b):
        with pytest.raises(ValueError, match="finite"):
            Polyhedron.box([0.0, 0.0], [1.0, 1.0]).intersect(A, b)

    @pytest.mark.parametrize("A, b", [([[1.0, 0.0, 0.0]], [1.0]),
                                      ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], [1.0, 1.0]),
                                      # Six numbers: two rows of width 3,
                                      # not three rows of width 2.
                                      ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], [1.0, 1.0, 1.0]),
                                      ([[1.0, 0.0]], [1.0, 2.0]),
                                      ([1.0, 0.0, 0.0], [1.0])])
    def test_wrong_shape_raises(self, A, b):
        with pytest.raises(ValueError):
            Polyhedron.box([0.0, 0.0], [1.0, 1.0]).intersect(A, b)


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

    def test_no_rows(self):
        # Without rows only a zero objective is bounded; its optimum is the
        # origin.
        free = Polyhedron(np.zeros((0, 2)), [], dim=2)
        res = solve_lp([0.0, 0.0], free, "max")
        assert (res.status, res.value, res.point.tolist()) == ("optimal", 0.0, [0.0, 0.0])
        assert solve_lp([0.0, 1.0], free, "min").status == "unbounded"

    def test_objective_size_checked(self):
        with pytest.raises(ValueError, match="objective has 2 entries, polyhedron dim is 1"):
            solve_lp([1.0, 0.0], Polyhedron([[1.0]], [1.0]), "max")


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


class TestFeasiblePoint:
    def _cases(self):
        rng = np.random.default_rng(41)
        cases = [P for _, P, _ in _hard_instances(106)]
        cases += [random_bounded(rng, int(rng.integers(1, 4)), int(rng.integers(0, 5)))
                  for _ in range(20)]
        cases += [Polyhedron([[1.0], [-1.0]], [-1.0, -1.0]),
                  Polyhedron([[1.0], [-1.0]], [2.0, -2.0]),
                  Polyhedron([[1.0, 0.0], [0.0, 0.0]], [1.0, -1.0]),
                  Polyhedron(np.zeros((0, 2)), [], dim=2)]
        return cases

    def test_none_exactly_when_empty(self):
        seen = set()
        for P in self._cases():
            x = geo.feasible_point(P)
            # The emptiness test as it read before feasible_point existed.
            zero_neg = (~P.A.any(axis=1) & (P.b < 0.0)).any()
            old = bool(zero_neg or (P.nrows > 0 and geo.phase1_measure(P)[0] > geo.FEAS_TOL))
            assert (x is None) == is_empty(P) == old
            if x is not None:
                assert x.shape == (P.dim,)
                assert np.all(P.A @ x <= P.b + geo.FEAS_TOL)
            seen.add(x is None)
        assert seen == {True, False}

    def test_costs_one_phase1_lp(self):
        for P in self._cases():
            lps, pivots = geo.lp_call_count(), geo.pivot_count()
            geo.feasible_point(P)
            used = geo.lp_call_count() - lps, geo.pivot_count() - pivots
            zero_neg = (~P.A.any(axis=1) & (P.b < 0.0)).any()
            if zero_neg or P.nrows == 0:
                assert used == (0, 0)
                continue
            lps, pivots = geo.lp_call_count(), geo.pivot_count()
            geo.phase1_measure(P)
            assert used == (geo.lp_call_count() - lps, geo.pivot_count() - pivots)
            assert used[0] == 1


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

    def test_block_gives_each_points_own_answer(self):
        # Points on the slack bound b + 1e-9 of random rows, moved by a few
        # units of roundoff, so that some fall on each side of the bound.
        rng = np.random.default_rng(8)
        A = rng.standard_normal((6, 3)) * 10.0 ** rng.integers(-3, 3, size=(6, 1))
        P = Polyhedron(A, rng.uniform(0.5, 2.0, size=6))
        points = []
        for a, beta in zip(P.A, P.b):
            for _ in range(40):
                foot = rng.standard_normal(3)
                foot += (beta + 1e-9 - a @ foot) / (a @ a) * a
                points.append(foot + rng.integers(-4, 5) * 1e-16 * a / np.linalg.norm(a))
        points = np.array(points)
        want = [contains(P, p, slack=1e-9) for p in points]
        assert contains(P, points, slack=1e-9).tolist() == want
        assert 0 < sum(want) < len(want)

    def test_value_on_the_bound(self):
        # A row whose row_products value at the point is b + slack exactly
        # admits it; with b one ulp lower the value lies one ulp past.
        rng = np.random.default_rng(12)
        slack, past = 1e-9, 0
        for _ in range(200):
            a = rng.standard_normal(6) * 10.0 ** rng.integers(-3, 4, size=6)
            x = rng.standard_normal(6)
            value = row_products(a[None], x)[0]
            b = value - slack
            while b + slack < value:
                b = np.nextafter(b, np.inf)
            while b + slack > value:
                b = np.nextafter(b, -np.inf)
            assert b + slack == value
            assert contains(Polyhedron(a[None], [b]), x, slack=slack)
            lower = np.nextafter(b, -np.inf)
            if lower + slack < value:
                past += 1
                assert not contains(Polyhedron(a[None], [lower]), x, slack=slack)
        assert past > 150

    def test_block_edge_cases(self):
        free = Polyhedron(np.zeros((0, 2)), np.zeros(0), 2)
        assert contains(free, np.zeros((3, 2))).tolist() == [True] * 3
        box = Polyhedron.box([0.0, 0.0], [1.0, 1.0])
        assert contains(box, np.zeros((0, 2))).tolist() == []
        with pytest.raises(ValueError, match="dimension"):
            contains(box, np.zeros((3, 3)))


@pytest.mark.parametrize("d", [1, 2, 3, 6])
def test_row_products_fixed_order(d):
    # Each point's products are the same bits alone and in blocks of any
    # size, and are the column-by-column sum in order.
    rng = np.random.default_rng(d)
    A = rng.standard_normal((9, d)) * 10.0 ** rng.integers(-3, 4, size=(9, 1))
    points = rng.standard_normal((300, d)) * 10.0 ** rng.integers(-3, 4, size=(300, d))
    alone = np.array([row_products(A, x) for x in points])
    for x, z in zip(points[:20], alone):
        want = [sum((float(xj) * float(aj) for xj, aj in zip(x[1:], a[1:])),
                    float(x[0]) * float(a[0])) for a in A]
        assert z.tolist() == want
    for size in (1, 7, 128, 129):
        block = np.vstack([row_products(A, points[i:i + size])
                           for i in range(0, len(points), size)])
        assert block.tobytes() == alone.tobytes()


def _public_guards(P):
    """The guard polyhedra of remove_redundant(P), built by the public
    constructor from stacked rows, in the order its LPs solve them."""
    An, bn = geo.normalize_rows(P.A, P.b)
    keep = []
    for i in range(P.nrows):
        if not any(abs(bn[i] - bn[j]) <= 1e-12 and np.max(np.abs(An[i] - An[j])) <= 1e-12
                   for j in keep):
            keep.append(i)
    guards = []
    survivors = list(keep)
    for i in list(survivors):
        others = [j for j in survivors if j != i]
        if not others:
            break
        guard = Polyhedron(np.vstack([P.A[others], P.A[i][None, :]]),
                           np.concatenate([P.b[others], [P.b[i] + 1.0]]), P.dim)
        guards.append(guard)
        res = solve_lp(P.A[i], guard, "max")
        if res.status == "optimal" and res.value <= P.b[i] + geo.REDUNDANCY_TOL:
            survivors.remove(i)
    return guards


class TestRemoveRedundant:
    def test_guards_match_public_constructor(self, monkeypatch):
        # remove_redundant skips the constructor's checks for its guards;
        # each must still be bitwise the constructor's. A zero row of P is
        # the case where the constructor drops the raised guard row.
        calls = []
        solve, remove = geo.solve_lp, remove_redundant

        def spy_solve(c, P, sense="min", **kw):
            calls[-1][1].append(P)
            return solve(c, P, sense, **kw)

        def spy_remove(P, *args):
            calls.append((P, []))
            return remove(P, *args)

        monkeypatch.setattr(geo, "solve_lp", spy_solve)
        monkeypatch.setitem(globals(), "remove_redundant", spy_remove)
        _pivot_batch()
        for b_zero in (-0.5, -2.0):
            spy_remove(Polyhedron([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]], [1.0, 1.0, b_zero]))
        for P, guards in calls:
            want = _public_guards(P)
            assert len(guards) == len(want)
            for got, w in zip(guards, want):
                assert got.dim == w.dim
                assert _same_bits(got.A, w.A) and _same_bits(got.b, w.b)
        assert sum(len(guards) for _, guards in calls) > 60
        # The zero row's guard loses its raised row only once b + 1 >= 0.
        assert [g.nrows for g in calls[-2][1]] == [3, 3, 2]
        assert [g.nrows for g in calls[-1][1]] == [3, 3, 3]

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


def _redundancy_batch(seed):
    """(kind, P): nonempty polytopes whose redundancy tests are easy to get wrong.

    thin: equality pairs, so P has zero width in one or two directions.
    near: rows cutting P by less than REDUNDANCY_TOL (dropped) or a little
    more (kept). scaled: rows multiplied by 1e-4, where the absolute
    tolerance is large next to the row.
    """
    rng = np.random.default_rng(seed)
    out = []
    for trial in range(90):
        kind = ("random", "thin", "near", "scaled")[trial % 4]
        dim = int(rng.integers(1, 4))
        P = random_bounded(rng, dim, int(rng.integers(0, 5)))
        if kind in ("thin", "near"):
            x = interior_point(P)[0]
            for _ in range(int(rng.integers(1, min(dim, 2) + 1))):
                a = rng.standard_normal(dim)
                if kind == "thin":
                    P = P.intersect(np.vstack([a, -a]), [a @ x, -(a @ x)])
                else:
                    top = solve_lp(a, P, "max").value
                    cut = rng.choice([0.3, 0.7, 3.0, 30.0]) * geo.REDUNDANCY_TOL
                    P = P.intersect(a, [top - cut])
        elif kind == "scaled":
            s = np.where(rng.random(P.nrows) < 0.5, 1e-4, 1.0)
            P = Polyhedron(P.A * s[:, None], P.b * s, dim)
        out.append((kind, P))
    return out


class TestShiftedRedundancy:
    def test_point_gives_bitwise_same_rows(self):
        pivots = {"point": 0, "none": 0}
        rows_in = rows_out = 0
        for kind, P in _redundancy_batch(43):
            x0 = geo.feasible_point(P)
            assert x0 is not None, kind
            assert np.min(P.b - P.A @ x0) >= -geo.FEAS_TOL, kind
            results = {}
            for key, point in (("none", None), ("point", x0)):
                lps, before = geo.lp_call_count(), geo.pivot_count()
                results[key] = remove_redundant(P, point=point), geo.lp_call_count() - lps
                pivots[key] += geo.pivot_count() - before
            (R, lps), (R0, lps0) = results["point"], results["none"]
            assert _same_bits(R.A, R0.A) and _same_bits(R.b, R0.b), kind
            assert lps == lps0, kind
            rows_in, rows_out = rows_in + P.nrows, rows_out + R.nrows
        # The batch drops and keeps rows, and the point spares phase 1.
        assert 0.3 * rows_in < rows_out < 0.9 * rows_in
        assert pivots["point"] < 0.8 * pivots["none"]

    def test_near_rows_decided_by_tolerance(self):
        # x + y <= 1 - cut trims the box's corner (3, -2) by `cut`: a row that
        # cuts by less than REDUNDANCY_TOL is dropped, one that cuts by more
        # is kept, whichever point of the box the LPs start from.
        P = Polyhedron.box([2.0, -3.0], [3.0, -2.0])
        for cut, kept in ((0.5e-9, False), (5e-9, True)):
            Q = P.intersect([1.0, 1.0], [1.0 - cut])
            for point in (None, geo.feasible_point(Q), np.array([2.5, -2.5])):
                assert (remove_redundant(Q, point=point).nrows == 5) == kept

    @pytest.mark.parametrize("violation", [3 * geo.FEAS_TOL, 1e-6, 1.0])
    def test_violating_point_is_ignored(self, violation):
        total = 0
        for kind, P in _redundancy_batch(47)[:40]:
            if P.nrows < 2:
                continue
            # Step out of P across row k until it is violated by `violation`.
            x0 = geo.feasible_point(P)
            k = int(np.argmin(P.b - P.A @ x0))
            a = P.A[k]
            bad = x0 + a * ((P.b[k] - a @ x0 + violation) / (a @ a))
            assert np.max(P.A @ bad - P.b) > geo.FEAS_TOL, kind
            got = []
            for point in (None, bad):
                lps, pivots = geo.lp_call_count(), geo.pivot_count()
                R = remove_redundant(P, point=point)
                got.append((R, geo.lp_call_count() - lps, geo.pivot_count() - pivots))
            (R0, lps0, piv0), (R, lps, piv) = got
            assert _same_bits(R.A, R0.A) and _same_bits(R.b, R0.b), kind
            assert (lps, piv) == (lps0, piv0), kind
            total += 1
        assert total > 30


def _ref_remove_redundant(P, tol=geo.REDUNDANCY_TOL, point=None):
    """remove_redundant as it read before rounding negatives were cleared
    from the shifted right-hand side and guard LPs stopped early: every
    guard LP runs to its optimum."""
    if P.nrows <= 1:
        return P
    rhs = P.b
    if point is not None:
        shifted = P.b - P.A @ point
        if shifted.min() >= -geo.FEAS_TOL:
            rhs = shifted
    An, bn = geo.normalize_rows(P.A, P.b)
    keep = []
    for i in range(P.nrows):
        if not any(abs(bn[i] - bn[j]) <= 1e-12 and np.max(np.abs(An[i] - An[j])) <= 1e-12
                   for j in keep):
            keep.append(i)
    survivors = list(keep)
    for i in list(survivors):
        others = [j for j in survivors if j != i]
        if not others:
            break
        guard = Polyhedron(P.A[others + [i]],
                           np.concatenate([rhs[others], [rhs[i] + 1.0]]), P.dim)
        try:
            res = solve_lp(P.A[i], guard, "max")
        except LpPivotLimitError:
            continue
        if res.status == "optimal" and res.value <= rhs[i] + tol:
            survivors.remove(i)
    return Polyhedron(P.A[survivors], P.b[survivors], P.dim)


def _pivot_batch_sets(monkeypatch):
    """The polytopes _pivot_batch hands to remove_redundant."""
    seen = []
    remove = remove_redundant

    def spy(P, *args, **kwargs):
        seen.append(P)
        return remove(P, *args, **kwargs)

    monkeypatch.setitem(globals(), "remove_redundant", spy)
    _pivot_batch()
    monkeypatch.setitem(globals(), "remove_redundant", remove)
    return seen


def _step_out(P, x, k, violation):
    """x moved across row k of P until the row is violated by `violation`
    (a negative violation leaves it that far inside)."""
    a = P.A[k]
    return x + a * ((P.b[k] - a @ x + violation) / (a @ a))


class TestEarlyStopAndClamp:
    """Guard LPs that stop once their row is proved kept, rounding negatives
    cleared from shifted right-hand sides, and emptiness tests started at a
    known point, each against the code as it read before."""

    def _check_same_rows(self, P, point):
        lps = geo.lp_call_count()
        R = remove_redundant(P, point=point)
        lps = geo.lp_call_count() - lps
        before = geo.lp_call_count()
        R0 = _ref_remove_redundant(P, point=point)
        assert lps == geo.lp_call_count() - before
        assert _same_bits(R.A, R0.A) and _same_bits(R.b, R0.b)
        return P.nrows, R.nrows

    def test_redundancy_batches_match_reference(self):
        rows_in = rows_out = 0
        for seed in (43, 47):
            for kind, P in _redundancy_batch(seed):
                x0 = geo.feasible_point(P)
                for point in (None, x0, interior_point(P)[0]):
                    got = self._check_same_rows(P, point)
                    rows_in, rows_out = rows_in + got[0], rows_out + got[1]
        assert 0.3 * rows_in < rows_out < 0.9 * rows_in

    def test_pivot_batch_matches_reference(self, monkeypatch):
        sets = _pivot_batch_sets(monkeypatch)
        assert len(sets) >= 5
        for P in sets:
            for point in (None, geo.feasible_point(P)):
                self._check_same_rows(P, point)

    def test_scaled_rows_match_reference(self):
        rng = np.random.default_rng(53)
        count = 0
        for kind, P in _redundancy_batch(59):
            s = 10.0 ** rng.choice([-4.0, 0.0, 4.0], size=P.nrows)
            P = Polyhedron(P.A * s[:, None], P.b * s, P.dim)
            x0 = geo.feasible_point(P)
            if x0 is None:
                continue
            for point in (None, x0):
                self._check_same_rows(P, point)
            count += 1
        assert count > 60

    @pytest.mark.parametrize("violation", [2e-11, 2e-10, 9e-10, 3 * geo.FEAS_TOL, 1.0])
    def test_violating_points_match_reference(self, violation):
        total = 0
        for kind, P in _redundancy_batch(47)[:40]:
            if P.nrows < 2:
                continue
            x0 = geo.feasible_point(P)
            k = int(np.argmin(P.b - P.A @ x0))
            self._check_same_rows(P, _step_out(P, x0, k, violation))
            total += 1
        assert total > 30

    @pytest.mark.parametrize("violation", [2e-11, 2e-10, 9e-10])
    def test_violation_beyond_rounding_is_not_cleared(self, violation):
        # x + y <= 1 - cut trims the box's corner (3, -2) by cut =
        # REDUNDANCY_TOL + violation / 2, so the row is kept. Seen from a
        # point that violates it by `violation`, within FEAS_TOL but beyond
        # the tiny-rhs rule, the LP must not relax the row to pass the point.
        cut = geo.REDUNDANCY_TOL + violation / 2
        Q = Polyhedron.box([2.0, -3.0], [3.0, -2.0]).intersect([1.0, 1.0], [1.0 - cut])
        point = _step_out(Q, np.array([2.5, -2.5]), 4, violation)
        assert np.all(Q.A[:4] @ point <= Q.b[:4])
        assert remove_redundant(Q, point=point).nrows == 5
        assert _ref_remove_redundant(Q, point=point).nrows == 5

    def test_target_stops_only_beyond_the_optimum(self):
        stopped = full = 0
        for kind, P, c in _kernel_lps(61, 600):
            for sense in ("max", "min"):
                lps, pivots = geo.lp_call_count(), geo.pivot_count()
                want = solve_lp(c, P, sense)
                want_pivots = geo.pivot_count() - pivots
                sign = 1.0 if sense == "max" else -1.0
                value = want.value if want.status == "optimal" else 0.0
                for gap in (-1.0, -1e-3, 0.0, 1e-3, 1.0):
                    t = value - sign * gap
                    pivots = geo.pivot_count()
                    res = solve_lp(c, P, sense, target=t)
                    used = geo.pivot_count() - pivots
                    if res.status == "target":
                        # With t at the optimum, the running value may pass t
                        # by rounding at a vertex that ties the optimum;
                        # remove_redundant's extra tol covers this.
                        slack = 1e-12 * max(1.0, abs(t)) if gap == 0.0 else 0.0
                        assert want.status in ("optimal", "unbounded"), kind
                        if want.status == "optimal":
                            assert sign * (want.value - t) > -slack, kind
                        assert sign * (res.value - t) > -slack, kind
                        assert contains(P, res.point, 1e-9), kind
                        # An unbounded LP may stop on the pivot it would
                        # have found unbounded; an optimal one saves a pivot.
                        assert used <= want_pivots - (want.status == "optimal"), kind
                        stopped += 1
                        continue
                    assert res.status == want.status, kind
                    assert _same_bits(np.float64(res.value), np.float64(want.value)), kind
                    assert (res.point is None) == (want.point is None), kind
                    if want.point is not None:
                        assert _same_bits(res.point, want.point), kind
                    assert used == want_pivots, kind
                    full += 1
        assert stopped > 100 and full > 100

    def test_guard_lps_stop_early(self, monkeypatch):
        sets = _pivot_batch_sets(monkeypatch)
        pivots = {}
        for key, remove in (("new", remove_redundant), ("ref", _ref_remove_redundant)):
            before = geo.pivot_count()
            for P in sets:
                remove(P, point=geo.feasible_point(P))
            pivots[key] = geo.pivot_count() - before
        assert pivots["new"] < 0.9 * pivots["ref"]

    def _starts(self, P, rng):
        """(where, start) pairs: inside P, on its boundary, outside it."""
        x0 = geo.feasible_point(P)
        if x0 is None:
            yield "outside", rng.uniform(-2.0, 2.0, size=P.dim)
            yield "outside", np.zeros(P.dim)
            return
        yield "boundary", x0
        inner = x0
        try:
            centre, radius = interior_point(P)
            if radius > 0.0:
                inner = centre
                yield "inside", centre
        except GeometryError:
            pass
        k = int(rng.integers(max(P.nrows, 1)))
        if P.nrows and np.any(P.A[k]):
            yield "boundary", _step_out(P, inner, k, 0.0)
            yield "outside", _step_out(P, inner, k, 1e-6)
            yield "outside", _step_out(P, inner, k, 1.0)

    def test_start_changes_no_emptiness_verdict(self):
        rng = np.random.default_rng(67)
        seen = set()
        for P in TestFeasiblePoint()._cases():
            want = geo.feasible_point(P)
            zero_neg = (~P.A.any(axis=1) & (P.b < 0.0)).any()
            for where, start in self._starts(P, rng):
                lps = geo.lp_call_count()
                x = geo.feasible_point(P, start=start)
                assert geo.lp_call_count() - lps == (0 if zero_neg or P.nrows == 0 else 1)
                assert (x is None) == (want is None), where
                if x is not None:
                    assert np.all(P.A @ x <= P.b + geo.FEAS_TOL), where
                if np.min(P.b - P.A @ start, initial=0.0) < -geo.FEAS_TOL:
                    # A start outside P is ignored: today's LP, bit for bit.
                    pivots = geo.pivot_count()
                    again = geo.feasible_point(P, start=start)
                    used = geo.pivot_count() - pivots
                    pivots = geo.pivot_count()
                    geo.feasible_point(P)
                    assert used == geo.pivot_count() - pivots, where
                    assert (again is None) == (want is None), where
                    if want is not None:
                        assert _same_bits(again, want), where
                seen.add((where, want is None))
        assert seen >= {("inside", False), ("boundary", False), ("outside", False),
                        ("outside", True)}

    def test_start_inside_needs_no_pivots(self):
        P = Polyhedron.box([2.0, -3.0], [3.0, -2.0])
        for start in ([2.5, -2.5], [3.0, -2.0], [3.0 + 1e-12, -2.0]):
            pivots = geo.pivot_count()
            x = geo.feasible_point(P, start=np.array(start))
            assert geo.pivot_count() == pivots
            assert _same_bits(x, np.array(start) + 0.0)


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

    def test_half_line_raises(self):
        # x >= 0 holds balls of every radius: unbounded, not empty.
        with pytest.raises(GeometryError, match="inscribed-ball LP is unbounded") as info:
            interior_point(Polyhedron([[-1.0]], [0.0]))
        assert not isinstance(info.value, EmptyPolyhedronError)

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

    def test_row_cap(self, monkeypatch):
        rng = np.random.default_rng(2)
        P = random_bounded(rng, 3, 6)
        monkeypatch.setattr(geo, "FM_ROW_CAP", 2)
        with pytest.raises(RowExplosionError, match="cap is 2"):
            project_fm(P, 1)

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


# The kernel as it was before the augmented tableau: separate T, rhs and
# objective arrays. The current kernel must match it bit for bit.
def _ref_eliminate(T, rhs, row, col):
    piv = T[row, col]
    T[row] /= piv
    rhs[row] /= piv
    f = T[:, col].copy()
    f[row] = 0.0
    nz = f.nonzero()[0]
    T[nz] -= f[nz, None] * T[row]
    rhs[nz] -= f[nz] * rhs[row]


def _ref_pivot_once(T, rhs, obj, value, basis, col, tol_piv):
    d = T[:, col]
    rows = (d > tol_piv).nonzero()[0]
    if rows.size == 0:
        return None
    ratios = rhs[rows] / d[rows]
    best = ratios.min()
    ties = rows[ratios <= best + 1e-15]
    leave = ties[basis[ties].argmin()]
    _ref_eliminate(T, rhs, leave, col)
    f = obj[col]
    if f != 0.0:
        obj -= f * T[leave]
        value[0] -= f * rhs[leave]
    basis[leave] = col
    tiny = (rhs < 0.0) & (rhs > -1e-11)
    if tiny.any():
        rhs[tiny] = 0.0
    return leave


def _ref_simplex(A, b, c, budget, tol, target=np.inf):
    """The kernel's contract (see geometry._simplex), with its own tableau
    layout: T, rhs, the objective row and its running value `value`, which
    is -(c^T x) in phase 2, are separate arrays."""
    m, n = A.shape
    if m == 0:
        if np.allclose(c, 0.0):
            return "optimal", np.zeros(n), 0.0, 0
        return "unbounded", None, 0.0, 0
    flip = b < 0.0
    sign = np.where(flip, -1.0, 1.0)[:, None]
    Aw = sign * A
    rhs = np.abs(b).astype(float)
    flipped = flip.nonzero()[0]
    nart = flipped.size
    ncols = 2 * n + m + nart
    T = np.zeros((m, ncols))
    T[:, :n] = Aw
    T[:, n:2 * n] = -Aw
    T[np.arange(m), 2 * n + np.arange(m)] = sign.ravel()
    basis = 2 * n + np.arange(m)
    art_cols = 2 * n + m + np.arange(nart)
    T[flipped, art_cols] = 1.0
    basis[flipped] = art_cols
    is_art = np.zeros(ncols, dtype=bool)
    is_art[art_cols] = True

    pivots_used = 0

    def run(obj, value, allowed, target=np.inf):
        nonlocal pivots_used
        streak = 0
        bland = False
        while True:
            reduced = np.where(allowed, obj, np.inf)
            cand = (reduced < -tol).nonzero()[0]
            if cand.size == 0:
                return "optimal"
            if value[0] > target:
                return "target"
            col = cand[0] if bland else cand[reduced[cand].argmin()]
            if pivots_used >= budget:
                raise LpPivotLimitError(f"simplex exceeded {budget} pivots")
            leave = _ref_pivot_once(T, rhs, obj, value, basis, col, geo._PIVOT_EPS)
            if leave is None:
                return "unbounded"
            pivots_used += 1
            if rhs[leave] <= 1e-13:
                streak += 1
                bland = bland or streak >= geo._BLAND_AFTER
            else:
                streak = 0

    drive_outs = 0
    if nart > 0:
        obj1 = is_art.astype(float)
        value1 = np.zeros(1)
        for i in flipped:
            obj1 -= T[i]
            value1 -= rhs[i]
        run(obj1, value1, np.ones(ncols, dtype=bool))
        measure = float(rhs[is_art[basis]].sum())
        if measure > tol:
            return "infeasible", None, measure, pivots_used
        for i in is_art[basis].nonzero()[0]:
            cols = (np.abs(T[i, : 2 * n + m]) > geo._PIVOT_EPS).nonzero()[0]
            if cols.size == 0:
                raise GeometryError("basic artificial row has no structural "
                                    "or slack pivot")
            j = int(cols[0])
            _ref_eliminate(T, rhs, i, j)
            basis[i] = j
            drive_outs += 1
    else:
        measure = 0.0

    c2 = np.zeros(ncols)
    c2[:n] = c
    c2[n:2 * n] = -c
    obj2 = c2.copy()
    value2 = np.zeros(1)
    cb = c2[basis]
    for i in cb.nonzero()[0]:
        obj2 -= cb[i] * T[i]
        value2 -= cb[i] * rhs[i]
    status = run(obj2, value2, ~is_art, target)
    pivots = pivots_used + drive_outs
    if status == "unbounded":
        return "unbounded", None, measure, pivots
    x_full = np.zeros(ncols)
    x_full[basis] = rhs
    x = x_full[:n] - x_full[n:2 * n]
    return status, x, measure, pivots


_KERNEL_KINDS = ("random", "degenerate", "equality", "scaled", "infeasible", "unbounded")


def _kernel_lps(seed, count):
    """(kind, P, c) cycling through _KERNEL_KINDS, for the bitwise comparison."""
    rng = np.random.default_rng(seed)
    for trial in range(count):
        kind = _KERNEL_KINDS[trial % len(_KERNEL_KINDS)]
        n, m = int(rng.integers(1, 5)), int(rng.integers(1, 9))
        if kind == "random":
            A = rng.standard_normal((m, n))
            b = rng.uniform(-1.0, 2.0, m)
        elif kind == "degenerate":
            # Many rows through one vertex in 3 to 6 dimensions, inside a box:
            # runs of degenerate pivots long enough to switch to Bland's rule.
            n += 2
            v = rng.standard_normal(n)
            A = rng.standard_normal((4 * m + n, n))
            A = np.vstack([A, np.eye(n), -np.eye(n)])
            b = np.concatenate([A[:-2 * n] @ v, v + 3.0, 3.0 - v])
        elif kind == "equality":
            # Each equality as a pair of rows, repeated, inside a box: leftover
            # artificials after phase 1 have to be driven out.
            E = rng.standard_normal((int(rng.integers(1, 3)), n))
            v = rng.standard_normal(n)
            reps = int(rng.integers(1, 3))
            A = np.vstack([E, -E] * reps + [np.eye(n), -np.eye(n)])
            b = np.concatenate([E @ v, -(E @ v)] * reps + [np.full(2 * n, 3.0)])
        elif kind == "scaled":
            A = rng.standard_normal((m, n))
            A[rng.random(A.shape) < 0.3] = 0.0
            b = rng.uniform(-1.0, 2.0, m)
            s = 10.0 ** rng.choice([-4.0, 0.0, 4.0], size=m)
            A, b = A * s[:, None], b * s
        elif kind == "infeasible":
            e = rng.standard_normal(n)
            A = np.vstack([rng.standard_normal((m, n)), e, -e])
            b = np.concatenate([rng.uniform(0.1, 1.0, m), [-0.5, 0.0]])
        else:
            # A cone around the origin: most objectives are unbounded on it.
            A = rng.standard_normal((m, n))
            b = rng.uniform(0.1, 1.0, m)
        c = np.zeros(n) if rng.random() < 0.15 else rng.standard_normal(n)
        yield kind, Polyhedron(A, b), c


_SHIFTED_KINDS = ("signed zeros", "no flip", "all flipped")


def _shifted_lps(seed, count):
    """(kind, P, c) for the paths the kernel builds without phase 1 or with
    every row flipped.

    "signed zeros" is the system remove_redundant and feasible_point pose
    after shifting to a vertex: b >= 0, with the rows through the vertex at
    exact zeros of either sign. "no flip" is shifted to an interior point,
    so b > 0. In "all flipped" every b is negative: a set around a point far
    from the origin, or (every other time) a contradictory pair added.
    """
    rng = np.random.default_rng(seed)
    for trial in range(count):
        kind = _SHIFTED_KINDS[trial % len(_SHIFTED_KINDS)]
        dim = int(rng.integers(1, 5))
        c = rng.standard_normal(dim)
        if kind == "all flipped":
            v = rng.choice([-1.0, 1.0], size=dim) * rng.uniform(2.0, 3.0, size=dim)
            A = rng.standard_normal((int(rng.integers(1, 7)), dim))
            A *= -np.sign(A @ v)[:, None]
            b = (A @ v) * rng.uniform(0.2, 0.9, size=A.shape[0])
            if trial % 2:
                e = rng.standard_normal(dim)
                A, b = np.vstack([A, e, -e]), np.concatenate([b, [-0.5, -0.5]])
            yield kind, Polyhedron(A, b), c
            continue
        P = random_bounded(rng, dim, int(rng.integers(0, 5)))
        if kind == "no flip":
            point = interior_point(P)[0]
            yield kind, Polyhedron(P.A, P.b - P.A @ point), c
            continue
        d = rng.standard_normal(dim)
        point = solve_lp(d, P, "max").point
        b = np.maximum(P.b - P.A @ point, 0.0)
        tight = b < 1e-12
        b[tight] = rng.choice([0.0, -0.0], size=int(tight.sum()))
        # Half the time the vertex itself is optimal: min -d^T y at y = 0,
        # reached by degenerate pivots on the zero rows.
        yield kind, Polyhedron(P.A, b), (-d if trial % 2 else c)


def _same_bits(x, y):
    return x.shape == y.shape and np.array_equal(x.view(np.int64), y.view(np.int64))


def _same_as_reference(P, c, target=np.inf):
    """Status of the kernel's solve, after checking that it is the reference
    kernel's to the bit: status, x, phase-1 measure and pivots."""
    budget = geo.PIVOT_CAP_FACTOR * (P.nrows + P.dim)
    want = _ref_simplex(P.A, P.b, c, budget, geo.OPT_TOL, target)
    got = geo._simplex(P.A, P.b, c, budget, geo.OPT_TOL, target)
    assert got[0] == want[0]
    assert (got[1] is None) == (want[1] is None)
    if want[1] is not None:
        assert _same_bits(got[1], want[1])
    assert _same_bits(np.float64(got[2]), np.float64(want[2]))
    assert got[3] == want[3]
    return want


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


def _spy_drive_outs(monkeypatch):
    """Columns of the eliminations made outside a pivot loop, i.e. drive-outs."""
    drive_outs, in_loop = [], [False]
    optimize, eliminate = geo._optimize, geo._eliminate

    def loop(*args):
        in_loop[0] = True
        try:
            return optimize(*args)
        finally:
            in_loop[0] = False

    def elim(M, row, col):
        if not in_loop[0]:
            drive_outs.append(col)
        eliminate(M, row, col)

    monkeypatch.setattr(geo, "_optimize", loop)
    monkeypatch.setattr(geo, "_eliminate", elim)
    return drive_outs


class TestKernel:
    def test_elimination_matches_row_loop_bitwise(self):
        rng = np.random.default_rng(19)
        for trial in range(200):
            m, ncols = int(rng.integers(2, 9)), int(rng.integers(2, 9))
            # [T rhs; obj value], the augmented tableau _eliminate works on.
            M = rng.standard_normal((m + 1, ncols + 1))
            # Zeros of both signs, whole zero multipliers included, are where
            # a multiply-by-zero update would flip bits.
            M[rng.random(M.shape) < 0.3] = 0.0
            M[rng.random(M.shape) < 0.2] = -0.0
            row, col = int(rng.integers(m)), int(rng.integers(ncols))
            M[row, col] = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)
            T, rhs = M[:m, :-1].copy(), M[:m, -1].copy()
            obj = M[m].copy()
            _eliminate_by_rows(T, rhs, row, col)
            f = obj[col]
            if f != 0.0:
                obj -= f * np.append(T[row], rhs[row])
            geo._eliminate(M, row, col)
            assert _same_bits(M[:m, :-1], T), trial
            assert _same_bits(M[:m, -1], rhs), trial
            assert _same_bits(M[m], obj), trial

    def test_matches_reference_kernel_bitwise(self, monkeypatch):
        drive_outs = _spy_drive_outs(monkeypatch)
        seen = {}
        for kind, P, c in _kernel_lps(31, 2400):
            want = _same_as_reference(P, c)
            seen.setdefault(kind, set()).add(want[0])
        assert set(seen) == set(_KERNEL_KINDS)
        assert set().union(*seen.values()) == {"optimal", "infeasible", "unbounded"}
        assert "infeasible" in seen["infeasible"] and "unbounded" in seen["unbounded"]
        assert drive_outs

    def test_shifted_systems_match_reference_bitwise(self):
        # Each LP is solved without a target, then with targets short of,
        # at and past its optimum, where the "target" stop reads the running
        # objective value.
        seen = set()
        zero_x = 0
        for kind, P, c in _shifted_lps(37, 900):
            flipped = int((P.b < 0.0).sum())
            assert flipped == (P.nrows if kind == "all flipped" else 0)
            want = _same_as_reference(P, c)
            seen.add((kind, want[0]))
            if kind == "signed zeros" and want[1] is not None:
                zero_x += bool((want[1] == 0.0).any())
            if want[0] != "optimal":
                continue
            value = -(c @ want[1])
            for gap in (1.0, 1e-3, 0.0, -1e-3):
                got = _same_as_reference(P, c, value - gap)
                seen.add((kind, got[0]))
        assert {("signed zeros", "optimal"), ("signed zeros", "target"),
                ("no flip", "optimal"), ("no flip", "target"),
                ("all flipped", "optimal"), ("all flipped", "infeasible"),
                ("all flipped", "unbounded"), ("all flipped", "target")} <= seen
        # A zero in x came through the ratio test on a zero row, where a
        # -0.0 right-hand side would have left its sign.
        assert zero_x > 10

    def test_pivot_total_of_seeded_batch(self):
        # Counts recorded with the row-at-a-time kernel. Pivots were 683
        # until redundancy LPs stopped once their row was proved kept; the
        # LP count must not move.
        lps, pivots = geo.lp_call_count(), geo.pivot_count()
        _pivot_batch()
        assert geo.lp_call_count() - lps == 182
        assert geo.pivot_count() - pivots == 659

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
        drive_outs = _spy_drive_outs(monkeypatch)
        P = Polyhedron(A, b)
        status, x, measure, _ = geo._simplex(P.A, P.b, np.array(c), 100, geo.OPT_TOL)
        assert status == "optimal" and measure == 0.0
        assert np.allclose(x, point)
        n, m = P.dim, P.nrows
        assert drive_outs and all(2 * n <= j < 2 * n + m for j in drive_outs)


def _certify_cases():
    """(problem, model, LPs) of the certify-level kernel comparison."""
    root = pathlib.Path(__file__).resolve().parent.parent / "problems"
    di = load_problem(json.loads((root / "double_integrator.json").read_text()))
    toy = load_problem(json.loads((root / "toy.json").read_text()))
    band = ErrorModel(kind="polyhedral", perturb_dual=True,
                      set=Polyhedron([[1.0], [-1.0]], [0.05, 0.05]))
    rand = random_problem(np.random.default_rng(7), 4, 8, 2)
    return [
        pytest.param(di, ErrorModel(kind="hypercube", bound=1e-4), 4149,
                     id="double-integrator-hypercube"),
        pytest.param(toy, band, 358, id="toy-polyhedral-perturb-dual"),
        pytest.param(rand, ErrorModel(), 1468, id="random-4x8x2-exact"),
    ]


@pytest.mark.parametrize("prob, model, lps", _certify_cases())
def test_certify_with_reference_kernel(monkeypatch, prob, model, lps):
    # Every LP a certification solves, through the reference kernel instead
    # of geometry._simplex: the same document to the byte, in as many LPs
    # and pivots.
    runs = []
    for kernel in (geo._simplex, _ref_simplex):
        monkeypatch.setattr(geo, "_simplex", kernel)
        before = geo.lp_call_count(), geo.pivot_count()
        doc = dump_document(certify(prob, model=model).to_document())
        runs.append((doc, geo.lp_call_count() - before[0], geo.pivot_count() - before[1]))
    assert runs[0] == runs[1]
    assert runs[0][1] == lps


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

