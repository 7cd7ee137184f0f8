"""Slack profiles, iteration CDFs, and tolerance sweep tables.

The slack profile is indexed by executed iterations (depth 0 is the state
before any iteration), so the k-th slack check reads off entry k-1: a
worst case of w iterations means the profile settles at the tolerance from
entry w-1 on.
"""

import hashlib
import json
import logging
import math

import numpy as np
import pytest

from certias import analysis
from certias.analysis import (
    INF,
    IterationCdf,
    SlackProfile,
    SweepTable,
    iteration_cdf,
    slack_profile,
    sweep,
)
from certias.certifier import (
    BudgetExceededError,
    CertificationResult,
    CertifiedRegion,
    certify,
)
from certias.examples import double_integrator_problem, toy_problem
from certias.geometry import LpPivotLimitError, LpResult, Polyhedron, lp_call_count
from certias.lpp import KIND_HYPERCUBE, ErrorModel
from certias.mpqp import MpQP, subproblem_maps
from certias.solver import (DUAL_CHECK, SLACK_CHECK, TERMINATED_ITER_LIMIT, TERMINATED_OPTIMAL,
                            SolverState, run)

EPS_P = 1e-6
NOISE = 1e-12


@pytest.fixture(scope="module")
def toy():
    return toy_problem()


@pytest.fixture(scope="module")
def toy_result(toy):
    return certify(toy)


@pytest.fixture(scope="module")
def toy_inflated(toy):
    return certify(toy, model=ErrorModel(kind=KIND_HYPERCUBE, bound=0.1))


@pytest.fixture(scope="module")
def mpc():
    return double_integrator_problem()


@pytest.fixture(scope="module")
def mpc_result(mpc):
    return certify(mpc)


def _fake_result(leaves):
    return CertificationResult(regions=leaves, problem_digest="",
                               settings={}, stats={})


def _leaf(status, iterations):
    """A leaf on [0, 1] whose sequence alternates a slack check on no rows
    with a dual check on row 0 and stops `optimal` after its last slack
    check, or hits the `iter_limit` cap after its last dual check."""
    executed = 2 * iterations - 1 if status == "optimal" else 2 * iterations
    marker = TERMINATED_OPTIMAL if status == "optimal" else TERMINATED_ITER_LIMIT
    sequence = tuple(SolverState((0,), DUAL_CHECK) if j % 2 else SolverState((), SLACK_CHECK)
                     for j in range(executed)) + (SolverState((), marker),)
    leaf = CertifiedRegion(Polyhedron.box([0.0], [1.0]), sequence)
    assert (leaf.status, leaf.iterations) == (status, iterations)
    return leaf


class TestSlackProfile:
    def test_toy_depths(self, toy, toy_result):
        profile = slack_profile(toy, toy_result)
        ks = [k for k, _ in profile.per_iteration]
        vs = profile.values()
        assert ks == [0, 1, 2]
        assert vs[0] == pytest.approx(2.0, abs=1e-12)
        assert vs[1] == pytest.approx(EPS_P, abs=1e-12)
        assert vs[2] == pytest.approx(EPS_P, abs=1e-12)
        assert profile.skipped_singular == 0
        assert profile.lp_failures == 0

    def test_single_point_domain_matches_run(self, toy):
        theta = np.array([-2.0])
        point = MpQP(toy.H, toy.C, toy.f_lin, toy.f_const, toy.d_lin,
                     toy.d_const, Polyhedron.box(theta, theta))
        profile = slack_profile(point, certify(point))

        res = run(point, theta)
        expected = [float(np.max(-snap))
                    for state, snap in zip(res.sequence, res.snapshots)
                    if state.mode == SLACK_CHECK]
        final_mu = subproblem_maps(point, res.sequence[-1].working_set).mu_map(theta)
        expected.append(float(np.max(-final_mu)))
        assert profile.values() == pytest.approx(expected, abs=1e-10)

    def test_inflated_dominates_nominal(self, toy, toy_result, toy_inflated):
        nominal = slack_profile(toy, toy_result).values()
        inflated = slack_profile(toy, toy_inflated).values()
        assert len(inflated) == 16  # live up to the iteration cap
        for vn, vi in zip(nominal, inflated):
            assert vi >= vn - NOISE
        # the overlap band keeps slack of order eps_bar alive past depth 1
        assert inflated[1] > 0.09

    def test_skips_singular_leaves(self, toy, toy_inflated):
        profile = slack_profile(toy, toy_inflated)
        degenerate = sum(1 for r in toy_inflated.regions
                         if r.status == "degenerate")
        assert degenerate > 0
        assert profile.skipped_singular == degenerate

    def test_mpc_settles_at_worst_iteration(self, mpc, mpc_result):
        profile = slack_profile(mpc, mpc_result).values()
        worst = max(r.iterations for r in mpc_result.regions)
        crossing = min(k for k, v in enumerate(profile) if v <= EPS_P + NOISE)
        assert crossing == worst - 1
        assert all(v <= EPS_P + NOISE for v in profile[crossing:])
        assert all(v > 10 * EPS_P for v in profile[:crossing])


def _profile_by_object(prob, result):
    """The slack profile with one _region_worst call per leaf and working
    set: (per_iteration, the calls that failed, all calls). A leaf is live
    at depth j // 2 for every slack check at an even position j of its
    sequence, except a degenerate leaf's last executed state; a leaf that
    did not end singular holds its final working set from its iteration
    count on."""
    live, holds = {}, []
    for i, reg in enumerate(result.regions):
        last = len(reg.sequence) - (2 if reg.status == "degenerate" else 1)
        for j in range(0, last, 2):
            live.setdefault(j // 2, []).append((i, reg.sequence[j].working_set))
        if reg.status != "degenerate":
            holds.append((reg.iterations, i, reg.sequence[-1].working_set))
    depth = max([*live, *(h[0] for h in holds)], default=0)
    cache, per_iteration = {}, []
    for k in range(depth + 1):
        worst = -INF
        for i, ws in live.get(k, []) + [(i, w) for s, i, w in holds if s <= k]:
            key = (i, tuple(ws))
            if key not in cache:
                cache[key] = analysis._region_worst(prob, result.regions[i].region, ws)
            if cache[key] is not None:
                worst = max(worst, cache[key])
        per_iteration.append((k, worst))
    return per_iteration, sum(v is None for v in cache.values()), len(cache)


class TestSlackCacheByContent:
    """slack_profile solves each region's LPs once per distinct rows and
    working set, however many leaves and depths share them."""

    @pytest.mark.parametrize("case", ["toy", "toy-0.1", "mpc-1e-4"])
    def test_same_document_fewer_lps(self, case, toy, mpc):
        prob, bound = {"toy": (toy, 0.0), "toy-0.1": (toy, 0.1),
                       "mpc-1e-4": (mpc, 1e-4)}[case]
        result = certify(prob, model=ErrorModel(kind=KIND_HYPERCUBE, bound=bound))
        before = lp_call_count()
        profile = slack_profile(prob, result)
        lps = lp_call_count() - before
        per_iteration, failed, _ = _profile_by_object(prob, result)
        reference_lps = lp_call_count() - before - lps
        reference = SlackProfile(per_iteration, skipped_singular=profile.skipped_singular,
                                 lp_failures=failed)
        assert json.dumps(profile.to_document()) == json.dumps(reference.to_document())
        assert lps <= reference_lps
        if case == "mpc-1e-4":
            assert (lps, reference_lps) == (186, 2970)

    def test_failures_count_leaves(self, monkeypatch, mpc):
        # Every LP fails: each leaf and working set counts once, while each
        # distinct content is solved once.
        result = certify(mpc, model=ErrorModel(kind=KIND_HYPERCUBE, bound=1e-4))
        contents = []

        def failing(prob, region, working_set):
            contents.append((region.A.tobytes(), region.b.tobytes(), tuple(working_set)))

        monkeypatch.setattr(analysis, "_region_worst", failing)
        profile = slack_profile(mpc, result)
        _, failed, pairs = _profile_by_object(mpc, result)
        assert profile.lp_failures == failed == pairs
        assert len(set(contents[:-pairs])) == len(contents) - pairs < pairs
        assert all(v == -INF for v in profile.values())

    def test_one_failed_lp(self, monkeypatch, caplog, toy, toy_inflated):
        # The toy has one constraint row. Its LP fails on the region of the
        # one-iteration leaf, whose empty working set is the worst slack at
        # every depth from 1 on and is held through all sixteen depths.
        clean = slack_profile(toy, toy_inflated).values()
        (leaf,) = [r for r in toy_inflated.regions if r.iterations == 1]
        real = analysis.solve_lp

        def solve_lp(c, region, sense="min"):
            if (np.array_equal(region.A, leaf.region.A)
                    and np.array_equal(region.b, leaf.region.b)):
                return LpResult("infeasible", math.nan, None)
            return real(c, region, sense)

        monkeypatch.setattr(analysis, "solve_lp", solve_lp)
        with caplog.at_level(logging.WARNING, logger="certias.analysis"):
            profile = slack_profile(toy, toy_inflated)
        assert [r.getMessage() for r in caplog.records] == [
            "slack LP infeasible on a region with 2 rows; excluded"]
        per_iteration, failed, _ = _profile_by_object(toy, toy_inflated)
        assert profile.lp_failures == failed == 1
        assert profile.per_iteration == per_iteration
        values = profile.values()
        assert len(values) == 16 and values[0] == clean[0]
        assert all(v < c for v, c in zip(values[1:], clean[1:]))


class TestSlackFromLeaves:
    # sha256 of json.dumps(slack_profile(...).to_document(), sort_keys=True)
    # as the profile read certify's recorded splits before it was derived
    # from the leaves: the values did not move.
    PINNED_SHA256 = {
        "toy": "d2e70800136f430bd95c184f9c97fd8b1b9f0fb72072eef4de9e40eb5b8e7b31",
        "toy-0.1": "adf8f9ec00c81f0948c16d155c0abcf22d8cb1d8422d0098d063b4abfdcaff1a",
        "mpc-1e-4": "610fbc1b6f19a6cd2dc3bca4e2206fadc20ece3a87accf3d96c67d70462b9b5f",
    }

    @pytest.mark.parametrize("case", sorted(PINNED_SHA256))
    def test_pinned_documents(self, case, toy, mpc):
        prob, bound = {"toy": (toy, 0.0), "toy-0.1": (toy, 0.1),
                       "mpc-1e-4": (mpc, 1e-4)}[case]
        result = certify(prob, model=ErrorModel(kind=KIND_HYPERCUBE, bound=bound))
        text = json.dumps(slack_profile(prob, result).to_document(), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == self.PINNED_SHA256[case]

    def test_read_back_document(self, toy, toy_inflated):
        back = CertificationResult.from_document(
            json.loads(json.dumps(toy_inflated.to_document())))
        assert slack_profile(toy, back) == slack_profile(toy, toy_inflated)

    def test_other_problem_refused(self, mpc, toy_result):
        with pytest.raises(ValueError, match="different problem"):
            slack_profile(mpc, toy_result)


class TestIterationCdf:
    def test_toy_exact(self, toy_result):
        assert iteration_cdf(toy_result).points == [(1, 0.5), (2, 1.0)]

    def test_single_region(self):
        result = _fake_result([_leaf("optimal", 3)])
        assert iteration_cdf(result).points == [(1, 0.0), (2, 0.0), (3, 1.0)]

    def test_capped_regions_never_terminate(self):
        result = _fake_result([_leaf("iter_limit", 15),
                               _leaf("iter_limit", 15)])
        cdf = iteration_cdf(result).points
        assert len(cdf) == 15
        assert all(frac == 0.0 for _, frac in cdf)

    def test_toy_inflated_shape(self, toy_inflated):
        cdf = iteration_cdf(toy_inflated).points
        fractions = [f for _, f in cdf]
        assert fractions == sorted(fractions)
        capped = sum(1 for r in toy_inflated.regions
                     if r.status == "iter_limit")
        total = len(toy_inflated.regions)
        assert capped > 0
        assert fractions[-1] == pytest.approx((total - capped) / total)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            iteration_cdf(_fake_result([]))


class TestSweep:
    def test_toy_grid(self, toy):
        table = sweep(toy, [1e-6], [0.0, 0.1])
        assert len(table.rows) == 2 and not table.annotations
        ep, eb, worst, count = table.rows[0]
        assert (ep, eb, worst, count) == (1e-6, 0.0, 2, 2)
        ep, eb, worst, count = table.rows[1]
        assert (ep, eb) == (1e-6, 0.1)
        assert math.isinf(worst)
        assert count == 45

    def test_rows_sorted(self, toy):
        table = sweep(toy, [1e-4, 1e-6], [0.1, 0.0])
        keys = [(ep, eb) for ep, eb, _, _ in table.rows]
        assert keys == [(1e-6, 0.0), (1e-6, 0.1), (1e-4, 0.0), (1e-4, 0.1)]

    @staticmethod
    def _fail_hypercube_cells(monkeypatch, exc):
        real = certify

        def flaky(prob, tol=None, model=None, **kw):
            if model is not None and model.kind != "none":
                raise exc
            return real(prob, tol, model, **kw)

        monkeypatch.setattr("certias.analysis.certify", flaky)

    def test_cell_failure_becomes_annotation(self, toy, monkeypatch):
        self._fail_hypercube_cells(monkeypatch, LpPivotLimitError("boom"))
        table = sweep(toy, [1e-6], [0.0, 0.1])
        assert len(table.rows) == 1 and table.rows[0][1] == 0.0
        assert table.annotations == [(1e-6, 0.1, "LpPivotLimitError: boom")]

    def test_budget_failure_becomes_annotation(self, toy, monkeypatch):
        self._fail_hypercube_cells(monkeypatch, BudgetExceededError("frontier"))
        table = sweep(toy, [1e-6], [0.0, 0.1])
        assert table.annotations == [(1e-6, 0.1, "BudgetExceededError: frontier")]

    def test_programming_error_propagates(self, toy, monkeypatch):
        # Only numerical and budget failures become annotations.
        self._fail_hypercube_cells(monkeypatch, TypeError("bad operand"))
        with pytest.raises(TypeError, match="bad operand"):
            sweep(toy, [1e-6], [0.0, 0.1])

    def test_input_validation(self, toy, monkeypatch):
        # A bad value in either list is refused before any cell is
        # certified: each NaN or inf comes after cells that would otherwise
        # have been certified first. A negative eps_bar is the model's rule.
        calls = []
        monkeypatch.setattr(analysis, "certify",
                            lambda *args, **kw: calls.append(args) or certify(*args, **kw))
        for lists, message in [
                (([], [0.0]), "nonempty"),
                (([1e-6], []), "nonempty"),
                (([0.0], [0.0]), "eps_primal values must be positive"),
                (([1e-6], [0.0, -0.1]), "error bounds must be finite and nonnegative"),
                (([1e-6, math.nan], [0.0, 1e-4]), "eps_primal must be finite"),
                (([1e-6, math.inf], [0.0, 1e-4]), "eps_primal must be finite"),
                (([1e-6], [0.0, 1e-4, math.inf]), "error bounds must be finite"),
                (([1e-6, 1e-4], [0.0, math.nan]), "error bounds must be finite")]:
            with pytest.raises(ValueError, match=message):
                sweep(toy, *lists)
        assert calls == []

    @pytest.mark.parametrize("lists", [([1e-6, 1e-6], [0.0]), ([1e-6], [0.0, 0.1, -0.0])],
                             ids=["eps-primal", "eps-bar"])
    def test_repeated_value_rejected(self, toy, lists):
        # 0 and -0 are one value: each cell is certified once.
        with pytest.raises(ValueError, match="must not repeat a value"):
            sweep(toy, *lists)

    def test_mpc_trend_grid(self, mpc):
        eps_list = [1e-6, 1e-4, 1e-3]
        bar_list = [0.0, 1e-4, 1e-3]
        table = sweep(mpc, eps_list, bar_list)
        assert not table.annotations
        cells = {(ep, eb): worst for ep, eb, worst, _ in table.rows}
        for ep in eps_list:
            row = [cells[(ep, eb)] for eb in sorted(bar_list)]
            assert row == sorted(row)  # non-decreasing in eps_bar
        col0 = [cells[(ep, 0.0)] for ep in sorted(eps_list)]
        assert col0 == sorted(col0, reverse=True)  # non-increasing in eps_p
        for ep in eps_list:
            for eb in bar_list:
                if eb >= 10 * ep:
                    assert math.isinf(cells[(ep, eb)])
                else:
                    assert math.isfinite(cells[(ep, eb)])


class TestEmitters:
    def test_profile_csv(self):
        profile = SlackProfile(per_iteration=[(0, 2.0), (1, 1e-6)])
        assert profile.to_csv() == "k,worst_slack\n0,2.0\n1,1e-06\n"

    def test_cdf_csv(self):
        cdf = IterationCdf([(1, 0.5), (2, 1.0)])
        assert cdf.to_csv() == "k,fraction\n1,0.5\n2,1.0\n"

    def test_sweep_csv_renders_inf(self):
        table = SweepTable(rows=[(1e-6, 0.0, 2, 2), (1e-6, 0.1, INF, 45)])
        lines = table.to_csv().splitlines()
        assert lines[0] == "eps_primal,eps_bar,worst_iterations,region_count"
        assert lines[1] == "1e-06,0.0,2,2"
        assert lines[2] == "1e-06,0.1,INF,45"

    def test_json_mirrors(self):
        profile = SlackProfile(per_iteration=[(0, 2.0)], skipped_singular=1)
        doc = profile.to_document()
        assert doc["per_iteration"] == [{"k": 0, "worst_slack": 2.0}]
        assert doc["skipped_singular"] == 1

        assert IterationCdf([(1, 0.5)]).to_document() == {
            "cdf": [{"k": 1, "fraction": 0.5}]}

        table = SweepTable(rows=[(1e-6, 0.1, INF, 45)],
                           annotations=[(1e-6, 0.2, "RuntimeError: boom")])
        doc = table.to_document()
        assert doc["rows"][0]["worst_iterations"] == "INF"
        assert doc["annotations"][0]["message"] == "RuntimeError: boom"
        # every float in the document survives a JSON round trip bit for bit
        again = json.loads(json.dumps(doc))
        assert again == doc

    def test_all_annotated_sweep(self):
        table = SweepTable(annotations=[(1e-6, 0.1, "RuntimeError: boom")])
        assert table.to_csv() == "eps_primal,eps_bar,worst_iterations,region_count\n"
        assert table.to_document() == {"rows": [], "annotations": [
            {"eps_primal": 1e-6, "eps_bar": 0.1, "message": "RuntimeError: boom"}]}

    def test_negative_infinite_slack(self):
        # A depth with no region to measure keeps the starting value -inf.
        profile = SlackProfile(per_iteration=[(0, -INF), (1, 0.5)])
        assert profile.to_csv() == "k,worst_slack\n0,-inf\n1,0.5\n"
        assert profile.to_document()["per_iteration"][0] == {"k": 0,
                                                             "worst_slack": -INF}

    @pytest.mark.parametrize("table", [
        SlackProfile(per_iteration=[(0, 2.0), (1, -INF), (2, 1e-6)]),
        IterationCdf([(1, 0.25), (2, 1.0)]),
        SweepTable(rows=[(1e-6, 0.0, 2, 2), (1e-4, 1e-3, INF, 45)]),
        SweepTable(annotations=[(1e-6, 0.1, "RuntimeError: boom")]),
    ], ids=["slack", "cdf", "sweep", "empty-sweep"])
    def test_csv_lists_the_document_rows(self, table):
        lines = table.to_csv().splitlines()
        rows = table.to_document()[table.ROWS]
        assert len(lines) == len(rows) + 1
        assert lines[0].split(",") == list(table.COLUMNS)
        for line, row in zip(lines[1:], rows):
            assert list(row) == list(table.COLUMNS)
            assert line.split(",") == [str(v) for v in row.values()]
