"""Acceptance gate: one test per criterion, ten in all.

Run `pytest tests/test_acceptance.py -v` to get a single PASSED/FAILED line
per criterion; each test also prints a short summary (visible with -s).
Criteria with stated runtime budgets assert against the wall clock.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

from oracles import enumerate_vertices, poly_contains_poly, poly_equal, qp_solve_enumerate

from certias.analysis import slack_profile, sweep
from certias.certifier import certify, partition_step
from certias.cli import main
from certias.examples import double_integrator_problem, toy_problem
from certias.geometry import (
    Polyhedron,
    bounding_box,
    contains,
    interior_point,
    normalize_rows,
    remove_redundant,
)
from certias.lpp import (
    KIND_HYPERCUBE,
    KIND_POLYHEDRAL,
    ErrorModel,
    lift_partition_project,
)
from certias.mpqp import AffineMap, MpQP
from certias.solver import SLACK_CHECK, SolverState, Tolerances, run, transition
from certias.validation import validate_conformance

EPS_P = 1e-6


@pytest.fixture(scope="module")
def toy():
    return toy_problem()


@pytest.fixture(scope="module")
def mpc():
    return double_integrator_problem()


def test_criterion_01_error_free_conformance(toy, mpc):
    """Certify with no errors, then 10^4 solver runs must land in certified
    regions with matching sequences."""
    t0 = time.perf_counter()
    notes = []
    for name, prob in (("toy", toy), ("mpc", mpc)):
        result = certify(prob)
        report = validate_conformance(prob, result, n_samples=10000, seed=101)
        assert report.mismatches == [], name
        assert report.coverage_gaps == [], name
        assert report.samples_skipped_boundary < 0.01 * report.samples_total
        notes.append(f"{name} skips={report.samples_skipped_boundary}")
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"[criterion 1] PASS in {elapsed:.1f}s ({'; '.join(notes)})")


def test_criterion_02_bounded_error_conformance(toy, mpc):
    """With per-iteration errors drawn inside the modeled hypercube, every
    realized sequence must still be certified."""
    t0 = time.perf_counter()
    notes = []
    for name, prob in (("toy", toy), ("mpc", mpc)):
        for eps_bar in (1e-4, 1e-3):
            model = ErrorModel(kind=KIND_HYPERCUBE, bound=eps_bar)
            result = certify(prob, model=model)
            report = validate_conformance(prob, result, n_samples=10000,
                                          seed=202)
            assert report.mismatches == [], (name, eps_bar)
            assert report.coverage_gaps == [], (name, eps_bar)
            notes.append(f"{name}@{eps_bar:g}")
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    print(f"[criterion 2] PASS in {elapsed:.1f}s ({', '.join(notes)})")


def test_criterion_03_closed_form_matches_projection():
    """Row-wise inflation and the lifted Fourier-Motzkin path agree as point
    sets on 100 decision-family instances."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    checked = 0
    while checked < 100:
        n_t = int(rng.integers(1, 4))
        n_z = int(rng.integers(2, 5))
        region = Polyhedron.box(-np.ones(n_t), np.ones(n_t))
        zmap = AffineMap(F=rng.standard_normal((n_z, n_t)),
                         g=0.3 * rng.standard_normal(n_z))
        thr = float(rng.uniform(0.0, 0.2))
        eps_bar = float(rng.uniform(0.02, 0.3))
        box = Polyhedron.box(-eps_bar * np.ones(n_z), eps_bar * np.ones(n_z))
        j = int(rng.integers(n_z))
        pick = np.zeros((n_z, n_z))
        pick[0, j] = 1.0
        r = 1
        for other in range(n_z):
            if other != j:
                pick[r, j] = 1.0
                pick[r, other] = -1.0
                r += 1
        b_pick = np.zeros(n_z)
        b_pick[0] = -thr
        families = [(pick, b_pick), (-np.eye(n_z), thr * np.ones(n_z))]
        closed = lift_partition_project(
            region, families, zmap, ErrorModel(kind=KIND_HYPERCUBE,
                                               bound=eps_bar))
        projected = lift_partition_project(
            region, families, zmap, ErrorModel(kind=KIND_POLYHEDRAL, set=box))
        for c, p in zip(closed, projected):
            assert poly_equal(c, p, tol=1e-8)
            checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"[criterion 3] PASS in {elapsed:.1f}s ({checked} instances)")


def test_criterion_04_split_cover_and_overlap(toy):
    """Each split, replayed from the root as certify makes it, keeps its
    children inside the parent and the error-free pieces inside the
    inflated ones, and loses no parent point; inflation creates a genuine
    overlap."""
    model = ErrorModel(kind=KIND_HYPERCUBE, bound=1e-3)
    rng = np.random.default_rng(404)
    tol = Tolerances()
    stack = [(remove_redundant(toy.theta_set), SolverState((), SLACK_CHECK), 0, None)]
    splits = 0
    while stack:
        region, state, k, point = stack.pop()
        if k == 2 * tol.iter_limit:
            continue
        kids, _ = partition_step(region, state, toy, tol, model, k, point)
        splits += 1
        children = [kid for _, kid, _ in kids]
        inflated = {idx: kid for idx, kid, _ in kids}
        assert all(poly_contains_poly(kid, region) for kid in children)
        lo, hi = bounding_box(region)
        pts = rng.uniform(lo, hi, size=(1000, lo.size))
        for pt in pts:
            if not contains(region, pt, slack=1e-9):
                continue
            assert any(contains(c, pt, slack=1e-9) for c in children)
        nominal, _ = partition_step(region, state, toy, tol, ErrorModel(), k)
        for idx, nom, _ in nominal:
            assert idx in inflated
            assert poly_contains_poly(nom, inflated[idx], tol=1e-8)
        for idx, kid, x0 in kids:
            child = transition(state, idx)
            if not child.terminal:
                stack.append((kid, child, k + 1, x0))
    assert splits > 0

    overlaps = 0
    wide = certify(toy, model=ErrorModel(kind=KIND_HYPERCUBE, bound=0.1))
    for a, b in itertools.combinations(wide.regions, 2):
        meet = a.region.intersect(b.region.A, b.region.b)
        _, radius = interior_point(meet)
        if radius > 1e-6:
            overlaps += 1
            break
    assert overlaps > 0
    print(f"[criterion 4] PASS ({splits} splits checked, "
          f"overlapping pair found)")


def test_criterion_05_zero_bound_equals_error_free():
    """The zero-error closed form and the error-free path give identical
    normalized rows on 100 random instances."""
    rng = np.random.default_rng(505)
    for trial in range(100):
        n_t = int(rng.integers(1, 4))
        n_z = int(rng.integers(1, 5))
        region = Polyhedron.box(-np.ones(n_t), np.ones(n_t))
        zmap = AffineMap(F=rng.standard_normal((n_z, n_t)),
                         g=rng.standard_normal(n_z))
        rows = int(rng.integers(1, 5))
        A = rng.standard_normal((rows, n_z))
        b = rng.uniform(-1.0, 1.0, rows)
        via_none = lift_partition_project(region, [(A, b)], zmap,
                                          ErrorModel())[0]
        via_zero = lift_partition_project(
            region, [(A, b)], zmap, ErrorModel(kind=KIND_HYPERCUBE, bound=0.0))[0]
        An, bn = normalize_rows(via_none.A, via_none.b)
        Az, bz = normalize_rows(via_zero.A, via_zero.b)
        assert np.allclose(An, Az, atol=1e-12)
        assert np.allclose(bn, bz, atol=1e-12)
    print("[criterion 5] PASS (100 instances)")


def test_criterion_06_sweep_trend(mpc):
    """Worst-case iterations grow with the error bound, shrink with the
    tolerance, and hit the cap exactly where the bound dominates it."""
    t0 = time.perf_counter()
    eps_list = [1e-6, 1e-4, 1e-3]
    bar_list = [0.0, 1e-4, 1e-3]
    table = sweep(mpc, eps_list, bar_list,
                  Tolerances(eps_primal=1e-6, iter_limit=15))
    assert not table.annotations
    cells = {(ep, eb): worst for ep, eb, worst, _ in table.rows}
    assert len(cells) == 9
    for ep in eps_list:
        row = [cells[(ep, eb)] for eb in sorted(bar_list)]
        assert row == sorted(row)
    col0 = [cells[(ep, 0.0)] for ep in sorted(eps_list)]
    assert col0 == sorted(col0, reverse=True)
    for ep in eps_list:
        for eb in bar_list:
            assert math.isinf(cells[(ep, eb)]) == (eb >= 10 * ep), (ep, eb)
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    print(f"[criterion 6] PASS in {elapsed:.1f}s "
          f"(caps at {[k for k, v in cells.items() if math.isinf(v)]})")


def test_criterion_07_slack_profile_trend(mpc):
    """The error-free slack profile settles at the tolerance exactly when
    the worst-case run makes its final check, and larger error bounds give
    pointwise larger profiles."""
    nominal = certify(mpc)
    worst = max(r.iterations for r in nominal.regions)
    prof0 = slack_profile(mpc, nominal).values()
    crossing = min(k for k, v in enumerate(prof0) if v <= EPS_P + 1e-12)
    assert crossing == worst - 1  # the check numbered `worst` sees it
    assert all(v <= EPS_P + 1e-12 for v in prof0[crossing:])
    assert all(v > 10 * EPS_P for v in prof0[:crossing])

    inflated = certify(mpc, model=ErrorModel(kind=KIND_HYPERCUBE, bound=1e-3))
    prof1 = slack_profile(mpc, inflated).values()
    assert len(prof1) >= len(prof0)
    for v0, v1 in zip(prof0, prof1):
        assert v1 >= v0 - 1e-12
    print(f"[criterion 7] PASS (settles at check {worst}, "
          f"dominated on {len(prof0)} shared depths)")


def test_criterion_08_solver_matches_enumeration():
    """10^3 random feasible problems: the iterative solver agrees with
    working-set enumeration, with under 1% non-optimal terminations."""
    rng = np.random.default_rng(808)
    theta_set = Polyhedron.box([-1.0], [1.0])
    non_optimal = 0
    for trial in range(1000):
        n_x = int(rng.integers(1, 5))
        m = int(rng.integers(1, 9))
        A = rng.standard_normal((n_x, n_x))
        prob = MpQP(A @ A.T + n_x * np.eye(n_x),
                    rng.standard_normal((m, n_x)),
                    rng.standard_normal((n_x, 1)),
                    rng.standard_normal(n_x),
                    np.zeros((m, 1)),
                    rng.uniform(0.2, 1.5, m),
                    theta_set)
        theta = rng.uniform(-1.0, 1.0, size=1)
        res = run(prob, theta)
        if res.status != "terminated_optimal":
            assert res.status in ("degenerate", "terminated_iter_limit")
            non_optimal += 1
            continue
        x_ref, _ = qp_solve_enumerate(prob.H, prob.f(theta), prob.C, prob.d(theta))
        assert x_ref is not None and np.allclose(res.x, x_ref, atol=1e-6)
    assert non_optimal < 10
    print(f"[criterion 8] PASS (non-optimal rate {non_optimal / 10:.1f}%)")


def test_criterion_09_relative_bound_tight_from_above():
    """The LP-based conversion of a relative bound dominates a dense
    sampled maximum by at most 1%."""
    from certias.lpp import rel_to_abs

    rng = np.random.default_rng(909)
    for trial in range(50):
        n_t = int(rng.integers(1, 4))
        n_z = int(rng.integers(1, 5))
        lo = rng.uniform(-2.0, -0.2, n_t)
        hi = rng.uniform(0.2, 2.0, n_t)
        region = Polyhedron.box(lo, hi)
        if trial % 2:
            cut = rng.standard_normal((1, n_t))
            region = region.intersect(cut, np.array([float(rng.uniform(0.3, 1.0))]))
        zmap = AffineMap(F=rng.standard_normal((n_z, n_t)),
                         g=rng.standard_normal(n_z))
        rel = float(rng.uniform(0.001, 0.1))
        bound = rel_to_abs(zmap, region, rel)

        pts = rng.uniform(lo, hi, size=(100000, n_t))
        inside = pts[np.all(pts @ region.A.T <= region.b + 1e-12, axis=1)]
        verts = enumerate_vertices(region.A, region.b)
        sample = np.vstack([inside, verts]) if len(verts) else inside
        emp = rel * float(np.abs(sample @ zmap.F.T + zmap.g).max())
        assert bound >= emp - 1e-12, trial
        assert bound <= emp * 1.01 + 1e-15, trial
    print("[criterion 9] PASS (50 maps, bound within 1% above sampling)")


def test_criterion_10_deterministic_documents(tmp_path):
    """Same problem, same flags: byte-identical partition documents for 1
    and 4 workers, run twice each."""
    import pathlib

    problems = pathlib.Path(__file__).resolve().parent.parent / "problems"
    for name in ("toy.json", "double_integrator.json"):
        payloads = set()
        for attempt, workers in enumerate(("1", "4", "1", "4")):
            out = tmp_path / f"{name}.{attempt}.json"
            code = main(["certify", "--problem", str(problems / name),
                         "--eps-bar", "1e-4", "--workers", workers,
                         "--out", str(out)])
            assert code == 0
            payloads.add(out.read_bytes())
        assert len(payloads) == 1, name
    print("[criterion 10] PASS (two problems, workers 1 and 4, two repeats)")
