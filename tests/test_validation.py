"""Conformance sampling and witness search.

The conformance checks here are the small, fast versions; the acceptance
suite reruns them at full sample counts.
"""

import itertools
import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from test_mpqp import random_problem

from certias import validation
from certias.certifier import CertificationResult, CertifiedRegion, certify
from certias.examples import double_integrator_problem, toy_problem
from certias.geometry import (
    Polyhedron,
    bounding_box,
    contains,
    interior_point,
    lp_call_count,
    normalize_rows,
    row_products,
)
from certias.lpp import KIND_HYPERCUBE, KIND_NONE, KIND_POLYHEDRAL, KIND_RELATIVE, ErrorModel
from certias.mpqp import MpQP
from certias.solver import (
    DUAL_CHECK,
    PASS_INDEX,
    SLACK_CHECK,
    TERMINATED_ITER_LIMIT,
    TERMINATED_OPTIMAL,
    SolverState,
    Tolerances,
    run,
    step,
)
from certias.validation import (
    DELTA_MARGIN,
    _error_draws,
    _RegionStack,
    search_realization,
    validate_conformance,
)

EPS_P = 1e-6


@pytest.fixture(scope="module")
def toy():
    return toy_problem()


@pytest.fixture(scope="module")
def toy_nominal(toy):
    return certify(toy)


@pytest.fixture(scope="module")
def toy_inflated(toy):
    return certify(toy, model=ErrorModel(kind=KIND_HYPERCUBE, bound=0.1))


@pytest.fixture(scope="module")
def mpc():
    return double_integrator_problem()


@pytest.fixture(scope="module")
def mpc_nominal(mpc):
    return certify(mpc)


@pytest.fixture(scope="module")
def mpc_inflated(mpc):
    return certify(mpc, model=ErrorModel(kind=KIND_HYPERCUBE, bound=1e-4))


class TestModelFromDescription:
    """validate_conformance reads the model back from the partition's
    settings when none is passed; what certify writes must read back."""

    def test_round_trip_plain(self, toy):
        for m in (ErrorModel(),
                  ErrorModel(kind=KIND_HYPERCUBE, bound=0.25),
                  ErrorModel(kind=KIND_HYPERCUBE, bound=1e-4, perturb_dual=True)):
            settings = certify(toy, model=m).settings
            assert ErrorModel.from_document(settings["error_model"]) == m

    def test_round_trip_schedule(self, toy):
        m = ErrorModel(kind=KIND_HYPERCUBE, bound=0.5, schedule=(
            ErrorModel(kind=KIND_HYPERCUBE, bound=0.1),
            ErrorModel(),
        ))
        settings = certify(toy, model=m).settings
        assert ErrorModel.from_document(settings["error_model"]) == m


class TestValidateConformance:
    def test_toy_nominal_passes(self, toy, toy_nominal):
        report = validate_conformance(toy, toy_nominal, n_samples=2000, seed=1)
        assert report.passed
        assert report.mismatches == [] and report.coverage_gaps == []
        assert report.samples_total == 2000
        assert report.samples_outside == 0
        assert report.samples_skipped_boundary < 20

    def test_toy_inflated_passes(self, toy, toy_inflated):
        report = validate_conformance(toy, toy_inflated, n_samples=2000, seed=2)
        assert report.passed
        assert report.samples_skipped_boundary < 20

    def test_mpc_inflated_passes(self, mpc, mpc_inflated):
        report = validate_conformance(mpc, mpc_inflated, n_samples=1200, seed=3)
        assert report.passed
        assert report.samples_skipped_boundary < 12

    def test_unmodeled_errors_are_caught(self, toy, toy_nominal):
        # The certificate assumed exact arithmetic; injecting errors of
        # magnitude 0.1 must produce runs it never promised.
        report = validate_conformance(
            toy, toy_nominal, n_samples=2000, seed=4,
            model=ErrorModel(kind=KIND_HYPERCUBE, bound=0.1))
        assert not report.passed
        # Anywhere left of the constraint boundary the active row's slack sits
        # at zero after the add, so a negative drawn error re-adds it and the
        # run goes degenerate; right of -0.9 the slack exceeds every error.
        assert len(report.mismatches) > 100
        for theta, realized, hosts in report.mismatches:
            assert theta[0] <= -0.9 + 1e-6
            assert len(realized) >= 2
            assert hosts
        thetas = [m[0] for m in report.mismatches]
        assert thetas == sorted(thetas)

    def test_deterministic_under_seed(self, toy, toy_nominal):
        kw = dict(n_samples=500, seed=7)
        a = validate_conformance(toy, toy_nominal, **kw)
        b = validate_conformance(toy, toy_nominal, **kw)
        assert a.summary() == b.summary()
        assert a.mismatches == b.mismatches

    def test_digest_guard(self, mpc, toy_nominal):
        with pytest.raises(ValueError, match="different problem"):
            validate_conformance(mpc, toy_nominal, n_samples=10, seed=0)

    def test_polyhedral_certificate_needs_explicit_model(self, toy):
        box = Polyhedron.box([-0.05], [0.05])
        result = certify(toy, model=ErrorModel(kind=KIND_POLYHEDRAL, set=box))
        with pytest.raises(ValueError):
            validate_conformance(toy, result, n_samples=10, seed=0)
        report = validate_conformance(
            toy, result, n_samples=800, seed=5,
            model=ErrorModel(kind=KIND_HYPERCUBE, bound=0.05))
        assert report.passed

    def test_perturbed_dual_certificate_passes(self, toy):
        model = ErrorModel(kind=KIND_HYPERCUBE, bound=1e-2, perturb_dual=True)
        result = certify(toy, model=model)
        report = validate_conformance(toy, result, n_samples=500, seed=6)
        assert report.passed
        assert report.samples_total == 500

    def test_polyhedral_perturbed_dual_certificate_passes(self, toy):
        # Multiplier checks see the set sliced onto their working set. A cube
        # inside the set projects inside every slice, so sampling it is
        # sound; a cube outside the set has teeth.
        cube = ErrorModel(kind=KIND_HYPERCUBE, bound=0.05, perturb_dual=True)
        interval = Polyhedron.box([-0.05], [0.05])
        result = certify(toy, model=ErrorModel(kind=KIND_POLYHEDRAL, set=interval,
                                               perturb_dual=True))
        report = validate_conformance(toy, result, n_samples=2000, seed=0, model=cube)
        assert report.passed and report.mismatches == []
        prob = random_problem(np.random.default_rng(0), 2, 4)
        sums = np.ones((1, 4))
        cut = Polyhedron(np.vstack([np.eye(4), -np.eye(4), sums, -sums]), [1e-2] * 10)
        result = certify(prob, model=ErrorModel(kind=KIND_POLYHEDRAL, set=cut,
                                                perturb_dual=True))
        inside = validate_conformance(prob, result, n_samples=2000, seed=0,
                                      model=replace(cube, bound=2.5e-3))
        assert inside.passed and inside.mismatches == []
        outside = validate_conformance(prob, result, n_samples=2000, seed=0, model=cube)
        assert outside.mismatches

    @pytest.mark.parametrize("n", [-3, -1, 2.5, 10.0, True, False, "10", None])
    def test_bad_sample_count(self, toy, toy_nominal, n):
        with pytest.raises(ValueError, match="n_samples"):
            validate_conformance(toy, toy_nominal, n_samples=n, seed=0)

    def test_zero_and_numpy_sample_counts(self, toy, toy_nominal):
        empty = validate_conformance(toy, toy_nominal, n_samples=0, seed=0)
        assert empty.passed and empty.to_document()["samples_total"] == 0
        report = validate_conformance(toy, toy_nominal, n_samples=np.int64(50), seed=0)
        assert type(report.samples_total) is int
        assert vars(report) == vars(validate_conformance(toy, toy_nominal, n_samples=50,
                                                         seed=0))


def _hosts_one_by_one(result, theta):
    """Host ids as a per-region `contains` loop finds them."""
    return [i for i, r in enumerate(result.regions)
            if contains(r.region, theta, slack=1e-9)]


def _step_draw(model, k, rng, m):
    """Error row of step k: one rng.uniform call where the step's bound is
    nonzero, zeros and no draw where it is 0."""
    mk = model.at(k)
    if mk.kind == KIND_NONE or (mk.kind == KIND_HYPERCUBE and mk.bound == 0.0):
        return np.zeros(m)
    if mk.kind == KIND_HYPERCUBE:
        return rng.uniform(-mk.bound, mk.bound, size=m)
    raise ValueError(f"cannot sample from error model kind {mk.kind!r}")


def _per_step_errors(model, rng, m, n_steps):
    """One sample's error rows: one _step_draw per step, in step order."""
    return np.array([_step_draw(model, k, rng, m) for k in range(n_steps)])


def _validate_one_by_one(prob, result, n_samples, seed, model=None, margin=DELTA_MARGIN):
    """validate_conformance point by point, with per-region point location,
    per-sample draws and the boundary test at `margin`: the reference the
    lockstep version must reproduce exactly. Every sample's parameter is
    drawn first, one rng.uniform call each. Then, step by step, each live
    judged sample in ascending order takes its error row, one _step_draw,
    at the steps that read rows (slack checks, and dual checks under
    perturb_dual), and advances by solver.step."""
    if model is None:
        model = ErrorModel.from_document(result.settings["error_model"])
    tol = Tolerances.from_document(result.settings)
    rng = np.random.default_rng(seed)
    lo, hi = bounding_box(prob.theta_set)
    rows = [r.region for r in result.regions if r.region.nrows]
    A = np.vstack([P.A for P in rows])
    b = np.concatenate([P.b for P in rows])
    norms = np.linalg.norm(A, axis=1)
    norms[norms == 0.0] = 1.0
    A, b = A / norms[:, None], b / norms
    out = dict(samples_total=n_samples, samples_outside=0,
               samples_skipped_boundary=0, mismatches=[], coverage_gaps=[])
    judged = []
    for theta in [rng.uniform(lo, hi) for _ in range(n_samples)]:
        if not contains(prob.theta_set, theta, slack=1e-9):
            out["samples_outside"] += 1
        elif np.min(np.abs(A @ theta - b)) < margin:
            out["samples_skipped_boundary"] += 1
        else:
            judged.append(theta)
    paths = [[SolverState((), SLACK_CHECK)] for _ in judged]
    for k in range(2 * tol.iter_limit):
        for theta, path in zip(judged, paths):
            state = path[-1]
            if state.terminal:
                continue
            epsilon = np.zeros(prob.m)
            if state.mode == SLACK_CHECK or model.perturb_dual:
                epsilon = _step_draw(model, k, rng, prob.m)
            path.append(step(prob, state, theta, epsilon, tol, model.perturb_dual)[0])
    for theta, path in zip(judged, paths):
        if not path[-1].terminal:
            path.append(SolverState(path[-1].working_set, TERMINATED_ITER_LIMIT))
        realized = tuple(path)
        host_ids = _hosts_one_by_one(result, theta)
        if not host_ids:
            out["coverage_gaps"].append(tuple(theta))
            continue
        if not any(tuple(result.regions[i].sequence) == realized for i in host_ids):
            out["mismatches"].append((tuple(theta), realized, host_ids))
    out["mismatches"].sort(key=lambda entry: entry[0])
    out["coverage_gaps"].sort()
    return out


def _assert_same_report(report, reference):
    assert vars(report) == reference
    for _, _, hosts in report.mismatches:
        assert all(type(i) is int for i in hosts)


def _with_free_region(result, where):
    """A copy of result with a zero-row region inserted at position `where`."""
    dim = result.regions[0].region.dim
    free = CertifiedRegion(region=Polyhedron(np.zeros((0, dim)), np.zeros(0), dim),
                           sequence=result.regions[0].sequence)
    regions = list(result.regions)
    regions.insert(where, free)
    return CertificationResult(regions=regions, problem_digest=result.problem_digest,
                               settings=result.settings, stats=result.stats)


def _split_leaves(result):
    """A copy of result with each leaf replaced by its two halves on either
    side of theta_0 = its interior point's theta_0, both with its sequence."""
    regions = []
    for r in result.regions:
        P = r.region
        cut = interior_point(P)[0][0]
        for sign in (1.0, -1.0):
            row = np.zeros((1, P.dim))
            row[0, 0] = sign
            half = Polyhedron(np.vstack([P.A, row]), np.append(P.b, sign * cut), P.dim)
            regions.append(CertifiedRegion(region=half, sequence=r.sequence))
    return CertificationResult(regions=regions, problem_digest=result.problem_digest,
                               settings=result.settings, stats=result.stats)


def _facet_points(result, offsets, cycle=False):
    """Points at signed distances `offsets` from every region facet, taken
    from the projection of the region's center onto the facet. With `cycle`,
    each facet gets one offset, the next one for the next facet."""
    points = []
    for r in result.regions:
        P = r.region
        if P.nrows == 0:
            continue
        center = np.linalg.lstsq(P.A, P.b, rcond=None)[0] if P.nrows < P.dim \
            else interior_point(P)[0]
        for a, beta in zip(P.A, P.b):
            unit = a / np.linalg.norm(a)
            foot = center + (beta - a @ center) / (a @ a) * a
            if cycle:
                points.append(foot + offsets[len(points) % len(offsets)] * unit)
            else:
                points.extend(foot + t * unit for t in offsets)
    return points


# Signed distances from a facet that straddle the 1e-9 containment slack.
_NEAR_FACET = (-2e-9, -1e-9, -1e-12, 0.0, 1e-12, 5e-10, 9.99e-10, 1e-9,
               1.001e-9, 2e-9)


def _slack_bound_points(result, rng):
    """One point per region row where the row's product meets its bound
    b + 1e-9 up to rounding, slid along the facet."""
    points = []
    for r in result.regions:
        center = interior_point(r.region)[0]
        for a, beta in zip(r.region.A, r.region.b):
            foot = center + (beta + 1e-9 - a @ center) / (a @ a) * a
            along = rng.standard_normal(len(a))
            along -= (along @ a) / (a @ a) * a
            points.append(foot + rng.uniform(-1e-7, 1e-7) * along / np.linalg.norm(along))
    return points


def _block_bytes(prob, result, size):
    """The BLOCK_BYTES that puts `size` samples in each block of the
    membership and boundary pass of validating result."""
    return 8 * max(len(_RegionStack(result).near_b), prob.theta_set.nrows) * size


def _assert_blocks_match(result, points):
    """The host matrix of block location equals the per-region `contains`
    loop for every point, in blocks of 1, 127, 128 and 129 points, on the
    partition with zero-row regions added at the front and in the middle."""
    points = np.array(points)
    result = _with_free_region(_with_free_region(result, len(result.regions) // 2), 0)
    stack = _RegionStack(result)
    reference = [[contains(r.region, theta, slack=1e-9) for r in result.regions]
                 for theta in points]
    for size in (1, 127, 128, 129):
        blocks = [stack.locate(points[start:start + size])
                  for start in range(0, len(points), size)]
        assert all(hosts.dtype == bool for hosts in blocks)
        assert np.vstack(blocks).tolist() == reference


class TestStackedPointLocation:
    def test_double_integrator_leaves(self, mpc, mpc_inflated):
        regions = mpc_inflated.regions
        assert len(regions) == 223
        zero_width = sum(interior_point(r.region)[1] <= 1e-9 for r in regions)
        assert zero_width == 128
        rng = np.random.default_rng(11)
        lo, hi = bounding_box(mpc.theta_set)
        points = [rng.uniform(lo, hi) for _ in range(400)]
        points += _facet_points(mpc_inflated, _NEAR_FACET, cycle=True)
        _assert_blocks_match(mpc_inflated, points)

    def test_three_parameter_leaves(self):
        # A random exact partition over the cube [-1, 1]^3 whose 115 leaves
        # are all distinct regions.
        result = certify(random_problem(np.random.default_rng(0), 3, 5, n_theta=3))
        assert len(_RegionStack(result).regions) == len(result.regions) == 115
        points = list(np.random.default_rng(9).uniform(-1.0, 1.0, size=(300, 3)))
        points += _facet_points(result, _NEAR_FACET, cycle=True)
        points += _slack_bound_points(result, np.random.default_rng(10))
        _assert_blocks_match(result, points)

    def test_points_on_the_slack_bound(self, mpc_inflated):
        _assert_blocks_match(mpc_inflated,
                             _slack_bound_points(mpc_inflated, np.random.default_rng(4)))

    def test_zero_row_region_contains_everything(self, toy, toy_nominal):
        for where in (0, 1, len(toy_nominal.regions)):
            result = _with_free_region(toy_nominal, where)
            stack = _RegionStack(result)
            for theta in np.linspace(-3.0, 3.0, 61)[:, None]:
                hosts = stack.locate(theta.reshape(1, -1))[0].nonzero()[0].tolist()
                assert where in hosts
                assert hosts == _hosts_one_by_one(result, theta)

    def test_only_zero_row_regions(self, toy, toy_nominal):
        result = _with_free_region(toy_nominal, 0)
        result.regions = result.regions[:1]
        stack = _RegionStack(result)
        assert stack.locate(np.array([[0.5]])).tolist() == [[True]]
        assert not stack.near_boundary(np.array([0.5]))
        assert stack.near_boundary(np.array([[0.5], [-2.0]])).tolist() == [False, False]

    def test_points_near_shared_facets(self, toy_inflated):
        # Toy facets are at theta = -1 +- 0.1 and thereabouts; points within
        # 1e-9 of a shared facet belong to both sides only inside the slack.
        _assert_blocks_match(toy_inflated, _facet_points(toy_inflated, _NEAR_FACET))


class TestReportsMatchOneByOne:
    def test_toy_nominal(self, toy, toy_nominal):
        _assert_same_report(validate_conformance(toy, toy_nominal, n_samples=600, seed=1),
                            _validate_one_by_one(toy, toy_nominal, 600, 1))

    def test_toy_inflated(self, toy, toy_inflated):
        _assert_same_report(validate_conformance(toy, toy_inflated, n_samples=600, seed=2),
                            _validate_one_by_one(toy, toy_inflated, 600, 2))

    def test_mpc_inflated(self, mpc, mpc_inflated):
        _assert_same_report(validate_conformance(mpc, mpc_inflated, n_samples=300, seed=3),
                            _validate_one_by_one(mpc, mpc_inflated, 300, 3))

    def test_unmodeled_errors(self, toy, toy_nominal):
        # Seed 4 of test_unmodeled_errors_are_caught: hundreds of mismatches,
        # each with its host list.
        model = ErrorModel(kind=KIND_HYPERCUBE, bound=0.1)
        report = validate_conformance(toy, toy_nominal, n_samples=2000, seed=4, model=model)
        assert len(report.mismatches) > 100
        _assert_same_report(report, _validate_one_by_one(toy, toy_nominal, 2000, 4, model))

    def test_zero_row_region(self, toy, toy_nominal):
        result = _with_free_region(toy_nominal, 1)
        model = ErrorModel(kind=KIND_HYPERCUBE, bound=0.1)
        report = validate_conformance(toy, result, n_samples=400, seed=6, model=model)
        assert report.mismatches
        _assert_same_report(report, _validate_one_by_one(toy, result, 400, 6, model))

    @pytest.mark.parametrize("case", ["toy", "mpc"])
    def test_leaves_sharing_a_sequence(self, case, toy, toy_nominal, mpc, mpc_nominal):
        # Every leaf cut in two at its interior point, both halves keeping
        # its sequence: a sample's run must match whichever half hosts it.
        prob, result = (toy, toy_nominal) if case == "toy" else (mpc, mpc_nominal)
        result = _split_leaves(result)
        report = validate_conformance(prob, result, n_samples=600, seed=5)
        assert report.passed and report.samples_skipped_boundary < 6
        _assert_same_report(report, _validate_one_by_one(prob, result, 600, 5))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_dropped_leaves(self, mpc, mpc_nominal, seed):
        # The exact double integrator with every other leaf dropped, judged
        # under perturbed slacks and multipliers: samples in a dropped leaf
        # are coverage gaps, and those whose run leaves their kept leaf's
        # sequence are mismatches.
        result = CertificationResult(regions=mpc_nominal.regions[::2],
                                     problem_digest=mpc_nominal.problem_digest,
                                     settings=mpc_nominal.settings, stats=mpc_nominal.stats)
        model = ErrorModel(kind=KIND_HYPERCUBE, bound=1e-2, perturb_dual=True)
        report = validate_conformance(mpc, result, n_samples=3000, seed=seed, model=model)
        assert 250 < len(report.mismatches) < 320
        assert 1000 < len(report.coverage_gaps) < 1150
        _assert_same_report(report, _validate_one_by_one(mpc, result, 3000, seed, model))

    @pytest.mark.parametrize("perturb_dual", [False, True])
    def test_schedule_with_silent_steps(self, toy, toy_nominal, perturb_dual):
        # Steps 1 and 2 see no error and draw nothing; the other steps draw
        # at three bounds. Judged against its own partition and, with
        # errors it did not model, against the exact one.
        model = ErrorModel(kind=KIND_HYPERCUBE, bound=0.05, perturb_dual=perturb_dual,
                           schedule=(ErrorModel(kind=KIND_HYPERCUBE, bound=0.1),
                                     ErrorModel(),
                                     ErrorModel(kind=KIND_HYPERCUBE, bound=0.0),
                                     ErrorModel(kind=KIND_HYPERCUBE, bound=0.2)))
        certified = certify(toy, model=model)
        report = validate_conformance(toy, certified, n_samples=600, seed=8)
        assert report.passed
        _assert_same_report(report, _validate_one_by_one(toy, certified, 600, 8))
        report = validate_conformance(toy, toy_nominal, n_samples=600, seed=8, model=model)
        assert report.mismatches
        _assert_same_report(report, _validate_one_by_one(toy, toy_nominal, 600, 8, model))

    def test_random_partition_without_repeated_regions(self):
        # An exact 2-parameter random partition whose 28 leaves are 28
        # distinct regions with 28 sequences, judged under errors it did not
        # model: every group is tested against its one region, and the
        # failures are mismatches.
        prob = random_problem(np.random.default_rng(0), 3, 5, n_theta=2)
        result = certify(prob)
        assert len(_RegionStack(result).regions) == len(result.regions) == 28
        assert len({r.sequence for r in result.regions}) == 28
        model = ErrorModel(kind=KIND_HYPERCUBE, bound=1e-2)
        report = validate_conformance(prob, result, n_samples=600, seed=1, model=model)
        assert len(report.mismatches) > 100
        _assert_same_report(report, _validate_one_by_one(prob, result, 600, 1, model))

    def test_sequence_on_several_regions(self, toy, toy_nominal):
        # The toy's unconstrained leaf, theta >= -1, cut into three distinct
        # regions that keep its sequence, listed first, after the other leaf
        # and last: samples with theta > 1 lie only in the last of them.
        constrained, free = toy_nominal.regions
        cuts = [free.region.intersect([[1.0]], [0.0]),
                free.region.intersect([[-1.0], [1.0]], [0.0, 1.0]),
                free.region.intersect([[-1.0]], [-1.0])]
        pieces = [CertifiedRegion(region=P, sequence=free.sequence) for P in cuts]
        result = CertificationResult(regions=[pieces[0], constrained, *pieces[1:]],
                                     problem_digest=toy_nominal.problem_digest,
                                     settings=toy_nominal.settings, stats=toy_nominal.stats)
        assert len(_RegionStack(result).regions) == 4
        rng = np.random.default_rng(5)
        lo, hi = bounding_box(toy.theta_set)
        assert sum(rng.uniform(lo, hi)[0] > 1.0 for _ in range(600)) > 150
        report = validate_conformance(toy, result, n_samples=600, seed=5)
        assert report.passed
        _assert_same_report(report, _validate_one_by_one(toy, result, 600, 5))

    def test_group_with_many_failures(self, monkeypatch, toy, toy_nominal):
        # The toy's two leaves trade sequences: every judged sample is a
        # mismatch, and the samples with theta > -1 fail as one group of
        # more than 128, all located in one call.
        a, b = toy_nominal.regions
        result = CertificationResult(
            regions=[CertifiedRegion(region=a.region, sequence=b.sequence),
                     CertifiedRegion(region=b.region, sequence=a.sequence)],
            problem_digest=toy_nominal.problem_digest, settings=toy_nominal.settings,
            stats=toy_nominal.stats)
        reference = _validate_one_by_one(toy, result, 600, 3)
        largest = max(sum(seq == s for _, seq, _ in reference["mismatches"])
                      for s in (a.sequence, b.sequence))
        assert largest > 128
        assert len(reference["mismatches"]) + reference["samples_skipped_boundary"] == 600
        for size in (1, 7, 128, 600):
            monkeypatch.setattr(validation, "BLOCK_BYTES", _block_bytes(toy, result, size))
            _assert_same_report(validate_conformance(toy, result, n_samples=600, seed=3),
                                reference)

    def test_no_location_without_failures(self, monkeypatch, mpc, mpc_inflated):
        # A passing report locates nothing: not even an empty call, which
        # still costs one `contains` per distinct region.
        def no_locate(self, thetas):
            raise AssertionError("a passing report located samples")

        monkeypatch.setattr(_RegionStack, "locate", no_locate)
        report = validate_conformance(mpc, mpc_inflated, n_samples=2000, seed=0)
        assert report.passed and report.samples_total == 2000

    def test_containing_regions_are_python_ints(self, toy, toy_nominal):
        model = ErrorModel(kind=KIND_HYPERCUBE, bound=0.1)
        document = validate_conformance(toy, toy_nominal, n_samples=300, seed=4,
                                        model=model).to_document()
        assert document["mismatches"]
        for entry in document["mismatches"]:
            hosts = entry["containing_regions"]
            assert hosts and all(type(i) is int for i in hosts)
        json.dumps(document)


class TestJudgeBlockSize:
    """Membership and the boundary test go a block of samples at a time,
    its size set by BLOCK_BYTES, and the judge's point location takes every
    failed sample at once; the draws and the report are the same bytes
    whatever the block size."""

    @pytest.mark.parametrize("case", ["toy-unmodeled", "toy-perturb-dual",
                                      "mpc-inflated", "mpc-unmodeled"])
    def test_same_report_bytes(self, monkeypatch, case, toy, toy_nominal, mpc,
                               mpc_inflated):
        hyper = ErrorModel(kind=KIND_HYPERCUBE, bound=0.1)
        prob, result, model, n = {
            "toy-unmodeled": (toy, toy_nominal, hyper, 600),
            "toy-perturb-dual": (toy, certify(toy, model=ErrorModel(
                kind=KIND_HYPERCUBE, bound=0.05, perturb_dual=True)), None, 600),
            "mpc-inflated": (mpc, mpc_inflated, None, 300),
            "mpc-unmodeled": (mpc, certify(mpc), ErrorModel(kind=KIND_HYPERCUBE,
                                                             bound=1e-4), 300),
        }[case]
        documents = []
        for size in (1, 7, 128, 129, n):
            monkeypatch.setattr(validation, "BLOCK_BYTES", _block_bytes(prob, result, size))
            report = validate_conformance(prob, result, n_samples=n, seed=9, model=model)
            documents.append(json.dumps(report.to_document()))
        assert len(set(documents)) == 1
        # Errors the partition did not model leave mismatches to compare.
        assert bool(json.loads(documents[0])["mismatches"]) == case.endswith("unmodeled")

    def test_blocks_by_bytes(self, monkeypatch, mpc, mpc_inflated):
        # The double integrator's 22 distinct rows take its 2000 samples in
        # one block; a budget of 128 samples' products takes 16 blocks.
        blocks = []
        near = _RegionStack.near_boundary

        def counted(self, theta):
            blocks.append(len(theta))
            return near(self, theta)

        monkeypatch.setattr(_RegionStack, "near_boundary", counted)
        assert len(_RegionStack(mpc_inflated).near_b) == 22
        validate_conformance(mpc, mpc_inflated, n_samples=2000, seed=0)
        assert blocks == [2000]
        blocks.clear()
        monkeypatch.setattr(validation, "BLOCK_BYTES", 8 * 22 * 128)
        validate_conformance(mpc, mpc_inflated, n_samples=2000, seed=0)
        assert blocks == [128] * 15 + [80]


class TestNoLinearPrograms:
    """validate_conformance draws from the problem's theta_box and decides
    membership with `contains`: it solves no LP, passing or failing."""

    @pytest.mark.parametrize("case", ["mpc-passing", "toy-unmodeled"])
    def test_no_lp(self, case, toy, toy_nominal, mpc, mpc_inflated):
        prob, result, model = {
            "mpc-passing": (mpc, mpc_inflated, None),
            "toy-unmodeled": (toy, toy_nominal, ErrorModel(kind=KIND_HYPERCUBE, bound=0.1)),
        }[case]
        before = lp_call_count()
        report = validate_conformance(prob, result, n_samples=500, seed=1, model=model)
        assert lp_call_count() == before
        assert report.passed == (case == "mpc-passing")


def _assert_same_stream(rng, rng_old):
    # The generator goes on with the doubles the per-call draws leave next.
    assert rng.random(3).tobytes() == rng_old.random(3).tobytes()


def _live_sets(n_steps, seed=4):
    """Ascending live sets, one per step, that shrink as samples finish,
    down to none: the shape of the lockstep's calls to a row source."""
    rng = np.random.default_rng(seed)
    live = np.arange(9)
    sets = []
    for _ in range(n_steps):
        sets.append(live)
        live = live[rng.random(len(live)) < 0.85]
    return sets


def _assert_same_draws(model, m=5, n_steps=32, seed=3):
    """The row source's rows for each step's live samples, against one
    _step_draw per live sample, in ascending order, step after step."""
    bounds = model.step_bounds(n_steps)
    rng, rng_old = np.random.default_rng(seed), np.random.default_rng(seed)
    rows_at = _error_draws(rng, bounds, m)
    for k, live in enumerate(_live_sets(n_steps)):
        new = rows_at(k, live)
        old = np.array([_step_draw(model, k, rng_old, m) for _ in live]).reshape(-1, m)
        assert new.shape == (len(live), m)
        assert new.tobytes() == old.tobytes()
    _assert_same_stream(rng, rng_old)


class TestScalarBoundDraws:
    """Every sample's parameter, lo + (hi - lo) u from one rng.random call
    for all samples, equals one rng.uniform call per sample with the box's
    bound arrays, and one scalar-bound call per coordinate."""

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_point_equals_array_bound_draw(self, dim):
        sides = np.random.default_rng(dim).uniform(0.1, 7.0, size=dim)
        lo = np.linspace(-3.0, 1.0, dim)
        hi = lo + sides
        assert len(set(sides)) == dim
        rng = np.random.default_rng(5)
        rng_old, rng_scalar = np.random.default_rng(5), np.random.default_rng(5)
        for new in lo + (hi - lo) * rng.random((50, dim)):
            old = rng_old.uniform(lo, hi)
            scalar = np.array([rng_scalar.uniform(a, b) for a, b in zip(lo.tolist(),
                                                                      hi.tolist())])
            assert new.dtype == old.dtype
            assert new.tobytes() == old.tobytes() == scalar.tobytes()
        _assert_same_stream(rng, rng_old)


class TestOneCallDraws:
    """The row source of validate_conformance: a step's error rows for its
    live samples equal one rng.uniform(-b, b, size=m) call per live sample,
    in ascending order, b being the step's bound; a step of bound 0 draws
    nothing."""

    def test_plain_hypercube(self):
        _assert_same_draws(ErrorModel(kind=KIND_HYPERCUBE, bound=1e-4))
        _assert_same_draws(ErrorModel(kind=KIND_HYPERCUBE, bound=0.37), m=1, n_steps=7)

    def test_schedule_with_silent_steps(self):
        model = ErrorModel(kind=KIND_HYPERCUBE, bound=0.5, schedule=(
            ErrorModel(kind=KIND_HYPERCUBE, bound=0.1),
            ErrorModel(),
            ErrorModel(kind=KIND_HYPERCUBE, bound=0.0),
            ErrorModel(kind=KIND_HYPERCUBE, bound=3.0),
        ))
        _assert_same_draws(model)
        tail_silent = ErrorModel(schedule=(ErrorModel(kind=KIND_HYPERCUBE, bound=0.2),))
        _assert_same_draws(tail_silent)

    def test_perturb_dual(self):
        _assert_same_draws(ErrorModel(kind=KIND_HYPERCUBE, bound=1e-3, perturb_dual=True))

    def test_changing_bounds(self):
        # Nonzero bounds that change from step to step, some repeated, with
        # a silent step between two runs of equal bounds.
        model = ErrorModel(kind=KIND_HYPERCUBE, bound=0.05, schedule=(
            ErrorModel(kind=KIND_HYPERCUBE, bound=0.1),
            ErrorModel(kind=KIND_HYPERCUBE, bound=0.2),
            ErrorModel(kind=KIND_HYPERCUBE, bound=0.2),
            ErrorModel(),
            ErrorModel(kind=KIND_HYPERCUBE, bound=0.2),
            ErrorModel(kind=KIND_HYPERCUBE, bound=0.05),
            ErrorModel(kind=KIND_HYPERCUBE, bound=1e-3),
        ))
        assert model.step_bounds(32).nonzero()[0].tolist() == [0, 1, 2, *range(4, 32)]
        _assert_same_draws(model)

    def test_zero_bound_draws_nothing(self):
        model = ErrorModel(kind=KIND_HYPERCUBE, bound=0.0)
        _assert_same_draws(model)
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        rows_at = _error_draws(rng, model.step_bounds(10), 3)
        errors = [rows_at(k, live) for k, live in enumerate(_live_sets(10))]
        assert rng.bit_generator.state == before
        assert [e.shape for e in errors] == [(len(live), 3) for live in _live_sets(10)]
        assert not any(e.any() for e in errors)

    @pytest.mark.parametrize("schedule", [(), (ErrorModel(kind=KIND_HYPERCUBE, bound=0.1),),
                                          (ErrorModel(), ErrorModel(kind=KIND_HYPERCUBE,
                                                                    bound=0.2))])
    def test_steps_past_the_bounds_read_the_last(self, schedule):
        # The schedule's bounds plus the base model's give every step's
        # draws that one bound per step gives.
        model = ErrorModel(kind=KIND_HYPERCUBE, bound=0.05, schedule=schedule or None)
        short = _error_draws(np.random.default_rng(3), model.step_bounds(len(schedule) + 1), 4)
        full = _error_draws(np.random.default_rng(3), model.step_bounds(32), 4)
        for k, live in enumerate(_live_sets(32)):
            assert short(k, live).tobytes() == full(k, live).tobytes()

    def test_unsupported_kinds_raise(self):
        for model in (ErrorModel(kind=KIND_POLYHEDRAL, set=Polyhedron.box([-0.1], [0.1])),
                      ErrorModel(kind=KIND_RELATIVE, rel_bound=0.1),
                      ErrorModel(kind=KIND_HYPERCUBE, bound=0.1,
                                 schedule=(ErrorModel(kind=KIND_RELATIVE, rel_bound=0.1),))):
            with pytest.raises(ValueError, match="cannot sample"):
                model.step_bounds(4)


class TestCostIndependentOfIterLimit:
    def test_high_cap_validates_like_the_default(self, toy):
        # The runs stop after two iterations whatever the cap, so neither
        # the report nor the memory may depend on it: one bound per possible
        # step would take 160 MB here.
        reports = []
        for iter_limit in (15, 10**7):
            result = certify(toy, Tolerances(iter_limit=iter_limit))
            tracemalloc.start()
            try:
                report = validate_conformance(toy, result, n_samples=200, seed=4)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2_000_000
            reports.append(report.to_document())
        assert reports[0] == reports[1]


def _near_all_rows(result, points):
    """The boundary test over every leaf's unit rows, point by point."""
    A, b = normalize_rows(np.vstack([r.region.A for r in result.regions]),
                          np.concatenate([r.region.b for r in result.regions]))
    return [bool(np.abs(row_products(A, p) - b).min() < DELTA_MARGIN) for p in points]


def _margin_points(result, rng):
    """Points at normalized distance DELTA_MARGIN from each facet, on both
    sides, moved by up to 16 ulps of a coordinate."""
    points = []
    for r in result.regions:
        center = interior_point(r.region)[0]
        for a, beta in zip(r.region.A, r.region.b):
            unit = a / np.linalg.norm(a)
            foot = center + (beta - a @ center) / (a @ a) * a
            for side in (-1.0, 1.0):
                shift = rng.integers(-16, 17, size=2) * np.spacing(foot)
                points.append(foot + side * DELTA_MARGIN * unit + shift)
    return points


class TestDistinctRowsAtTheMargin:
    def test_margin_points(self, mpc_inflated):
        stack = _RegionStack(mpc_inflated)
        assert len(stack.near_A) == 22
        assert sum(r.region.nrows for r in mpc_inflated.regions) == 888
        points = _margin_points(mpc_inflated, np.random.default_rng(2))
        decisions = [stack.near_boundary(p) for p in points]
        assert decisions == _near_all_rows(mpc_inflated, points)
        assert any(decisions) and not all(decisions)
        gaps = np.abs(np.array(points) @ stack.near_A.T - stack.near_b).min(axis=1)
        assert (np.abs(gaps - DELTA_MARGIN) <= 1e-14).sum() > 100

    def test_block_equals_points(self, mpc_inflated):
        # The block test gives each point the answer it gets alone, in
        # blocks of 1, 7 and 128 points and in one block of all of them.
        stack = _RegionStack(mpc_inflated)
        points = np.array(_margin_points(mpc_inflated, np.random.default_rng(6)))
        alone = [stack.near_boundary(p) for p in points]
        assert alone == _near_all_rows(mpc_inflated, points)
        for size in (1, 7, 128, len(points)):
            block = np.concatenate([stack.near_boundary(points[i:i + size])
                                    for i in range(0, len(points), size)])
            assert block.dtype == bool and block.tolist() == alone

    def test_sampled_points(self, mpc, mpc_inflated):
        stack = _RegionStack(mpc_inflated)
        lo, hi = bounding_box(mpc.theta_set)
        rng = np.random.default_rng(5)
        points = [rng.uniform(lo, hi) for _ in range(500)]
        points += _facet_points(mpc_inflated, _NEAR_FACET, cycle=True)
        decisions = [stack.near_boundary(p) for p in points]
        assert decisions == _near_all_rows(mpc_inflated, points)
        assert any(decisions) and not all(decisions)

    def test_distinct_regions(self, mpc_inflated):
        stack = _RegionStack(mpc_inflated)
        assert len(stack.regions) == 15 and len(stack.region_of) == 223
        for leaf, k in zip(mpc_inflated.regions, stack.region_of):
            assert leaf.region.A.tobytes() == stack.regions[k].A.tobytes()
            assert leaf.region.b.tobytes() == stack.regions[k].b.tobytes()


def _triangle_problem(seed=2):
    """A random 5 x 9 x 2 problem on the box [-1, 1]^2 cut by
    theta_1 + theta_2 <= 0.3: about 36% of the box lies outside."""
    base = random_problem(np.random.default_rng(seed), 5, 9)
    triangle = Polyhedron(np.vstack([np.eye(2), -np.eye(2), [[1.0, 1.0]]]),
                          [1.0, 1.0, 1.0, 1.0, 0.3])
    return MpQP(H=base.H, C=base.C, f_lin=base.f_lin, f_const=base.f_const,
                d_lin=base.d_lin, d_const=base.d_const, theta_set=triangle)


class TestOffTheBoundingBox:
    """Reports on a parameter set that is not its bounding box, where many
    samples are never judged and draw no error rows."""

    @pytest.mark.parametrize("model", [ErrorModel(), ErrorModel(kind=KIND_HYPERCUBE,
                                                                 bound=5e-7)],
                             ids=["exact", "hypercube"])
    def test_triangle(self, model):
        prob = _triangle_problem()
        result = certify(prob, model=model)
        n = 2500
        report = validate_conformance(prob, result, n_samples=n, seed=3)
        assert report.samples_outside > 500
        _assert_same_report(report, _validate_one_by_one(prob, result, n, 3))


class TestManyMisses:
    """Reports equal the sample-by-sample reference, whatever the block
    size, where many samples are outside the parameter set or skipped at a
    wide boundary margin, and so draw no error rows."""

    @pytest.mark.parametrize("case", ["triangle-exact", "triangle-unmodeled",
                                      "mpc-wide-margin"])
    def test_block_sizes(self, monkeypatch, case, mpc, mpc_inflated):
        # About a third of the triangle's samples miss; only the judged ones
        # draw error rows.
        model, margin, n = None, DELTA_MARGIN, 1200
        if case.startswith("triangle"):
            prob = _triangle_problem()
            result = certify(prob)
            if case == "triangle-unmodeled":
                model = ErrorModel(kind=KIND_HYPERCUBE, bound=1e-2)
        else:
            prob, result, margin, n = mpc, mpc_inflated, 0.02, 600
        monkeypatch.setattr(validation, "DELTA_MARGIN", margin)
        reference = _validate_one_by_one(prob, result, n, 11, model, margin=margin)
        assert reference["samples_outside"] + reference["samples_skipped_boundary"] > n // 50
        for size in (1, 7, 128, 129, n):
            monkeypatch.setattr(validation, "BLOCK_BYTES", _block_bytes(prob, result, size))
            report = validate_conformance(prob, result, n_samples=n, seed=11, model=model)
            _assert_same_report(report, reference)
        assert bool(report.mismatches) == (case == "triangle-unmodeled")

    @pytest.mark.parametrize("case", ["mpc-1e-4", "mpc-1e-3-perturb-dual", "toy-0.1"])
    def test_wide_margin(self, monkeypatch, case, toy, toy_inflated, mpc, mpc_inflated):
        prob, result, n = {
            "mpc-1e-4": (mpc, mpc_inflated, 800),
            "mpc-1e-3-perturb-dual": (mpc, certify(mpc, model=ErrorModel(
                kind=KIND_HYPERCUBE, bound=1e-3, perturb_dual=True)), 800),
            "toy-0.1": (toy, toy_inflated, 1500),
        }[case]
        monkeypatch.setattr(validation, "DELTA_MARGIN", 0.02)
        report = validate_conformance(prob, result, n_samples=n, seed=12)
        assert report.samples_skipped_boundary > n // 100
        _assert_same_report(report, _validate_one_by_one(prob, result, n, 12, margin=0.02))

    def test_every_sample_missed(self, monkeypatch, mpc, mpc_inflated):
        # A margin wider than the parameter box skips every sample inside
        # it; a sample count that is no multiple of the block leaves a short
        # last block. No sample reaches the solver.
        def no_run(*args, **kwargs):
            raise AssertionError("the solver ran with no judged sample")

        n = 2 * 128 + 37
        monkeypatch.setattr(validation, "BLOCK_BYTES", _block_bytes(mpc, mpc_inflated, 128))
        monkeypatch.setattr(validation, "DELTA_MARGIN", 100.0)
        reference = _validate_one_by_one(mpc, mpc_inflated, n, 13, margin=100.0)
        monkeypatch.setattr(validation, "_lockstep", no_run)
        report = validate_conformance(mpc, mpc_inflated, n_samples=n, seed=13)
        assert report.samples_outside + report.samples_skipped_boundary == n
        assert report.samples_skipped_boundary > 0
        _assert_same_report(report, reference)


class TestSearchRealization:
    def test_overlap_band_witnesses(self, toy, toy_inflated):
        model = ErrorModel(kind=KIND_HYPERCUBE, bound=0.1)
        theta = np.array([-1.05])
        short = [r for r in toy_inflated.regions
                 if len(r.sequence) == 2
                 and np.all(r.region.A @ theta <= r.region.b + 1e-12)]
        long = [r for r in toy_inflated.regions
                if r.status == "optimal" and len(r.sequence) == 4
                and np.all(r.region.A @ theta <= r.region.b + 1e-12)]
        assert short and long
        for region in (short[0], long[0]):
            found, witness = search_realization(toy, region, theta, model)
            assert found
            replay = run(toy, theta, witness)
            assert tuple(replay.sequence) == tuple(region.sequence)

    def test_every_inflated_region_is_realizable(self, toy, toy_inflated):
        # Regions with zero interior radius are width-zero slivers where
        # coinciding flip boundaries meet; realization there hinges on exact
        # ties, so only regions with actual interior are probed.
        model = ErrorModel(kind=KIND_HYPERCUBE, bound=0.1)
        checked = 0
        for region in toy_inflated.regions:
            center, radius = interior_point(region.region)
            if radius <= 1e-9:
                continue
            found, witness = search_realization(toy, region, center, model)
            assert found, (region.sequence, center)
            checked += 1
        assert checked >= 15

    def test_nominal_regions_need_no_errors(self, toy, toy_nominal):
        model = ErrorModel()
        for region in toy_nominal.regions:
            center, _ = interior_point(region.region)
            found, witness = search_realization(toy, region, center, model)
            assert found
            assert np.all(witness[0] == 0.0)

    def test_theta_outside_region_rejected(self, toy, toy_nominal):
        region = toy_nominal.regions[0]
        outside = np.array([100.0])
        with pytest.raises(ValueError, match="outside"):
            search_realization(toy, region, outside, ErrorModel())

    @pytest.mark.parametrize("model", [
        ErrorModel(kind=KIND_POLYHEDRAL, set=Polyhedron.box([-0.1], [0.1])),
        ErrorModel(kind=KIND_RELATIVE, rel_bound=0.1),
    ])
    def test_unsampleable_models_rejected(self, toy, toy_nominal, toy_inflated, model):
        # Rejected whether or not the exact run already follows the region,
        # as validate_conformance rejects the model before any sample.
        theta = np.array([-1.05])
        exact = tuple(run(toy, theta).sequence)
        followed = next(r for r in toy_nominal.regions
                        if contains(r.region, theta, slack=1e-12))
        assert tuple(followed.sequence) == exact
        missed = next(r for r in toy_inflated.regions
                      if contains(r.region, theta, slack=1e-12)
                      and tuple(r.sequence) != exact)
        for region in (followed, missed):
            with pytest.raises(ValueError, match="cannot sample"):
                search_realization(toy, region, theta, model)


def _step_indices(sequence):
    """Decision index of each executed state, found by inverting
    `transition`: a rule independent of the one `search_realization` builds
    its vertex with."""
    out = []
    for state, nxt in zip(sequence, sequence[1:]):
        if state.mode == SLACK_CHECK:
            out.append(PASS_INDEX if nxt.mode == TERMINATED_OPTIMAL
                       else nxt.working_set[-1])
        elif state.mode == DUAL_CHECK:
            if len(nxt.working_set) == len(state.working_set):
                out.append(PASS_INDEX)
            else:
                remaining = list(nxt.working_set)
                dropped = None
                for w in state.working_set:
                    if w in remaining:
                        remaining.remove(w)
                    else:
                        dropped = w
                out.append(dropped)
        else:
            raise ValueError(f"unexpected mode {state.mode!r} mid-sequence")
    return out


def _search_with_draws(prob, region, theta, model, budget=200):
    """No error, then the per-step hypercube vertex, then `budget` random
    admissible draws: the reference the exact search must agree with."""
    indices = _step_indices(region.sequence)
    bounds = model.step_bounds(len(indices))
    target = tuple(region.sequence)
    vertex = np.full((len(indices), prob.m), bounds[:, None])
    for k, index in enumerate(indices):
        if index != PASS_INDEX:
            vertex[k, index] = -bounds[k]
    rng = np.random.default_rng(0)
    draws = (_per_step_errors(model, rng, prob.m, len(indices)) for _ in range(budget))
    for errors in itertools.chain([np.zeros((1, prob.m)), vertex], draws):
        if tuple(run(prob, theta, errors, Tolerances(), model.perturb_dual).sequence) == target:
            return True, errors
    return False, None


def _region_points(region, rng):
    """The region's interior point and, when it has an interior, a point
    drawn in the inner half of its largest inscribed ball."""
    center, radius = interior_point(region.region)
    if radius <= 1e-9:
        return [center]
    direction = rng.standard_normal(center.size)
    direction /= np.linalg.norm(direction)
    return [center, center + 0.5 * radius * rng.uniform() * direction]


# Step 2, the second slack check, sees no error.
_SCHEDULE_WITH_ZERO_STEP = ErrorModel(kind=KIND_HYPERCUBE, bound=0.1, schedule=(
    ErrorModel(kind=KIND_HYPERCUBE, bound=0.05),
    ErrorModel(kind=KIND_HYPERCUBE, bound=0.2),
    ErrorModel(kind=KIND_HYPERCUBE, bound=0.0),
))


class TestVertexDominance:
    """The hypercube vertex realizes a sequence whenever random draws do,
    so the exact search agrees with the search that adds 200 draws."""

    # Whether some sampled point has no witness: the zero-width leaves of
    # these partitions are certified but not all realizable.
    @pytest.mark.parametrize("case", [
        ("toy", ErrorModel(kind=KIND_HYPERCUBE, bound=0.1), True),
        ("toy", ErrorModel(kind=KIND_HYPERCUBE, bound=0.1, perturb_dual=True), False),
        ("double_integrator", ErrorModel(kind=KIND_HYPERCUBE, bound=1e-2), True),
        ("toy", _SCHEDULE_WITH_ZERO_STEP, False),
    ], ids=["toy", "toy-perturb-dual", "double-integrator", "toy-schedule"])
    def test_same_verdict_and_witness(self, case):
        name, model, misses = case
        prob = toy_problem() if name == "toy" else double_integrator_problem(2)
        result = certify(prob, model=model)
        rng = np.random.default_rng(1)
        verdicts = []
        for region in result.regions:
            for theta in _region_points(region, rng):
                found, witness = search_realization(prob, region, theta, model)
                want_found, want_witness = _search_with_draws(prob, region, theta, model)
                assert found == want_found, (region.sequence, theta)
                if found:
                    assert witness.tobytes() == want_witness.tobytes()
                    replay = run(prob, theta, witness, perturb_dual=model.perturb_dual)
                    assert tuple(replay.sequence) == tuple(region.sequence)
                else:
                    assert witness is None
                verdicts.append(found)
        assert any(verdicts)
        assert misses == (not all(verdicts))

    def test_unrealizable_sequence(self, toy, toy_inflated):
        # At theta = -1.05 the slack at the empty working set is -0.05, so
        # stopping there at once needs an error of at least 0.05 - 1e-6 on
        # the first check: a box of 0.04, or no error, cannot realize it.
        theta = np.array([-1.05])
        region = next(r for r in toy_inflated.regions
                      if contains(r.region, theta, slack=1e-12) and len(r.sequence) == 2)
        assert tuple(run(toy, theta).sequence) != tuple(region.sequence)
        for model in (ErrorModel(), ErrorModel(kind=KIND_HYPERCUBE, bound=0.04)):
            assert search_realization(toy, region, theta, model) == (False, None)
            assert _search_with_draws(toy, region, theta, model) == (False, None)
        found, witness = search_realization(toy, region, theta,
                                            ErrorModel(kind=KIND_HYPERCUBE, bound=0.05))
        assert found and witness.tolist() == [[0.05]]


class TestMalformedSequences:
    @pytest.mark.parametrize("where", [0, 1, 2])
    def test_terminal_state_mid_sequence(self, toy, toy_inflated, where):
        region = next(r for r in toy_inflated.regions if len(r.sequence) == 4)
        stop = SolverState(region.sequence[where].working_set, TERMINATED_OPTIMAL)
        sequence = region.sequence[:where] + (stop,) + region.sequence[where:]
        bad = CertifiedRegion(region=region.region, sequence=sequence)
        center, _ = interior_point(region.region)
        for model in (ErrorModel(), ErrorModel(kind=KIND_HYPERCUBE, bound=0.1)):
            with pytest.raises(ValueError, match="mid-sequence"):
                search_realization(toy, bad, center, model)
