import hashlib
import json
import os
import pathlib
import pickle
import subprocess
import sys
import threading

import numpy as np
import pytest

import certias.certifier
import certias.geometry as geo
from certias.certifier import (
    BudgetExceededError,
    CertificationResult,
    CertifiedRegion,
    certify,
    halfplane_family,
    partition_step,
    sequence_key,
)
from certias.certifier import transition as certifier_transition
from certias.cli import dump_document
from certias.examples import double_integrator_problem, toy_problem
from certias.geometry import Polyhedron, bounding_box, contains, interior_point, is_empty
from certias.lpp import ErrorModel
from certias.mpqp import MpQP, load_problem
from certias.solver import (
    DEGENERATE,
    DUAL_CHECK,
    NO_INDEX,
    PASS_INDEX,
    SLACK_CHECK,
    TERMINATED_ITER_LIMIT,
    TERMINATED_OPTIMAL,
    SolverState,
    Tolerances,
    iterations,
    run,
)
from certias.solver import transition as solver_transition

from oracles import poly_contains_poly, poly_equal

EPS_P = 1e-6


def interval(lo, hi):
    return Polyhedron.box([lo], [hi])


def spans(region):
    lo, hi = bounding_box(region)
    return float(lo[0]), float(hi[0])


def regions_with_sequence(result, shape):
    enc = [(w, m) for w, m in shape]
    return [r for r in result.regions
            if [(s.working_set, s.mode) for s in r.sequence] == enc]


class TestSharedTransition:
    def test_same_function_object(self):
        assert certifier_transition is solver_transition


class TestHalfplaneFamily:
    def test_slack_family_shape(self):
        fams = halfplane_family(SolverState((), SLACK_CHECK), 3, Tolerances())
        assert len(fams) == 4
        A0, b0, idx0 = fams[0]
        assert idx0 == PASS_INDEX
        assert np.array_equal(A0, -np.eye(3))
        assert b0 == pytest.approx([EPS_P] * 3)
        A1, b1, idx1 = fams[1]
        assert idx1 == 0
        assert A1[0] == pytest.approx([1.0, 0.0, 0.0])
        assert b1[0] == pytest.approx(-EPS_P)
        # pairwise rows: z0 <= z1 and z0 <= z2
        assert A1[1] == pytest.approx([1.0, -1.0, 0.0])
        assert A1[2] == pytest.approx([1.0, 0.0, -1.0])

    def test_dual_family_uses_constraint_labels(self):
        state = SolverState((4, 1), DUAL_CHECK)
        fams = halfplane_family(state, 6, Tolerances())
        assert [idx for _, _, idx in fams] == [PASS_INDEX, 4, 1]
        assert fams[0][0].shape == (2, 2)

    def test_terminal_state_rejected(self):
        with pytest.raises(ValueError):
            halfplane_family(SolverState((), "terminated_optimal"), 2, Tolerances())


class TestPartitionStep:
    def test_toy_nominal_split(self):
        prob = toy_problem()
        out, pruned = partition_step(prob.theta_set, SolverState((), SLACK_CHECK), prob,
                                     Tolerances(), ErrorModel(), 0)
        by_index = {idx: reg for idx, reg, _ in out}
        assert set(by_index) == {PASS_INDEX, 0} and pruned == 0
        assert poly_equal(by_index[PASS_INDEX], interval(-1.0 - EPS_P, 3.0))
        assert poly_equal(by_index[0], interval(-3.0, -1.0 - EPS_P))

    def test_toy_inflated_split_overlaps(self):
        prob = toy_problem()
        model = ErrorModel(kind="hypercube", bound=0.1)
        out, pruned = partition_step(prob.theta_set, SolverState((), SLACK_CHECK), prob,
                                     Tolerances(), model, 0)
        by_index = {idx: reg for idx, reg, _ in out}
        assert pruned == 0
        assert poly_equal(by_index[PASS_INDEX], interval(-1.1 - EPS_P, 3.0))
        assert poly_equal(by_index[0], interval(-3.0, -0.9 - EPS_P))
        lo1, hi1 = spans(by_index[PASS_INDEX])
        lo2, hi2 = spans(by_index[0])
        assert hi2 - lo1 == pytest.approx(0.2, abs=1e-9)

    def test_subset_region_only_terminates(self):
        prob = toy_problem()
        inside = interval(1.0, 2.0)  # slack 1+theta >= 2 everywhere
        out, pruned = partition_step(inside, SolverState((), SLACK_CHECK), prob,
                                     Tolerances(), ErrorModel(), 0)
        assert len(out) == 1 and out[0][0] == PASS_INDEX
        assert pruned == 1  # the branch adding row 0 is empty

    def test_dual_split_with_dual_perturbation(self):
        prob = toy_problem()
        state = SolverState((0,), DUAL_CHECK)
        model = ErrorModel(kind="hypercube", bound=0.1, perturb_dual=True)
        out, pruned = partition_step(prob.theta_set, state, prob, Tolerances(), model, 1)
        by_index = {idx: reg for idx, reg, _ in out}
        assert pruned == 0
        # multiplier map is -1-theta; pass needs it >= -eps_d (minus spread)
        assert poly_equal(by_index[PASS_INDEX], interval(-3.0, -0.9 + EPS_P))
        assert poly_equal(by_index[0], interval(-1.1 + EPS_P, 3.0))

    def test_dual_split_exact_without_flag(self):
        prob = toy_problem()
        state = SolverState((0,), DUAL_CHECK)
        model = ErrorModel(kind="hypercube", bound=0.1)  # slack errors only
        out, pruned = partition_step(prob.theta_set, state, prob, Tolerances(), model, 1)
        by_index = {idx: reg for idx, reg, _ in out}
        assert pruned == 0
        assert poly_equal(by_index[PASS_INDEX], interval(-3.0, -1.0 + EPS_P))
        assert poly_equal(by_index[0], interval(-1.0 + EPS_P, 3.0))

    def test_relative_model_converts_against_region(self):
        prob = toy_problem()
        model = ErrorModel(kind="relative", rel_bound=0.1)
        out, pruned = partition_step(prob.theta_set, SolverState((), SLACK_CHECK), prob,
                                     Tolerances(), model, 0)
        # max |1+theta| over [-3,3] is 4, so the bound converts to 0.4.
        by_index = {idx: reg for idx, reg, _ in out}
        assert pruned == 0
        assert poly_equal(by_index[PASS_INDEX], interval(-1.4 - EPS_P, 3.0))

    def test_singular_state_one_no_index_branch(self):
        # Working set (0, 0) repeats its row, so its subproblem is singular:
        # no decision is taken, and the whole region with the given point is
        # the one branch, which transition ends degenerate.
        prob = toy_problem()
        state = SolverState((0, 0), DUAL_CHECK)
        point = np.array([0.5])
        out, pruned = partition_step(prob.theta_set, state, prob, Tolerances(),
                                     ErrorModel(kind="hypercube", bound=0.1), 2, point)
        ((index, region, start),) = out
        assert (index, pruned) == (NO_INDEX, 0)
        assert region is prob.theta_set and start is point
        assert solver_transition(state, NO_INDEX) == SolverState((0, 0), DEGENERATE)


class TestCertifyToyExact:
    def test_two_region_partition(self):
        prob = toy_problem()
        res = certify(prob)
        assert len(res.regions) == 2
        two, one = res.regions
        assert [r.iterations for r in res.regions] == [2, 1]
        assert {r.status for r in res.regions} == {"optimal"}
        assert poly_equal(two.region, interval(-3.0, -1.0 - EPS_P))
        assert poly_equal(one.region, interval(-1.0 - EPS_P, 3.0))
        assert [(s.working_set, s.mode) for s in one.sequence] == [
            ((), "slack_check"), ((), "terminated_optimal")]
        assert [(s.working_set, s.mode) for s in two.sequence] == [
            ((), "slack_check"), ((0,), "dual_check"),
            ((0,), "slack_check"), ((0,), "terminated_optimal")]

    def test_conformance_sampled(self):
        prob = toy_problem()
        res = certify(prob)
        rng = np.random.default_rng(5)
        checked = 0
        for theta in rng.uniform(-3.0, 3.0, size=400):
            if abs(theta - (-1.0 - EPS_P)) < 1e-7:
                continue
            hosts = [r for r in res.regions if contains(r.region, [theta], 1e-9)]
            assert hosts, f"no region holds theta={theta}"
            realized = run(prob, [theta]).sequence
            assert any(tuple(r.sequence) == tuple(realized) for r in hosts)
            checked += 1
        assert checked >= 398

    def test_single_point_parameter_set(self):
        base = toy_problem()
        prob = MpQP(H=base.H, C=base.C, f_lin=base.f_lin, f_const=base.f_const,
                    d_lin=base.d_lin, d_const=base.d_const,
                    theta_set=Polyhedron.box([-2.0], [-2.0]))
        res = certify(prob)
        assert len(res.regions) == 1
        assert tuple(res.regions[0].sequence) == tuple(run(base, [-2.0]).sequence)

    def test_problem_digest_and_settings(self):
        prob = toy_problem()
        res = certify(prob, tol=Tolerances(eps_primal=1e-5, iter_limit=9))
        assert res.problem_digest == prob.digest()
        assert res.settings["eps_primal"] == 1e-5
        assert res.settings["eps_dual"] == 1e-5
        assert res.settings["iter_limit"] == 9
        assert res.settings["error_model"] == {"kind": "none"}
        assert "workers" not in res.settings
        assert res.stats["regions"] == len(res.regions)
        assert res.stats["lp_calls"] > 0


@pytest.fixture(scope="module")
def inflated_result():
    return certify(toy_problem(), model=ErrorModel(kind="hypercube", bound=0.1))


@pytest.fixture(scope="module")
def mpc_problem():
    return double_integrator_problem()


@pytest.fixture(scope="module")
def mpc_result(mpc_problem):
    return certify(mpc_problem)


class TestCertifyToyInflated:
    @pytest.fixture
    def result(self, inflated_result):
        return inflated_result

    def test_leaf_statuses(self, result):
        statuses = {r.status for r in result.regions}
        assert statuses == {"optimal", "iter_limit", "degenerate"}

    def test_one_and_two_iteration_sequences_overlap(self, result):
        one = regions_with_sequence(result, [((), SLACK_CHECK), ((), "terminated_optimal")])
        two = regions_with_sequence(result, [
            ((), SLACK_CHECK), ((0,), DUAL_CHECK),
            ((0,), SLACK_CHECK), ((0,), "terminated_optimal")])
        assert len(one) == 1 and len(two) == 1
        assert poly_equal(one[0].region, interval(-1.1 - EPS_P, 3.0))
        cap = one[0].region.intersect(two[0].region.A, two[0].region.b)
        _, radius = interior_point(cap)
        assert radius > 1e-3

    def test_iter_limit_leaves(self, result):
        capped = [r for r in result.regions if r.status == "iter_limit"]
        assert capped
        for r in capped:
            assert r.iterations == 15
            assert r.sequence[-1].mode == TERMINATED_ITER_LIMIT

    def test_degenerate_leaves_carry_duplicate_row(self, result):
        degen = [r for r in result.regions if r.status == "degenerate"]
        assert degen
        for r in degen:
            assert r.sequence[-1].mode == DEGENERATE
            W = r.sequence[-1].working_set
            assert len(W) != len(set(W))

    def test_cover(self, result):
        rng = np.random.default_rng(11)
        for theta in rng.uniform(-3.0, 3.0, size=500):
            assert any(contains(r.region, [theta], 1e-9) for r in result.regions)

    def test_nominal_regions_contained_in_inflated(self, result):
        exact = certify(toy_problem())
        for r0 in exact.regions:
            match = [r for r in result.regions
                     if sequence_key(r.sequence) == sequence_key(r0.sequence)]
            assert len(match) == 1
            assert poly_contains_poly(r0.region, match[0].region)

    def test_worker_count_does_not_change_output(self, result):
        alt = certify(toy_problem(), model=ErrorModel(kind="hypercube", bound=0.1),
                      workers=4)
        assert len(alt.regions) == len(result.regions)
        for a, b in zip(alt.regions, result.regions):
            assert sequence_key(a.sequence) == sequence_key(b.sequence)
            assert np.array_equal(a.region.A, b.region.A)
            assert np.array_equal(a.region.b, b.region.b)
            assert a.status == b.status and a.iterations == b.iterations

    def test_runs_on_calling_thread(self, monkeypatch):
        threads = set()
        real = certias.certifier.partition_step

        def spy(*args, **kwargs):
            threads.add(threading.get_ident())
            return real(*args, **kwargs)

        monkeypatch.setattr(certias.certifier, "partition_step", spy)
        certify(toy_problem(), model=ErrorModel(kind="hypercube", bound=0.1),
                workers=4)
        assert threads == {threading.get_ident()}

    def test_polyhedral_dual_perturbation_matches_hypercube(self):
        # The toy has one constraint, so a dual check's working set covers
        # every error coordinate and the set is used without projecting.
        box = ErrorModel(kind="hypercube", bound=0.01, perturb_dual=True)
        poly = ErrorModel(kind="polyhedral", set=interval(-0.01, 0.01),
                          perturb_dual=True)
        want = [r.sequence for r in certify(toy_problem(), model=box).regions]
        got = [r.sequence for r in certify(toy_problem(), model=poly).regions]
        assert len(want) == 45
        assert got == want

    def test_wrong_dimension_set_fails_before_exploring(self, monkeypatch):
        # The 1-D set sits at step 2, which a toy run reaches; it is refused
        # before the first region is split.
        monkeypatch.setattr(certias.certifier, "partition_step", None)
        model = ErrorModel(kind="hypercube", bound=0.1, schedule=(
            ErrorModel(), ErrorModel(),
            ErrorModel(kind="polyhedral", set=Polyhedron.box([-0.1] * 2, [0.1] * 2))))
        with pytest.raises(ValueError, match="schedule entry 2: error set dimension 2"):
            certify(toy_problem(), model=model)

    def test_budget_cap(self):
        with pytest.raises(BudgetExceededError):
            certify(toy_problem(), model=ErrorModel(kind="hypercube", bound=0.1),
                    max_live=1)

    def test_budget_counts_regions_live_at_one_step(self):
        # At most 12 DI regions are live at one step under errors of 1e-4,
        # at a cap of 15 as at one of 60: the budget does not grow with
        # depth. explored counts every split and every capped leaf.
        prob, model = double_integrator_problem(), ErrorModel.from_eps_bar(1e-4)
        with pytest.raises(BudgetExceededError,
                           match=r"^live regions \(12\) exceed max_live=11$"):
            certify(prob, model=model, max_live=11)
        splits = []
        real = certias.certifier.partition_step

        def counted(*args):
            splits.append(args[5])
            return real(*args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(certias.certifier, "partition_step", counted)
            for cap in (15, 60):
                splits.clear()
                result = certify(prob, Tolerances(iter_limit=cap), model, max_live=12)
                capped = sum(r.status == "iter_limit" for r in result.regions)
                assert result.stats["explored"] == len(splits) + capped
                assert max(np.bincount(splits)) == 12
                assert max(splits) == 2 * cap - 1


class TestCertifyMpc:
    @pytest.fixture
    def prob(self, mpc_problem):
        return mpc_problem

    @pytest.fixture
    def result(self, mpc_result):
        return mpc_result

    def test_all_optimal_with_moderate_worst_case(self, prob, result):
        assert all(r.status == "optimal" for r in result.regions)
        worst = max(r.iterations for r in result.regions)
        assert 2 <= worst <= 10
        assert len(result.regions) >= 4

    def test_sampled_conformance(self, prob, result):
        rng = np.random.default_rng(23)
        lo, hi = bounding_box(prob.theta_set)
        checked = 0
        for _ in range(300):
            theta = rng.uniform(lo, hi)
            if not contains(prob.theta_set, theta, 1e-9):
                continue
            hosts = [r for r in result.regions if contains(r.region, theta, 1e-9)]
            assert hosts
            near_boundary = any(
                abs(a @ theta - bb) / max(np.linalg.norm(a), 1e-30) < 1e-7
                for r in hosts for a, bb in zip(r.region.A, r.region.b))
            if near_boundary:
                continue
            realized = run(prob, theta).sequence
            assert any(tuple(r.sequence) == tuple(realized) for r in hosts)
            checked += 1
        assert checked > 200

    def test_interior_points_not_shared(self, prob, result):
        # Exact arithmetic: regions tile the parameter set without overlap.
        rng = np.random.default_rng(31)
        lo, hi = bounding_box(prob.theta_set)
        tested = 0
        for _ in range(400):
            theta = rng.uniform(lo, hi)
            if not contains(prob.theta_set, theta, 1e-9):
                continue
            hosts = [r for r in result.regions if contains(r.region, theta, -1e-7)]
            assert len(hosts) <= 1
            tested += 1
        assert tested > 300

    def test_iterations_match_sequence(self, result):
        for r in result.regions:
            n_slack = sum(1 for s in r.sequence if s.mode == SLACK_CHECK)
            assert r.iterations == n_slack

    def test_result_pickles(self, result):
        # Polyhedron rebuilds through _from_rows, so a certified partition
        # can cross a process boundary with its document unchanged.
        copy = pickle.loads(pickle.dumps(result))
        assert dump_document(copy.to_document()) == dump_document(result.to_document())
        assert not copy.regions[0].region.A.flags.writeable


# Child-process scripts for TestPickleAcrossHashSeeds, run with the given
# PYTHONHASHSEED: the first pickles a certified toy partition, the second
# looks its sequences up among those of a partition certified afresh.
_PICKLE_SCRIPT = """
import pickle, sys
from certias import certify, toy_problem
with open(sys.argv[1], "wb") as out:
    pickle.dump(certify(toy_problem()), out)
"""
_LOOKUP_SCRIPT = """
import pickle, sys
from certias import certify, toy_problem
with open(sys.argv[1], "rb") as src:
    loaded = pickle.load(src)
fresh = {r.sequence: i for i, r in enumerate(certify(toy_problem()).regions)}
assert [fresh[r.sequence] for r in loaded.regions] == list(range(len(fresh)))
"""


class TestPickleAcrossHashSeeds:
    def test_sequences_found_after_unpickling(self, tmp_path):
        # A str hash differs between processes: an unpickled state must hash
        # as one built in the process that loads it.
        src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
        path = str(tmp_path / "toy.pickle")
        for script, seed in ((_PICKLE_SCRIPT, "1"), (_LOOKUP_SCRIPT, "2")):
            env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
            subprocess.run([sys.executable, "-c", script, path], env=env, check=True)


def _slack_count(sequence):
    """Reference count: the slack-check states of a sequence, as the
    certifier counted a leaf's iterations before solver.iterations."""
    return sum(1 for s in sequence if s.mode == SLACK_CHECK)


_ALL_ENDS = {"optimal", "iter_limit", "degenerate"}


class TestIterationRule:
    """solver.iterations, the one count run and certify share, is the
    number of slack checks on every leaf and on every sampled run."""

    @pytest.mark.parametrize("iter_limit", [3, 15])
    @pytest.mark.parametrize("case", [
        ("toy", ErrorModel(), {"optimal"}),
        ("toy", ErrorModel(kind="hypercube", bound=0.1), _ALL_ENDS),
        ("toy", ErrorModel(kind="hypercube", bound=0.05, perturb_dual=True), _ALL_ENDS),
        ("toy", ErrorModel(kind="hypercube", bound=0.05, schedule=(
            ErrorModel(), ErrorModel(kind="hypercube", bound=0.2),
            ErrorModel(kind="hypercube", bound=0.01))), {"optimal", "degenerate"}),
        ("double_integrator", ErrorModel(), {"optimal"}),
        ("double_integrator", ErrorModel(kind="hypercube", bound=1e-4), _ALL_ENDS),
        ("double_integrator", ErrorModel(kind="hypercube", bound=1e-3, perturb_dual=True),
         _ALL_ENDS),
        ("double_integrator", ErrorModel(kind="hypercube", bound=1e-3, schedule=(
            ErrorModel(kind="hypercube", bound=1e-2), ErrorModel())), _ALL_ENDS),
    ], ids=["toy-exact", "toy-hypercube", "toy-perturb-dual", "toy-schedule",
            "di-exact", "di-hypercube", "di-perturb-dual", "di-schedule"])
    def test_count_is_slack_checks(self, case, iter_limit):
        name, model, ends = case
        prob = toy_problem() if name == "toy" else double_integrator_problem()
        tol = Tolerances(iter_limit=iter_limit)
        leaves = certify(prob, tol, model).regions
        # Cap leaves and degenerate leaves (on toy at 0.1, the zero-width
        # ones) are among those counted.
        assert {r.status for r in leaves} == ends
        rng = np.random.default_rng(11)
        lo, hi = bounding_box(prob.theta_set)
        thetas = rng.uniform(lo, hi, size=(200, prob.n_theta))
        thetas = thetas[contains(prob.theta_set, thetas)]
        steps = 2 * iter_limit + 2
        errors = rng.uniform(-1.0, 1.0, size=(len(thetas), steps, prob.m)) \
            * model.step_bounds(steps)[:, None]
        runs = [run(prob, theta, rows, tol, model.perturb_dual)
                for theta, rows in zip(thetas, errors)]
        for r in [*leaves, *runs]:
            assert r.iterations == iterations(r.sequence) == _slack_count(r.sequence)
            assert r.iterations <= iter_limit


_STATUS_OF_MARKER = {TERMINATED_OPTIMAL: "optimal", TERMINATED_ITER_LIMIT: "iter_limit",
                     DEGENERATE: "degenerate"}


class TestDerivedLeafFields:
    """A leaf stores its region and sequence; status and iterations are
    read off the sequence and cannot be given or set apart from it."""

    @pytest.mark.parametrize("status", sorted(_ALL_ENDS))
    def test_read_off_the_sequence(self, inflated_result, status):
        leaf = next(r for r in inflated_result.regions if r.status == status)
        assert _STATUS_OF_MARKER[leaf.sequence[-1].mode] == status
        assert leaf.iterations == _slack_count(leaf.sequence)
        if status == "iter_limit":
            assert leaf.iterations == Tolerances().iter_limit
        with pytest.raises(AttributeError):
            leaf.status = "optimal"
        with pytest.raises(AttributeError):
            leaf.iterations = 1
        assert CertifiedRegion(leaf.region, leaf.sequence).to_document() == leaf.to_document()

    def test_constructor_takes_only_deciding_fields(self, inflated_result):
        leaf = inflated_result.regions[0]
        with pytest.raises(TypeError):
            CertifiedRegion(leaf.region, leaf.sequence, leaf.status, leaf.iterations)


_S, _D = SLACK_CHECK, DUAL_CHECK
_OPT, _CAP, _DEG = TERMINATED_OPTIMAL, TERMINATED_ITER_LIMIT, DEGENERATE


class TestSelfConsistentDocuments:
    """CertifiedRegion.from_document reads only a leaf whose sequence ends
    in its one terminal state and whose status and iterations are the ones
    that sequence gives; CertificationResult.from_document reads only leaves
    that keep the document's iteration cap."""

    @pytest.fixture
    def capped(self, inflated_result):
        """The document of a leaf that hits the cap after 15 iterations."""
        return next(r for r in inflated_result.regions
                    if r.status == "iter_limit").to_document()

    def test_clean_document_round_trips_byte_for_byte(self, inflated_result):
        text = dump_document(inflated_result.to_document())
        back = CertificationResult.from_document(json.loads(text))
        assert dump_document(back.to_document()) == text

    def test_empty_sequence(self, capped):
        with pytest.raises(ValueError, match="cannot be empty"):
            CertifiedRegion.from_document({**capped, "sequence": []})

    @pytest.mark.parametrize("cut", ["no_marker", "marker_mid", "marker_mid_and_end",
                                     "two_markers"])
    def test_not_one_terminal_state_at_the_end(self, capped, cut):
        seq = capped["sequence"]
        marker = seq[-1]
        sequence = {"no_marker": seq[:-1],
                    "marker_mid": seq[:2] + [marker] + seq[2:-1],
                    "marker_mid_and_end": seq[:2] + [marker] + seq[2:],
                    "two_markers": seq + [marker]}[cut]
        with pytest.raises(ValueError, match="one terminal state"):
            CertifiedRegion.from_document({**capped, "sequence": sequence})

    @pytest.mark.parametrize("fields", [
        {"status": "optimal"},
        {"status": "optimal", "iterations": 1},
        {"iterations": 1},
        {"iterations": 15.0},
        {"status": "finished"},
    ])
    def test_claims_that_disagree_with_the_sequence(self, capped, fields):
        with pytest.raises(ValueError, match="disagree"):
            CertifiedRegion.from_document({**capped, **fields})

    def test_bool_iteration_count(self, inflated_result):
        one = next(r for r in inflated_result.regions if r.iterations == 1).to_document()
        with pytest.raises(ValueError, match="disagree"):
            CertifiedRegion.from_document({**one, "iterations": True})

    def test_cap_marker_before_the_cap(self):
        # The exact toy partition (cap 15) with its first leaf capped after
        # one iteration, which iteration_cdf once read as [(1, 0.5)]. The
        # leaf alone is a run: only the document knows the cap.
        doc = json.loads(dump_document(certify(toy_problem()).to_document()))
        doc["regions"][0] = _leaf_document(doc["regions"][0],
                                           [((), _S), ((0,), _D), ((0,), _CAP)])
        CertifiedRegion.from_document(doc["regions"][0])
        with pytest.raises(ValueError, match="cap of 31 states"):
            CertificationResult.from_document(doc)

    @pytest.fixture(scope="class")
    def one_iteration(self):
        """The exact toy partition under a cap of one iteration, 3 states:
        its first leaf is capped, its second optimal."""
        return dump_document(certify(toy_problem(), Tolerances(iter_limit=1)).to_document())

    @pytest.mark.parametrize("states", [
        [((), _S), ((0,), _D), ((0,), _S), ((0,), _OPT)],
        [((), _S), ((0,), _D), ((0,), _S), ((0, 1), _D), ((0, 1), _CAP)],
    ], ids=["optimal", "capped"])
    def test_sequence_past_the_cap(self, one_iteration, states):
        doc = json.loads(one_iteration)
        doc["regions"][1] = _leaf_document(doc["regions"][1], states)
        with pytest.raises(ValueError, match="cap of 3 states"):
            CertificationResult.from_document(doc)

    def test_leaves_at_the_cap_read(self, one_iteration):
        # A subproblem found singular at the last dual check ends in 2L + 1
        # states, as a capped leaf does.
        capped = CertificationResult.from_document(json.loads(one_iteration)).regions[0]
        assert (capped.status, len(capped.sequence)) == ("iter_limit", 3)
        doc = json.loads(one_iteration)
        states = [((), _S), ((0,), _D), ((0,), _DEG)]
        doc["regions"][0] = _leaf_document(doc["regions"][0], states)
        back = CertificationResult.from_document(doc)
        assert [(s.working_set, s.mode) for s in back.regions[0].sequence] == states


def _leaf_document(leaf_doc, states):
    """leaf_doc with the sequence of (working set, mode) states, and the
    status and iterations that sequence gives."""
    leaf = CertifiedRegion(Polyhedron.from_document(leaf_doc),
                           tuple(SolverState(w, mode) for w, mode in states))
    return {**leaf_doc, "sequence": [s.to_document() for s in leaf.sequence],
            "status": _STATUS_OF_MARKER[states[-1][1]], "iterations": leaf.iterations}


class TestSequencesAreRuns:
    """A document's sequences must be runs of the automaton: from the empty
    slack check, each later state is transition(previous, i) for some
    decision i, a cap marker standing for the slack check it replaces."""

    @pytest.mark.parametrize("states", [
        [((), _S), ((0,), _D), ((0,), _S), ((0,), _OPT)],
        [((), _S), ((1,), _D), ((1,), _DEG)],
        [((), _S), ((0,), _D), ((), _S), ((), _DEG)],
        [((), _S), ((0,), _D), ((0,), _CAP)],
        [((), _S), ((0,), _D), ((0,), _S), ((0, 2), _D), ((2,), _S), ((2,), _OPT)],
    ], ids=["keep", "singular-dual", "singular-slack", "cap", "drop"])
    def test_runs_read(self, inflated_result, states):
        doc = _leaf_document(inflated_result.regions[0].to_document(), states)
        leaf = CertifiedRegion.from_document(doc)
        assert [(s.working_set, s.mode) for s in leaf.sequence] == states

    @pytest.mark.parametrize("states, match", [
        ([((0,), _S), ((0,), _OPT)], "empty slack check"),
        ([((), _D), ((), _S), ((), _OPT)], "empty slack check"),
        ([((), _S), ((0,), _S), ((0,), _OPT)], "no decision"),
        ([((), _S), ((0,), _D), ((0,), _D), ((0,), _OPT)], "no decision"),
        ([((), _S), ((-7,), _D), ((-7,), _S), ((-7,), _OPT)], "no decision"),
        ([((), _S), ((0,), _D), ((1,), _S), ((1,), _OPT)], "no decision"),
        ([((), _S), ((0,), _D), ((0, 1), _D), ((0, 1), _DEG)], "cannot drop"),
        ([((), _S), ((), _CAP)], "no decision"),
        ([((), _S), ((0,), _D), ((0,), _OPT)], "no decision"),
        ([((), _S), ((0, 1), _D), ((0, 1), _S), ((0, 1), _OPT)], "no decision"),
    ], ids=["root-row", "root-dual", "slack-to-slack", "dual-to-dual", "negative-row",
            "swap-row", "add-at-dual", "cap-after-slack", "optimal-after-dual",
            "two-rows-at-once"])
    def test_non_runs_refused(self, inflated_result, states, match):
        doc = _leaf_document(inflated_result.regions[0].to_document(), states)
        with pytest.raises(ValueError, match=match):
            CertifiedRegion.from_document(doc)
        whole = {**inflated_result.to_document()}
        whole["regions"] = [*whole["regions"][:3], doc, *whole["regions"][3:]]
        with pytest.raises(ValueError, match=match):
            CertificationResult.from_document(whole)

    def test_flipped_mode_in_the_exact_toy_partition(self):
        # The first leaf's second state read as a slack check would make
        # three slack checks, counted as two iterations.
        doc = json.loads(dump_document(certify(toy_problem()).to_document()))
        leaf = doc["regions"][0]
        assert leaf["sequence"][1]["mode"] == DUAL_CHECK
        leaf["sequence"][1]["mode"] = SLACK_CHECK
        with pytest.raises(ValueError, match="no decision"):
            CertificationResult.from_document(doc)

    def test_each_pair_checked_once_per_document(self, inflated_result, monkeypatch):
        doc = json.loads(dump_document(inflated_result.to_document()))
        calls = []
        check = certias.certifier.decision_of
        monkeypatch.setattr(certias.certifier, "decision_of",
                            lambda *pair: calls.append(pair) or check(*pair))
        back = CertificationResult.from_document(doc)
        pairs = {p for r in back.regions for p in zip(r.sequence, r.sequence[1:])}
        assert sorted(calls, key=sequence_key) == sorted(pairs, key=sequence_key)

    @pytest.mark.parametrize("case", [
        ("toy", ErrorModel(), 15),
        ("toy", ErrorModel(kind="hypercube", bound=0.1), 3),
        ("toy", ErrorModel(kind="hypercube", bound=0.05, perturb_dual=True), 15),
        ("toy", ErrorModel(kind="hypercube", bound=0.05, schedule=(
            ErrorModel(), ErrorModel(kind="hypercube", bound=0.2))), 15),
        ("toy", ErrorModel(kind="relative", rel_bound=1e-3), 15),
        ("double_integrator", ErrorModel(kind="hypercube", bound=1e-4), 15),
        ("double_integrator", ErrorModel(kind="hypercube", bound=1e-3, perturb_dual=True), 15),
    ], ids=["toy-exact", "toy-cap-3", "toy-perturb-dual", "toy-schedule",
            "toy-relative", "di-hypercube", "di-perturb-dual"])
    def test_certified_documents_read_back_byte_for_byte(self, case):
        name, model, cap = case
        prob = toy_problem() if name == "toy" else double_integrator_problem()
        text = dump_document(certify(prob, Tolerances(iter_limit=cap), model).to_document())
        back = CertificationResult.from_document(json.loads(text))
        assert dump_document(back.to_document()) == text


class TestCanonicalOrder:
    def test_sequence_key_orders_modes_then_sets(self):
        a = sequence_key((SolverState((), SLACK_CHECK),))
        b = sequence_key((SolverState((), DUAL_CHECK),))
        c = sequence_key((SolverState((1,), SLACK_CHECK),))
        assert a < b and a < c

    def test_keys_unique_across_results(self):
        res = certify(toy_problem(), model=ErrorModel(kind="hypercube", bound=0.1))
        keys = [sequence_key(r.sequence) for r in res.regions]
        assert len(keys) == len(set(keys))
        assert keys == sorted(keys)


def shipped_double_integrator():
    path = pathlib.Path(__file__).resolve().parent.parent / "problems" / "double_integrator.json"
    return load_problem(json.loads(path.read_text()))


def test_work_counters_of_shipped_double_integrator():
    # Regression counters for problems/double_integrator.json at hypercube
    # 1e-4. LP calls are fixed by the exploration; pivots by the kernel and
    # by how each LP is posed. Pivots were 12604 while every redundancy LP
    # still ran its own phase 1; they fell to 7870 when those LPs started at
    # the emptiness test's point, and to 6284 when rounding negatives stopped
    # forcing phase 1, redundancy LPs stopped once a row was proved kept, and
    # emptiness tests started at the parent region's point.
    prob = shipped_double_integrator()
    lps, pivots = geo.lp_call_count(), geo.pivot_count()
    res = certify(prob, model=ErrorModel(kind="hypercube", bound=1e-4))
    assert geo.lp_call_count() - lps == res.stats["lp_calls"] == 4149
    assert geo.pivot_count() - pivots == 6284
    assert len(res.regions) == 223


def test_concurrent_certify_matches_serial():
    # LPs are counted per thread, so two certifications running at once
    # each report their own LPs and write the serial document byte for byte.
    prob = shipped_double_integrator()
    model = ErrorModel(kind="hypercube", bound=1e-4)
    serial = dump_document(certify(prob, model=model).to_document())
    assert json.loads(serial)["stats"]["lp_calls"] == 4149
    start = threading.Barrier(2)
    docs = [None, None]

    def work(i):
        start.wait()
        docs[i] = dump_document(certify(prob, model=model).to_document())

    threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=300)
        assert not t.is_alive()
    assert docs == [serial, serial]


def _cube(bound, **kw):
    return ErrorModel(kind="hypercube", bound=bound, **kw)


def _repeating_schedule():
    """One hypercube model repeated by value as distinct objects, with 0.0
    and -0.0 entries among them; multiplier checks see the schedule too."""
    return _cube(1e-4, perturb_dual=True, schedule=(
        _cube(1e-4), _cube(1e-4), _cube(0.0), _cube(1e-4), _cube(-0.0),
        _cube(1e-4), _cube(0.0), _cube(-0.0), _cube(1e-4)))


class TestLiftedFamilies:
    # LP calls and pivots of one certify call, recorded before certify kept
    # each lifted family for the whole call: lifting once per key changes
    # no LP and no pivot.
    PINNED_WORK = {
        "toy-exact": (toy_problem, ErrorModel, 18, 15),
        "toy-hypercube-1e-4": (toy_problem, lambda: _cube(1e-4), 298, 255),
        "di-exact": (double_integrator_problem, ErrorModel, 151, 247),
        "di-hypercube-1e-4": (double_integrator_problem, lambda: _cube(1e-4), 4149, 6284),
        "di-hypercube-1e-3-perturb-dual": (
            double_integrator_problem, lambda: _cube(1e-3, perturb_dual=True), 4149, 6306),
        "di-repeating-schedule": (double_integrator_problem, _repeating_schedule, 765, 1247),
    }
    # sha256 of the di-repeating-schedule document (dump_document), recorded
    # with its counts. The document passes through BLAS products outside the
    # LP kernel, so, like the tests/test_cli.py pins, it holds on the
    # platform it was recorded on (x86-64 Linux, numpy 2.4).
    SCHEDULE_SHA256 = "cdd5f574b134598db4a3560d5fc2f6c602590f736338efc63a253ec3dbd85f30"

    @pytest.mark.parametrize("case", sorted(PINNED_WORK))
    def test_same_lps_and_pivots(self, case):
        problem, model, lps, pivots = self.PINNED_WORK[case]
        prob, model = problem(), model()
        lp0, pivot0 = geo.lp_call_count(), geo.pivot_count()
        res = certify(prob, model=model)
        assert (geo.lp_call_count() - lp0, geo.pivot_count() - pivot0) == (lps, pivots)
        assert res.stats["lp_calls"] == lps

    def test_schedule_document_matches_pinned_bytes(self):
        doc = dump_document(certify(double_integrator_problem(),
                                    model=_repeating_schedule()).to_document())
        assert hashlib.sha256(doc.encode()).hexdigest() == self.SCHEDULE_SHA256

    def test_memo_lives_for_one_call(self):
        # Lifts kept by one call must not reach the next one on the problem.
        prob = double_integrator_problem()

        def doc(p, bound):
            return dump_document(certify(p, model=_cube(bound)).to_document())

        first, wider, again = doc(prob, 1e-4), doc(prob, 1e-3), doc(prob, 1e-4)
        assert again == first
        assert wider == doc(pickle.loads(pickle.dumps(prob)), 1e-3)
        assert wider != first

    def test_each_key_lifted_once(self, monkeypatch):
        # The key is (working set, mode, model seen): zmap stands for the
        # first two, as the problem's map cache hands out one map object per
        # working set and mode. Equal models are distinct keys.
        lifts, steps = [], []
        real_lift, real_step = certias.certifier.lift_rows, certias.certifier.partition_step

        def lift(halfplanes, zmap, model):
            lifts.append((id(zmap), id(model)))
            return real_lift(halfplanes, zmap, model)

        def step(*args, **kwargs):
            steps.append(args[1])
            return real_step(*args, **kwargs)

        monkeypatch.setattr(certias.certifier, "lift_rows", lift)
        monkeypatch.setattr(certias.certifier, "partition_step", step)
        model = _repeating_schedule()
        certify(double_integrator_problem(), model=model)
        assert len(lifts) == len(set(lifts))
        assert 0 < len(lifts) < len(steps)
        seen = {m for _, m in lifts}
        assert {id(model.schedule[k]) for k in (0, 1, 2, 4)} <= seen
        # Without perturb_dual every multiplier check sees exact arithmetic,
        # whatever its step's entry: one lift per working set.
        lifts.clear()
        certify(double_integrator_problem(),
                model=_cube(1e-4, schedule=tuple(_cube(1e-4) for _ in range(9))))
        assert len(lifts) == len(set(lifts)) == 28

    @pytest.mark.parametrize("model", [
        ErrorModel(kind="relative", rel_bound=1e-3, perturb_dual=True),
        ErrorModel(kind="polyhedral", set=interval(-0.01, 0.01), perturb_dual=True),
    ], ids=["relative", "polyhedral"])
    def test_region_or_lp_dependent_lifts_not_kept(self, model, monkeypatch):
        # Relative lifts depend on the region, polyhedral ones solve LPs:
        # with perturb_dual every check sees the model, and every step goes
        # through lift_partition_project.
        def lift(*args):
            raise AssertionError("kept a lift that depends on the region or LPs")

        monkeypatch.setattr(certias.certifier, "lift_rows", lift)
        assert certify(toy_problem(), model=model).regions
