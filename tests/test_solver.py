import copy
import json
import pickle

import numpy as np
import pytest

from certias.certifier import certify
from certias.cli import dump_document
from certias.examples import double_integrator_problem, toy_problem
from certias.geometry import Polyhedron, bounding_box, contains
from certias.lpp import KIND_HYPERCUBE, ErrorModel
from certias.mpqp import MpQP, subproblem_maps
from certias.solver import (
    DEGENERATE,
    DUAL_CHECK,
    NO_INDEX,
    PASS_INDEX,
    SLACK_CHECK,
    TERMINATED_ITER_LIMIT,
    TERMINATED_OPTIMAL,
    RunResult,
    SolverState,
    Tolerances,
    _check,
    _decide,
    _lockstep,
    decision_of,
    run,
    step,
    transition,
)

from oracles import qp_solve_enumerate
from test_mpqp import random_problem


def seq_shape(result):
    return [(s.working_set, s.mode) for s in result.sequence]


def constant_rows(vec, n_steps=64):
    """The same error row at every step of a run of up to n_steps steps."""
    return np.tile(np.asarray(vec, dtype=float), (n_steps, 1))


class TestTransition:
    def test_add_from_slack_check(self):
        s = transition(SolverState((), SLACK_CHECK), 0)
        assert s == SolverState((0,), DUAL_CHECK)

    def test_terminate_from_slack_check(self):
        s = transition(SolverState((0,), SLACK_CHECK), PASS_INDEX)
        assert s.mode == TERMINATED_OPTIMAL
        assert s.working_set == (0,)

    def test_drop_from_dual_check(self):
        s = transition(SolverState((0, 2), DUAL_CHECK), 2)
        assert s == SolverState((0,), SLACK_CHECK)

    def test_keep_from_dual_check(self):
        s = transition(SolverState((1,), DUAL_CHECK), PASS_INDEX)
        assert s == SolverState((1,), SLACK_CHECK)

    def test_drop_unknown_row_rejected(self):
        with pytest.raises(ValueError):
            transition(SolverState((0,), DUAL_CHECK), 1)

    def test_terminal_has_no_transitions(self):
        with pytest.raises(ValueError):
            transition(SolverState((), TERMINATED_OPTIMAL), PASS_INDEX)

    @pytest.mark.parametrize("mode", [SLACK_CHECK, DUAL_CHECK])
    def test_no_decision_ends_degenerate(self, mode):
        assert transition(SolverState((0,), mode), NO_INDEX) == SolverState((0,), DEGENERATE)
        assert transition(SolverState((), SLACK_CHECK), NO_INDEX) == \
            SolverState((), DEGENERATE)

    @pytest.mark.parametrize("mode", [SLACK_CHECK, DUAL_CHECK])
    @pytest.mark.parametrize("index", [-3, -7])
    def test_other_negative_indices_rejected(self, mode, index):
        with pytest.raises(ValueError, match="no decision"):
            transition(SolverState((0,), mode), index)

    @pytest.mark.parametrize("mode", [TERMINATED_OPTIMAL, TERMINATED_ITER_LIMIT, DEGENERATE])
    @pytest.mark.parametrize("index", [NO_INDEX, PASS_INDEX, 0, 1])
    def test_terminal_refuses_every_index(self, mode, index):
        with pytest.raises(ValueError, match="terminal"):
            transition(SolverState((0,), mode), index)


class TestDecisionOf:
    """decision_of inverts transition, the cap marker standing for the
    slack check it replaces, and refuses a pair no decision links."""

    @pytest.mark.parametrize("state, index", [
        (SolverState((), SLACK_CHECK), 0),
        (SolverState((2,), SLACK_CHECK), PASS_INDEX),
        (SolverState((2,), SLACK_CHECK), NO_INDEX),
        (SolverState((2, 0, 1), DUAL_CHECK), 0),
        (SolverState((2, 0, 1), DUAL_CHECK), 1),
        (SolverState((2, 0), DUAL_CHECK), PASS_INDEX),
        (SolverState((2, 0), DUAL_CHECK), NO_INDEX),
    ])
    def test_inverts_transition(self, state, index):
        nxt = transition(state, index)
        assert decision_of(state, nxt) == index
        if nxt.mode == SLACK_CHECK:
            assert decision_of(state, SolverState(nxt.working_set, TERMINATED_ITER_LIMIT)) \
                == index

    @pytest.mark.parametrize("state, nxt", [
        (SolverState((), SLACK_CHECK), SolverState((), SLACK_CHECK)),
        (SolverState((), SLACK_CHECK), SolverState((0,), SLACK_CHECK)),
        (SolverState((), SLACK_CHECK), SolverState((), TERMINATED_ITER_LIMIT)),
        (SolverState((), SLACK_CHECK), SolverState((-7,), DUAL_CHECK)),
        (SolverState((0,), DUAL_CHECK), SolverState((0,), DUAL_CHECK)),
        (SolverState((0,), DUAL_CHECK), SolverState((0,), TERMINATED_OPTIMAL)),
        (SolverState((0, 1), DUAL_CHECK), SolverState((2,), SLACK_CHECK)),
        (SolverState((0,), DUAL_CHECK), SolverState((0, 1), SLACK_CHECK)),
        (SolverState((0, 1, 2), DUAL_CHECK), SolverState((0,), SLACK_CHECK)),
        (SolverState((0,), TERMINATED_OPTIMAL), SolverState((0,), DEGENERATE)),
    ])
    def test_refuses_non_steps(self, state, nxt):
        with pytest.raises(ValueError):
            decision_of(state, nxt)


class TestStateHash:
    """A state is the plain tuple (working_set, mode): it hashes and compares
    as that tuple, and copies are rebuilt through the constructor, so equal
    states hash alike."""

    @pytest.mark.parametrize("how", ["pickle", "copy", "deepcopy"])
    def test_copies_equal_and_hash_alike(self, how):
        state = SolverState((np.int64(2), 0), DUAL_CHECK)
        again = {"pickle": lambda: pickle.loads(pickle.dumps(state)),
                 "copy": lambda: copy.copy(state),
                 "deepcopy": lambda: copy.deepcopy(state)}[how]()
        assert again == state and hash(again) == hash(state) == hash(((2, 0), DUAL_CHECK))
        assert {state: 1}[again] == 1

    @pytest.mark.parametrize("mode", ["slack", "", None])
    def test_unknown_mode_rejected(self, mode):
        with pytest.raises(ValueError, match="unknown mode"):
            SolverState.from_document({"working_set": [0], "mode": mode})

    def test_hash_is_the_tuple_hash(self):
        for state in (SolverState((1,), SLACK_CHECK), SolverState((3, np.int64(0)), DUAL_CHECK),
                      SolverState((), TERMINATED_OPTIMAL)):
            assert hash(state) == hash((state.working_set, state.mode))
            assert state == SolverState.from_document(state.to_document())
        assert {"_hash", "__hash__", "__eq__", "__reduce__"}.isdisjoint(vars(SolverState))
        assert repr(SolverState((1,), SLACK_CHECK)) == \
            "SolverState(working_set=(1,), mode='slack_check')"


class TestStep:
    def test_slack_violation_adds_row(self):
        prob = toy_problem()
        nxt, idx, snap = step(prob, SolverState((), SLACK_CHECK), [-2.0], [0.0], Tolerances())
        assert idx == 0
        assert nxt == SolverState((0,), DUAL_CHECK)
        assert snap == pytest.approx([-1.0])

    def test_slack_pass_terminates(self):
        prob = toy_problem()
        nxt, idx, _ = step(prob, SolverState((), SLACK_CHECK), [0.5], [0.0], Tolerances())
        assert idx == PASS_INDEX
        assert nxt.mode == TERMINATED_OPTIMAL

    def test_perturbation_flips_decision(self):
        prob = toy_problem()
        theta = [-1.0 + 1e-7]  # nominal slack 1e-7, inside tolerance
        nxt, idx, _ = step(prob, SolverState((), SLACK_CHECK), theta, [0.0], Tolerances())
        assert nxt.mode == TERMINATED_OPTIMAL
        nxt, idx, _ = step(prob, SolverState((), SLACK_CHECK), theta, [-1e-5], Tolerances())
        assert idx == 0

    def test_dual_negative_drops_row(self):
        prob = toy_problem()
        nxt, idx, snap = step(prob, SolverState((0,), DUAL_CHECK), [0.0], [0.0], Tolerances())
        # multiplier -(1 + theta) = -1 at theta = 0: the row leaves.
        assert idx == 0
        assert nxt == SolverState((), SLACK_CHECK)
        assert snap == pytest.approx([-1.0])

    def test_dual_pass_keeps_row(self):
        prob = toy_problem()
        nxt, idx, _ = step(prob, SolverState((0,), DUAL_CHECK), [-2.0], [0.0], Tolerances())
        assert idx == PASS_INDEX
        assert nxt == SolverState((0,), SLACK_CHECK)

    def test_dual_perturbation_only_when_asked(self):
        prob = toy_problem()
        theta = [-1.0 + 1e-7]  # exact multiplier -1e-7, inside tolerance
        state = SolverState((0,), DUAL_CHECK)
        nxt, idx, snap = step(prob, state, theta, [-1e-5], Tolerances())
        assert idx == PASS_INDEX
        assert snap == pytest.approx([-1e-7])
        nxt, idx, snap = step(prob, state, theta, [-1e-5], Tolerances(),
                              perturb_dual=True)
        assert idx == 0
        assert nxt == SolverState((), SLACK_CHECK)
        assert snap == pytest.approx([-1e-7 - 1e-5])

    def test_epsilon_length_checked_when_used(self):
        prob = toy_problem()
        with pytest.raises(ValueError, match="epsilon"):
            step(prob, SolverState((), SLACK_CHECK), [0.0], [0.0, 0.0], Tolerances())
        with pytest.raises(ValueError, match="epsilon"):
            step(prob, SolverState((0,), DUAL_CHECK), [0.0], [0.0, 0.0],
                 Tolerances(), perturb_dual=True)
        # An exact dual check never reads epsilon.
        nxt, _, _ = step(prob, SolverState((0,), DUAL_CHECK), [0.0], [0.0, 0.0],
                         Tolerances())
        assert nxt == SolverState((), SLACK_CHECK)

    @pytest.mark.parametrize("mode", [TERMINATED_OPTIMAL, TERMINATED_ITER_LIMIT, DEGENERATE])
    def test_terminal_state_refused(self, mode):
        with pytest.raises(ValueError, match="terminal"):
            step(toy_problem(), SolverState((0,), mode), [-2.0], [0.0], Tolerances())

    def test_singular_subproblem_goes_degenerate(self):
        prob = double_integrator_problem()
        nxt, idx, _ = step(prob, SolverState((0, 0), DUAL_CHECK), [0.0, 0.0],
                           np.zeros(prob.m), Tolerances())
        assert nxt.mode == DEGENERATE
        assert idx == NO_INDEX

    def test_tie_breaks_to_lowest_row(self):
        # Two bitwise-identical constraint rows produce an exact slack tie.
        from certias.mpqp import MpQP
        from certias.geometry import Polyhedron
        prob = MpQP(
            H=np.array([[1.0]]),
            C=np.array([[1.0], [1.0]]),
            f_lin=np.array([[1.0]]),
            f_const=np.array([0.0]),
            d_lin=np.zeros((2, 1)),
            d_const=np.array([1.0, 1.0]),
            theta_set=Polyhedron.box([-3.0], [3.0]),
        )
        nxt, idx, snap = step(prob, SolverState((), SLACK_CHECK), [-2.0],
                              np.zeros(2), Tolerances())
        assert snap[0] == snap[1]
        assert idx == 0
        assert nxt == SolverState((0,), DUAL_CHECK)


class TestRunToy:
    def test_unconstrained_branch(self):
        result = run(toy_problem(), [0.0])
        assert result.status == TERMINATED_OPTIMAL
        assert result.iterations == 1
        assert seq_shape(result) == [((), SLACK_CHECK), ((), TERMINATED_OPTIMAL)]
        assert result.x == pytest.approx([0.0], abs=1e-12)

    def test_constrained_branch(self):
        result = run(toy_problem(), [-2.0])
        assert result.status == TERMINATED_OPTIMAL
        assert result.iterations == 2
        assert seq_shape(result) == [
            ((), SLACK_CHECK),
            ((0,), DUAL_CHECK),
            ((0,), SLACK_CHECK),
            ((0,), TERMINATED_OPTIMAL),
        ]
        assert result.x == pytest.approx([1.0], abs=1e-12)

    def test_boundary_theta_terminates_first_check(self):
        result = run(toy_problem(), [-1.0 + 1e-7], tol=Tolerances(eps_primal=1e-6))
        assert result.iterations == 1

    def test_iter_limit_reached(self):
        # Persistent negative perturbation re-adds the row forever.
        prob = toy_problem()
        result = run(prob, [-0.95], constant_rows([-0.5]), Tolerances(iter_limit=4))
        assert result.status == TERMINATED_ITER_LIMIT
        assert result.iterations == 4
        assert result.sequence[-1].mode == TERMINATED_ITER_LIMIT

    def test_duplicate_add_runs_degenerate(self):
        prob = toy_problem()
        # theta = -2 activates the row; the injected error then re-adds it.
        result = run(prob, [-2.0], constant_rows([-1e-3]))
        assert result.status == DEGENERATE
        assert result.sequence[-1].working_set == (0, 0)
        assert result.x is None

    @pytest.mark.parametrize("mode, theta, errors", [
        (TERMINATED_OPTIMAL, [-2.0], None),
        (TERMINATED_ITER_LIMIT, [-0.95], constant_rows([-0.5])),
        (DEGENERATE, [-2.0], constant_rows([-1e-3])),
    ])
    def test_status_and_iterations_read_off_the_sequence(self, mode, theta, errors):
        # A run stores its sequence; status is its marker's mode and
        # iterations its slack checks, neither given nor set apart from it.
        result = run(toy_problem(), theta, errors, Tolerances(iter_limit=4))
        assert result.status == result.sequence[-1].mode == mode
        assert result.iterations == sum(s.mode == SLACK_CHECK for s in result.sequence)
        with pytest.raises(AttributeError):
            result.status = TERMINATED_OPTIMAL
        with pytest.raises(AttributeError):
            result.iterations = 1
        with pytest.raises(TypeError):
            RunResult(result.sequence, result.status, result.iterations, result.x)

    def test_outside_parameter_set_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            run(toy_problem(), [4.0])

    def test_deterministic(self):
        a = run(toy_problem(), [-2.0])
        b = run(toy_problem(), [-2.0])
        assert seq_shape(a) == seq_shape(b)
        assert np.array_equal(a.x, b.x)


class TestRunAgainstBruteForce:
    def test_matches_enumeration_on_random_instances(self):
        rng = np.random.default_rng(77)
        feasible = 0
        for trial in range(60):
            prob = random_problem(rng, int(rng.integers(2, 5)), int(rng.integers(3, 9)))
            for theta in rng.uniform(-1.0, 1.0, size=(4, prob.n_theta)):
                x_ref, _ = qp_solve_enumerate(prob.H, prob.f(theta), prob.C, prob.d(theta))
                result = run(prob, theta, tol=Tolerances(iter_limit=30))
                if x_ref is None:
                    # Infeasible instance: no run may claim optimality.
                    assert result.status != TERMINATED_OPTIMAL
                    continue
                if result.status == DEGENERATE:
                    # A dependent row can join the working set; rare but legal.
                    continue
                feasible += 1
                assert result.status == TERMINATED_OPTIMAL
                assert result.x == pytest.approx(x_ref, abs=1e-6)
        assert feasible > 150  # the comparison above must carry real weight

    def test_optimal_runs_satisfy_kkt(self):
        rng = np.random.default_rng(123)
        for trial in range(40):
            prob = random_problem(rng, 3, 6)
            theta = rng.uniform(-1.0, 1.0, size=prob.n_theta)
            result = run(prob, theta, tol=Tolerances(iter_limit=30))
            if result.status != TERMINATED_OPTIMAL:
                continue
            x = result.x
            # Primal feasibility within the primal tolerance.
            assert np.all(prob.C @ x <= prob.d(theta) + 1e-6 + 1e-9)
            # Stationarity with the final working set's multipliers.
            W = result.sequence[-1].working_set
            lam = subproblem_maps(prob, W).lambda_map(theta)
            grad = prob.H @ x + prob.f(theta) + prob.C[list(W)].T @ lam
            assert np.max(np.abs(grad)) <= 1e-8
            assert np.all(lam >= -1e-6 - 1e-12)

    def test_working_set_never_exceeds_nx(self):
        rng = np.random.default_rng(5)
        for trial in range(30):
            prob = random_problem(rng, 2, 6)
            theta = rng.uniform(-1.0, 1.0, size=2)
            result = run(prob, theta, tol=Tolerances(iter_limit=25))
            for s in result.sequence:
                if s.mode != DEGENERATE:
                    assert len(s.working_set) <= prob.n_x + 1


class TestSnapshotMembership:
    def test_decisions_match_their_halfplane(self):
        # Every slack decision lands in the closed region it claims.
        rng = np.random.default_rng(31)
        tol = Tolerances()
        for trial in range(25):
            prob = random_problem(rng, 3, 5)
            theta = rng.uniform(-1.0, 1.0, size=2)
            result = run(prob, theta, tol=tol)
            for state, nxt, snap in zip(result.sequence, result.sequence[1:],
                                        result.snapshots):
                if state.mode != SLACK_CHECK:
                    continue
                if nxt.mode == TERMINATED_OPTIMAL:
                    assert np.all(snap >= -tol.eps_primal)
                elif nxt.mode == DUAL_CHECK:
                    j = nxt.working_set[-1]
                    assert snap[j] <= -tol.eps_primal
                    assert snap[j] <= snap.min() + 1e-12


class TestInjector:
    """Error rows as run takes them: step k adds row k, later steps add zero."""

    def test_zero_injector(self):
        # errors=None, no rows and rows of zeros are the same run.
        prob, theta = double_integrator_problem(), [1.2, -0.9]
        ref = run(prob, theta)
        for errors in (np.zeros((0, prob.m)), np.zeros((40, prob.m))):
            res = run(prob, theta, errors, perturb_dual=True)
            assert seq_shape(res) == seq_shape(ref)
            assert len(res.snapshots) == len(ref.snapshots)
            for a, b in zip(res.snapshots, ref.snapshots):
                assert a.tobytes() == b.tobytes()

    def test_sequence_injector_replays_then_zeros(self):
        # At theta = -2 the toy run is add, keep, pass: the slack -1, the
        # multiplier 1, then the working row's slack 0. Row 0 shifts the
        # first slack, row 1 the multiplier (perturb_dual), and the third
        # step, past the rows, sees zero.
        prob = toy_problem()
        exact = run(prob, [-2.0])
        errors = np.array([[-1e-3], [2e-3]])
        res = run(prob, [-2.0], errors, perturb_dual=True)
        assert seq_shape(res) == seq_shape(exact)
        for snap, ref, row in zip(res.snapshots, exact.snapshots,
                                  [errors[0], errors[1], np.zeros(1)]):
            assert snap.tobytes() == (ref + row).tobytes()
        # Without perturb_dual the multiplier is exact; the rows are only read.
        res = run(prob, [-2.0], errors)
        assert res.snapshots[1].tobytes() == exact.snapshots[1].tobytes()
        assert np.array_equal(errors, [[-1e-3], [2e-3]])

    def test_dual_perturbation_changes_outcome(self):
        # Same rows, opposite fates depending on whether multipliers
        # are perturbed too. theta sits just inside the constraint boundary.
        prob = toy_problem()
        theta = [-1.0 + 1e-7]
        # Slack-only: row 0 joins, the exact multiplier -1e-7 passes the dual
        # check, then the perturbed working-row slack re-adds row 0 and the
        # doubled row makes the subproblem singular.
        res = run(prob, theta, constant_rows([-1e-5]))
        assert res.status == DEGENERATE
        # With multipliers perturbed as well the dual check now drops row 0,
        # so the run cycles add/drop until the iteration cap.
        res = run(prob, theta, constant_rows([-1e-5]), Tolerances(iter_limit=6),
                  perturb_dual=True)
        assert res.status == TERMINATED_ITER_LIMIT
        assert res.iterations == 6

    @pytest.mark.parametrize("errors", [
        np.zeros(1), np.zeros((2, 2)), np.zeros((2, 1, 1)),
    ], ids=["1-D", "wrong-width", "3-D"])
    def test_error_shape_rejected(self, errors):
        with pytest.raises(ValueError, match="2-D array with 1 columns"):
            run(toy_problem(), [-2.0], errors)

    def test_integer_rows_read_as_float(self):
        prob = toy_problem()
        as_int = run(prob, [-0.95], np.array([[-1], [0], [-1]]))
        as_float = run(prob, [-0.95], np.array([[-1.0], [0.0], [-1.0]]))
        assert seq_shape(as_int) == seq_shape(as_float)
        for a, b in zip(as_int.snapshots, as_float.snapshots):
            assert a.dtype == float and a.tobytes() == b.tobytes()


class TestTolerances:
    def test_dual_defaults_to_primal(self):
        assert Tolerances(eps_primal=1e-4).dual == 1e-4
        assert Tolerances(eps_primal=1e-4, eps_dual=1e-7).dual == 1e-7

    def test_validation(self):
        with pytest.raises(ValueError):
            Tolerances(eps_primal=-1.0)
        with pytest.raises(ValueError):
            Tolerances(iter_limit=0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_rejected(self, value):
        with pytest.raises(ValueError, match="eps_primal must be finite"):
            Tolerances(eps_primal=value)
        with pytest.raises(ValueError, match="eps_dual must be finite"):
            Tolerances(eps_dual=value)

    def test_booleans_and_fractional_cap_rejected(self):
        for kwargs in ({"eps_primal": True}, {"eps_dual": False}, {"iter_limit": True}):
            with pytest.raises(ValueError, match="not booleans"):
                Tolerances(**kwargs)
        for cap in (15.5, 15.0):
            with pytest.raises(ValueError, match="iter_limit must be an integer"):
                Tolerances(iter_limit=cap)

    @pytest.mark.parametrize("kwargs, message", [
        ({"iter_limit": np.int64(5)}, "iter_limit must be an integer"),
        ({"eps_primal": np.float32(1e-6)}, "eps_primal must be a number"),
        ({"eps_dual": np.float16(1e-6)}, "eps_dual must be a number"),
        ({"eps_primal": "1e-6"}, "eps_primal must be a number"),
    ])
    def test_numbers_no_document_holds_rejected(self, kwargs, message):
        # The numpy numbers used to certify, and then the partition document
        # could not be written: JSON holds ints and floats only, as for
        # error bounds.
        with pytest.raises(ValueError, match=message):
            Tolerances(**kwargs)

    def test_float64_accepted_and_written(self):
        tol = Tolerances(eps_primal=np.float64(1e-6), eps_dual=np.float64(2e-6), iter_limit=5)
        result = certify(toy_problem(), tol)
        doc = json.loads(dump_document(result.to_document()))
        assert doc["settings"] == {**tol.to_document(), "error_model": {"kind": "none"}}
        assert Tolerances.from_document(doc["settings"]) == tol


def _same_run(a, b):
    """Two RunResults agree in every field, x and snapshots byte for byte."""
    assert a.sequence == b.sequence
    assert (a.status, a.iterations) == (b.status, b.iterations)
    assert (a.x is None) == (b.x is None)
    if a.x is not None:
        assert (a.x.shape, a.x.tobytes()) == (b.x.shape, b.x.tobytes())
    assert [(z.shape, z.tobytes()) for z in a.snapshots] == \
        [(z.shape, z.tobytes()) for z in b.snapshots]


_SCHEDULE = ErrorModel(kind=KIND_HYPERCUBE, bound=0.05, schedule=(
    ErrorModel(), ErrorModel(kind=KIND_HYPERCUBE, bound=0.2),
    ErrorModel(kind=KIND_HYPERCUBE, bound=0.01)))


def _row_source(errors, calls=None):
    """A _lockstep row source answering from an s x K x m error array, as
    run does for its one row, appending each call's (k, live) to calls when
    given."""
    def rows_at(k, live):
        if calls is not None:
            calls.append((k, live.copy()))
        return errors[live, k]
    return rows_at


def _block_runs(prob, thetas, errors, tol, perturb_dual):
    """Each row's RunResult read off one _lockstep over the block: its
    group's sequence, x from its group's x_map on the block and the
    vectors its checks were based on, in row order."""
    blocks = []
    ends = _lockstep(prob, thetas, _row_source(errors), tol, perturb_dual, blocks)
    snapshots = [[] for _ in range(len(thetas))]
    for members, z in blocks:
        for i, snapshot in zip(members.tolist(), z):
            snapshots[i].append(snapshot)
    results = [None] * len(thetas)
    for sequence, members in ends:
        xs = [None] * len(members)
        if sequence[-1].mode != DEGENERATE:
            xs = subproblem_maps(prob, sequence[-1].working_set).x_map(thetas[members])
        for i, x in zip(members.tolist(), xs):
            results[i] = RunResult(sequence=sequence, x=x, snapshots=snapshots[i])
    return results


class TestBlockRun:
    """The lockstep on a block gives each parameter exactly the run it gets
    alone, from run: the block it sits in does not matter."""

    @pytest.mark.parametrize("case", [
        ("toy", ErrorModel()),
        ("toy", ErrorModel(kind=KIND_HYPERCUBE, bound=0.1)),
        ("toy", ErrorModel(kind=KIND_HYPERCUBE, bound=0.05, perturb_dual=True)),
        ("toy", _SCHEDULE),
        ("double_integrator", ErrorModel()),
        ("double_integrator", ErrorModel(kind=KIND_HYPERCUBE, bound=1e-4)),
        ("double_integrator", ErrorModel(kind=KIND_HYPERCUBE, bound=1e-3, perturb_dual=True)),
        ("double_integrator", ErrorModel(kind=KIND_HYPERCUBE, bound=1e-3, schedule=(
            ErrorModel(kind=KIND_HYPERCUBE, bound=1e-2), ErrorModel()))),
    ], ids=["toy-exact", "toy-hypercube", "toy-perturb-dual", "toy-schedule",
            "di-exact", "di-hypercube", "di-perturb-dual", "di-schedule"])
    def test_each_parameter_as_alone(self, case):
        name, model = case
        prob = toy_problem() if name == "toy" else double_integrator_problem()
        rng = np.random.default_rng(5)
        lo, hi = bounding_box(prob.theta_set)
        thetas = rng.uniform(lo, hi, size=(300, prob.n_theta))
        thetas = thetas[contains(prob.theta_set, thetas)][:150]
        bounds = model.step_bounds(24)
        errors = rng.uniform(-1.0, 1.0, size=(len(thetas), 24, prob.m)) * bounds[:, None]
        tol = Tolerances(iter_limit=6)
        block = _block_runs(prob, thetas, errors, tol, model.perturb_dual)
        assert len(block) == len(thetas)
        for theta, rows, result in zip(thetas, errors, block):
            _same_run(result, run(prob, theta, rows, tol, model.perturb_dual))
        # A sub-block in another order gives the same results again.
        order = rng.permutation(len(thetas))[:37]
        for i, result in zip(order, _block_runs(prob, thetas[order], errors[order], tol,
                                                model.perturb_dual)):
            _same_run(result, block[i])
        if model.kind == "none":
            zeros = np.zeros((len(thetas), 2 * tol.iter_limit, prob.m))
            for theta, result in zip(thetas, _block_runs(prob, thetas, zeros, tol, False)):
                _same_run(result, run(prob, theta, tol=tol))

    def test_cap_and_degenerate_runs_in_one_block(self):
        # The toy runs of TestRunToy and TestInjector side by side: one that
        # hits the iteration cap, one that goes degenerate, one that cycles
        # under perturbed multipliers, and two plain optimal ones.
        prob = toy_problem()
        thetas = np.array([[-0.95], [-2.0], [-1.0 + 1e-7], [0.0], [-2.0]])
        errors = np.stack([constant_rows([-0.5], 16), constant_rows([-1e-3], 16),
                           constant_rows([-1e-5], 16), constant_rows([0.0], 16),
                           constant_rows([0.0], 16)])
        tol = Tolerances(iter_limit=6)
        for perturb_dual in (False, True):
            block = _block_runs(prob, thetas, errors, tol, perturb_dual)
            for theta, rows, result in zip(thetas, errors, block):
                _same_run(result, run(prob, theta, rows, tol, perturb_dual))
        statuses = [r.status for r in _block_runs(prob, thetas, errors, tol, False)]
        assert statuses == [TERMINATED_ITER_LIMIT, DEGENERATE, DEGENERATE,
                            TERMINATED_OPTIMAL, TERMINATED_OPTIMAL]
        statuses = [r.status for r in _block_runs(prob, thetas, errors, tol, True)]
        assert statuses[2] == TERMINATED_ITER_LIMIT

    def test_block_shapes(self):
        # run takes one parameter and its K x m rows; the lockstep takes
        # blocks, an empty one included.
        prob = toy_problem()
        with pytest.raises(ValueError, match="dimension"):
            run(prob, np.array([[-2.0], [0.0]]))
        with pytest.raises(ValueError, match="2-D array with 1 columns"):
            run(prob, np.array([-2.0]), np.zeros((3, 16, 1)))
        with pytest.raises(ValueError, match="2-D array with 1 columns"):
            run(prob, np.array([-2.0]), np.zeros(16))
        with pytest.raises(ValueError, match="outside"):
            run(prob, np.array([4.0]))
        assert _lockstep(prob, np.zeros((0, 1)), _row_source(np.zeros((0, 16, 1))),
                         Tolerances(), False) == []


def _path_group_case(name):
    """(problem, thetas, errors, perturb_dual) for the path-group tests: 300
    parameters of the set with error rows of their case's bound."""
    rng = np.random.default_rng(12)
    prob, bound, perturb_dual = {
        "di-perturb-dual": (double_integrator_problem(), 1e-3, True),
        "toy": (toy_problem(), 0.1, False),
        "random-3": (random_problem(np.random.default_rng(0), 3, 5, n_theta=3), 1e-2, False),
    }[name]
    lo, hi = bounding_box(prob.theta_set)
    thetas = rng.uniform(lo, hi, size=(500, prob.n_theta))
    thetas = thetas[contains(prob.theta_set, thetas)][:300]
    errors = rng.uniform(-bound, bound, size=(len(thetas), 32, prob.m))
    return prob, thetas, errors, perturb_dual


class TestPathGroups:
    """The lockstep groups parameters by the states they ran: each finished
    group holds one sequence shared by all its members."""

    CASES = ["di-perturb-dual", "toy", "random-3"]

    @pytest.mark.parametrize("name", CASES)
    def test_every_index_ends_once(self, name):
        prob, thetas, errors, perturb_dual = _path_group_case(name)
        blocks = []
        ends = _lockstep(prob, thetas, _row_source(errors), Tolerances(), perturb_dual,
                         blocks)
        members = np.concatenate([part for _, part in ends])
        assert np.sort(members).tolist() == list(range(len(thetas)))
        # Each parameter is checked once per state before its terminal marker.
        checks = np.bincount(np.concatenate([part for part, _ in blocks]),
                             minlength=len(thetas))
        for sequence, part in ends:
            assert sequence[-1].terminal and not any(s.terminal for s in sequence[:-1])
            assert (checks[part] == len(sequence) - 1).all()
            assert (np.diff(part) > 0).all()

    @pytest.mark.parametrize("name", CASES)
    def test_members_share_one_sequence(self, name):
        prob, thetas, errors, perturb_dual = _path_group_case(name)
        tol = Tolerances()
        ends = _lockstep(prob, thetas, _row_source(errors), tol, perturb_dual)
        alone = [run(prob, theta, rows, tol, perturb_dual).sequence
                 for theta, rows in zip(thetas, errors)]
        for sequence, part in ends:
            assert all(alone[i] == sequence for i in part.tolist())
        # The groups' sequences are distinct: a path ends in one group.
        assert len({sequence for sequence, _ in ends}) == len(ends)

    @pytest.mark.parametrize("perturb_dual", [False, True])
    @pytest.mark.parametrize("name", CASES)
    def test_row_source_calls(self, name, perturb_dual):
        # One call per step that reads rows, every slack check and, with
        # perturb_dual, every dual check, for the samples that check at that
        # step in ascending order; never one at an exact dual check.
        prob, thetas, errors, _ = _path_group_case(name)
        calls = []
        ends = _lockstep(prob, thetas, _row_source(errors, calls), Tolerances(),
                         perturb_dual)
        checks = np.zeros(len(thetas), dtype=int)
        for sequence, part in ends:
            checks[part] = len(sequence) - 1
        reached = range(checks.max())
        assert [k for k, _ in calls] == [k for k in reached if k % 2 == 0 or perturb_dual]
        for k, live in calls:
            assert (np.diff(live) > 0).all()
            assert live.tolist() == (checks > k).nonzero()[0].tolist()

    @pytest.mark.parametrize("size", [1, 7, 128, 129])
    @pytest.mark.parametrize("name", CASES)
    def test_blocks_give_each_row_its_run(self, name, size):
        prob, thetas, errors, perturb_dual = _path_group_case(name)
        tol = Tolerances()
        alone = [run(prob, theta, rows, tol, perturb_dual)
                 for theta, rows in zip(thetas, errors)]
        for start in range(0, len(thetas), size):
            block = _block_runs(prob, thetas[start:start + size], errors[start:start + size],
                                tol, perturb_dual)
            for result, reference in zip(block, alone[start:start + size]):
                _same_run(result, reference)


def _tie_problem():
    """Rows 1 and 3 are e2 and e1 with f = (theta, theta) and H = I, so the
    working set (3, 1) has the bitwise-equal multipliers (-theta, -theta)."""
    return MpQP(
        H=np.eye(2),
        C=np.array([[-1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [1.0, 0.0]]),
        f_lin=np.array([[1.0], [1.0]]),
        f_const=np.zeros(2),
        d_lin=np.zeros((4, 1)),
        d_const=np.array([1.0, 0.0, 1.0, 0.0]),
        theta_set=Polyhedron.box([-3.0], [3.0]),
    )


def _lowest_label_reference(values, labels, threshold):
    """The pointwise rule the block decision replaced: among the values
    below -threshold, the smallest; exact ties go to the lowest label."""
    out = []
    for row in values.tolist():
        below = [(value, label) for value, label in zip(row, labels) if value < -threshold]
        if not below:
            out.append(PASS_INDEX)
            continue
        best = min(value for value, _ in below)
        out.append(min(label for value, label in below if value == best))
    return out


def _masked_min_reference(values, labels, threshold):
    """The block rule _decide's argmin replaced, kept as its oracle: the
    masked minimum of each row, then the lowest label among the columns
    holding it, with a label above every row standing for none."""
    none = np.iinfo(np.int64).max
    masked = np.where(values < -threshold, values, np.inf)
    low = masked.min(axis=1, initial=np.inf, keepdims=True)
    pick = np.where(masked == low, labels, none).min(axis=1, initial=none)
    return np.where(low[:, 0] < np.inf, pick, PASS_INDEX)


class TestDecisionRule:
    def test_dual_tie_goes_to_lowest_row_not_first_position(self):
        prob = _tie_problem()
        state = SolverState((3, 1), DUAL_CHECK)
        nxt, idx, snap = step(prob, state, [1.0], np.zeros(4), Tolerances())
        assert snap[0] == snap[1] == -1.0
        assert idx == 1
        assert nxt == SolverState((3,), SLACK_CHECK)
        # The block form: ties at 1 and 2, and a pass at -1.
        decisions, z = _check(prob, state, np.array([[1.0], [2.0], [-1.0]]), None,
                              Tolerances(), perturb_dual=False)
        assert decisions.tolist() == [1, 1, PASS_INDEX]
        assert z[:, 0].tobytes() == z[:, 1].tobytes()
        # A perturbation that lowers row 3's multiplier alone decides for row 3.
        rows = np.zeros((3, 4))
        rows[:, 3] = -1e-3
        decisions, _ = _check(prob, state, np.array([[1.0], [2.0], [-1.0]]), rows,
                              Tolerances(), perturb_dual=True)
        assert decisions.tolist() == [3, 3, PASS_INDEX]

    @pytest.mark.parametrize("width", [1, 2, 3, 6])
    def test_matches_pointwise_rule(self, width):
        rng = np.random.default_rng(width)
        threshold = 1e-6
        for _ in range(50):
            labels = tuple(rng.permutation(12)[:width].tolist())
            # Few distinct values force ties; the last rows violate nothing.
            values = rng.choice([-2.0, -1.0, -0.5, -1e-6, -5e-7, 0.0, 3.0], size=(40, width))
            values[-5:] = np.abs(values[-5:])
            want = _lowest_label_reference(values, labels, threshold)
            assert _decide(values, labels, threshold).tolist() == want
            assert PASS_INDEX in want

    def test_no_labels_pass(self):
        # An empty working set decides nothing; a terminal state with one
        # is refused by transition, as every terminal state is.
        assert _decide(np.zeros((3, 0)), (), 1e-6).tolist() == [PASS_INDEX] * 3
        prob = double_integrator_problem()
        state = SolverState((), DUAL_CHECK)
        assert step(prob, state, [0.0, 0.0], np.zeros(prob.m), Tolerances())[1] == PASS_INDEX
        with pytest.raises(ValueError, match="no transitions from terminal mode"):
            step(prob, SolverState((), TERMINATED_OPTIMAL), [0.0, 0.0], np.zeros(prob.m),
                 Tolerances())

    @pytest.mark.parametrize("order", ["ascending", "permuted"])
    @pytest.mark.parametrize("n_rows", [1, 40])
    def test_matches_masked_min(self, order, n_rows):
        # Few distinct values force exact ties; NaN is never below the
        # threshold and -inf always is. Slack checks pass their labels as
        # an array, dual checks as the working-set tuple.
        rng = np.random.default_rng([n_rows, order == "permuted"])
        pool = [-np.inf, -2.0, -1.0, -1e-6, -5e-7, 0.0, 3.0, np.inf, np.nan]
        unsorted = 0
        for _ in range(750):
            width = int(rng.integers(1, 8))
            labels = np.sort(rng.choice(20, size=width, replace=False))
            if order == "permuted":
                labels = rng.permutation(labels)
                unsorted += bool((np.diff(labels) < 0).any())
            values = rng.choice(pool, size=(n_rows, width))
            kept = values.copy()
            want = _masked_min_reference(values, labels, 1e-6)
            for given in (labels, tuple(labels.tolist())):
                got = _decide(values, given, 1e-6)
                assert got.dtype == want.dtype and got.tolist() == want.tolist()
            assert np.array_equal(values, kept, equal_nan=True)
        assert unsorted > 500 or order == "ascending"
