import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from certias.certifier import certify
from certias.cli import dump_document
from certias.examples import double_integrator_problem, toy_problem
from certias.geometry import Polyhedron, bounding_box, lp_call_count, row_products
from certias.lpp import ErrorModel
from certias import mpqp
from certias.mpqp import AffineMap, MpQP, ProblemFormatError, load_problem, subproblem_maps

from oracles import kkt_solve_fixed


def random_problem(rng, n_x, m, n_theta=2):
    G = rng.standard_normal((n_x, n_x))
    H = G @ G.T + n_x * np.eye(n_x)
    C = rng.standard_normal((m, n_x))
    return MpQP(
        H=H,
        C=C,
        f_lin=rng.standard_normal((n_x, n_theta)),
        f_const=rng.standard_normal(n_x),
        d_lin=rng.standard_normal((m, n_theta)),
        d_const=rng.uniform(0.5, 2.0, size=m),
        theta_set=Polyhedron.box(-np.ones(n_theta), np.ones(n_theta)),
    )


class TestLoadProblem:
    def test_roundtrip(self):
        prob = toy_problem()
        again = load_problem(prob.to_document())
        assert again.n_x == 1 and again.m == 1 and again.n_theta == 1
        assert again.digest() == prob.digest()

    def test_missing_field(self):
        doc = toy_problem().to_document()
        del doc["H"]
        with pytest.raises(ProblemFormatError, match="missing field 'H'"):
            load_problem(doc)

    def test_not_positive_definite(self):
        doc = toy_problem().to_document()
        doc["H"] = [[-1.0]]
        with pytest.raises(ProblemFormatError, match="positive definite"):
            load_problem(doc)

    def test_asymmetric_rejected(self):
        doc = double_integrator_problem().to_document()
        doc["H"][0][1] += 1e-6
        with pytest.raises(ProblemFormatError, match="symmetric"):
            load_problem(doc)

    def test_empty_parameter_set(self):
        doc = toy_problem().to_document()
        doc["theta_set"] = {"A": [[1.0], [-1.0]], "b": [-1.0, -1.0]}
        with pytest.raises(ProblemFormatError, match="empty"):
            load_problem(doc)

    @pytest.mark.parametrize("theta_set", [
        {"A": [[0.0, 0.0], [1.0, 0.0]], "b": [-1.0, 1.0]},
        {"A": [[1.0, 0.0], [-1.0, 0.0]], "b": [-1.0, -1.0]},
    ], ids=["zero-row", "unbounded-direction"])
    def test_empty_parameter_set_2d(self, theta_set):
        # Empty before it is unbounded: neither set bounds its second
        # coordinate.
        doc = double_integrator_problem().to_document()
        doc["theta_set"] = theta_set
        with pytest.raises(ProblemFormatError, match="the parameter set is empty"):
            load_problem(doc)

    def test_unbounded_parameter_set(self):
        doc = toy_problem().to_document()
        doc["theta_set"] = {"A": [[1.0]], "b": [3.0]}
        with pytest.raises(ProblemFormatError, match="unbounded"):
            load_problem(doc)

    def test_bounding_box_lps_alone(self):
        # The box's 2 * n_theta LPs prove the set nonempty and bounded; no
        # emptiness LP comes before them.
        doc = double_integrator_problem().to_document()
        before = lp_call_count()
        prob = load_problem(doc)
        assert lp_call_count() - before == 2 * prob.n_theta

    def test_boundedness_check_bug_propagates(self, monkeypatch):
        # Only a GeometryError from the bounding box means "unbounded"; a
        # programming error must not pass for bad input.
        def broken(P):
            raise TypeError("broken bounding_box")

        monkeypatch.setattr(mpqp, "bounding_box", broken)
        with pytest.raises(TypeError, match="broken bounding_box"):
            load_problem(toy_problem().to_document())

    def test_shape_mismatch(self):
        doc = toy_problem().to_document()
        doc["f_lin"] = [[1.0, 2.0]]
        with pytest.raises(ProblemFormatError, match="f_lin"):
            load_problem(doc)

    def test_nonfinite_rejected(self):
        doc = toy_problem().to_document()
        doc["d_const"] = [float("nan")]
        with pytest.raises(ProblemFormatError, match="non-finite"):
            load_problem(doc)


class TestToyMaps:
    def test_free_working_set(self):
        maps = subproblem_maps(toy_problem(), ())
        assert not maps.singular
        # x(theta) = -theta, slack 1 + theta.
        assert maps.x_map.F == pytest.approx(np.array([[-1.0]]))
        assert maps.x_map.g == pytest.approx(np.array([0.0]))
        assert maps.mu_map.F == pytest.approx(np.array([[1.0]]))
        assert maps.mu_map.g == pytest.approx(np.array([1.0]))
        assert maps.lambda_map.rows == 0

    def test_active_constraint(self):
        maps = subproblem_maps(toy_problem(), (0,))
        # x pinned at 1, multiplier -(1 + theta), slack identically zero.
        assert maps.x_map.F == pytest.approx(np.array([[0.0]]))
        assert maps.x_map.g == pytest.approx(np.array([1.0]))
        assert maps.lambda_map.F == pytest.approx(np.array([[-1.0]]))
        assert maps.lambda_map.g == pytest.approx(np.array([-1.0]))
        assert np.max(np.abs(maps.mu_map.F)) <= 1e-12
        assert np.max(np.abs(maps.mu_map.g)) <= 1e-12


class TestSubproblemMaps:
    def test_duplicate_row_is_singular(self):
        prob = double_integrator_problem()
        maps = subproblem_maps(prob, (0, 0))
        assert maps.singular
        assert maps.x_map is maps.mu_map is maps.lambda_map is None
        # singular is read off the maps: their absence.
        with pytest.raises(AttributeError):
            maps.singular = False
        assert not subproblem_maps(prob, (0,)).singular

    def test_oversized_working_set_is_singular(self):
        prob = double_integrator_problem()
        # Four rows in a three-variable problem cannot be independent.
        assert subproblem_maps(prob, (0, 1, 2, 3)).singular

    def test_opposed_rows_are_singular(self):
        prob = double_integrator_problem()
        # Rows 0 and 3 are u_0 <= 1 and -u_0 <= 1.
        assert subproblem_maps(prob, (0, 3)).singular

    def test_matches_fixed_theta_kkt(self):
        rng = np.random.default_rng(42)
        for trial in range(30):
            n_x = int(rng.integers(2, 5))
            m = int(rng.integers(2, 7))
            prob = random_problem(rng, n_x, m)
            size = int(rng.integers(0, min(n_x, m) + 1))
            W = tuple(sorted(rng.choice(m, size=size, replace=False).tolist()))
            maps = subproblem_maps(prob, W)
            if maps.singular:
                continue
            for theta in rng.uniform(-1.0, 1.0, size=(5, prob.n_theta)):
                x_ref, lam_ref = kkt_solve_fixed(
                    prob.H, prob.f(theta), prob.C[list(W)], prob.d(theta)[list(W)])
                assert maps.x_map(theta) == pytest.approx(x_ref, abs=1e-8)
                assert maps.lambda_map(theta) == pytest.approx(lam_ref, abs=1e-8)
                slack = prob.d(theta) - prob.C @ maps.x_map(theta)
                assert maps.mu_map(theta) == pytest.approx(slack, abs=1e-8)

    def test_working_rows_have_zero_slack_map(self):
        rng = np.random.default_rng(9)
        for trial in range(20):
            prob = random_problem(rng, 3, 6)
            W = tuple(sorted(rng.choice(6, size=2, replace=False).tolist()))
            maps = subproblem_maps(prob, W)
            if maps.singular:
                continue
            rows = list(W)
            assert np.max(np.abs(maps.mu_map.F[rows])) <= 1e-8
            assert np.max(np.abs(maps.mu_map.g[rows])) <= 1e-8

    def test_cache_returns_same_object(self):
        # Every spelling of one working set normalizes to one cache key.
        prob = toy_problem()
        maps = subproblem_maps(prob, (0,))
        assert all(subproblem_maps(prob, W) is maps
                   for W in ((0,), [0], (np.int64(0),), np.array([0])))

    def test_out_of_range_index(self):
        prob = toy_problem()
        subproblem_maps(prob, (0,))
        for W in ((3,), (-1,), (0, 3)):
            with pytest.raises(ValueError, match="out of range"):
                subproblem_maps(prob, W)


@given(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), st.floats(0.0, 1.0))
@settings(max_examples=50, deadline=None)
def test_maps_are_affine(t1, t2, alpha):
    prob = double_integrator_problem()
    maps = subproblem_maps(prob, (0,))
    a = np.array([t1, t2])
    bpt = np.array([t2, -t1])
    mix = alpha * a + (1 - alpha) * bpt
    blend = alpha * maps.mu_map(a) + (1 - alpha) * maps.mu_map(bpt)
    assert maps.mu_map(mix) == pytest.approx(blend, abs=1e-9)


def test_affine_map_calls_and_shapes():
    amap = AffineMap([[1.0, 0.0], [0.0, 2.0]], [1.0, -1.0])
    assert amap.rows == 2
    assert amap([2.0, 3.0]) == pytest.approx([3.0, 5.0])
    with pytest.raises(ValueError):
        AffineMap([[1.0]], [1.0, 2.0])


def test_affine_map_block_is_each_row_alone():
    # A parameter's z has the same bits alone and in any block.
    prob = double_integrator_problem()
    thetas = np.random.default_rng(2).uniform(-3.0, 3.0, size=(257, 2))
    for W in ((), (0,), (4, 2)):
        maps = subproblem_maps(prob, W)
        for amap in (maps.x_map, maps.mu_map, maps.lambda_map):
            block = amap(thetas)
            assert block.shape == (len(thetas), amap.rows)
            for theta, z in zip(thetas, block):
                assert amap(theta).tobytes() == z.tobytes()
            assert amap(thetas[5:9]).tobytes() == block[5:9].tobytes()
    with pytest.raises(ValueError, match="2 entries"):
        maps.mu_map([1.0, 2.0, 3.0])


def test_affine_map_is_row_products_plus_g():
    rng = np.random.default_rng(3)
    F = rng.standard_normal((7, 3)) * 10.0 ** rng.integers(-3, 4, size=(7, 1))
    g = rng.standard_normal(7)
    amap = AffineMap(F, g)
    thetas = rng.standard_normal((50, 3))
    assert amap(thetas).tobytes() == (row_products(F, thetas) + g).tobytes()
    for theta in thetas:
        assert amap(theta).tobytes() == (row_products(F, theta) + g).tobytes()


class TestPickle:
    def test_round_trip(self):
        prob = double_integrator_problem()
        subproblem_maps(prob, (0,))
        again = pickle.loads(pickle.dumps(prob))
        assert again.digest() == prob.digest()
        for name in ("H", "C", "f_lin", "f_const", "d_lin", "d_const", "_chol"):
            assert getattr(again, name).tobytes() == getattr(prob, name).tobytes()
        # The copy has a lock of its own and starts with an empty cache.
        assert again._cache_lock is not prob._cache_lock and again._cache == {}
        want, got = subproblem_maps(prob, (0,)), subproblem_maps(again, (0,))
        for a, b in zip((want.x_map, want.mu_map, want.lambda_map),
                        (got.x_map, got.mu_map, got.lambda_map)):
            assert a.F.tobytes() == b.F.tobytes() and a.g.tobytes() == b.g.tobytes()

    def test_theta_box(self):
        # The box the constructor solved: bounding_box's bits, read-only,
        # and so again after a round trip. The triangle is no box itself.
        base = random_problem(np.random.default_rng(2), 3, 5)
        triangle = MpQP(H=base.H, C=base.C, f_lin=base.f_lin, f_const=base.f_const,
                        d_lin=base.d_lin, d_const=base.d_const,
                        theta_set=Polyhedron([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]],
                                             [0.7, 0.3, 0.1]))
        for prob in (double_integrator_problem(), triangle):
            want = [bound.tobytes() for bound in bounding_box(prob.theta_set)]
            for box in (prob.theta_box, pickle.loads(pickle.dumps(prob)).theta_box):
                assert [bound.tobytes() for bound in box] == want
                for bound in box:
                    with pytest.raises(ValueError, match="read-only"):
                        bound[0] = 0.0

    def test_unpickled_problem_certifies_same_bytes(self):
        prob = double_integrator_problem()
        model = ErrorModel(kind="hypercube", bound=1e-4)
        want = dump_document(certify(prob, model=model).to_document())
        again = pickle.loads(pickle.dumps(prob))
        assert dump_document(certify(again, model=model).to_document()) == want
