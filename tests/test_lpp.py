import json
from dataclasses import fields, replace

import numpy as np
import pytest

from certias.geometry import (
    GeometryError,
    Polyhedron,
    RowExplosionError,
    contains,
    is_empty,
    normalize_rows,
)
from certias import certifier, lpp
from certias.certifier import certify
from certias.cli import dump_document
from certias.lpp import ErrorModel, lift_partition_project, lift_rows, rel_to_abs
from certias.mpqp import AffineMap, subproblem_maps
from certias.solver import DUAL_CHECK

from oracles import poly_contains_poly, poly_equal
from test_mpqp import random_problem

EPS_P = 1e-6

# z(theta) = 1 + theta on the interval [-3, 3]: the toy slack map.
TOY_REGION = Polyhedron.box([-3.0], [3.0])
TOY_ZMAP = AffineMap(F=np.array([[1.0]]), g=np.array([1.0]))
# Half-plane set "z >= -eps_p", written as one row -z <= eps_p.
TOY_TERMINATE = (np.array([[-1.0]]), np.array([EPS_P]))


def interval(lo, hi):
    return Polyhedron.box([lo], [hi])


def hypercube(region, A, b, zmap, bound):
    """The one family (A, b) inflated by the hypercube of that bound."""
    return lift_partition_project(region, [(A, b)], zmap,
                                  ErrorModel(kind="hypercube", bound=bound))[0]


class TestErrorModel:
    def test_kind_validation(self):
        with pytest.raises(ValueError):
            ErrorModel(kind="gaussian")
        with pytest.raises(ValueError):
            ErrorModel(kind="hypercube", bound=-0.1)
        with pytest.raises(ValueError):
            ErrorModel(kind="polyhedral")

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_bounds_rejected(self, value):
        for fields in ({"kind": "hypercube", "bound": value},
                       {"kind": "relative", "rel_bound": value}):
            with pytest.raises(ValueError, match="finite"):
                ErrorModel(**fields)
            with pytest.raises(ValueError, match="finite"):
                ErrorModel.from_document(fields)

    @pytest.mark.parametrize("fields, name", [
        ({"kind": "hypercube", "bound": True}, "bound"),
        ({"kind": "hypercube", "bound": "0.1"}, "bound"),
        ({"kind": "hypercube", "bound": 1j}, "bound"),
        ({"kind": "hypercube", "bound": np.array([0.1])}, "bound"),
        ({"kind": "relative", "rel_bound": False}, "rel_bound"),
        ({"kind": "relative", "rel_bound": None}, "rel_bound"),
        ({"kind": "hypercube", "bound": np.float32(0.05)}, "bound"),
        ({"kind": "hypercube", "bound": np.int64(0)}, "bound"),
        ({"kind": "relative", "rel_bound": np.float32(0.5)}, "rel_bound"),
    ])
    def test_non_number_bounds_rejected(self, fields, name):
        # As from_document refuses them, or as dump_document could not write
        # them (numpy float32 and int64 are real numbers, not int or float):
        # a model certify accepts is one whose settings write and read back.
        if isinstance(fields[name], np.generic):
            with pytest.raises(TypeError):
                dump_document(fields)
        with pytest.raises(ValueError, match=f"^{name} must be a number"):
            ErrorModel(**fields)

    @pytest.mark.parametrize("model", [
        ErrorModel(),
        ErrorModel(perturb_dual=True),
        ErrorModel(kind="hypercube", bound=0),
        ErrorModel(kind="hypercube", bound=2),
        ErrorModel(kind="hypercube", bound=-0.0),
        ErrorModel(kind="hypercube", bound=np.float64(1e-4), perturb_dual=True),
        ErrorModel(kind="relative", rel_bound=1),
        ErrorModel(kind="relative", rel_bound=np.float64(0.5)),
        ErrorModel(kind="hypercube", bound=0.5, perturb_dual=True, schedule=(
            ErrorModel(kind="hypercube", bound=3), ErrorModel(kind="relative", rel_bound=0.2),
            ErrorModel())),
    ])
    def test_accepted_models_read_back(self, model):
        # Written as certify writes settings, then read as validate reads them.
        doc = json.loads(dump_document(model.to_document()))
        again = ErrorModel.from_document(doc)
        assert again == model and again.to_document() == model.to_document()

    @pytest.mark.parametrize("fields, name", [
        ({"bound": 0.5}, "bound"),
        ({"kind": "relative", "rel_bound": 0.1, "bound": 0.5}, "bound"),
        ({"kind": "polyhedral", "set": Polyhedron.box([-1.0], [1.0]), "bound": 0.5}, "bound"),
        ({"rel_bound": 0.1}, "rel_bound"),
        ({"kind": "hypercube", "bound": 0.1, "rel_bound": 0.1}, "rel_bound"),
        ({"set": Polyhedron.box([-1.0], [1.0])}, "set"),
        ({"kind": "hypercube", "bound": 0.1, "set": Polyhedron.box([-1.0], [1.0])}, "set"),
        ({"kind": "relative", "rel_bound": 0.1, "set": Polyhedron.box([-1.0], [1.0])}, "set"),
    ])
    def test_sizes_the_kind_ignores_rejected(self, fields, name):
        # Each would be dropped without a word: from the arithmetic, and
        # from the model's document.
        with pytest.raises(ValueError, match=f"takes no {name}$"):
            ErrorModel(**fields)

    def test_polyhedral_set_must_hold_origin(self):
        shifted = Polyhedron.box([0.5], [1.0])
        with pytest.raises(ValueError, match="origin"):
            ErrorModel(kind="polyhedral", set=shifted)
        ErrorModel(kind="polyhedral", set=Polyhedron.box([-1.0], [0.0]))

    def test_schedule_lookup(self):
        burst = ErrorModel(kind="hypercube", bound=0.5)
        base = ErrorModel(kind="hypercube", bound=0.01,
                          schedule=(burst, ErrorModel()))
        assert base.at(0) is burst
        assert base.at(1).kind == "none"
        # Past the schedule's end the base model itself applies, unchanged.
        assert base.at(2) is base and base.at(-1) is base

    @pytest.mark.parametrize("entry", [{"kind": "hypercube", "bound": 0.1}, None, 0.1])
    def test_schedule_entries_are_models(self, entry):
        with pytest.raises(TypeError, match="schedule entries must be ErrorModel instances"):
            ErrorModel(schedule=(ErrorModel(), entry))

    def test_schedule_cannot_nest(self):
        inner = ErrorModel(kind="none", schedule=(ErrorModel(),))
        with pytest.raises(ValueError, match="nest"):
            ErrorModel(schedule=(inner,))
        # Only the base model's perturb_dual is read; an entry's would be
        # recorded in settings and ignored.
        with pytest.raises(ValueError, match="base model"):
            ErrorModel(schedule=(ErrorModel(perturb_dual=True),))

    def test_schedule_inherits_dual_flag(self):
        # at() hands back the entry as it is; the base model's perturb_dual
        # governs every step, so a dual check at step 0 sees the entry.
        entry = ErrorModel(kind="hypercube", bound=0.2)
        base = ErrorModel(kind="hypercube", bound=0.1, perturb_dual=True,
                          schedule=(entry,))
        assert base.at(0) is entry and not entry.perturb_dual
        assert base.at(0, rows=(0,)) is entry
        exact = replace(base, perturb_dual=False)
        assert exact.at(0, rows=(0,)).kind == "none"

    def test_dual_check_sees_the_working_set_slice(self):
        box = Polyhedron.box([-0.1, -0.2, -0.3], [0.1, 0.2, 0.3])
        model = ErrorModel(kind="polyhedral", set=box, perturb_dual=True)
        assert model.at(0) is model
        assert poly_equal(model.at(0, rows=(2, 0)).set,
                          Polyhedron.box([-0.3, -0.1], [0.3, 0.1]))
        # All coordinates in order: the set's own rows, nothing projected.
        whole = model.at(0, rows=(0, 1, 2)).set
        assert np.array_equal(whole.A, box.A) and np.array_equal(whole.b, box.b)
        assert replace(model, perturb_dual=False).at(0, rows=(0,)).kind == "none"

    def test_one_model_certifies_the_same_document_twice(self):
        # What one certify call solves does not depend on what its model
        # did before: on the 10-row box-and-sum set both calls solve the
        # same LPs.
        prob = random_problem(np.random.default_rng(0), 2, 4)
        sums = np.ones((1, 4))
        cut = Polyhedron(np.vstack([np.eye(4), -np.eye(4), sums, -sums]), [1e-2] * 10)
        model = ErrorModel(kind="polyhedral", set=cut, perturb_dual=True)
        docs = [dump_document(certify(prob, model=model).to_document()) for _ in range(2)]
        assert [json.loads(d)["stats"]["lp_calls"] for d in docs] == [11475, 11475]
        assert docs[0] == docs[1]
        # at() keeps nothing: each call returns a new slice, and a model is
        # a plain value of its six fields.
        box = Polyhedron.box([-0.1, -0.2, -0.3], [0.1, 0.2, 0.3])
        model = ErrorModel(kind="polyhedral", set=box, perturb_dual=True)
        first = model.at(0, rows=(2, 0))
        assert model.at(0, rows=(2, 0)) is not first
        assert poly_equal(model.at(5, rows=[2, 0]).set, first.set)
        assert [f.name for f in fields(ErrorModel)] == [
            "kind", "bound", "set", "rel_bound", "schedule", "perturb_dual"]

    def test_certify_slices_once_per_working_set(self, monkeypatch):
        # Thirty perturbed multiplier checks on two working sets slice the
        # set twice in one call. The partition is the one of slicing at
        # every check, as steps without the call's memo do. Singular checks
        # take no decision and slice nothing, so they are not counted.
        prob = random_problem(np.random.default_rng(0), 2, 4)
        box = Polyhedron(np.vstack([np.eye(4), -np.eye(4), np.ones((1, 4))]), [1e-2] * 9)
        model = ErrorModel(kind="polyhedral", set=box, perturb_dual=True)
        sliced, checked = [], []
        slice_set, step = lpp._coordinate_slice, certifier.partition_step

        def spy_slice(err_set, coords):
            sliced.append(tuple(coords))
            return slice_set(err_set, coords)

        def spy_step(region, state, *args, keep=True):
            if state.mode == DUAL_CHECK and not subproblem_maps(prob, state.working_set).singular:
                checked.append(state.working_set)
            return step(region, state, *args[:-1], args[-1] if keep else None)

        monkeypatch.setattr(lpp, "_coordinate_slice", spy_slice)
        monkeypatch.setattr(certifier, "partition_step", spy_step)
        result = certify(prob, model=model)
        assert len(checked) == 30 and sorted(sliced) == sorted(set(checked))
        assert len(sliced) == 2

        monkeypatch.setattr(certifier, "partition_step",
                            lambda *args: spy_step(*args, keep=False))
        sliced.clear()
        again = certify(prob, model=model)
        assert len(sliced) == 30
        assert again.stats.pop("lp_calls") > result.stats.pop("lp_calls")
        assert again.to_document() == result.to_document()

    def test_check_dimension(self):
        box2 = Polyhedron.box([-0.1, -0.1], [0.1, 0.1])
        ErrorModel(kind="polyhedral", set=box2).check_dimension(2)
        with pytest.raises(ValueError, match="error set dimension 2 != z dimension 6"):
            ErrorModel(kind="polyhedral", set=box2).check_dimension(6)
        scheduled = ErrorModel(kind="hypercube", bound=0.1, schedule=(
            ErrorModel(), ErrorModel(kind="polyhedral", set=box2)))
        with pytest.raises(ValueError, match="schedule entry 1: error set dimension"):
            scheduled.check_dimension(3)
        ErrorModel(kind="hypercube", bound=0.1).check_dimension(3)

    def test_describe(self):
        # The written form: settings.error_model in every partition.
        assert ErrorModel().to_document() == {"kind": "none"}
        d = ErrorModel(kind="hypercube", bound=0.25).to_document()
        assert d == {"kind": "hypercube", "bound": 0.25}
        d = ErrorModel(kind="relative", rel_bound=0.01, perturb_dual=True).to_document()
        assert d == {"kind": "relative", "rel_bound": 0.01, "perturb_dual": True}

    def test_document_round_trip(self):
        models = [
            ErrorModel(),
            ErrorModel(kind="hypercube", bound=0.25),
            ErrorModel(kind="hypercube", bound=1e-4, perturb_dual=True),
            ErrorModel(kind="relative", rel_bound=0.01, perturb_dual=True),
            ErrorModel(kind="hypercube", bound=0.5, perturb_dual=True,
                       schedule=(ErrorModel(kind="hypercube", bound=0.1),
                                 ErrorModel(kind="relative", rel_bound=0.2),
                                 ErrorModel())),
        ]
        for m in models:
            assert ErrorModel.from_document(m.to_document()) == m
        # Model files may spell the hypercube bound eps_bar.
        doc = {"kind": "hypercube", "eps_bar": 0.5, "perturb_dual": True,
               "schedule": [{"kind": "hypercube", "eps_bar": 0.1},
                            {"kind": "relative", "rel_bound": 0.2}, {}]}
        assert ErrorModel.from_document(doc) == models[4]

    def test_polyhedral_document(self):
        box = Polyhedron.box([-0.1, -0.2], [0.1, 0.2])
        model = ErrorModel.from_document({"kind": "polyhedral",
                                          "set": box.to_document()})
        assert np.array_equal(model.set.A, box.A)
        assert np.array_equal(model.set.b, box.b)
        # Result documents keep only a summary, which does not read back.
        summary = model.to_document()
        assert summary == {"kind": "polyhedral", "set_rows": 4, "set_dim": 2}
        with pytest.raises(ValueError, match="pass the model explicitly"):
            ErrorModel.from_document(summary)

    @pytest.mark.parametrize("doc,message", [
        ({"kind": "hypercube", "bound": 0.1, "eps_bar": 0.1}, "not both"),
        ({"kind": "hypercube", "epsbar": 0.1}, "unknown keys"),
        ({"kind": "relative", "bound": 0.1}, "unknown keys"),
        ({"bound": 0.1}, "unknown keys"),
        ({"kind": "hypercube"}, "needs 'bound'"),
        ({"kind": "relative"}, "needs 'rel_bound'"),
        ({"kind": "polyhedral"}, "needs 'set'"),
        ({"kind": "gaussian"}, "unknown error model kind"),
        ({"kind": "hypercube", "bound": 0.1, "schedule": [{"kind": "none", "bond": 0}]},
         "unknown keys"),
        ([0.1], "JSON object"),
        ({"kind": "hypercube", "bound": 1e-4, "perturb_dual": "false"},
         "perturb_dual must be true or false"),
        ({"kind": "hypercube", "bound": True}, "bound must be a number"),
        ({"kind": "hypercube", "eps_bar": "1e-4"}, "eps_bar must be a number"),
        ({"kind": "relative", "rel_bound": False}, "rel_bound must be a number"),
    ])
    def test_bad_documents(self, doc, message):
        with pytest.raises(ValueError, match=message):
            ErrorModel.from_document(doc)

    def test_integer_bounds_read(self):
        doc = {"kind": "hypercube", "bound": 1,
               "schedule": [{"kind": "relative", "rel_bound": 0}, {"eps_bar": 2,
                                                                   "kind": "hypercube"}]}
        model = ErrorModel.from_document(doc)
        assert model.bound == 1 and model.schedule[1].bound == 2
        assert ErrorModel.from_document(model.to_document()) == model


class TestLiftPartitionProject:
    def test_nominal_slice(self):
        out = lift_partition_project(TOY_REGION, [TOY_TERMINATE], TOY_ZMAP,
                                     ErrorModel())
        assert len(out) == 1
        assert poly_equal(out[0], interval(-1.0 - EPS_P, 3.0))

    def test_hypercube_widens_by_row_norm(self):
        model = ErrorModel(kind="hypercube", bound=0.1)
        out = lift_partition_project(TOY_REGION, [TOY_TERMINATE], TOY_ZMAP, model)
        assert poly_equal(out[0], interval(-1.0 - EPS_P - 0.1, 3.0))

    def test_polyhedral_box_matches_hypercube(self):
        model = ErrorModel(kind="polyhedral", set=Polyhedron.box([-0.1], [0.1]))
        out = lift_partition_project(TOY_REGION, [TOY_TERMINATE], TOY_ZMAP, model)
        assert poly_equal(out[0], interval(-1.0 - EPS_P - 0.1, 3.0))

    def test_relative_is_hypercube_at_rel_to_abs(self):
        # The relative bound is converted against the region it is given.
        for region in (TOY_REGION, interval(0.0, 1.0)):
            bound = rel_to_abs(TOY_ZMAP, region, 0.1)
            rel = lift_partition_project(region, [TOY_TERMINATE], TOY_ZMAP,
                                         ErrorModel(kind="relative", rel_bound=0.1))[0]
            cube = hypercube(region, *TOY_TERMINATE, TOY_ZMAP, bound)
            assert np.array_equal(rel.A, cube.A) and np.array_equal(rel.b, cube.b)

    def test_empty_outputs_keep_their_slot(self):
        impossible = (np.array([[1.0], [-1.0]]), np.array([-5.0, -5.0]))
        out = lift_partition_project(TOY_REGION, [TOY_TERMINATE, impossible],
                                     TOY_ZMAP, ErrorModel())
        assert len(out) == 2
        assert not is_empty(out[0])
        assert is_empty(out[1])

    def test_dimension_mismatch_rejected(self):
        zmap = AffineMap(F=np.ones((1, 2)), g=np.zeros(1))
        with pytest.raises(ValueError, match="dimension"):
            lift_partition_project(TOY_REGION, [TOY_TERMINATE], zmap, ErrorModel())
        flat = ErrorModel(kind="polyhedral", set=Polyhedron.box([-0.1] * 2, [0.1] * 2))
        with pytest.raises(ValueError, match="error set dimension 2 != z dimension 1"):
            lift_partition_project(TOY_REGION, [TOY_TERMINATE], TOY_ZMAP, flat)

    def test_row_explosion_propagates(self, monkeypatch):
        def boom(P, keep, **kw):
            raise RowExplosionError("too many rows")
        monkeypatch.setattr("certias.lpp.project_fm", boom)
        model = ErrorModel(kind="polyhedral", set=Polyhedron.box([-0.1], [0.1]))
        with pytest.raises(RowExplosionError):
            lift_partition_project(TOY_REGION, [TOY_TERMINATE], TOY_ZMAP, model)

    def test_outputs_contain_nominal_slice(self):
        # Inflated regions must contain the error-free ones (origin in the set).
        rng = np.random.default_rng(42)
        for trial in range(20):
            n_t, n_z = int(rng.integers(1, 4)), int(rng.integers(1, 5))
            region = Polyhedron.box(-np.ones(n_t), np.ones(n_t))
            zmap = AffineMap(F=rng.standard_normal((n_z, n_t)),
                             g=rng.standard_normal(n_z))
            rows = int(rng.integers(1, 4))
            hp = (rng.standard_normal((rows, n_z)), rng.uniform(-0.5, 1.5, rows))
            nominal = lift_partition_project(region, [hp], zmap, ErrorModel())[0]
            for model in (ErrorModel(kind="hypercube", bound=0.2),
                          ErrorModel(kind="polyhedral",
                                     set=Polyhedron.box(-0.2 * np.ones(n_z),
                                                        0.2 * np.ones(n_z)))):
                widened = lift_partition_project(region, [hp], zmap, model)[0]
                assert poly_contains_poly(nominal, widened)

    def test_union_covers_region(self):
        # Half-plane families that tile z-space must tile theta-space too.
        rng = np.random.default_rng(7)
        region = Polyhedron.box([-2.0, -2.0], [2.0, 2.0])
        zmap = AffineMap(F=rng.standard_normal((2, 2)), g=rng.standard_normal(2))
        families = [
            (np.array([[1.0, -1.0]]), np.array([0.0])),   # z0 <= z1
            (np.array([[-1.0, 1.0]]), np.array([0.0])),   # z1 <= z0
        ]
        for model in (ErrorModel(), ErrorModel(kind="hypercube", bound=0.15)):
            parts = lift_partition_project(region, families, zmap, model)
            pts = rng.uniform(-2.0, 2.0, size=(1000, 2))
            for p in pts:
                assert any(contains(part, p, slack=1e-9) for part in parts)


class TestLiftRows:
    FAMILIES = [TOY_TERMINATE, (np.array([[1.0], [0.0]]), np.array([-EPS_P, 2.0]))]

    @pytest.mark.parametrize("model", [
        ErrorModel(), ErrorModel(kind="hypercube", bound=0.1),
        ErrorModel(kind="polyhedral", set=Polyhedron.box([-0.1], [0.1]))],
        ids=["none", "hypercube", "polyhedral"])
    def test_stacked_rows_are_intersect(self, model):
        # One lift serves every region: stacked on one, its rows are the
        # rows region.intersect gives, bit for bit, trivial rows dropped.
        rows = lift_rows(self.FAMILIES, TOY_ZMAP, model)
        assert rows[1][0].shape == (1, 1)
        for region in (TOY_REGION, interval(0.0, 1.0)):
            for (A_t, b_t), kid in zip(rows, lift_partition_project(
                    region, self.FAMILIES, TOY_ZMAP, model)):
                want = region.intersect(A_t, b_t)
                assert np.array_equal(kid.A, want.A) and np.array_equal(kid.b, want.b)
                assert not (A_t.flags.writeable or b_t.flags.writeable)

    def test_relative_needs_a_region(self):
        with pytest.raises(ValueError, match="against a region"):
            lift_rows([TOY_TERMINATE], TOY_ZMAP, ErrorModel(kind="relative", rel_bound=0.1))

    def test_signed_zero_bounds_lift_to_different_bits(self):
        # Equal models, different rows: why lifts are kept per model object.
        A, b = np.array([[1.0]]), np.array([-0.0])
        zmap = AffineMap(F=np.array([[1.0]]), g=np.array([0.0]))
        lo, hi = (ErrorModel(kind="hypercube", bound=z) for z in (-0.0, 0.0))
        assert lo == hi
        (_, b_lo), = lift_rows([(A, b)], zmap, lo)
        (_, b_hi), = lift_rows([(A, b)], zmap, hi)
        assert np.signbit(b_lo[0]) and not np.signbit(b_hi[0])


class TestHypercubeInflate:
    def test_single_row_two_dim(self):
        region = Polyhedron.box([-5.0, -5.0], [5.0, 5.0])
        zmap = AffineMap(F=np.eye(2), g=np.zeros(2))
        out = hypercube(region, [[1.0, 1.0]], [1.0], zmap, 0.5)
        assert out.A[-1] == pytest.approx([1.0, 1.0])
        assert out.b[-1] == pytest.approx(2.0)

    def test_unit_rows(self):
        region = Polyhedron.box([-5.0, -5.0], [5.0, 5.0])
        zmap = AffineMap(F=np.eye(2), g=np.zeros(2))
        out = hypercube(region, [[1.0, 0.0], [-1.0, 0.0]], [1.0, 1.0],
                        zmap, 0.25)
        assert out.b[-2:] == pytest.approx([1.25, 1.25])

    def test_zero_bound_is_nominal(self):
        out = hypercube(TOY_REGION, *TOY_TERMINATE, TOY_ZMAP, 0.0)
        ref = lift_partition_project(TOY_REGION, [TOY_TERMINATE], TOY_ZMAP,
                                     ErrorModel())[0]
        assert np.array_equal(out.A, ref.A) and np.array_equal(out.b, ref.b)

    def test_monotone_in_bound(self):
        rng = np.random.default_rng(3)
        for trial in range(25):
            n_t, n_z = 2, 3
            region = Polyhedron.box(-np.ones(n_t), np.ones(n_t))
            zmap = AffineMap(F=rng.standard_normal((n_z, n_t)),
                             g=rng.standard_normal(n_z))
            A = rng.standard_normal((3, n_z))
            b = rng.uniform(-0.5, 1.0, 3)
            e1, e2 = sorted(rng.uniform(0.0, 0.5, 2))
            small = hypercube(region, A, b, zmap, e1)
            big = hypercube(region, A, b, zmap, e2)
            assert np.array_equal(small.A, big.A)
            assert np.all(small.b <= big.b + 1e-15)

    def test_matches_nominal_rows_after_normalization(self):
        # The error-free path and the zero-bound closed form agree row by row.
        rng = np.random.default_rng(11)
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
            via_zero = hypercube(region, A, b, zmap, 0.0)
            An, bn = normalize_rows(via_none.A, via_none.b)
            Az, bz = normalize_rows(via_zero.A, via_zero.b)
            assert np.allclose(An, Az, atol=1e-12)
            assert np.allclose(bn, bz, atol=1e-12)

    def test_closed_form_equals_projection_on_decision_families(self):
        # For the half-plane shapes the certifier builds (threshold rows and
        # pairwise-argmin rows), one sign choice of the error attains every
        # row's worst case at once, so the row-wise closed form is exact and
        # must agree with the lifted projection.
        rng = np.random.default_rng(19)
        checked = 0
        for trial in range(50):
            n_t = int(rng.integers(1, 4))
            n_z = int(rng.integers(2, 5))
            region = Polyhedron.box(-np.ones(n_t), np.ones(n_t))
            zmap = AffineMap(F=rng.standard_normal((n_z, n_t)),
                             g=0.3 * rng.standard_normal(n_z))
            thr = float(rng.uniform(0.0, 0.2))
            eps = float(rng.uniform(0.02, 0.3))
            box = Polyhedron.box(-eps * np.ones(n_z), eps * np.ones(n_z))
            j = int(rng.integers(n_z))
            pick_j = np.zeros((n_z, n_z))
            pick_j[0, j] = 1.0
            r = 1
            for other in range(n_z):
                if other != j:
                    pick_j[r, j] = 1.0
                    pick_j[r, other] = -1.0
                    r += 1
            b_pick = np.zeros(n_z)
            b_pick[0] = -thr
            families = [(pick_j, b_pick), (-np.eye(n_z), thr * np.ones(n_z))]
            closed = lift_partition_project(
                region, families, zmap, ErrorModel(kind="hypercube", bound=eps))
            projected = lift_partition_project(
                region, families, zmap, ErrorModel(kind="polyhedral", set=box))
            for c, p in zip(closed, projected):
                assert poly_equal(c, p, tol=1e-8)
                checked += 1
        assert checked == 100

    def test_single_row_closed_form_exact(self):
        # One row never conflicts with itself: both routes agree exactly.
        rng = np.random.default_rng(23)
        for trial in range(30):
            n_t, n_z = 2, int(rng.integers(1, 5))
            region = Polyhedron.box(-np.ones(n_t), np.ones(n_t))
            zmap = AffineMap(F=rng.standard_normal((n_z, n_t)),
                             g=0.3 * rng.standard_normal(n_z))
            hp = (rng.standard_normal((1, n_z)), rng.uniform(-0.3, 1.2, 1))
            eps = float(rng.uniform(0.02, 0.3))
            box = Polyhedron.box(-eps * np.ones(n_z), eps * np.ones(n_z))
            closed = lift_partition_project(
                region, [hp], zmap, ErrorModel(kind="hypercube", bound=eps))[0]
            projected = lift_partition_project(
                region, [hp], zmap, ErrorModel(kind="polyhedral", set=box))[0]
            assert poly_equal(closed, projected, tol=1e-8)

    def test_general_rows_projection_inside_closed_form(self):
        # Arbitrary multi-row sets share one error vector, so the exact
        # projection can be strictly smaller than the row-wise relaxation;
        # the relaxation must still contain it (it only ever over-covers).
        rng = np.random.default_rng(29)
        strictly_smaller = 0
        for trial in range(40):
            n_t = int(rng.integers(1, 4))
            n_z = int(rng.integers(2, 5))
            region = Polyhedron.box(-np.ones(n_t), np.ones(n_t))
            zmap = AffineMap(F=rng.standard_normal((n_z, n_t)),
                             g=0.3 * rng.standard_normal(n_z))
            rows = int(rng.integers(2, 5))
            hp = (rng.standard_normal((rows, n_z)), rng.uniform(-0.3, 1.2, rows))
            eps = float(rng.uniform(0.05, 0.3))
            box = Polyhedron.box(-eps * np.ones(n_z), eps * np.ones(n_z))
            closed = lift_partition_project(
                region, [hp], zmap, ErrorModel(kind="hypercube", bound=eps))[0]
            projected = lift_partition_project(
                region, [hp], zmap, ErrorModel(kind="polyhedral", set=box))[0]
            assert poly_contains_poly(projected, closed)
            if not poly_contains_poly(closed, projected):
                strictly_smaller += 1
        assert strictly_smaller > 0  # the distinction is real, not vacuous


class TestRelToAbs:
    def test_identity_map_interval(self):
        zmap = AffineMap(F=np.array([[1.0]]), g=np.array([0.0]))
        assert rel_to_abs(zmap, interval(-2.0, 2.0), 0.01) == pytest.approx(0.02)

    def test_two_component_map(self):
        zmap = AffineMap(F=np.array([[1.0], [3.0]]), g=np.array([0.0, 1.0]))
        assert rel_to_abs(zmap, interval(0.0, 1.0), 0.1) == pytest.approx(0.4)

    def test_zero_rel_bound_short_circuits(self):
        unbounded = Polyhedron(np.array([[-1.0]]), np.array([0.0]))
        zmap = AffineMap(F=np.array([[1.0]]), g=np.array([0.0]))
        assert rel_to_abs(zmap, unbounded, 0.0) == 0.0

    def test_unbounded_region_rejected(self):
        unbounded = Polyhedron(np.array([[-1.0]]), np.array([0.0]))
        zmap = AffineMap(F=np.array([[1.0]]), g=np.array([0.0]))
        with pytest.raises(GeometryError):
            rel_to_abs(zmap, unbounded, 0.1)

    def test_negative_rejected(self):
        zmap = AffineMap(F=np.array([[1.0]]), g=np.array([0.0]))
        with pytest.raises(ValueError):
            rel_to_abs(zmap, interval(-1.0, 1.0), -0.5)
