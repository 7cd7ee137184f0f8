"""End-to-end CLI runs against real problem files in a temp directory."""

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from certias import geometry
from certias.certifier import CertificationResult, certify
from certias.lpp import ErrorModel
from certias.cli import RunConfig, build_model, build_parser, dump_document, main
from certias.examples import write_problem_files
from test_validation import _triangle_problem


@pytest.fixture(scope="module")
def problem_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("problems")
    write_problem_files(d)
    return d


@pytest.fixture(scope="module")
def toy_path(problem_dir):
    return str(problem_dir / "toy.json")


@pytest.fixture(scope="module")
def mpc_path(problem_dir):
    return str(problem_dir / "double_integrator.json")


def test_shipped_problem_files_are_current(problem_dir):
    # The fixtures above generate the problems; CI and the benchmark read
    # the shipped copies under problems/, which must hold nothing else.
    shipped = pathlib.Path(__file__).resolve().parent.parent / "problems"
    assert sorted(p.name for p in shipped.iterdir()) == \
        sorted(p.name for p in problem_dir.iterdir()) == \
        ["double_integrator.json", "toy.json"]
    for name in ("toy.json", "double_integrator.json"):
        assert (problem_dir / name).read_bytes() == (shipped / name).read_bytes()


def test_examples_module_runs_without_warning(problem_dir, tmp_path):
    # `import certias` leaves certias.examples unimported, so running it as
    # a script raises no RuntimeWarning, even one turned into an error.
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m",
                           "certias.examples", str(tmp_path)],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 0 and done.stderr == ""
    for name in ("toy.json", "double_integrator.json"):
        assert (tmp_path / name).read_bytes() == (problem_dir / name).read_bytes()
    probe = ("import sys, certias; assert 'certias.examples' not in sys.modules; "
             "from certias import toy_problem; "
             "assert all(getattr(certias, n) for n in certias.__all__)")
    subprocess.run([sys.executable, "-c", probe], env=env, check=True)


def test_examples_served_on_first_use():
    # certias serves the examples' constructors lazily: the attribute
    # resolves to the examples module's function, an unknown name does not.
    import certias
    from certias import examples
    assert certias.toy_problem is examples.toy_problem
    assert certias.double_integrator_problem is examples.double_integrator_problem
    with pytest.raises(AttributeError, match="has no attribute 'no_such_problem'"):
        certias.no_such_problem
    # In a fresh interpreter the module is imported on that first use only.
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    probe = ("import sys, certias; assert 'certias.examples' not in sys.modules; "
             "assert certias.toy_problem().m == 1; assert 'certias.examples' in sys.modules; "
             "missing = not hasattr(certias, 'no_such_problem'); assert missing")
    subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=src),
                   check=True)


def test_commands_do_not_import_scipy(tmp_path):
    # Only the kernel's differential tests use scipy. Every command runs in
    # one fresh interpreter, which must end without having imported it.
    root = pathlib.Path(__file__).resolve().parent.parent
    probe = """
import sys
from certias.cli import main
out, toy = sys.argv[1], "problems/toy.json"
part = out + "/part.json"
runs = [["certify", "--problem", toy, "--out", part],
        ["validate", "--problem", toy, "--partition", part, "--samples", "300"],
        ["sweep", "--problem", toy, "--primal-tols", "1e-6,1e-4", "--eps-bars", "0,0.1",
         "--out", out + "/sweep.csv"],
        ["report", "--metric", "cdf", "--partition", part, "--out", out + "/cdf.csv"],
        ["report", "--metric", "slack", "--problem", toy, "--partition", part,
         "--out", out + "/slack.csv"]]
for argv in runs:
    assert main(argv) == 0, argv
assert "scipy" not in sys.modules, "a command imported scipy"
"""
    subprocess.run([sys.executable, "-c", probe, str(tmp_path)], cwd=root,
                   env=dict(os.environ, PYTHONPATH=str(root / "src")), check=True)
    assert {p.name for p in tmp_path.iterdir()} == {
        "part.json", "sweep.csv", "cdf.csv", "slack.csv"}


@pytest.fixture()
def toy_partition(toy_path, tmp_path):
    out = tmp_path / "part.json"
    assert main(["certify", "--problem", toy_path, "--out", str(out)]) == 0
    return out


class TestCertify:
    def test_writes_partition(self, toy_path, tmp_path):
        out = tmp_path / "part.json"
        code = main(["certify", "--problem", toy_path, "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert len(doc["regions"]) == 2
        assert doc["settings"]["eps_primal"] == 1e-6
        assert doc["config"]["command"] == "certify"
        assert doc["config"]["problem_path"] == toy_path
        assert "workers" not in doc["config"]
        assert {r["iterations"] for r in doc["regions"]} == {1, 2}

    def test_workers_default_to_one(self):
        for argv in (["certify", "--problem", "p"],
                     ["validate", "--problem", "p", "--partition", "q"],
                     ["sweep", "--problem", "p", "--primal-tols", "1e-6", "--eps-bars", "0"],
                     ["report", "--metric", "cdf"]):
            assert build_parser().parse_args(argv).workers == 1

    def test_stdout_when_no_out(self, toy_path, capsys):
        assert main(["certify", "--problem", toy_path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["regions"]) == 2

    def test_missing_problem_file(self, tmp_path, capsys):
        code = main(["certify", "--problem", str(tmp_path / "nope.json")])
        assert code == 2
        assert "no such file" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["certify", "--problem", str(bad)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_bad_schema(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"H": [[1.0]]}))
        assert main(["certify", "--problem", str(bad)]) == 2
        assert "bad problem document" in capsys.readouterr().err

    # Each document is the toy's with one field broken (the first is not an
    # object at all); load_problem or MpQP names what is wrong.
    @pytest.mark.parametrize("edit,message", [
        (None, "must be a JSON object"),
        ({"H": [[1.0, 0.0]]}, "H must be square"),
        ({"C": [[1.0, 0.0]]}, "C has 2 columns, expected 1"),
        ({"f_const": [0.0, 0.0]}, "f_const must have 1 entries"),
        ({"d_lin": [[0.0, 0.0]]}, "d_lin must be 1x1"),
        ({"d_const": [1.0, 2.0]}, "d_const must have 1 entries"),
        ({"theta_set": {"A": [[1.0], [-1.0]]}}, "theta_set must carry matrices A and b"),
        ({"theta_set": {"A": [[1.0], [-1.0, 0.0]], "b": [3.0, 3.0]}}, "bad theta_set"),
        ({"H": [["a"]]}, "bad problem data"),
    ], ids=["not-an-object", "H-not-square", "C-columns", "f_const-size",
            "d_lin-shape", "d_const-size", "theta_set-without-b", "ragged-theta_set",
            "non-numeric-H"])
    def test_malformed_problem_exits_2(self, toy_path, tmp_path, capsys, edit, message):
        doc = [1.0] if edit is None else {**json.loads(pathlib.Path(toy_path).read_text()),
                                          **edit}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["certify", "--problem", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "bad problem document" in err and message in err

    def test_eps_bar_flag(self, toy_path, tmp_path):
        out = tmp_path / "part.json"
        code = main(["certify", "--problem", toy_path, "--eps-bar", "0.1",
                     "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert len(doc["regions"]) == 45
        statuses = {r["status"] for r in doc["regions"]}
        assert statuses == {"optimal", "degenerate", "iter_limit"}

    def test_error_model_file(self, toy_path, tmp_path):
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps({"kind": "hypercube",
                                          "eps_bar": 0.1}))
        out = tmp_path / "part.json"
        code = main(["certify", "--problem", toy_path,
                     "--error-model", str(model_path), "--out", str(out)])
        assert code == 0
        assert len(json.loads(out.read_text())["regions"]) == 45

    def test_conflicting_model_flags(self, toy_path, capsys):
        code = main(["certify", "--problem", toy_path, "--eps-bar", "0.1",
                     "--rel-bound", "0.01"])
        assert code == 2
        assert ("argument --rel-bound: not allowed with argument --eps-bar"
                in capsys.readouterr().err)

    def test_internal_failure_is_exit_3(self, toy_path, capsys, monkeypatch):
        def boom(*a, **kw):
            raise RuntimeError("boom")

        monkeypatch.setattr("certias.cli.certify", boom)
        assert main(["certify", "--problem", toy_path]) == 3
        assert "internal error" in capsys.readouterr().err

    def test_pivot_cap_is_exit_4(self, toy_path, capsys, monkeypatch):
        monkeypatch.setattr(geometry, "PIVOT_CAP_FACTOR", 0)
        assert main(["certify", "--problem", toy_path]) == 4
        assert "numerical failure: LpPivotLimitError" in capsys.readouterr().err

    def test_pivot_cap_during_certify_is_exit_4(self, toy_path, capsys, monkeypatch):
        # The cap set only once the problem has loaded, so certify hits it.
        real = certify

        def capped(*args, **kwargs):
            monkeypatch.setattr(geometry, "PIVOT_CAP_FACTOR", 0)
            return real(*args, **kwargs)

        monkeypatch.setattr("certias.cli.certify", capped)
        assert main(["certify", "--problem", toy_path]) == 4
        assert "numerical failure: LpPivotLimitError" in capsys.readouterr().err

    def test_row_cap_is_exit_4(self, toy_path, capsys, monkeypatch):
        def explode(*args, **kwargs):
            raise geometry.RowExplosionError("projection needs 20000 rows, cap is 10000")

        monkeypatch.setattr("certias.cli.certify", explode)
        assert main(["certify", "--problem", toy_path]) == 4
        assert "numerical failure: RowExplosionError" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["certify"], ["report", "--metric", "cdf"]])
    def test_frontier_budget_is_exit_4(self, argv, toy_path, capsys, monkeypatch):
        # Errors of 0.05 make the toy's checks overlap: two of its regions
        # are live at one step.
        real = certify
        monkeypatch.setattr("certias.cli.certify",
                            lambda *args, **kwargs: real(*args, **kwargs, max_live=1))
        assert main([*argv, "--problem", toy_path, "--eps-bar", "0.05"]) == 4
        err = capsys.readouterr().err.splitlines()
        assert err == ["budget exceeded: live regions (2) exceed max_live=1"]

    def test_fm_row_cap_is_exit_4(self, toy_path, tmp_path, capsys, monkeypatch):
        # A polyhedral error set is projected by Fourier-Motzkin elimination,
        # which reads the cap when it runs.
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps({
            "kind": "polyhedral", "set": {"A": [[1.0], [-1.0]], "b": [0.05, 0.05]}}))
        monkeypatch.setattr(geometry, "FM_ROW_CAP", 1)
        assert main(["certify", "--problem", toy_path,
                     "--error-model", str(model_path)]) == 4
        assert "numerical failure: RowExplosionError" in capsys.readouterr().err

    def test_bad_flag_exits_2(self, toy_path, capsys):
        assert main(["certify", "--problem", toy_path,
                     "--iter-limit", "abc"]) == 2

    @pytest.mark.parametrize("argv", [
        ["certify", "--problem", "{toy}", "--iter-limit", "0"],
        ["certify", "--problem", "{toy}", "--primal-tol=-1"],
        ["certify", "--problem", "{toy}", "--eps-bar=-1"],
        ["certify", "--problem", "{toy}", "--rel-bound=-1"],
        ["sweep", "--problem", "{toy}", "--primal-tols=-1e-6", "--eps-bars", "0"],
        ["sweep", "--problem", "{toy}", "--primal-tols", "", "--eps-bars", "0"],
        ["validate", "--problem", "{toy}", "--partition", "{part}",
         "--samples", "-5"],
    ], ids=["iter-limit-0", "negative-primal-tol", "negative-eps-bar",
            "negative-rel-bound", "negative-primal-tols", "empty-primal-tols",
            "negative-samples"])
    def test_bad_flag_value_exits_2(self, toy_path, toy_partition, capsys, argv):
        argv = [a.format(toy=toy_path, part=toy_partition) for a in argv]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")

    # Python's JSON reader takes NaN, so a model file can hold one too.
    @pytest.mark.parametrize("argv,message", [
        (["certify", "--problem", "{toy}", "--eps-bar", "nan"],
         "--eps-bar: error bounds must be finite"),
        (["certify", "--problem", "{toy}", "--rel-bound", "inf"],
         "--rel-bound: error bounds must be finite"),
        (["certify", "--problem", "{toy}", "--error-model", "{nan_model}"],
         "bad error-model document"),
        (["validate", "--problem", "{toy}", "--partition", "{part}",
          "--eps-bar", "nan"], "--eps-bar: error bounds must be finite"),
        (["certify", "--problem", "{toy}", "--primal-tol", "nan"],
         "eps_primal must be finite"),
    ], ids=["certify-eps-bar-nan", "certify-rel-bound-inf", "certify-model-nan",
            "validate-eps-bar-nan", "certify-primal-tol-nan"])
    def test_non_finite_value_exits_2(self, toy_path, toy_partition, tmp_path,
                                      capsys, argv, message):
        nan_model = tmp_path / "model.json"
        nan_model.write_text('{"kind": "hypercube", "bound": NaN}')
        argv = [a.format(toy=toy_path, part=toy_partition, nan_model=nan_model)
                for a in argv]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err


class TestDeterminism:
    def test_byte_identical_across_workers(self, toy_path, mpc_path, tmp_path):
        for path in (toy_path, mpc_path):
            outs = []
            for workers in ("1", "4"):
                out = tmp_path / f"w{workers}-{len(outs)}.json"
                code = main(["certify", "--problem", path, "--eps-bar",
                             "1e-4", "--workers", workers,
                             "--out", str(out)])
                assert code == 0
                outs.append(out.read_bytes())
            assert outs[0] == outs[1]

    def test_concurrent_processes_match_in_process(self, tmp_path, monkeypatch):
        # certias runs on one thread; parallel work means separate
        # processes. Two started together each write the bytes of the same
        # command run through cli.main, LP count included.
        root = pathlib.Path(__file__).resolve().parent.parent
        monkeypatch.chdir(root)
        argv = ["certify", "--problem", "problems/double_integrator.json",
                "--eps-bar", "1e-4", "--out"]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        outs = [tmp_path / f"proc{i}.json" for i in range(2)]
        procs = [subprocess.Popen([sys.executable, "-m", "certias.cli", *argv, str(out)],
                                  cwd=root, env=env) for out in outs]
        assert [proc.wait(timeout=300) for proc in procs] == [0, 0]
        assert main([*argv, str(tmp_path / "main.json")]) == 0
        want = (tmp_path / "main.json").read_bytes()
        assert json.loads(want)["stats"]["lp_calls"] == 4149
        assert [out.read_bytes() for out in outs] == [want, want]

    # sha256 of `certify --workers 1` documents for the shipped problems,
    # recorded before the simplex kernel was vectorized. A kernel change that
    # moves one bit of one partition shows here. The documents also pass
    # through BLAS matrix products outside the kernel, so they are platform
    # bound: recorded on x86_64 (AVX-512), CPython 3.11, numpy 2.4.6 with
    # scipy-openblas 0.3.31. On another CPU, BLAS or numpy build, check the
    # pins against the parent commit before blaming the kernel.
    PINNED_SHA256 = {
        ("toy.json", None):
            "18826d897804021618d3e6a5bad2b1910b816851a89a0cc36edd7100010781fe",
        ("toy.json", "1e-4"):
            "0b5ce8eea0277fc1fd17145a29a847774469183f764f70889c31ec096b346491",
        ("double_integrator.json", None):
            "97136b60c469f6ef1f56775b86fde27832fead579ef6b05c65165a8b879ebf93",
        ("double_integrator.json", "1e-4"):
            "df6cfc37598ee5d3c97e5d1344d6ccbd3a1bf1d9e3069438d6c3686fb5ee04de",
    }

    @pytest.mark.parametrize("name,eps_bar", sorted(
        PINNED_SHA256, key=lambda k: (k[0], k[1] or "")))
    def test_documents_match_pinned_bytes(self, name, eps_bar, tmp_path,
                                          monkeypatch):
        # The document echoes --problem, so run from the repository root
        # with the same relative path the pins were recorded with.
        monkeypatch.chdir(pathlib.Path(__file__).resolve().parent.parent)
        out = tmp_path / "part.json"
        argv = ["certify", "--problem", f"problems/{name}", "--workers", "1",
                "--out", str(out)]
        if eps_bar is not None:
            argv += ["--eps-bar", eps_bar]
        assert main(argv) == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == self.PINNED_SHA256[(name, eps_bar)]

    # sha256 of certify documents under the relative, polyhedral and scheduled
    # error models, recorded before the per-check error rules moved into
    # lpp. Each case runs in a directory laid out like the repository root,
    # with any model written to model.json there. The DI schedule is the one
    # case whose dual checks project a 6-D set. Same platform caveat as
    # PINNED_SHA256.
    _SET6 = {"A": np.vstack([np.eye(6), -np.eye(6), np.ones((1, 6)),
                             -np.ones((1, 6))]).tolist(),
             "b": [1e-4] * 14}
    PINNED_KIND_SHA256 = {
        "toy-relative": (
            "toy.json", ["--rel-bound", "0.01"],
            "b6d6f9d6eca15e0d85fb76a3b582c811469e258a68c5c1b014980cae557ddfc3"),
        "toy-polyhedral-perturb-dual": (
            "toy.json",
            {"kind": "polyhedral", "perturb_dual": True,
             "set": {"A": [[1.0], [-1.0]], "b": [0.05, 0.05]}},
            "544f811f7bd554390b431695857e22d27edcce4ba645108e5cdfefd6c056ae3b"),
        "di-schedule": (
            "double_integrator.json",
            {"kind": "hypercube", "bound": 1e-4, "perturb_dual": True,
             "schedule": [{"kind": "relative", "rel_bound": 1e-3},
                          {"kind": "polyhedral", "set": _SET6}, {},
                          {"kind": "hypercube", "bound": 1e-3}]},
            "02e47d8cbfb0ca9a14c8222b578c7bc43f231a111799fc195be222e091997e7c"),
    }

    @pytest.mark.parametrize("case", sorted(PINNED_KIND_SHA256))
    def test_error_kind_documents_match_pinned_bytes(self, case, tmp_path,
                                                     monkeypatch):
        name, flags, sha = self.PINNED_KIND_SHA256[case]
        root = pathlib.Path(__file__).resolve().parent.parent
        (tmp_path / "problems").mkdir()
        (tmp_path / "problems" / name).write_bytes(
            (root / "problems" / name).read_bytes())
        monkeypatch.chdir(tmp_path)
        if isinstance(flags, dict):
            pathlib.Path("model.json").write_text(json.dumps(flags))
            flags = ["--error-model", "model.json"]
        assert main(["certify", "--problem", f"problems/{name}", *flags,
                     "--out", "part.json"]) == 0
        digest = hashlib.sha256(pathlib.Path("part.json").read_bytes()).hexdigest()
        assert digest == sha

    # sha256 of the `validate --out` report of the exact toy partition under
    # --eps-bar 0.1 --samples 800 --seed 3 (147 mismatches), recorded with
    # the relative paths problems/toy.json and part.json. Its config echoes
    # the partition's tolerances, dual_tol resolved (1e-06). Same platform
    # caveat as PINNED_SHA256.
    PINNED_REPORT_SHA256 = \
        "6e87b0dee06aee7ac5593414bdbc0a8fb028e9891fede9252c0b3a3f1e7ed629"
    # The same for the exact double integrator partition under --eps-bar
    # 1e-4 --samples 2000 --seed 7 (539 mismatches), with the relative
    # paths problems/double_integrator.json and part.json. Its parameter
    # is 2-D, so a change to the order of the parameter draws shows here.
    PINNED_DI_REPORT_SHA256 = \
        "91db0b3f2f6760b5b12ce97b4bce70f87c6b50034441d4135f3931eac623c79e"

    # The same for the exact partition of the triangle problem of
    # tests/test_validation.py, written as problems/triangle.json, under
    # --eps-bar 1e-2 --samples 1500 --seed 7 (559 samples outside the
    # triangle, 217 mismatches). Its parameter set is not its bounding box,
    # so many samples are not judged and draw no error rows. Same platform
    # caveat as PINNED_SHA256.
    PINNED_TRIANGLE_REPORT_SHA256 = \
        "bb39b8c134f4da9521afef63d1d807b91974eb19dea5903535e86a73566ab5b9"

    @staticmethod
    def _validate_report(tmp_path, monkeypatch, name, flags, problem=None) -> bytes:
        """`validate --out` report bytes of the exact partition of problem
        `name`, the shipped file unless `problem` gives its bytes. The report
        echoes --problem and --partition, so both are relative to a
        directory laid out like the repository root."""
        root = pathlib.Path(__file__).resolve().parent.parent
        (tmp_path / "problems").mkdir()
        (tmp_path / "problems" / name).write_bytes(
            problem or (root / "problems" / name).read_bytes())
        monkeypatch.chdir(tmp_path)
        assert main(["certify", "--problem", f"problems/{name}",
                     "--out", "part.json"]) == 0
        assert main(["validate", "--problem", f"problems/{name}",
                     "--partition", "part.json", *flags,
                     "--out", "report.json"]) == 1
        return pathlib.Path("report.json").read_bytes()

    def test_validate_report_matches_pinned_bytes(self, tmp_path, monkeypatch):
        report = self._validate_report(
            tmp_path, monkeypatch, "toy.json",
            ["--eps-bar", "0.1", "--samples", "800", "--seed", "3"])
        assert len(json.loads(report)["mismatches"]) == 147
        assert hashlib.sha256(report).hexdigest() == self.PINNED_REPORT_SHA256

    def test_2d_validate_report_matches_pinned_bytes(self, tmp_path, monkeypatch):
        report = self._validate_report(
            tmp_path, monkeypatch, "double_integrator.json",
            ["--eps-bar", "1e-4", "--samples", "2000", "--seed", "7"])
        assert len(json.loads(report)["mismatches"]) == 539
        assert hashlib.sha256(report).hexdigest() == self.PINNED_DI_REPORT_SHA256

    def test_triangle_validate_report_matches_pinned_bytes(self, tmp_path, monkeypatch):
        problem = json.dumps(_triangle_problem().to_document(), indent=1) + "\n"
        report = self._validate_report(
            tmp_path, monkeypatch, "triangle.json",
            ["--eps-bar", "1e-2", "--samples", "1500", "--seed", "7"],
            problem=problem.encode())
        doc = json.loads(report)
        assert (doc["samples_outside"], len(doc["mismatches"])) == (559, 217)
        assert hashlib.sha256(report).hexdigest() == self.PINNED_TRIANGLE_REPORT_SHA256

    def test_round_trip_bit_for_bit(self, toy_partition):
        doc = json.loads(toy_partition.read_text())
        result = CertificationResult.from_document(doc)
        for entry, region in zip(doc["regions"], result.regions):
            assert np.array_equal(np.asarray(entry["A"]), region.region.A)
            assert np.array_equal(np.asarray(entry["b"]), region.region.b)
        rebuilt = {"config": doc["config"], **result.to_document()}
        assert dump_document(rebuilt) == toy_partition.read_text()


class TestValidate:
    def test_clean_partition_passes(self, toy_path, toy_partition, capsys):
        code = main(["validate", "--problem", toy_path,
                     "--partition", str(toy_partition),
                     "--samples", "500", "--seed", "7"])
        assert code == 0
        assert "mismatches=0" in capsys.readouterr().out

    def test_report_document(self, toy_path, toy_partition, tmp_path):
        out = tmp_path / "report.json"
        code = main(["validate", "--problem", toy_path,
                     "--partition", str(toy_partition),
                     "--samples", "300", "--seed", "1", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["samples_total"] == 300
        assert doc["mismatches"] == [] and doc["coverage_gaps"] == []

    def test_report_echoes_partition_tolerances(self, toy_path, tmp_path):
        part, out = tmp_path / "part.json", tmp_path / "report.json"
        assert main(["certify", "--problem", toy_path, "--primal-tol", "1e-4",
                     "--out", str(part)]) == 0
        assert main(["validate", "--problem", toy_path, "--partition", str(part),
                     "--samples", "50", "--out", str(out)]) == 0
        config = json.loads(out.read_text())["config"]
        assert (config["primal_tol"], config["dual_tol"]) == (1e-4, 1e-4)
        assert config["iter_limit"] == 15

    def test_unmodeled_errors_exit_1(self, toy_path, toy_partition, capsys):
        code = main(["validate", "--problem", toy_path,
                     "--partition", str(toy_partition),
                     "--samples", "800", "--seed", "3",
                     "--eps-bar", "0.1"])
        assert code == 1
        assert "mismatches=0" not in capsys.readouterr().out

    def test_partition_without_tolerances_exits_2(self, toy_path, toy_partition,
                                                  tmp_path, capsys):
        doc = json.loads(toy_partition.read_text())
        del doc["settings"]["eps_primal"]
        bad = tmp_path / "bad.json"
        bad.write_text(dump_document(doc))
        assert main(["validate", "--problem", toy_path, "--partition", str(bad),
                     "--samples", "10"]) == 2
        assert "bad partition document" in capsys.readouterr().err

    def test_empty_partition_exits_2(self, toy_path, toy_partition, tmp_path,
                                     capsys):
        # It used to exit 2 with numpy's "need at least one array to
        # concatenate"; certify never writes a partition without leaves.
        doc = json.loads(toy_partition.read_text())
        doc["regions"] = []
        bad = tmp_path / "empty.json"
        bad.write_text(dump_document(doc))
        assert main(["validate", "--problem", toy_path, "--partition", str(bad),
                     "--samples", "10"]) == 2
        err = capsys.readouterr().err
        assert "bad partition document" in err and "no regions" in err

    @pytest.mark.parametrize("key, value, message", [
        ("iter_limit", 15.5, "iter_limit must be an integer"),
        ("iter_limit", True, "not booleans"),
        ("eps_primal", True, "not booleans"),
        ("eps_dual", False, "not booleans"),
    ])
    def test_malformed_tolerance_exits_2(self, toy_path, toy_partition, tmp_path,
                                         capsys, key, value, message):
        # A float cap used to fail inside validation (exit 3), and a boolean
        # one validated with a cap of 1 (exit 1).
        doc = json.loads(toy_partition.read_text())
        doc["settings"][key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(dump_document(doc))
        assert main(["validate", "--problem", toy_path, "--partition", str(bad),
                     "--samples", "10"]) == 2
        err = capsys.readouterr().err
        assert "bad partition document" in err and message in err

    @pytest.mark.parametrize("working_set", [[1.5], [True], ["0"]],
                             ids=["float", "bool", "string"])
    def test_non_integer_working_set_exits_2(self, toy_path, toy_partition,
                                             tmp_path, capsys, working_set):
        doc = json.loads(toy_partition.read_text())
        doc["regions"][0]["sequence"][0]["working_set"] = working_set
        bad = tmp_path / "bad.json"
        bad.write_text(dump_document(doc))
        assert main(["validate", "--problem", toy_path, "--partition", str(bad),
                     "--samples", "10"]) == 2
        err = capsys.readouterr().err
        assert "bad partition document" in err and "must be integers" in err

    def test_wrong_problem_for_partition(self, mpc_path, toy_partition,
                                         capsys):
        code = main(["validate", "--problem", mpc_path,
                     "--partition", str(toy_partition), "--samples", "10"])
        assert code == 2
        assert "different problem" in capsys.readouterr().err

    def _validate(self, toy_path, partition, *flags):
        return main(["validate", "--problem", toy_path,
                     "--partition", str(partition),
                     "--samples", "200", "--seed", "5", *flags])

    @pytest.mark.parametrize("doc", [
        {"kind": "relative", "rel_bound": 0.5},
        {"kind": "polyhedral", "set": {"A": [[1.0], [-1.0]], "b": [0.1, 0.1]}},
    ])
    def test_unsampleable_model_file_exits_2(self, toy_path, toy_partition,
                                             tmp_path, capsys, doc):
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(doc))
        code = self._validate(toy_path, toy_partition,
                              "--error-model", str(model_path))
        assert code == 2
        assert "cannot sample" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--primal-tol", "0.5"), ("--dual-tol", "0.5"), ("--iter-limit", "0")])
    def test_tolerance_flags_exit_2(self, toy_path, toy_partition, capsys, flag, value):
        # Validation runs with the partition's own tolerances; a flag it
        # would ignore is refused rather than echoed into the report.
        assert self._validate(toy_path, toy_partition, flag, value) == 2
        assert flag in capsys.readouterr().err

    def test_rel_bound_exits_2(self, toy_path, toy_partition, capsys):
        assert self._validate(toy_path, toy_partition, "--rel-bound", "0.5") == 2
        assert "cannot sample" in capsys.readouterr().err

    def test_conflicting_model_flags(self, toy_path, toy_partition, capsys):
        code = self._validate(toy_path, toy_partition,
                              "--rel-bound", "0.5", "--eps-bar", "1e-4")
        assert code == 2
        assert ("argument --eps-bar: not allowed with argument --rel-bound"
                in capsys.readouterr().err)

    def test_hypercube_file_matches_eps_bar(self, toy_path, toy_partition,
                                            tmp_path, capsys):
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps({"kind": "hypercube", "eps_bar": 0.1}))
        from_file = self._validate(toy_path, toy_partition,
                                   "--error-model", str(model_path))
        file_out = capsys.readouterr().out
        from_flag = self._validate(toy_path, toy_partition, "--eps-bar", "0.1")
        assert from_file == from_flag == 1
        assert file_out == capsys.readouterr().out

    def test_zero_eps_bar_is_exact(self, toy_path, toy_partition, tmp_path):
        # An exact partition whose settings claim errors of 0.1: the settings
        # model fails it, --eps-bar 0 overrides it with exact arithmetic.
        doc = json.loads(toy_partition.read_text())
        doc["settings"]["error_model"] = {"kind": "hypercube", "bound": 0.1}
        claimed = tmp_path / "claimed.json"
        claimed.write_text(dump_document(doc))
        assert self._validate(toy_path, claimed) == 1
        assert self._validate(toy_path, claimed, "--eps-bar", "0") == 0


class TestSweep:
    def test_csv_output(self, toy_path, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--problem", toy_path,
                     "--primal-tols", "1e-6", "--eps-bars", "0,0.1",
                     "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "eps_primal,eps_bar,worst_iterations,region_count"
        assert lines[1] == "1e-06,0.0,2,2"
        assert lines[2].startswith("1e-06,0.1,INF,")

    def test_json_output(self, toy_path, tmp_path):
        out = tmp_path / "sweep.json"
        code = main(["sweep", "--problem", toy_path,
                     "--primal-tols", "1e-6", "--eps-bars", "0",
                     "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["rows"][0]["worst_iterations"] == 2
        assert doc["config"]["eps_bars"] == [0.0]

    def _fail_hypercube_cells(self, monkeypatch, exc):
        real = certify

        def flaky(prob, tol=None, model=None, **kw):
            if model is not None and model.kind != "none":
                raise exc
            return real(prob, tol, model, **kw)

        monkeypatch.setattr("certias.analysis.certify", flaky)

    def test_failed_cell_exits_4(self, toy_path, tmp_path, capsys, monkeypatch):
        # The finished cells are still written; each failed one gets a line.
        self._fail_hypercube_cells(monkeypatch,
                                   geometry.LpPivotLimitError("pivot cap"))
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--problem", toy_path, "--primal-tols", "1e-6",
                     "--eps-bars", "0,0.1", "--out", str(out)])
        assert code == 4
        assert out.read_text().splitlines()[1:] == ["1e-06,0.0,2,2"]
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert "eps_bar 0.1" in err[0] and "LpPivotLimitError: pivot cap" in err[0]

    def test_programming_error_in_cell_exits_3(self, toy_path, capsys,
                                               monkeypatch):
        self._fail_hypercube_cells(monkeypatch, TypeError("bad operand"))
        code = main(["sweep", "--problem", toy_path, "--primal-tols", "1e-6",
                     "--eps-bars", "0,0.1"])
        assert code == 3
        assert "internal error: TypeError" in capsys.readouterr().err

    def test_missing_lists(self, toy_path, capsys):
        assert main(["sweep", "--problem", toy_path,
                     "--primal-tols", "1e-6"]) == 2
        assert "--eps-bars" in capsys.readouterr().err

    @pytest.mark.parametrize("lists", [["1e-6,1e-6", "0"], ["1e-6", "0,-0"]],
                             ids=["primal-tols", "eps-bars"])
    def test_repeated_grid_value_exits_2(self, toy_path, tmp_path, capsys, lists):
        # Each cell once: a repeated value would certify the same cell again.
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--problem", toy_path, "--primal-tols", lists[0],
                     "--eps-bars", lists[1], "--out", str(out)]) == 2
        assert capsys.readouterr().err == \
            "error: tolerance and error-bound lists must not repeat a value\n"
        assert not out.exists()

    def test_non_number_in_list_exits_2(self, toy_path, capsys):
        assert main(["sweep", "--problem", toy_path, "--primal-tols", "1e-6",
                     "--eps-bars", "0,abc"]) == 2
        assert "not a comma list of numbers: '0,abc'" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [["--primal-tol", "0.5"], ["--primal-tol=0.5"],
                                      ["--primal-tol", "1e-6"]])
    def test_primal_tol_exits_2(self, toy_path, tmp_path, capsys, flag):
        # Each cell takes its slack tolerance from --primal-tols: sweep has
        # no --primal-tol, and the parser does not read it as --primal-tols.
        out = tmp_path / "sweep.json"
        assert main(["sweep", "--problem", toy_path, "--primal-tols", "1e-6",
                     "--eps-bars", "0", *flag, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "unrecognized arguments: --primal-tol" in captured.err
        assert captured.out == "" and not out.exists()

    def test_help_hides_primal_tol(self, toy_path, capsys, monkeypatch):
        # --help lists only the flags sweep takes, and names --primal-tols
        # as --dual-tol's default. --primal-tol is not one of them: exit 2.
        monkeypatch.setenv("COLUMNS", "200")
        assert main(["sweep", "--help"]) == 0
        text = capsys.readouterr().out
        assert "--primal-tols" in text and "--primal-tol " not in text
        assert "PRIMAL_TOL" not in text
        assert "(default: each cell's --primal-tols entry)" in text
        assert main(["sweep", "--problem", toy_path, "--primal-tols", "1e-6",
                     "--eps-bars", "0", "--primal-tol", "0.5"]) == 2
        assert "unrecognized arguments: --primal-tol 0.5" in capsys.readouterr().err

    def test_other_tolerance_flags_echo(self, toy_path, tmp_path):
        # Without --primal-tol the echo keeps its default; the dual
        # tolerance and the cap are given to every cell and echoed.
        out = tmp_path / "sweep.json"
        assert main(["sweep", "--problem", toy_path, "--primal-tols", "1e-6",
                     "--eps-bars", "0", "--out", str(out)]) == 0
        config = json.loads(out.read_text())["config"]
        assert (config["primal_tol"], config["dual_tol"], config["iter_limit"]) == (1e-6, None, 15)
        assert main(["sweep", "--problem", toy_path, "--primal-tols", "1e-6",
                     "--eps-bars", "0", "--dual-tol", "1e-3", "--iter-limit", "1",
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        config = doc["config"]
        assert (config["primal_tol"], config["dual_tol"], config["iter_limit"]) == (1e-6, 1e-3, 1)
        assert doc["rows"][0]["worst_iterations"] == "INF"


def _relabelled_toy(toy_path, tmp_path):
    """The toy's hypercube 0.05 partition with its cap leaves relabelled
    as finished after one iteration: their sequences still hit the cap."""
    out = tmp_path / "part.json"
    assert main(["certify", "--problem", toy_path, "--eps-bar", "0.05",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    capped = [leaf for leaf in doc["regions"] if leaf["status"] == "iter_limit"]
    assert len(doc["regions"]) == 45 and len(capped) == 2
    for leaf in capped:
        leaf.update(status="optimal", iterations=1)
    bad = tmp_path / "relabelled.json"
    bad.write_text(dump_document(doc))
    return bad


@pytest.mark.parametrize("command", [
    ["report", "--metric", "cdf"],
    ["validate", "--problem", None, "--samples", "50"],
])
def test_relabelled_partition_exits_2(toy_path, tmp_path, capsys, command):
    # Read as it stands, the relabelled leaves would count as finished in
    # the CDF: a silently wrong table.
    bad = _relabelled_toy(toy_path, tmp_path)
    argv = [toy_path if arg is None else arg for arg in command]
    assert main([*argv, "--partition", str(bad)]) == 2
    captured = capsys.readouterr()
    assert "bad partition document" in captured.err and "disagree" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", [
    ["report", "--metric", "cdf"],
    ["validate", "--problem", None, "--samples", "100"],
])
def test_sequence_not_a_run_exits_2(toy_path, toy_partition, tmp_path, capsys, command):
    # The first leaf's second state flipped to a slack check: read as it
    # stands, the CDF counted the leaf done at 2 iterations, and validate
    # found mismatches (exit 1).
    doc = json.loads(toy_partition.read_text())
    state = doc["regions"][0]["sequence"][1]
    assert state["mode"] == "dual_check"
    state["mode"] = "slack_check"
    bad = tmp_path / "flipped.json"
    bad.write_text(dump_document(doc))
    argv = [toy_path if arg is None else arg for arg in command]
    assert main([*argv, "--partition", str(bad)]) == 2
    captured = capsys.readouterr()
    assert "bad partition document" in captured.err and "no decision" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", [
    ["report", "--metric", "cdf"],
    ["validate", "--problem", None, "--samples", "100"],
])
def test_repeated_leaf_exits_2(toy_path, toy_partition, tmp_path, capsys, command):
    # The first leaf appended again: read as it stands, the CDF counted it
    # twice, and validate passed. certify writes one leaf per sequence.
    doc = json.loads(toy_partition.read_text())
    doc["regions"].append(doc["regions"][0])
    bad = tmp_path / "repeated.json"
    bad.write_text(dump_document(doc))
    argv = [toy_path if arg is None else arg for arg in command]
    assert main([*argv, "--partition", str(bad)]) == 2
    captured = capsys.readouterr()
    assert f"bad partition document {bad}: two leaves share a sequence" in captured.err
    assert captured.out == ""


class TestReport:
    def test_cdf_from_partition(self, toy_partition, capsys):
        code = main(["report", "--metric", "cdf",
                     "--partition", str(toy_partition)])
        assert code == 0
        assert capsys.readouterr().out == "k,fraction\n1,0.5\n2,1.0\n"

    def test_slack_profile(self, toy_path, capsys):
        code = main(["report", "--metric", "slack", "--problem", toy_path])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "k,worst_slack"
        assert lines[1] == "0,2.0"
        assert len(lines) == 4

    def test_slack_profile_json(self, toy_path, tmp_path):
        out = tmp_path / "slack.json"
        code = main(["report", "--metric", "slack", "--problem", toy_path,
                     "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["per_iteration"][0] == {"k": 0, "worst_slack": 2.0}

    def test_sweep_metric_exits_2(self, toy_path, capsys):
        # The sweep table comes from the sweep command; report has no such
        # metric and none of sweep's grid flags.
        assert main(["report", "--metric", "sweep", "--problem", toy_path]) == 2
        assert "invalid choice: 'sweep'" in capsys.readouterr().err
        assert main(["report", "--metric", "slack", "--problem", toy_path,
                     "--primal-tols", "1e-6", "--eps-bars", "0"]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_metric_required(self, toy_path, capsys):
        assert main(["report", "--problem", toy_path]) == 2
        assert "--metric" in capsys.readouterr().err

    def test_slack_from_partition(self, mpc_path, tmp_path):
        # Certifying at report time and reading the saved partition give
        # the same table byte for byte.
        part = tmp_path / "part.json"
        assert main(["certify", "--problem", mpc_path, "--eps-bar", "1e-4",
                     "--out", str(part)]) == 0
        outs = [tmp_path / "direct.csv", tmp_path / "saved.csv"]
        assert main(["report", "--metric", "slack", "--problem", mpc_path,
                     "--eps-bar", "1e-4", "--out", str(outs[0])]) == 0
        assert main(["report", "--metric", "slack", "--problem", mpc_path,
                     "--partition", str(part), "--out", str(outs[1])]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        assert outs[0].read_text().startswith("k,worst_slack\n")

    @pytest.mark.parametrize("metric", ["cdf", "slack"])
    def test_json_echoes_partition_tolerances(self, toy_path, tmp_path, metric):
        # The table comes from the partition, so its config echoes the
        # partition's tolerances, not the flags' defaults.
        part, out = tmp_path / "part.json", tmp_path / "report.json"
        assert main(["certify", "--problem", toy_path, "--primal-tol", "1e-4",
                     "--iter-limit", "9", "--out", str(part)]) == 0
        problem = ["--problem", toy_path] if metric == "slack" else []
        assert main(["report", "--metric", metric, *problem, "--partition", str(part),
                     "--out", str(out)]) == 0
        config = json.loads(out.read_text())["config"]
        assert (config["primal_tol"], config["dual_tol"]) == (1e-4, 1e-4)
        assert config["iter_limit"] == 9

    @pytest.mark.parametrize("flags", [["--primal-tol", "0.5"], ["--dual-tol", "0.5"],
                                       ["--iter-limit", "3"], ["--iter-limit", "15"],
                                       ["--iter-limit", "3", "--primal-tol", "0.5"]])
    @pytest.mark.parametrize("metric", ["cdf", "slack"])
    def test_tolerance_flags_with_partition_exit_2(self, toy_path, toy_partition, tmp_path,
                                                   capsys, metric, flags):
        # The table runs with the partition's tolerances; a tolerance flag
        # it would ignore is refused, even one giving the default value.
        problem = ["--problem", toy_path] if metric == "slack" else []
        out = tmp_path / "report.json"
        assert main(["report", "--metric", metric, *problem, "--partition",
                     str(toy_partition), *flags, "--out", str(out)]) == 2
        names = " and ".join(sorted(flags[::2], key=["--primal-tol", "--dual-tol",
                                                      "--iter-limit"].index))
        assert capsys.readouterr().err == f"error: {names} cannot be used with --partition\n"
        assert not out.exists()

    def test_tolerance_defaults_echo_without_partition(self, toy_path, tmp_path):
        # Without --partition the report certifies under the flags, and the
        # ones not given echo their defaults.
        out = tmp_path / "report.json"
        assert main(["report", "--metric", "cdf", "--problem", toy_path,
                     "--out", str(out)]) == 0
        config = json.loads(out.read_text())["config"]
        assert (config["primal_tol"], config["dual_tol"], config["iter_limit"]) == \
            (1e-6, None, 15)
        assert '"primal_tol": 1e-06' in out.read_text()
        assert main(["report", "--metric", "cdf", "--problem", toy_path, "--iter-limit", "3",
                     "--dual-tol", "0.5", "--out", str(out)]) == 0
        config = json.loads(out.read_text())["config"]
        assert (config["primal_tol"], config["dual_tol"], config["iter_limit"]) == \
            (1e-6, 0.5, 3)

    @pytest.mark.parametrize("flag", ["--eps-bar", "--rel-bound", "--error-model"])
    @pytest.mark.parametrize("metric", ["cdf", "slack"])
    def test_model_flags_with_partition_exit_2(self, toy_path, toy_partition, tmp_path,
                                               capsys, metric, flag):
        # The table reads only the partition; a model flag it would ignore
        # is refused rather than echoed into the report.
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"kind": "hypercube", "bound": 0.5}))
        value = str(model) if flag == "--error-model" else "0.5"
        problem = ["--problem", toy_path] if metric == "slack" else []
        out = tmp_path / "report.json"
        assert main(["report", "--metric", metric, *problem, "--partition",
                     str(toy_partition), flag, value, "--out", str(out)]) == 2
        assert flag in capsys.readouterr().err and not out.exists()

    def test_cdf_from_problem(self, toy_path, toy_partition, capsys):
        assert main(["report", "--metric", "cdf", "--problem", toy_path]) == 0
        direct = capsys.readouterr().out
        assert main(["report", "--metric", "cdf",
                     "--partition", str(toy_partition)]) == 0
        assert capsys.readouterr().out == direct == "k,fraction\n1,0.5\n2,1.0\n"

    def test_slack_needs_problem(self, toy_partition, capsys):
        assert main(["report", "--metric", "slack",
                     "--partition", str(toy_partition)]) == 2
        assert "report needs --problem" in capsys.readouterr().err

    def test_cdf_needs_a_partition_source(self, capsys):
        assert main(["report", "--metric", "cdf"]) == 2
        assert "--problem or --partition" in capsys.readouterr().err

    @pytest.mark.parametrize("metric", ["slack", "cdf"])
    def test_other_problem_partition_exits_2(self, mpc_path, toy_partition,
                                             capsys, metric):
        # slack once ignored --partition and certified --problem instead.
        assert main(["report", "--metric", metric, "--problem", mpc_path,
                     "--partition", str(toy_partition)]) == 2
        captured = capsys.readouterr()
        assert "different problem" in captured.err and captured.out == ""

    def test_working_set_row_out_of_range_exits_2(self, toy_path, toy_partition, tmp_path,
                                                  capsys):
        # Row 0 renamed 7 leaves every sequence a run of the automaton, but
        # the toy has one constraint row: slack_profile refuses the row,
        # once an internal error (exit 3).
        doc = json.loads(toy_partition.read_text())
        renamed = 0
        for leaf in doc["regions"]:
            for state in leaf["sequence"]:
                renamed += state["working_set"].count(0)
                state["working_set"] = [7 if i == 0 else i for i in state["working_set"]]
        assert renamed
        bad = tmp_path / "renamed.json"
        bad.write_text(dump_document(doc))
        assert main(["report", "--metric", "slack", "--problem", toy_path,
                     "--partition", str(bad)]) == 2
        captured = capsys.readouterr()
        assert "error: working-set index 7 out of range" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command", [
        ["validate", "--samples", "300"],
        ["report", "--metric", "cdf"],
    ], ids=["validate", "cdf"])
    def test_renamed_row_refused_with_problem(self, toy_path, toy_partition, tmp_path,
                                              capsys, command):
        # Every command given the problem checks the partition's rows
        # against it: validate once judged such a partition (exit 1), and
        # the cdf report printed its table (exit 0).
        doc = json.loads(toy_partition.read_text())
        for leaf in doc["regions"]:
            for state in leaf["sequence"]:
                state["working_set"] = [7 if i == 0 else i for i in state["working_set"]]
        bad = tmp_path / "renamed.json"
        bad.write_text(dump_document(doc))
        out = tmp_path / "out.json"
        assert main([*command, "--problem", toy_path, "--partition", str(bad),
                     "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "error: working-set index 7 out of range" in captured.err
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("metric", ["slack", "cdf"])
    def test_empty_partition_exits_2(self, toy_path, toy_partition, tmp_path,
                                     capsys, metric):
        # cdf used to fail inside iteration_cdf: exit 3, internal error.
        doc = json.loads(toy_partition.read_text())
        doc["regions"] = []
        bad = tmp_path / "empty.json"
        bad.write_text(dump_document(doc))
        problem = ["--problem", toy_path] if metric == "slack" else []
        assert main(["report", "--metric", metric, *problem,
                     "--partition", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "bad partition document" in err and "no regions" in err


def _cut_flags():
    """(command, flag) for each long flag of each command with its last
    character cut off, unless the cut string is a flag of its own."""
    parser = build_parser()
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    for command, sub in commands.items():
        flags = {s: a for a in sub._actions for s in a.option_strings if s.startswith("--")}
        for flag, action in flags.items():
            if flag[:-1] not in flags:
                yield pytest.param(command, flag, action.nargs == 0,
                                   id=f"{command}-{flag[:-1]}")


class TestInputGate:
    # A valid run of each command, and a value each flag takes in it: cut
    # short, a flag with its value would otherwise stand for the full one.
    BASE = {"certify": ["--problem", "{toy}"],
            "validate": ["--problem", "{toy}", "--partition", "{part}", "--samples", "10"],
            "sweep": ["--problem", "{toy}", "--primal-tols", "1e-6", "--eps-bars", "0"],
            "report": ["--metric", "cdf", "--problem", "{toy}"]}
    VALUES = {"--problem": "{toy}", "--partition": "{part}", "--out": "{out}",
              "--error-model": "{model}", "--metric": "cdf", "--primal-tols": "1e-6",
              "--eps-bars": "0", "--iter-limit": "15", "--workers": "1",
              "--samples": "10", "--seed": "0"}

    @pytest.mark.parametrize("command,flag,bare", list(_cut_flags()))
    def test_abbreviated_flag_exits_2(self, toy_path, toy_partition, tmp_path, capsys,
                                      command, flag, bare):
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"kind": "hypercube", "bound": 0.0}))
        out = tmp_path / "out.json"
        cut = [flag[:-1]] if bare else [flag[:-1], self.VALUES.get(flag, "0")]
        argv = [command, *self.BASE[command], "--out", "{out}", *cut]
        argv = [a.format(toy=toy_path, part=toy_partition, out=out, model=model)
                for a in argv]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert f"unrecognized arguments: {flag[:-1]}" in captured.err
        assert captured.out == "" and not out.exists()

    def test_eps_bar_is_not_eps_bars(self, toy_path, tmp_path, capsys):
        # Read as --eps-bars, the grid held only 0.05 and sweep exited 0.
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--problem", toy_path, "--primal-tols", "1e-6",
                     "--eps-bars", "0", "--eps-bar", "0.05", "--out", str(out)]) == 2
        assert "unrecognized arguments: --eps-bar 0.05" in capsys.readouterr().err
        assert not out.exists()

    def test_prob_is_not_problem(self, toy_path, capsys):
        assert main(["certify", "--prob", toy_path]) == 2
        captured = capsys.readouterr()
        assert "the following arguments are required: --problem" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("argv,what", [
        (["validate", "--problem", "{toy}", "--partition", "{bad}"], "partition"),
        (["report", "--metric", "cdf", "--partition", "{bad}"], "partition"),
        (["certify", "--problem", "{bad}"], "problem"),
        (["certify", "--problem", "{toy}", "--error-model", "{bad}"], "error-model"),
    ], ids=["validate-partition", "report-partition", "problem", "error-model"])
    def test_non_utf8_file_exits_2(self, toy_path, tmp_path, capsys, argv, what):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe{}")
        assert main([a.format(toy=toy_path, bad=bad) for a in argv]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: bad {what} document {bad}: ")
        assert "Traceback" not in captured.err and captured.out == ""

    @pytest.mark.parametrize("argv", [
        ["certify", "--problem", "{toy}"],
        ["sweep", "--problem", "{toy}", "--primal-tols", "1e-6", "--eps-bars", "0"],
        ["report", "--metric", "cdf", "--problem", "{toy}"],
        ["validate", "--problem", "{toy}", "--partition", "{part}", "--samples", "10"],
    ], ids=["certify", "sweep", "report", "validate"])
    def test_unwritable_out_exits_2(self, toy_path, toy_partition, tmp_path, capsys, argv):
        out = tmp_path / "missing" / "x.json"
        argv = [a.format(toy=toy_path, part=toy_partition) for a in argv]
        assert main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: cannot write {out}: No such file or directory\n"


class TestLogging:
    def test_bad_level_rejected(self, toy_path, monkeypatch, capsys):
        monkeypatch.setenv("CERTIAS_LOG", "chatty")
        assert main(["certify", "--problem", toy_path]) == 2
        assert "CERTIAS_LOG" in capsys.readouterr().err

    def test_debug_level_accepted(self, toy_path, monkeypatch, capsys):
        monkeypatch.setenv("CERTIAS_LOG", "debug")
        assert main(["certify", "--problem", toy_path]) == 0
        json.loads(capsys.readouterr().out)


class TestModelDocuments:
    def _certify(self, toy_path, tmp_path, *flags):
        out = tmp_path / "part.json"
        assert main(["certify", "--problem", toy_path, *flags,
                     "--out", str(out)]) == 0
        return json.loads(out.read_text())

    def _model_file(self, tmp_path, doc, name="model.json"):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    def test_round_trip(self, tmp_path):
        # A model file holding a model's document loads back as that model.
        box = geometry.Polyhedron.box([-0.1, -0.2], [0.1, 0.2])
        models = [
            ErrorModel(),
            ErrorModel(kind="hypercube", bound=1e-4),
            ErrorModel(kind="relative", rel_bound=0.01),
            ErrorModel(kind="hypercube", bound=0.5, perturb_dual=True,
                       schedule=(ErrorModel(kind="hypercube", bound=0.1),
                                 ErrorModel())),
        ]
        for model in models:
            path = self._model_file(tmp_path, model.to_document())
            cfg = RunConfig(command="certify", error_model_path=path)
            assert build_model(cfg) == model
        # A polyhedral set is written in full only in model files.
        path = self._model_file(tmp_path, {"kind": "polyhedral",
                                           "set": box.to_document()})
        back = build_model(RunConfig(command="certify", error_model_path=path))
        assert back.kind == "polyhedral"
        assert np.array_equal(back.set.A, box.A)
        assert np.array_equal(back.set.b, box.b)

    def test_polyhedral_model_certifies(self, toy_path, tmp_path):
        model_path = self._model_file(tmp_path, {
            "kind": "polyhedral",
            "set": {"A": [[1.0], [-1.0]], "b": [0.05, 0.05]}})
        doc = self._certify(toy_path, tmp_path, "--error-model", model_path)
        assert len(doc["regions"]) > 2

    def test_bound_key_is_read(self, toy_path, tmp_path):
        # The spelling settings.error_model uses; it once certified exact
        # arithmetic (2 regions) without a word.
        model_path = self._model_file(tmp_path,
                                      {"kind": "hypercube", "bound": 0.1})
        doc = self._certify(toy_path, tmp_path, "--error-model", model_path)
        assert len(doc["regions"]) == 45
        assert doc["settings"]["error_model"] == {"kind": "hypercube",
                                                  "bound": 0.1}

    @pytest.mark.parametrize("model", [
        {"kind": "hypercube", "epsbar": 0.1},
        {"kind": "hypercube"},
        {"kind": "hypercube", "bound": 1e-4, "perturb_dual": "false"},
        {"kind": "hypercube", "bound": True},
    ], ids=["misspelled-key", "no-bound", "string-perturb-dual", "bool-bound"])
    def test_bad_model_file_exits_2(self, toy_path, tmp_path, capsys, model):
        model_path = self._model_file(tmp_path, model)
        assert main(["certify", "--problem", toy_path,
                     "--error-model", model_path]) == 2
        assert "bad error-model document" in capsys.readouterr().err

    @pytest.mark.parametrize("model", [
        {"kind": "polyhedral",
         "set": {"A": [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
                 "b": [1e-4] * 4}},
        {"kind": "hypercube", "bound": 1e-4,
         "schedule": [{}, {}, {"kind": "polyhedral",
                               "set": {"A": [[1.0], [-1.0]], "b": [1e-4] * 2}}]},
    ], ids=["base-set", "schedule-entry"])
    def test_wrong_dimension_set_exits_2(self, mpc_path, tmp_path, capsys, model):
        # The double integrator has 6 constraints, so every set must be 6-D.
        model_path = self._model_file(tmp_path, model)
        assert main(["certify", "--problem", mpc_path,
                     "--error-model", model_path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad error-model document")
        assert "dimension" in err and "Traceback" not in err

    @pytest.mark.parametrize("flags", [
        ("--eps-bar", "1e-4"),
        ("--rel-bound", "1e-3"),
        ("--error-model", {"kind": "hypercube", "eps_bar": 0.01,
                           "perturb_dual": True,
                           "schedule": [{"kind": "hypercube", "eps_bar": 0.05},
                                        {"kind": "none"}]}),
    ], ids=["eps-bar", "rel-bound", "scheduled-perturb-dual"])
    def test_settings_model_round_trips(self, toy_path, tmp_path, flags):
        flag, value = flags
        if isinstance(value, dict):
            value = self._model_file(tmp_path, value, "given.json")
        first = self._certify(toy_path, tmp_path, flag, value)
        model_path = self._model_file(tmp_path,
                                      first["settings"]["error_model"])
        again = self._certify(toy_path, tmp_path, "--error-model", model_path)
        for key in ("regions", "settings", "stats"):
            assert again[key] == first[key]
