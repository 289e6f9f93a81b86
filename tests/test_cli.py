"""End-to-end command-line behavior (run in-process through main)."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polykit import cli, dataset, fitcore, polyterms, stepwise
from polykit import mlp as m
from polykit.cli import EXIT_BUDGET, EXIT_DATA, EXIT_MODEL, EXIT_OK, EXIT_USAGE, main
from polykit.synthdata import linear_response, quadratic_response


def write_csv(path, X, y, names=("u", "v"), yname="y", fmt="{:.10g}"):
    lines = [",".join(list(names) + [yname])]
    for row, target in zip(X, y):
        cells = [fmt.format(v) for v in row] + [fmt.format(target)]
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


#: A valid 3-2-1 network: tanh hidden layer, linear output.
WEIGHTS_TEXT = """polykit-mlp 1
input_width 3
output_kind linear
dense 3 2 tanh
0.1 0.2 0.3 0.4 0.5 0.6
0 0
dense 2 1 identity
1 -1
0
"""


@pytest.fixture()
def single_level_csv(tmp_path):
    """Its one feature is a categorical with a single level: no design columns."""
    path = tmp_path / "one.csv"
    path.write_text("c,y\n" + "".join(f"a,{i}\n" for i in range(30)), encoding="utf-8")
    return path


@pytest.fixture()
def blank_header_csv(tmp_path):
    """Its first line, the header row, is blank."""
    path = tmp_path / "blank.csv"
    path.write_text("\n1,2\n3,4\n", encoding="utf-8")
    return path


def assert_blank_header_named(capsys):
    err = capsys.readouterr().err
    assert "error:" in err and "header row" in err and "Traceback" not in err


@pytest.fixture()
def quad_csv(tmp_path):
    X, y = quadratic_response(600, seed=1)
    return write_csv(tmp_path / "quad.csv", X, y)


class TestFit:
    def test_fit_writes_model_and_results(self, tmp_path, quad_csv, capsys):
        results = tmp_path / "results.csv"
        rc = main([
            "fit", "--data", str(quad_csv), "--degree", "2", "--seed", "3",
            "--out-dir", str(tmp_path / "out"), "--results", str(results),
        ])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "mape=" in out
        assert (tmp_path / "out" / "model.json").exists()
        lines = results.read_text().splitlines()
        assert lines[0] == "setting,dataset,seed,metric,value"
        assert lines[1].startswith("pr-d2,quad,3,mape,")

    def test_rerun_same_seed_identical_row(self, tmp_path, quad_csv):
        args = [
            "fit", "--data", str(quad_csv), "--degree", "2", "--seed", "5",
            "--out-dir", str(tmp_path / "out"),
        ]
        r1 = tmp_path / "r1.csv"
        r2 = tmp_path / "r2.csv"
        assert main(args + ["--results", str(r1)]) == EXIT_OK
        assert main(args + ["--results", str(r2)]) == EXIT_OK
        assert r1.read_bytes() == r2.read_bytes()

    def test_degree_two_beats_degree_one_on_quadratic_data(self, tmp_path, quad_csv, capsys):
        values = {}
        for degree in (1, 2):
            rc = main([
                "fit", "--data", str(quad_csv), "--degree", str(degree),
                "--seed", "0", "--out-dir", str(tmp_path / f"d{degree}"),
            ])
            assert rc == EXIT_OK
            out = capsys.readouterr().out
            line = next(l for l in out.splitlines() if l.startswith("mape="))
            values[degree] = float(line.split("=", 1)[1])
        assert values[2] < values[1]

    @pytest.mark.parametrize("extra, rc", [([], EXIT_BUDGET), (["--fsr"], EXIT_BUDGET),
                                           (["--keep-fraction", "0.5"], EXIT_OK)],
                             ids=["full", "fsr", "thinned-within-budget"])
    def test_over_budget_fit_builds_no_terms(self, tmp_path, capsys, monkeypatch, extra, rc):
        # 40 training rows x 55 degree-3 terms of 5 columns is 2,200 cells: over
        # a budget lowered to 1,200, which the 28 terms kept at 0.5 stay within
        built = []
        enumerate_terms = polyterms.enumerate_terms
        monkeypatch.setattr(polyterms, "enumerate_terms",
                            lambda *a: built.append(a) or enumerate_terms(*a))
        monkeypatch.setattr(polyterms, "CELL_BUDGET", 1_200)
        X = np.random.default_rng(0).normal(size=(50, 5))
        path = write_csv(tmp_path / "wide.csv", X, X @ np.arange(5.0), names="abcde")
        assert main(["fit", "--data", str(path), "--degree", "3", *extra,
                     "--out-dir", str(tmp_path / "out")]) == rc
        err = capsys.readouterr().err
        if rc == EXIT_BUDGET:
            assert built == []
            assert "error: expansion needs 2200 cells (> budget 1200)" in err
        else:
            assert len(built) == 1 and "error:" not in err

    def test_fsr_writes_trace(self, tmp_path, quad_csv):
        out_dir = tmp_path / "out"
        rc = main([
            "fit", "--data", str(quad_csv), "--degree", "2", "--fsr",
            "--improvement-tolerance", "0.01", "--seed", "0",
            "--out-dir", str(out_dir),
        ])
        assert rc == EXIT_OK
        trace = (out_dir / "fsr_trace.csv").read_text().splitlines()
        assert trace[0] == "step,term,validation_score,fits_evaluated,selected"
        assert len(trace) >= 2

    def test_ridge_requires_lambda_consistency(self, tmp_path, quad_csv, capsys):
        rc = main([
            "fit", "--data", str(quad_csv), "--method", "ridge",
            "--out-dir", str(tmp_path),
        ])
        assert rc == EXIT_USAGE
        rc = main([
            "fit", "--data", str(quad_csv), "--ridge-lambda", "1.0",
            "--out-dir", str(tmp_path),
        ])
        assert rc == EXIT_USAGE

    @pytest.mark.parametrize("extra, message", [
        (["--interact", "3"], "--interact 3 exceeds --degree 2"),
        (["--ridge-lambda", "1"], "--ridge-lambda must be given exactly"),
        (["--fsr", "--pca", "0.9"], "--fsr and --pca cannot be combined"),
        (["--fsr", "--method", "ridge", "--ridge-lambda", "1"], "--fsr and --method ridge"),
    ], ids=["interact-above-degree", "lambda-without-ridge", "fsr-pca", "fsr-ridge"])
    def test_cross_option_rule_is_a_usage_error(self, tmp_path, quad_csv, capsys,
                                                extra, message):
        rc = main(["fit", "--data", str(quad_csv), "--out-dir", str(tmp_path), *extra])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"polykit fit: error: {message}" in err and "Traceback" not in err

    @pytest.mark.parametrize("extra", [["--classify", "--method", "ols"],
                                       ["--method", "logistic"]])
    def test_response_kind_rule_is_a_data_error(self, tmp_path, quad_csv, extra):
        rc = main(["fit", "--data", str(quad_csv), "--out-dir", str(tmp_path), *extra])
        assert rc == EXIT_DATA

    @pytest.mark.parametrize("option", ["--data", "--schema"])
    def test_non_utf8_input_is_a_data_error(self, tmp_path, quad_csv, capsys, option):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"u = numeric\xff\n")  # the last --data wins
        rc = main(["fit", "--data", str(quad_csv), option, str(bad), "--out-dir", str(tmp_path)])
        assert rc == EXIT_DATA
        err = capsys.readouterr().err
        assert "bad.txt" in err and "Traceback" not in err

    @pytest.mark.parametrize("extra", [[], ["--pca", "0.9"]], ids=["plain", "pca"])
    def test_zero_width_design_is_a_data_error(self, tmp_path, single_level_csv, capsys,
                                                extra):
        rc = main(["fit", "--data", str(single_level_csv), "--out-dir", str(tmp_path), *extra])
        assert rc == EXIT_DATA
        err = capsys.readouterr().err
        assert "no columns" in err and "['c']" in err and "Traceback" not in err

    def test_blank_first_line_is_a_data_error(self, tmp_path, blank_header_csv, capsys):
        rc = main(["fit", "--data", str(blank_header_csv), "--out-dir", str(tmp_path / "out")])
        assert rc == EXIT_DATA
        assert_blank_header_named(capsys)

    def test_empty_test_split_is_named(self, tmp_path, capsys):
        path = write_csv(tmp_path / "three.csv", np.eye(3, 2), [3.0, 5.0, 1.0])
        rc = main(["fit", "--data", str(path), "--out-dir", str(tmp_path)])
        assert rc == EXIT_DATA
        err = capsys.readouterr().err
        assert "test split" in err and "at least 5 rows" in err

    def test_missing_data_file(self, tmp_path):
        rc = main(["fit", "--data", str(tmp_path / "none.csv")])
        assert rc == EXIT_DATA

    @pytest.mark.parametrize("extra, response", [
        (["--classify"], "1"),
        (["--method", "logistic"], "a"),
        (["--fsr", "--classify"], "1"),
    ], ids=["classify", "logistic", "fsr"])
    def test_single_class_response_is_a_data_error(self, tmp_path, capsys, extra, response):
        rows = "".join(f"{i % 7},{i % 5},{response}\n" for i in range(40))
        path = tmp_path / "one-class.csv"
        path.write_text("u,v,y\n" + rows, encoding="utf-8")
        rc = main(["fit", "--data", str(path), *extra, "--out-dir", str(tmp_path / "out")])
        assert rc == EXIT_DATA
        err = capsys.readouterr().err
        assert "error: need at least two classes" in err and "Traceback" not in err

    def test_interaction_cap_limits_terms(self, tmp_path, quad_csv, capsys):
        from polykit.modelio import load_model

        rc = main([
            "fit", "--data", str(quad_csv), "--degree", "3", "--interact", "2",
            "--seed", "0", "--out-dir", str(tmp_path / "out"),
        ])
        assert rc == EXIT_OK
        model = load_model(tmp_path / "out" / "model.json")
        # u^2*v style terms are excluded by the cap: every multi-column
        # monomial has total degree <= 2
        for mono in model.terms:
            if len(mono.powers) >= 2:
                assert mono.degree <= 2
        assert max(mono.degree for mono in model.terms) == 3

    def test_keep_fraction_thins_terms(self, tmp_path, quad_csv):
        from polykit.modelio import load_model

        rc = main([
            "fit", "--data", str(quad_csv), "--degree", "4", "--seed", "0",
            "--keep-fraction", "0.5", "--out-dir", str(tmp_path / "out"),
        ])
        assert rc == EXIT_OK
        model = load_model(tmp_path / "out" / "model.json")
        assert len(model.terms) == 7  # ceil(0.5 * 14) for p=2, d=4
        linear = [mono for mono in model.terms if mono.degree == 1]
        assert len(linear) == 2

    def test_pca_fit_runs(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(400, 5))
        y = X[:, 0] - X[:, 1] + rng.normal(0, 0.1, 400)
        path = write_csv(tmp_path / "d.csv", X, y, names=tuple(f"x{i}" for i in range(5)))
        rc = main([
            "fit", "--data", str(path), "--degree", "2", "--pca", "0.99",
            "--out-dir", str(tmp_path / "out"),
        ])
        assert rc == EXIT_OK

    def test_classification_fit(self, tmp_path, capsys):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(300, 2))
        labels = (X[:, 0] > 0).astype(int)
        path = write_csv(tmp_path / "c.csv", X, labels)
        rc = main([
            "fit", "--data", str(path), "--classify", "--degree", "1",
            "--seed", "0", "--out-dir", str(tmp_path / "out"),
        ])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        pcc = float(next(l for l in out.splitlines() if l.startswith("pcc=")).split("=")[1])
        assert pcc > 0.9

    @staticmethod
    def _one_level_csv(tmp_path):
        """60 rows: a numeric u, a single-level k, a three-level w, response y."""
        rng = np.random.default_rng(7)
        u, w = rng.uniform(-1, 1, 60), rng.choice(["east", "north", "west"], 60)
        y = 1 + u + (w == "west") + 0.1 * rng.normal(size=60)
        path = tmp_path / "one-level.csv"
        path.write_text("u,k,w,y\n" + "".join(f"{a:.6f},only,{c},{d:.6f}\n"
                                              for a, c, d in zip(u, w, y)), encoding="utf-8")
        return path

    @pytest.mark.parametrize("command", [["fit"], ["fit", "--fsr"], ["predict"]],
                             ids=["fit", "fsr", "predict"])
    def test_a_single_level_column_warns_once(self, tmp_path, capsys, command):
        # each command encodes its table once, so it warns once
        data = self._one_level_csv(tmp_path)
        assert main(["fit", "--data", str(data), "--out-dir", str(tmp_path / "out")]) == EXIT_OK
        capsys.readouterr()
        if command == ["predict"]:
            args = ["predict", "--model", str(tmp_path / "out" / "model.json"),
                    "--data", str(data), "--out", str(tmp_path / "preds.csv")]
        else:
            args = [*command, "--data", str(data), "--out-dir", str(tmp_path / "again")]
        assert main(args) == EXIT_OK
        lines = capsys.readouterr().err.splitlines()
        assert lines == ["warning: categorical column 'k' has a single level;"
                         " contributes no columns", "1 warning(s)"]

    @pytest.mark.parametrize("extra", [[], ["--fsr"]], ids=["fit", "fsr"])
    def test_fit_encodes_the_table_once(self, tmp_path, monkeypatch, extra):
        encode, calls = dataset.encode_design, []
        for module in (cli, stepwise):
            monkeypatch.setattr(module, "encode_design",
                                lambda *a: calls.append(len(a)) or encode(*a))
        data = self._one_level_csv(tmp_path)
        assert main(["fit", "--data", str(data), *extra,
                     "--out-dir", str(tmp_path / "out")]) == EXIT_OK
        assert calls == [1]  # the whole table against its own schema


    @staticmethod
    def _blobs_csv(tmp_path):
        """90 rows of three unit-variance blobs 4 apart, the CI script's CSV."""
        X = np.random.default_rng(0).normal(size=(90, 2))
        y = np.repeat([0, 1, 2], 30)
        X[:, 0] += 4 * y
        return write_csv(tmp_path / "blobs.csv", X, y)

    def test_separated_blobs_classified_without_warnings(self, tmp_path, capsys):
        rc = main(["fit", "--data", str(self._blobs_csv(tmp_path)), "--classify",
                   "--degree", "2", "--out-dir", str(tmp_path / "out")])
        assert rc == EXIT_OK
        out, err = capsys.readouterr()
        pcc = float(next(l for l in out.splitlines() if l.startswith("pcc=")).split("=")[1])
        assert pcc >= 0.95
        assert "warning" not in err

    @pytest.mark.parametrize("command, extra, out_flag, written", [
        ("fit", [], "--out-dir", "model.json"),
        ("vif-probe", ["--widths", "4,3", "--epochs", "1"], "--csv", "probe.csv"),
    ])
    def test_classify_reads_the_csv_once(self, tmp_path, monkeypatch, command, extra,
                                         out_flag, written):
        data = self._blobs_csv(tmp_path)
        sidecar = tmp_path / "schema.txt"
        sidecar.write_text("y = response_class\n", encoding="utf-8")
        read_table, reads = dataset._read_table, []
        monkeypatch.setattr(dataset, "_read_table",
                            lambda path: reads.append(path) or read_table(path))
        outputs = []
        for how in (["--classify"], ["--schema", str(sidecar)]):
            out = tmp_path / how[0].lstrip("-")
            out.mkdir()
            target = out if command == "fit" else out / written
            assert main([command, "--data", str(data), *how, *extra,
                         out_flag, str(target)]) == EXIT_OK
            outputs.append((out / written).read_bytes())
        assert reads == [str(data)] * 2  # one read per run
        # --classify types the numeric response as the class hint does
        assert outputs[0] == outputs[1]

    def test_classify_overrides_a_numeric_response_hint(self, tmp_path):
        data = tmp_path / "labels.csv"
        data.write_text("u,y\n" + "".join(f"{i},{'ab'[i % 2]}\n" for i in range(20)),
                        encoding="utf-8")
        sidecar = tmp_path / "schema.txt"
        sidecar.write_text("y = response_numeric\n", encoding="utf-8")
        args = ["fit", "--data", str(data), "--schema", str(sidecar), "--degree", "1",
                "--out-dir", str(tmp_path / "out")]
        assert main(args) == EXIT_DATA
        assert main(args + ["--classify"]) == EXIT_OK
        model = json.loads((tmp_path / "out" / "model.json").read_text())
        assert model["classes"] == ["a", "b"]

    @pytest.mark.parametrize("tol, warned", [("1e-8", True), ("1e9", False)])
    def test_fsr_uses_max_iter_and_tol(self, tmp_path, capsys, tol, warned):
        rc = main(["fit", "--data", str(self._blobs_csv(tmp_path)), "--classify", "--fsr",
                   "--max-iter", "1", "--tol", tol, "--out-dir", str(tmp_path / "out")])
        assert rc == EXIT_OK
        err = capsys.readouterr().err
        assert ("did not converge within 1 Newton iterations" in err) == warned
        assert "within 25" not in err

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_max_iter_below_one_is_a_usage_error(self, tmp_path, capsys, value):
        rc = main(["fit", "--data", str(self._blobs_csv(tmp_path)), "--classify",
                   "--max-iter", value, "--out-dir", str(tmp_path / "out")])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert "argument --max-iter:" in err and "Traceback" not in err

    USAGE_MESSAGES = {
        "--tol": "argument --tol:",
        "--improvement-tolerance": "argument --improvement-tolerance:",
        "--pca": "argument --pca:",
    }

    @pytest.mark.parametrize("flag, value", [
        ("--tol", "-1"), ("--tol", "nan"),
        ("--improvement-tolerance", "-1"), ("--improvement-tolerance", "nan"),
        ("--pca", "1.5"), ("--pca", "0"), ("--pca", "-0.5"), ("--pca", "nan"),
    ])
    def test_out_of_range_option_is_a_usage_error(self, tmp_path, capsys, flag, value):
        fsr = ["--fsr"] if flag == "--improvement-tolerance" else []
        rc = main(["fit", "--data", str(self._blobs_csv(tmp_path)), "--classify", *fsr,
                   flag, value, "--out-dir", str(tmp_path / "out")])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"error: {self.USAGE_MESSAGES[flag]}" in err and "Traceback" not in err


class TestPredict:
    def _fit(self, tmp_path, csv_path, extra=()):
        out_dir = tmp_path / "fitout"
        rc = main([
            "fit", "--data", str(csv_path), "--degree", "2", "--seed", "0",
            "--out-dir", str(out_dir), *extra,
        ])
        assert rc == EXIT_OK
        return out_dir / "model.json"

    def test_predictions_on_training_file(self, tmp_path, quad_csv, capsys):
        model = self._fit(tmp_path, quad_csv)
        out = tmp_path / "preds.csv"
        rc = main(["predict", "--model", str(model), "--data", str(quad_csv),
                   "--out", str(out)])
        assert rc == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "prediction"
        assert len(lines) == 601

    def test_table_over_the_cell_budget_is_scored(self, tmp_path, quad_csv, monkeypatch):
        model = self._fit(tmp_path, quad_csv)  # 5 terms
        args = ["predict", "--model", str(model), "--data", str(quad_csv), "--out"]
        assert main(args + [str(tmp_path / "whole.csv")]) == EXIT_OK
        # 600 rows x 5 terms is 3,000 cells: over a budget lowered to 1,000,
        # which each 100-row block of 500 cells stays within
        monkeypatch.setattr(polyterms, "CELL_BUDGET", 1_000)
        monkeypatch.setattr(fitcore, "PREDICT_BLOCK_CELLS", 500)
        assert main(args + [str(tmp_path / "blocked.csv")]) == EXIT_OK
        whole, blocked = ((tmp_path / name).read_text().splitlines()
                          for name in ("whole.csv", "blocked.csv"))
        assert blocked[0] == "prediction" and len(blocked) == len(whole) == 601
        want = np.array(whole[1:], dtype=float)
        np.testing.assert_allclose(np.array(blocked[1:], dtype=float), want,
                                   rtol=0, atol=1e-13 * np.abs(want).max())

    def test_empty_input_gives_empty_output(self, tmp_path, quad_csv, capsys):
        model = self._fit(tmp_path, quad_csv)
        empty = tmp_path / "empty.csv"
        empty.write_text("u,v\n", encoding="utf-8")
        out = tmp_path / "preds.csv"
        rc = main(["predict", "--model", str(model), "--data", str(empty),
                   "--out", str(out)])
        assert rc == EXIT_OK
        assert out.read_text() == "prediction\n"
        assert "warning" in capsys.readouterr().err

    def test_unseen_level_warns_but_predicts(self, tmp_path, capsys):
        rows = ["u,c,y"] + [f"{i},{'ab'[i % 2]},{i * 2}" for i in range(40)]
        train = tmp_path / "t.csv"
        train.write_text("\n".join(rows) + "\n", encoding="utf-8")
        model = self._fit(tmp_path, train)
        new = tmp_path / "new.csv"
        new.write_text("u,c\n5,z\n", encoding="utf-8")
        out = tmp_path / "p.csv"
        rc = main(["predict", "--model", str(model), "--data", str(new),
                   "--out", str(out)])
        assert rc == EXIT_OK
        err = capsys.readouterr().err
        assert "outside the schema" in err
        assert len(out.read_text().splitlines()) == 2

    def test_blank_first_line_is_a_data_error(self, tmp_path, quad_csv, blank_header_csv,
                                              capsys):
        model = self._fit(tmp_path, quad_csv)
        capsys.readouterr()
        rc = main(["predict", "--model", str(model), "--data", str(blank_header_csv),
                   "--out", str(tmp_path / "preds.csv")])
        assert rc == EXIT_DATA
        assert_blank_header_named(capsys)

    def test_bad_model_container(self, tmp_path, quad_csv):
        bad = tmp_path / "bad.json"
        bad.write_text("{}", encoding="utf-8")
        rc = main(["predict", "--model", str(bad), "--data", str(quad_csv)])
        assert rc == EXIT_MODEL

    def test_non_utf8_model_container(self, tmp_path, quad_csv, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"format": "\xff"}')
        rc = main(["predict", "--model", str(bad), "--data", str(quad_csv)])
        assert rc == EXIT_MODEL
        err = capsys.readouterr().err
        assert "cannot read model file" in err and "Traceback" not in err

    @pytest.mark.parametrize("mutate", [
        lambda obj: [obj],
        lambda obj: {k: v for k, v in obj.items() if k != "coef"},
        lambda obj: dict(obj, coef=obj["coef"][:-1]),
    ], ids=["top-level-list", "missing-key", "coef-term-mismatch"])
    def test_malformed_container(self, tmp_path, quad_csv, capsys, mutate):
        model = self._fit(tmp_path, quad_csv)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(mutate(json.loads(model.read_text()))), encoding="utf-8")
        rc = main(["predict", "--model", str(bad), "--data", str(quad_csv)])
        assert rc == EXIT_MODEL
        assert "Traceback" not in capsys.readouterr().err


class TestVifProbe:
    def test_trained_probe_table(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(400, 6))
        y = X[:, 0] + rng.normal(0, 0.1, 400)
        path = write_csv(tmp_path / "d.csv", X, y, names=tuple(f"x{i}" for i in range(6)))
        rc = main([
            "vif-probe", "--data", str(path), "--widths", "4,4,1",
            "--dropout", "0.3,0.0", "--epochs", "2", "--seed", "1",
            "--csv", str(tmp_path / "vif.csv"),
        ])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "dense_1" in out and "dropout_1" in out and "dense_3" in out
        body = (tmp_path / "vif.csv").read_text().splitlines()
        assert body[0].startswith("layer,")
        assert len(body) == 5  # 3 dense + 1 dropout + header

    def test_width_one_layer_marked_undefined(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(100, 3))
        y = X[:, 0]
        path = write_csv(tmp_path / "d.csv", X, y, names=("a", "b", "c"))
        rc = main([
            "vif-probe", "--data", str(path), "--widths", "1,1",
            "--epochs", "1", "--seed", "0",
        ])
        assert rc == EXIT_OK
        assert "undefined" in capsys.readouterr().out

    def test_zero_width_design_is_a_data_error(self, single_level_csv, capsys):
        rc = main(["vif-probe", "--data", str(single_level_csv), "--widths", "5,1"])
        assert rc == EXIT_DATA
        err = capsys.readouterr().err
        assert "no columns" in err and "['c']" in err and "Traceback" not in err

    def test_blank_first_line_is_a_data_error(self, blank_header_csv, capsys):
        rc = main(["vif-probe", "--data", str(blank_header_csv), "--widths", "5,1"])
        assert rc == EXIT_DATA
        assert_blank_header_named(capsys)

    def test_imported_weights(self, tmp_path, capsys):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(120, 3))
        y = X[:, 0]
        data = write_csv(tmp_path / "d.csv", X, y, names=("a", "b", "c"))
        net = m.build_mlp(3, m.MLPConfig((4, 2), ("tanh",), seed=0))
        wpath = tmp_path / "w.txt"
        m.save_weights(net, wpath)
        rc = main(["vif-probe", "--data", str(data), "--weights", str(wpath)])
        assert rc == EXIT_OK
        assert "dense_2" in capsys.readouterr().out

    def test_non_utf8_weights_container(self, tmp_path, capsys):
        data = write_csv(tmp_path / "d.csv", np.eye(3), np.zeros(3), names=("a", "b", "c"))
        wpath = tmp_path / "w.txt"
        wpath.write_bytes(WEIGHTS_TEXT.encode("utf-8").replace(b"0.6", b"\xff"))
        rc = main(["vif-probe", "--data", str(data), "--weights", str(wpath)])
        assert rc == EXIT_MODEL
        err = capsys.readouterr().err
        assert "cannot read weights file" in err and "Traceback" not in err

    @pytest.mark.parametrize("extra", [
        ["--widths", "3,3", "--activations", "relu,relu"],
        ["--widths", "4,1", "--dropout", "0.1,0.2"],
    ], ids=["activations", "dropout"])
    def test_list_not_covering_hidden_layers_is_a_usage_error(self, tmp_path, capsys, extra):
        data = write_csv(tmp_path / "d.csv", np.eye(3), np.zeros(3), names=("a", "b", "c"))
        assert main(["vif-probe", "--data", str(data), *extra]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "polykit vif-probe: error:" in err and "one entry per hidden layer" in err

    def test_output_width_must_match_response(self, tmp_path, capsys):
        data = write_csv(tmp_path / "d.csv", np.eye(3), np.zeros(3), names=("a", "b", "c"))
        assert main(["vif-probe", "--data", str(data), "--widths", "4,2"]) == EXIT_DATA
        assert "output width 2" in capsys.readouterr().err

    def test_default_widths_follow_the_response(self, tmp_path, capsys):
        # without --widths: hidden widths 10,10 and an output layer as wide as
        # the response, 3 classes here (the old default 10,10,10 exited 3)
        rc = main(["vif-probe", "--data", str(TestFit._blobs_csv(tmp_path)), "--classify",
                   "--epochs", "1"])
        assert rc == EXIT_OK
        rows = capsys.readouterr().out.splitlines()
        assert [r.split()[0] for r in rows[1:]] == ["dense_1", "dense_2", "dense_3"]
        X = np.random.default_rng(3).normal(size=(40, 2))
        data = write_csv(tmp_path / "num.csv", X, X[:, 0] - X[:, 1])
        assert main(["vif-probe", "--data", str(data), "--epochs", "1",
                     "--activations", "tanh,tanh"]) == EXIT_OK
        assert capsys.readouterr().out.splitlines()[-1].split()[1:] == ["undefined"] * 2

    def test_weights_width_must_match_design(self, tmp_path, capsys):
        data = write_csv(tmp_path / "d.csv", np.eye(4), np.zeros(4), names=("a", "b", "c", "d"))
        wpath = tmp_path / "w.txt"
        m.save_weights(m.build_mlp(3, m.MLPConfig((4, 2), ("tanh",), seed=0)), wpath)
        rc = main(["vif-probe", "--data", str(data), "--weights", str(wpath)])
        assert rc == EXIT_DATA
        err = capsys.readouterr().err
        assert "input width 3" in err and "design width 4" in err

    def test_version_one_weights_still_load(self, tmp_path, capsys):
        data = write_csv(tmp_path / "d.csv", np.eye(3), np.zeros(3), names=("a", "b", "c"))
        wpath = tmp_path / "w.txt"
        wpath.write_text(WEIGHTS_TEXT, encoding="utf-8")
        assert main(["vif-probe", "--data", str(data), "--weights", str(wpath)]) == EXIT_OK
        assert "dense_2" in capsys.readouterr().out

    def test_linear_network_cut_at_a_layer_boundary(self, tmp_path, capsys):
        data = write_csv(tmp_path / "d.csv", np.eye(3), np.zeros(3), names=("a", "b", "c"))
        net = m.build_mlp(3, m.MLPConfig((4, 2, 1), ("tanh", "relu"), (0.25, 0.0), seed=0))
        wpath = tmp_path / "w.txt"
        m.save_weights(net, wpath)
        lines = wpath.read_text(encoding="utf-8").splitlines()
        assert lines[3] == "layers 4"
        starts = [i for i, line in enumerate(lines) if line.startswith(("dense", "dropout"))]
        assert len(starts) == 4
        for cut in starts:
            wpath.write_text("\n".join(lines[:cut]) + "\n", encoding="utf-8")
            rc = main(["vif-probe", "--data", str(data), "--weights", str(wpath)])
            assert rc == EXIT_MODEL, f"cut before line {cut}"
        assert capsys.readouterr().err.count("header says 4") == len(starts)

    @pytest.mark.parametrize("old, new", [
        ("dense 3 2 tanh", "dense 3 2 swish"),
        ("dense 2 1 identity", "dense 2 1 swish"),
        ("output_kind linear", "output_kind ordinal"),
        ("dense 3 2 tanh\n0.1 0.2 0.3 0.4 0.5 0.6\n0 0\ndense 2 1 identity\n1 -1\n0",
         "dropout 0.5"),
        ("dense 2 1 identity\n1 -1", "dense 3 1 identity\n1 -1 0.5"),
    ], ids=["hidden-activation", "output-activation", "output-kind", "no-dense-layer",
            "fan-in-mismatch"])
    def test_bad_weights_container(self, tmp_path, capsys, old, new):
        data = write_csv(tmp_path / "d.csv", np.eye(3), np.zeros(3), names=("a", "b", "c"))
        assert old in WEIGHTS_TEXT
        wpath = tmp_path / "w.txt"
        wpath.write_text(WEIGHTS_TEXT.replace(old, new), encoding="utf-8")
        rc = main(["vif-probe", "--data", str(data), "--weights", str(wpath)])
        assert rc == EXIT_MODEL
        assert "Traceback" not in capsys.readouterr().err


class TestEquivDemo:
    def test_default_two_square_layers(self, capsys):
        rc = main(["equiv-demo", "--seed", "0"])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "layer degrees: 2 4" in out
        deviation = float(out.split("max relative deviation:")[1].split()[0])
        assert deviation <= 1e-8

    def test_three_layers(self, capsys):
        rc = main(["equiv-demo", "--layers", "3", "--seed", "1"])
        assert rc == EXIT_OK
        assert "layer degrees: 2 4 8" in capsys.readouterr().out

    def test_identity_demo(self, capsys):
        rc = main(["equiv-demo", "--activation", "identity", "--layers", "3"])
        assert rc == EXIT_OK
        assert "layer degrees: 1 1 1" in capsys.readouterr().out

    @pytest.mark.parametrize("option", ["--inputs", "--layers", "--units", "--points"])
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_non_positive_size_is_a_usage_error(self, capsys, option, value):
        rc = main(["equiv-demo", option, value])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"argument {option}:" in err and "Traceback" not in err


class TestConfigFile:
    def test_config_sets_defaults_and_flags_override(self, tmp_path, quad_csv, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"data = {quad_csv}\ndegree = 1\nout-dir = {tmp_path / 'out'}\n",
            encoding="utf-8",
        )
        rc = main(["fit", "--config", str(cfg)])
        assert rc == EXIT_OK
        assert "pr-d1" in capsys.readouterr().out
        rc = main(["fit", "--config", str(cfg), "--degree", "3"])
        assert rc == EXIT_OK
        assert "pr-d3" in capsys.readouterr().out

    def test_unknown_config_key(self, tmp_path, quad_csv):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("nonsense = 1\n", encoding="utf-8")
        rc = main(["fit", "--config", str(cfg), "--data", str(quad_csv)])
        assert rc == EXIT_USAGE

    @pytest.mark.parametrize("content", [b"degree\n", b"degree = \xff\n", None],
                             ids=["no-equals", "not-utf8", "absent"])
    def test_unreadable_config_is_a_usage_error(self, tmp_path, quad_csv, capsys, content):
        cfg = tmp_path / "run.cfg"
        if content is not None:
            cfg.write_bytes(content)
        assert main(["fit", "--config", str(cfg), "--data", str(quad_csv)]) == EXIT_USAGE
        assert "run.cfg" in capsys.readouterr().err

    def test_threads_key_is_not_an_option(self, tmp_path, quad_csv, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("threads = 2\n", encoding="utf-8")
        rc = main(["fit", "--config", str(cfg), "--data", str(quad_csv)])
        assert rc == EXIT_USAGE
        assert "unrecognized arguments: --threads=2" in capsys.readouterr().err


#: Each ranged option with the arguments it needs to take effect, and values
#: outside its range: below it, above it where it is bounded, NaN for a float.
OUT_OF_RANGE = {
    ("fit", "--degree", ()): ["0", "-1"],
    ("fit", "--interact", ()): ["0", "-1"],
    ("fit", "--min-models", ("--fsr",)): ["0"],
    ("fit", "--max-iter", ("--classify",)): ["0"],
    ("fit", "--seed", ()): ["-1"],
    ("fit", "--tol", ("--classify",)): ["-1", "nan"],
    ("fit", "--improvement-tolerance", ("--fsr",)): ["-1", "nan"],
    ("fit", "--pca", ()): ["0", "1.5", "nan"],
    ("fit", "--keep-fraction", ()): ["0", "2", "nan"],
    ("fit", "--validation-fraction", ("--fsr",)): ["0", "1", "1.5", "nan"],
    ("fit", "--ridge-lambda", ("--method", "ridge")): ["0", "-1", "inf", "nan"],
    ("vif-probe", "--widths", ()): ["0,1", "-1", ","],
    ("vif-probe", "--activations", ("--widths", "4,1")): ["cube", ","],
    ("vif-probe", "--dropout", ("--widths", "4,1")): ["-0.1", "1", "1.5", "nan", ","],
    ("vif-probe", "--epochs", ()): ["-1"],
    ("vif-probe", "--batch-size", ()): ["0"],
    ("vif-probe", "--probe-rows", ()): ["0"],
    ("vif-probe", "--learning-rate", ()): ["0", "-1", "inf", "nan"],
    ("vif-probe", "--seed", ()): ["-1"],
    ("equiv-demo", "--inputs", ()): ["0"],
    ("equiv-demo", "--layers", ()): ["0"],
    ("equiv-demo", "--units", ()): ["0"],
    ("equiv-demo", "--points", ()): ["0"],
    ("equiv-demo", "--seed", ()): ["-1"],
}


class TestOptionRanges:
    """Every option value is checked by the one parse, whether it comes as a
    flag or as a config line, and a bad one is a usage error (exit 2)."""

    @staticmethod
    def _run(tmp_path, command, extra, *, config=None):
        args = [command]
        if command != "equiv-demo":
            args += ["--data", str(TestFit._blobs_csv(tmp_path))]
        if config is not None:
            path = tmp_path / "run.cfg"
            path.write_text(config + "\n", encoding="utf-8")
            args += ["--config", str(path)]
        if command == "fit":
            args += ["--out-dir", str(tmp_path / "out")]
        return main(args + extra)

    @pytest.mark.parametrize("form", ["flag", "config"])
    @pytest.mark.parametrize("command, option, context, value", [
        (command, option, context, value)
        for (command, option, context), values in OUT_OF_RANGE.items() for value in values
    ])
    def test_out_of_range_value_is_a_usage_error(self, tmp_path, capsys, form,
                                                 command, option, context, value):
        if form == "flag":
            rc = self._run(tmp_path, command, [*context, f"{option}={value}"])
        else:
            rc = self._run(tmp_path, command, list(context), config=f"{option[2:]} = {value}")
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"argument {option}:" in err and "Traceback" not in err

    @pytest.mark.parametrize("command, line, option", [
        ("fit", "method = bogus", "--method"),
        ("equiv-demo", "activation = cube", "--activation"),
    ])
    def test_config_value_outside_choices_is_a_usage_error(self, tmp_path, capsys,
                                                           command, line, option):
        assert self._run(tmp_path, command, [], config=line) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"argument {option}: invalid choice" in err and "Traceback" not in err

    def test_abbreviated_option_is_not_an_option(self, tmp_path, capsys):
        assert self._run(tmp_path, "fit", [], config="deg = 3") == EXIT_USAGE
        assert "unrecognized arguments: --deg=3" in capsys.readouterr().err
        assert self._run(tmp_path, "fit", ["--deg", "3"]) == EXIT_USAGE
        assert "unrecognized arguments: --deg 3" in capsys.readouterr().err

    def test_data_from_config_only(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"data = {TestFit._blobs_csv(tmp_path)}\n"
                       f"out_dir = {tmp_path / 'out'}\n", encoding="utf-8")
        assert main(["fit", "--config", str(cfg)]) == EXIT_OK
        assert (tmp_path / "out" / "model.json").exists()
        assert main(["fit", "--out-dir", str(tmp_path / "out")]) == EXIT_USAGE
        assert "required: --data" in capsys.readouterr().err

    @pytest.mark.parametrize("value, rc", [
        ("yes", EXIT_OK), ("TRUE", EXIT_OK), ("0", EXIT_OK), ("maybe", EXIT_USAGE),
    ])
    def test_boolean_config_value(self, tmp_path, capsys, value, rc):
        assert self._run(tmp_path, "fit", [], config=f"classify = {value}") == rc
        out, err = capsys.readouterr()
        if rc == EXIT_OK:
            assert ("pcc=" in out) == (value != "0")
        else:
            assert "'classify' expects a boolean, got 'maybe'" in err

    @pytest.mark.parametrize("command, extra", [
        ("fit", ["--classify", "--pca", "1"]),
        ("fit", ["--keep-fraction", "1"]),
        ("fit", ["--classify", "--tol", "0", "--max-iter", "1"]),
        ("fit", ["--seed", "0"]),
        ("vif-probe", ["--widths", "4,1", "--epochs", "0"]),
    ])
    def test_boundary_value_runs(self, tmp_path, capsys, command, extra):
        assert self._run(tmp_path, command, extra) == EXIT_OK

    def test_help_returns_zero(self, capsys):
        assert main(["fit", "--help"]) == EXIT_OK
        assert "--keep-fraction" in capsys.readouterr().out


class TestLinearVsQuadratic:
    def test_degrees_close_on_linear_data(self, tmp_path, capsys):
        X, y = linear_response(2000, seed=0)
        path = write_csv(tmp_path / "lin.csv", X, y)
        values = {}
        for degree in (1, 2):
            rc = main([
                "fit", "--data", str(path), "--degree", str(degree),
                "--seed", "0", "--out-dir", str(tmp_path / f"d{degree}"),
            ])
            assert rc == EXIT_OK
            out = capsys.readouterr().out
            line = next(l for l in out.splitlines() if l.startswith("mape="))
            values[degree] = float(line.split("=", 1)[1])
        assert abs(values[2] - values[1]) / values[1] < 0.05
        # linear_response uses sigma = 0.5, so the irreducible MAE is
        # sigma * sqrt(2/pi); the degree-1 fit should sit close to it
        floor = 0.5 * np.sqrt(2 / np.pi)
        assert abs(values[1] - floor) / floor < 0.15


def json_paths(obj, prefix=()):
    """Every path (tuple of keys and indices) to a value inside a JSON tree."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from json_paths(value, prefix + (key,))


def other_type_values(value):
    return [v for v in (None, True, 1.5, "x", [], {}, [1.5]) if type(v) is not type(value)
            or (isinstance(v, list) and v != value)]


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """Saved model containers (OLS over a categorical column; logistic over
    PCA scores) and a weights file with dropout, with data each can read."""
    root = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(0)
    rows = ["u,c,y"] + [f"{u:.4f},{'abc'[i % 3]},{u * u + i % 3:.4f}"
                        for i, u in enumerate(rng.normal(size=60))]
    (root / "reg.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    X = rng.normal(size=(90, 4))
    write_csv(root / "cls.csv", X, (X[:, 0] > 0).astype(int), names=("a", "b", "c", "d"))
    models = {}
    for name, extra in (("reg", ()), ("cls", ("--classify", "--pca", "0.99"))):
        out = root / name
        assert main(["fit", "--data", str(root / f"{name}.csv"), "--degree", "2",
                     "--out-dir", str(out), *extra]) == EXIT_OK
        models[name] = (out / "model.json").read_text(encoding="utf-8")
    net = m.build_mlp(4, m.MLPConfig((5, 3, 2), ("relu", "tanh"), (0.3, 0.0),
                                     output_kind="softmax", seed=0))
    m.save_weights(net, root / "w.txt")
    return root, models, (root / "w.txt").read_text(encoding="utf-8")


class TestContainerFuzz:
    """Deleting a key or a weights line and truncating a container exit 6;
    swapping a value's type exits 6 or still predicts; nothing raises.

    The weights file records its layer count, so deleting a dropout line or
    cutting the file at a layer boundary exits 6 like any other damage.
    """

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_model_container(self, fuzz_inputs, data):
        root, models, _ = fuzz_inputs
        name = data.draw(st.sampled_from(sorted(models)))
        text = models[name]
        op = data.draw(st.sampled_from(["delete", "swap", "truncate"]))
        if op == "truncate":
            damaged = text[:data.draw(st.integers(0, len(text.rstrip()) - 1))]
        else:
            obj = json.loads(text)
            paths = [p for p in json_paths(obj) if op == "swap" or isinstance(p[-1], str)]
            path = data.draw(st.sampled_from(paths))
            parent = obj
            for key in path[:-1]:
                parent = parent[key]
            if op == "delete":
                del parent[path[-1]]
            else:
                parent[path[-1]] = data.draw(st.sampled_from(other_type_values(parent[path[-1]])))
            damaged = json.dumps(obj)
        (root / "damaged.json").write_text(damaged, encoding="utf-8")
        rc = main(["predict", "--model", str(root / "damaged.json"),
                   "--data", str(root / f"{name}.csv"), "--out", str(root / "preds.csv")])
        assert rc in ((EXIT_OK, EXIT_MODEL) if op == "swap" else (EXIT_MODEL,))

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_weights_container(self, fuzz_inputs, data):
        root, _, text = fuzz_inputs
        lines = text.splitlines()
        op = data.draw(st.sampled_from(["delete", "swap", "truncate"]))
        allowed = (EXIT_MODEL,)
        if op == "delete":
            i = data.draw(st.integers(0, len(lines) - 1))
            damaged = "\n".join(lines[:i] + lines[i + 1:])
        elif op == "swap":
            i = data.draw(st.integers(0, len(lines) - 1))
            tokens = lines[i].split()
            j = data.draw(st.integers(0, len(tokens) - 1))
            tokens[j] = data.draw(st.sampled_from(
                [t for t in ("7", "0.25", "x") if _token_type(t) != _token_type(tokens[j])]))
            damaged = "\n".join(lines[:i] + [" ".join(tokens)] + lines[i + 1:])
            allowed = (EXIT_OK, EXIT_MODEL)
        else:
            last_token = text.rstrip().rindex(" ") + 1
            damaged = text[:data.draw(st.integers(0, last_token - 1))]
        (root / "damaged.txt").write_text(damaged, encoding="utf-8")
        rc = main(["vif-probe", "--data", str(root / "cls.csv"),
                   "--weights", str(root / "damaged.txt")])
        assert rc in allowed


def _token_type(token):
    for kind in (int, float):
        try:
            kind(token)
            return kind
        except ValueError:
            pass
    return str


@pytest.mark.parametrize("command", ["fit", "predict", "vif-probe", "equiv-demo"])
def test_threads_is_not_an_option(command):
    assert main([command, "--threads", "2"]) == EXIT_USAGE


@pytest.fixture(params=['"', ""], ids=["quoted", "unquoted"])
def quote(request):
    """The quote around the oversized cell of ``TestOversizedCell``."""
    return request.param


class TestOversizedCell:
    """A cell beyond the csv module's field limit, quoted or not, is
    unreadable data (exit 3) for every command that reads a CSV."""

    @staticmethod
    def _csv(tmp_path, names, quote):
        rows = "".join(",".join(["1"] * len(names)) + "\n" for _ in range(30))
        cells = [quote + "x" * 200_000 + quote] + ["1"] * (len(names) - 1)
        path = tmp_path / "huge.csv"
        path.write_text(",".join(names) + "\n" + rows + ",".join(cells) + "\n",
                        encoding="utf-8")
        return path

    @pytest.mark.parametrize("command, extra", [
        ("fit", []), ("vif-probe", ["--widths", "4,1", "--epochs", "1"]),
    ])
    def test_fit_and_vif_probe(self, tmp_path, capsys, command, extra, quote):
        rc = main([command, "--data", str(self._csv(tmp_path, ("u", "v", "y"), quote)), *extra])
        assert rc == EXIT_DATA
        err = capsys.readouterr().err
        assert "error: cannot read" in err and "huge.csv" in err and "Traceback" not in err

    def test_predict(self, tmp_path, quad_csv, capsys, quote):
        assert main(["fit", "--data", str(quad_csv), "--degree", "1",
                     "--out-dir", str(tmp_path / "out")]) == EXIT_OK
        capsys.readouterr()
        rc = main(["predict", "--model", str(tmp_path / "out" / "model.json"),
                   "--data", str(self._csv(tmp_path, ("u", "v"), quote))])
        assert rc == EXIT_DATA
        err = capsys.readouterr().err
        assert "error: cannot read" in err and "huge.csv" in err and "Traceback" not in err


class TestOutputPaths:
    """An output path that cannot be written is a usage error (exit 2) with an
    ``error:`` line, not a traceback."""

    def test_out_dir_names_a_file(self, tmp_path, quad_csv, capsys):
        rc = main(["fit", "--data", str(quad_csv), "--out-dir", str(quad_csv)])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert "error: " in err and "Traceback" not in err

    def test_results_in_a_missing_directory(self, tmp_path, quad_csv, capsys):
        rc = main(["fit", "--data", str(quad_csv), "--out-dir", str(tmp_path / "out"),
                   "--results", str(tmp_path / "absent" / "results.csv")])
        assert rc == EXIT_USAGE
        assert "error: " in capsys.readouterr().err

    def test_predict_out_names_a_directory(self, tmp_path, quad_csv, capsys):
        assert main(["fit", "--data", str(quad_csv), "--out-dir", str(tmp_path)]) == EXIT_OK
        rc = main(["predict", "--model", str(tmp_path / "model.json"), "--data", str(quad_csv),
                   "--out", str(tmp_path)])
        assert rc == EXIT_USAGE
        assert "error: " in capsys.readouterr().err

    def test_vif_probe_csv_names_a_directory(self, tmp_path, capsys):
        rc = main(["vif-probe", "--data", str(TestFit._blobs_csv(tmp_path)), "--widths", "4,1",
                   "--epochs", "0", "--csv", str(tmp_path)])
        assert rc == EXIT_USAGE
        assert "error: " in capsys.readouterr().err


class TestKeyValueFiles:
    """Config files and schema sidecars share one reader: a file it cannot
    use is a usage error as a config (exit 2) and a data error as a sidecar
    (exit 3); comments and blank lines are skipped in both."""

    @pytest.mark.parametrize("content, config, sidecar", [
        (b"# nothing but a comment\n", (EXIT_OK, ""), (EXIT_OK, "")),
        (b"\n  \n\n", (EXIT_OK, ""), (EXIT_OK, "")),
        (b"# header\ndegree\n", (EXIT_USAGE, "lines.txt:2: expected 'key = value'"),
         (EXIT_DATA, "lines.txt:2: expected 'column = kind'")),
        (b"# \xff\n", (EXIT_USAGE, "cannot read config file"),
         (EXIT_DATA, "cannot read schema file")),
    ], ids=["comment-only", "blank", "no-equals", "not-utf8"])
    def test_both_roles(self, tmp_path, quad_csv, capsys, content, config, sidecar):
        path = tmp_path / "lines.txt"
        path.write_bytes(content)
        fit = ["fit", "--data", str(quad_csv), "--degree", "1", "--out-dir", str(tmp_path)]
        for option, (rc, message) in (("--config", config), ("--schema", sidecar)):
            assert main(fit + [option, str(path)]) == rc
            err = capsys.readouterr().err
            assert message in err and "Traceback" not in err


#: Cells of a fuzzed CSV column: numbers, text levels, missing tokens and
#: non-finite spellings.
FUZZ_CELLS = ("0", "1", "2", "-2.5", "3e3", "0.1", "a", "b", "", "nan", "inf", "-inf", "NA")


@st.composite
def fuzz_tables(draw, header):
    """CSV text under ``header`` with 0 to 20 rows; each column draws its cells
    from a pool of 1 to 4 entries (one entry: a constant or single-level
    column) or from random floats."""
    pools = []
    for _ in header:
        if draw(st.booleans()):
            pools.append(st.floats(-10, 10).map(lambda v: f"{v:.3f}"))
        else:
            pools.append(st.sampled_from(
                draw(st.lists(st.sampled_from(FUZZ_CELLS), min_size=1, max_size=4))))
    rows = draw(st.lists(st.tuples(*pools), max_size=20))
    return "\n".join([",".join(header)] + [",".join(r) for r in rows]) + "\n"


def _fit_options(draw) -> list[str]:
    method = draw(st.sampled_from(["auto", "ols", "ridge", "logistic"]))
    degree = draw(st.integers(1, 2))
    args = ["--degree", str(degree), "--interact", str(draw(st.integers(1, degree))),
            "--method", method, "--max-iter", str(draw(st.integers(1, 4)))]
    if method == "ridge":
        args += ["--ridge-lambda", "0.5"]
    if draw(st.booleans()):
        args.append("--classify")
    if method != "ridge" and draw(st.booleans()):
        args += ["--fsr", "--min-models", str(draw(st.integers(1, 5))),
                 "--validation-fraction", str(draw(st.sampled_from([0.2, 0.5, 0.9])))]
    elif draw(st.booleans()):
        args += ["--pca", str(draw(st.sampled_from([0.5, 0.9, 1.0])))]
    if draw(st.booleans()):
        args += ["--keep-fraction", str(draw(st.sampled_from([0.3, 0.7])))]
    return args


def _vif_probe_options(draw) -> list[str]:
    hidden = draw(st.lists(st.integers(1, 4), max_size=2))
    widths = hidden + [draw(st.integers(1, 3))]
    args = ["--widths", ",".join(map(str, widths)), "--epochs", str(draw(st.integers(0, 2))),
            "--batch-size", str(draw(st.integers(1, 8))),
            "--probe-rows", str(draw(st.integers(1, 10))),
            "--learning-rate", str(draw(st.sampled_from([0.01, 0.5, 50.0])))]
    if hidden and draw(st.booleans()):
        acts = draw(st.lists(st.sampled_from(m.HIDDEN_ACTIVATIONS),
                             min_size=len(hidden), max_size=len(hidden)))
        args += ["--activations", ",".join(acts)]
    if hidden and draw(st.booleans()):
        args += ["--dropout", ",".join(["0.5"] * len(hidden))]
    if draw(st.booleans()):
        args.append("--classify")
    return args


class TestSubcommandFuzz:
    """Every subcommand, with valid options, on small generated CSVs (no rows,
    one row, constant or single-level columns, one class, missing and
    non-finite cells, no header field) ends with a documented exit code and
    raises nothing."""

    DOCUMENTED = {0, 2, 3, 4, 5, 6}

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_every_subcommand(self, fuzz_inputs, data):
        root, _, _ = fuzz_inputs
        command = data.draw(st.sampled_from(["fit", "predict", "vif-probe", "equiv-demo"]))
        seed = ["--seed", str(data.draw(st.integers(0, 3)))]
        if command == "equiv-demo":
            sizes = [data.draw(st.integers(1, 3)) for _ in range(4)]
            args = ["--inputs", str(sizes[0]), "--layers", str(sizes[1]), "--units",
                    str(sizes[2]), "--points", str(sizes[3]),
                    "--activation", data.draw(st.sampled_from(["square", "identity"]))]
            assert main(["equiv-demo", *seed, *args]) in self.DOCUMENTED
            return
        header = data.draw(st.sampled_from([("u", "c", "y"), ("u", "y"), ("c", "v", "w", "y"), ()]))
        table = root / "table.csv"
        table.write_text(data.draw(fuzz_tables(header)), encoding="utf-8")
        if command == "vif-probe":
            rc = main(["vif-probe", "--data", str(table), *seed, *_vif_probe_options(data.draw)])
        elif command == "fit":
            rc = main(["fit", "--data", str(table), "--out-dir", str(root / "fuzz-fit"),
                       *seed, *_fit_options(data.draw)])
        else:
            # the saved regression model reads columns u and c; a table
            # without them is a data error
            rc = main(["predict", "--model", str(root / "reg" / "model.json"),
                       "--data", str(table), "--out", str(root / "preds.csv")])
        assert rc in self.DOCUMENTED
