"""Ingestion, encoding and split behavior."""

import csv
import io
import re
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polykit import dataset, synthdata
from polykit.dataset import (
    COLUMN_KINDS,
    CATEGORICAL_THRESHOLD,
    MISSING_TOKENS,
    RESPONSE_KINDS,
    ColumnSpec,
    Dataset,
    DummyGroups,
    Schema,
    dataset_from_arrays,
    design_rows,
    encode_design,
    holdout,
    load_csv,
    load_design_for_predict,
    parse_schema_sidecar,
    split,
    split_rows,
)
from polykit.errors import DataError

from conftest import coded, decoded


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def two_pass_schema(values: dict[str, list[str]], hints: dict[str, str], threshold: int):
    """Oracle: infer a kind for every column, then replace the hinted ones,
    recomputing a hinted categorical's levels."""
    response = next((n for n, k in hints.items() if k in RESPONSE_KINDS), list(values)[-1])
    specs = []
    for name, cells in values.items():
        numeric = all(_is_float(v) for v in cells)
        if name == response:
            specs.append(ColumnSpec(name, "response_numeric" if numeric else "response_class"))
        elif not numeric or len(set(cells)) <= threshold:
            specs.append(ColumnSpec(name, "categorical", tuple(sorted(set(cells)))))
        else:
            specs.append(ColumnSpec(name, "numeric"))
    for i, spec in enumerate(specs):
        hint = hints.get(spec.name)
        if hint is not None and hint != spec.kind:
            levels = tuple(sorted(set(values[spec.name]))) if hint == "categorical" else ()
            specs[i] = ColumnSpec(spec.name, hint, levels)
    return Schema(tuple(specs))


@pytest.fixture
def categorical_threshold(monkeypatch):
    """Sets ``dataset.CATEGORICAL_THRESHOLD`` for the rest of one test."""
    return lambda value: monkeypatch.setattr(dataset, "CATEGORICAL_THRESHOLD", value)


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


class TestLoadCsv:
    def test_numeric_columns_and_response(self, tmp_path, categorical_threshold):
        path = write(tmp_path, "t.csv", "u,v,y\n1,2,3\n4,5,6\n7,8,9\n")
        categorical_threshold(0)
        ds = load_csv(path)
        assert ds.n == 3
        assert len(ds.schema.features) == 2
        assert all(c.kind == "numeric" for c in ds.schema.features)
        assert ds.schema.response.name == "y"
        assert ds.schema.response.kind == "response_numeric"

    def test_non_numeric_forces_categorical(self, tmp_path):
        path = write(tmp_path, "t.csv", "c,y\na,1\nb,2\na,3\n")
        ds = load_csv(path)
        spec = ds.schema.column("c")
        assert spec.kind == "categorical"
        assert spec.levels == ("a", "b")

    def test_low_cardinality_numeric_is_categorical(self, tmp_path, categorical_threshold):
        path = write(tmp_path, "t.csv", "c,y\n1,10\n2,20\n1,30\n")
        categorical_threshold(2)
        ds = load_csv(path)
        assert ds.schema.column("c").kind == "categorical"

    def test_missing_rows_dropped_and_reported(self, tmp_path, categorical_threshold):
        rows = "\n".join(f"{i},{i + 1}" for i in range(9))
        path = write(tmp_path, "t.csv", f"u,y\n,0\n{rows}\n")
        categorical_threshold(0)
        with pytest.warns(UserWarning, match="1 row"):
            ds = load_csv(path)
        assert ds.n == 9
        assert ds.dropped_rows == 1

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(DataError):
            load_csv(tmp_path / "absent.csv")

    def test_zero_usable_rows(self, tmp_path):
        path = write(tmp_path, "t.csv", "u,y\n,1\n,2\n")
        with pytest.raises(DataError, match="no usable rows"):
            load_csv(path)

    def test_response_column_absent(self, tmp_path):
        path = write(tmp_path, "t.csv", "u,v\n1,2\n")
        with pytest.raises(DataError, match="response column"):
            load_csv(path, response="y")

    def test_sidecar_hints(self, tmp_path, categorical_threshold):
        side = write(tmp_path, "s.schema", "# kinds\nu = categorical\ny = response_numeric\n")
        path = write(tmp_path, "t.csv", "u,v,y\n1,2,3\n4,5,6\n")
        hints = parse_schema_sidecar(side)
        categorical_threshold(0)
        ds = load_csv(path, kind_hints=hints)
        assert ds.schema.column("u").kind == "categorical"
        assert ds.schema.column("v").kind == "numeric"

    @pytest.mark.parametrize("column", ["u", "c", "k", "y"])
    @pytest.mark.parametrize("hint", [None, "numeric", "categorical", "response_numeric",
                                      "response_class"])
    def test_hint_replaces_the_inferred_kind(self, tmp_path, column, hint):
        # u: many numbers, c: text, k: few numbers, y: numeric response
        values = {"u": [f"{i * 1.5}" for i in range(20)], "c": ["pq"[i % 2] for i in range(20)],
                  "k": [str(i % 3) for i in range(20)], "y": [str(i) for i in range(20)]}
        rows = [",".join(cells) for cells in zip(*values.values())]
        path = write(tmp_path, "t.csv", "u,c,k,y\n" + "\n".join(rows) + "\n")
        hints = {} if hint is None else {column: hint}
        try:
            want = two_pass_schema(values, hints, CATEGORICAL_THRESHOLD)
        except DataError:
            with pytest.raises(DataError):
                load_csv(path, kind_hints=hints)
            return
        if any(c.kind in ("numeric", "response_numeric")
               and not all(_is_float(v) for v in values[c.name]) for c in want.columns):
            with pytest.raises(DataError, match="non-numeric value"):
                load_csv(path, kind_hints=hints)
            return
        assert load_csv(path, kind_hints=hints).schema == want

    def test_non_numeric_cell_in_schema_numeric_column(self, tmp_path):
        schema = Schema((ColumnSpec("u", "numeric"), ColumnSpec("y", "response_numeric")))
        path = write(tmp_path, "t.csv", "u,y\n1.5,1\nabc,2\n")
        with pytest.raises(DataError, match="non-numeric value 'abc' in numeric column 'u'"):
            load_design_for_predict(path, schema)

    def test_number_spellings_are_those_float_accepts(self, tmp_path, categorical_threshold):
        # a column is converted in one NumPy call, which must accept exactly
        # the spellings float() accepts: underscores, other-script digits and
        # signs pass; hex, Fortran exponents and words do not
        path = write(tmp_path, "t.csv", "u,h,d,w,y\n"
                     "1_000,0x10,1d5,True,1\n\u0661\u0662,1,1,1,2\n 2,2,2,2,3\n"
                     "+3,3,3,3,4\n-.5,4,4,4,5\n")
        categorical_threshold(0)
        ds = load_csv(path)
        assert [c.kind for c in ds.schema.columns] == [
            "numeric", "categorical", "categorical", "categorical", "response_numeric"]
        np.testing.assert_array_equal(ds.columns["u"], [1000.0, 12.0, 2.0, 3.0, -0.5])
        assert ds.schema.column("h").levels == ("0x10", "1", "2", "3", "4")
        assert ds.columns["y"].dtype == np.float64
        inf = write(tmp_path, "inf.csv", "u,y\ninfinity,1\n1,2\n")
        with pytest.raises(DataError, match="non-finite values in numeric column 'u'"):
            load_csv(inf)
        schema = Schema((ColumnSpec("u", "numeric"), ColumnSpec("y", "response_numeric")))
        for spelling in ("0x10", "1d5", "True"):
            bad = write(tmp_path, "bad.csv", f"u\n1\n{spelling}\n")
            with pytest.raises(DataError, match=f"non-numeric value '{spelling}'"):
                load_design_for_predict(bad, schema)


    def test_a_nan_that_is_no_missing_token_is_kept(self, tmp_path, categorical_threshold):
        # the conversion turns both "NaN" and "-nan" into NaN; only the first
        # is a missing token, so its row is dropped and the other is an error
        path = write(tmp_path, "t.csv", "u,y\n NaN ,1\n-nan,2\n1,3\n2,4\n")
        categorical_threshold(0)
        with pytest.warns(UserWarning, match="1 row"), \
                pytest.raises(DataError, match="non-finite values in numeric column 'u'"):
            load_csv(path)
        categorical_threshold(3)
        with pytest.warns(UserWarning, match="1 row"):
            ds = load_csv(path)
        assert ds.schema.column("u").levels == ("-nan", "1", "2")

    def test_a_cell_numpy_rejects_converts_once_stripped(self, tmp_path, categorical_threshold):
        # float() rejects the separator '\x1c' around a number; str.strip drops it
        path = write(tmp_path, "t.csv", "u,y\n\x1c2,1\n3\x1c,2\n\xa07,3\n")
        categorical_threshold(0)
        ds = load_csv(path)
        assert ds.schema.column("u").kind == "numeric"
        np.testing.assert_array_equal(ds.columns["u"], [2.0, 3.0, 7.0])

    def test_threshold_counts_spellings_not_values(self, tmp_path, categorical_threshold):
        # "1" and "1.0" are one float but two distinct cells
        path = write(tmp_path, "t.csv", "u,v,y\n1,1,1\n1.0,1,2\n 1 ,1,3\n")
        categorical_threshold(1)
        ds = load_csv(path)
        assert ds.schema.column("u").kind == "numeric"
        assert ds.schema.column("v") == ColumnSpec("v", "categorical", ("1",))
        np.testing.assert_array_equal(ds.columns["u"], [1.0, 1.0, 1.0])


class TestSchemaValidation:
    def test_exactly_one_response(self):
        with pytest.raises(DataError):
            Schema((ColumnSpec("a", "numeric"),))
        with pytest.raises(DataError):
            Schema(
                (
                    ColumnSpec("a", "response_numeric"),
                    ColumnSpec("b", "response_class"),
                )
            )

    def test_categorical_needs_levels(self):
        with pytest.raises(DataError):
            ColumnSpec("c", "categorical")


class TestDatasetChecks:
    SCHEMA = Schema((ColumnSpec("u", "numeric"), ColumnSpec("y", "response_numeric")))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_numeric_rejected(self, bad):
        with pytest.raises(DataError, match="non-finite"):
            Dataset(self.SCHEMA, {"u": np.array([1.0, bad]), "y": np.zeros(2)})

    def test_finiteness_check_copies_no_float_column(self):
        u, y = np.arange(100000.0), np.zeros(100000)
        tracemalloc.start()
        try:
            Dataset(self.SCHEMA, {"u": u, "y": y})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < u.nbytes / 2  # the boolean isfinite mask is an eighth

    CODED = Schema((ColumnSpec("c", "categorical", ("a", "b")),
                    ColumnSpec("y", "response_numeric")))

    @pytest.mark.parametrize("codes", [["a", "b"], [0.0, 1.0], [0, 2], [-1, 1]],
                             ids=["strings", "floats", "past-the-levels", "negative"])
    def test_a_categorical_column_holds_level_codes(self, codes):
        with pytest.raises(DataError, match=r"'c' must hold integer level codes in \[0, 2\)"):
            Dataset(self.CODED, {"c": np.array(codes), "y": np.zeros(2)})


class TestEncodeDesign:
    def test_mixed_widths(self):
        ds = coded(
            Schema(
                (
                    ColumnSpec("u", "numeric"),
                    ColumnSpec("c", "categorical", ("a", "b", "c")),
                    ColumnSpec("y", "response_numeric"),
                )
            ),
            {
                "u": np.array([1.0, 2.0, 3.0]),
                "c": np.array(["a", "b", "c"]),
                "y": np.array([0.0, 1.0, 2.0]),
            },
        )
        X, groups = encode_design(ds)
        assert X.shape == (3, 3)
        assert groups.numeric_indices == (0,)
        assert groups.groups == (("c", (1, 2)),)
        assert groups.column_names == ("u", "c=b", "c=c")
        # reference level "a" encodes as all zeros
        np.testing.assert_array_equal(X[0, 1:], [0.0, 0.0])

    def test_all_numeric_identity(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(10, 5))
        ds = dataset_from_arrays(X, rng.normal(size=10))
        design, groups = encode_design(ds)
        np.testing.assert_array_equal(design, X)
        assert groups.groups == ()
        # idempotence: encoding the encoded values changes nothing
        ds2 = dataset_from_arrays(design, rng.normal(size=10))
        design2, _ = encode_design(ds2)
        np.testing.assert_array_equal(design2, design)

    def test_single_level_categorical_warns(self):
        ds = coded(
            Schema(
                (
                    ColumnSpec("u", "numeric"),
                    ColumnSpec("c", "categorical", ("only",)),
                    ColumnSpec("y", "response_numeric"),
                )
            ),
            {"u": np.array([0.5, 1.5]), "c": np.array(["only", "only"]),
             "y": np.array([1.0, 2.0])},
        )
        with pytest.warns(UserWarning, match="single level"):
            X, groups = encode_design(ds)
        np.testing.assert_array_equal(X, [[0.5], [1.5]])
        assert groups.groups == (("c", ()),)

    def test_zero_width_design_names_its_columns(self):
        ds = coded(
            Schema(
                (
                    ColumnSpec("c", "categorical", ("only",)),
                    ColumnSpec("d", "categorical", ("x",)),
                    ColumnSpec("y", "response_numeric"),
                )
            ),
            {"c": np.array(["only"] * 2), "d": np.array(["x"] * 2), "y": np.array([1.0, 2.0])},
        )
        with pytest.warns(UserWarning, match="single level"):
            with pytest.raises(DataError, match=r"no columns: .*\['c', 'd'\]"):
                encode_design(ds)

    def test_dummy_row_sums(self):
        rng = np.random.default_rng(1)
        values = rng.choice(["a", "b", "c", "d"], size=40)
        ds = coded(
            Schema(
                (
                    ColumnSpec("c", "categorical", ("a", "b", "c", "d")),
                    ColumnSpec("y", "response_numeric"),
                )
            ),
            {"c": values, "y": np.zeros(40)},
        )
        X, groups = encode_design(ds)
        sums = X[:, list(groups.groups[0][1])].sum(axis=1)
        assert np.all(sums <= 1)
        np.testing.assert_array_equal(sums == 0, values == "a")

    def test_unseen_level_maps_to_reference(self):
        train_schema = Schema(
            (
                ColumnSpec("c", "categorical", ("a", "b")),
                ColumnSpec("y", "response_numeric"),
            )
        )
        new = coded(
            Schema(
                (
                    ColumnSpec("c", "categorical", ("a", "b", "z")),
                    ColumnSpec("y", "response_numeric"),
                )
            ),
            {"c": np.array(["z", "b"]), "y": np.zeros(2)},
        )
        with pytest.warns(UserWarning, match="outside the schema"):
            X, _ = encode_design(new, train_schema)
        np.testing.assert_array_equal(X, [[0.0], [1.0]])


    def test_matches_a_column_stack_of_the_columns(self):
        # column-major, and the same values as stacking one float64 array per
        # design column: numerics in schema order, then each indicator block
        rng = np.random.default_rng(6)
        n = 50
        columns = {
            "c": rng.choice(["a", "b", "c"], size=n),
            "u": rng.normal(size=n),
            "d": rng.choice(["p", "q"], size=n),
            "v": rng.normal(size=n),
            "y": rng.normal(size=n),
        }
        schema = Schema((
            ColumnSpec("c", "categorical", ("a", "b", "c")),
            ColumnSpec("u", "numeric"),
            ColumnSpec("d", "categorical", ("p", "q")),
            ColumnSpec("v", "numeric"),
            ColumnSpec("y", "response_numeric"),
        ))
        X, groups = encode_design(coded(schema, columns))
        oracle = np.column_stack([
            columns["u"].astype(np.float64), columns["v"].astype(np.float64),
            (columns["c"] == "b").astype(np.float64), (columns["c"] == "c").astype(np.float64),
            (columns["d"] == "q").astype(np.float64),
        ])
        assert X.flags.f_contiguous
        np.testing.assert_array_equal(X, oracle, strict=True)
        assert groups.column_names == ("u", "v", "c=b", "c=c", "d=q")


def encode_cases():
    """``(id, dataset, schema)`` of each encoding of ``TestEncodeDesign``, and
    of a wages-shaped table (numerics, then categoricals of 6, 4 and 2
    levels) encoded against its own schema and against a training schema
    that lacks two of its levels."""
    rng = np.random.default_rng(24)

    def table(specs, columns):
        return coded(Schema(tuple(specs)), columns)

    cases = [
        ("mixed-widths", table(
            (ColumnSpec("u", "numeric"), ColumnSpec("c", "categorical", ("a", "b", "c")),
             ColumnSpec("y", "response_numeric")),
            {"u": np.array([1.0, 2.0, 3.0]), "c": np.array(["a", "b", "c"]),
             "y": np.array([0.0, 1.0, 2.0])}), None),
        ("all-numeric", dataset_from_arrays(rng.normal(size=(10, 5)), rng.normal(size=10)), None),
        ("single-level", table(
            (ColumnSpec("u", "numeric"), ColumnSpec("c", "categorical", ("only",)),
             ColumnSpec("y", "response_numeric")),
            {"u": np.array([0.5, 1.5]), "c": np.array(["only", "only"]),
             "y": np.array([1.0, 2.0])}), None),
        ("zero-width", table(
            (ColumnSpec("c", "categorical", ("only",)), ColumnSpec("d", "categorical", ("x",)),
             ColumnSpec("y", "response_numeric")),
            {"c": np.array(["only"] * 2), "d": np.array(["x"] * 2), "y": np.array([1.0, 2.0])}),
         None),
        ("dummy-row-sums", table(
            (ColumnSpec("c", "categorical", ("a", "b", "c", "d")),
             ColumnSpec("y", "response_numeric")),
            {"c": rng.choice(["a", "b", "c", "d"], size=40), "y": np.zeros(40)}), None),
        ("unseen-level", table(
            (ColumnSpec("c", "categorical", ("a", "b", "z")), ColumnSpec("y", "response_numeric")),
            {"c": np.array(["z", "b"]), "y": np.zeros(2)}),
         Schema((ColumnSpec("c", "categorical", ("a", "b")), ColumnSpec("y", "response_numeric")))),
        ("column-stack", table(
            (ColumnSpec("c", "categorical", ("a", "b", "c")), ColumnSpec("u", "numeric"),
             ColumnSpec("d", "categorical", ("p", "q")), ColumnSpec("v", "numeric"),
             ColumnSpec("y", "response_numeric")),
            {"c": rng.choice(["a", "b", "c"], size=50), "u": rng.normal(size=50),
             "d": rng.choice(["p", "q"], size=50), "v": rng.normal(size=50),
             "y": rng.normal(size=50)}), None),
    ]
    n = 10_000
    levels = {"occupation": ("clerk", "craft", "manager", "sales", "service", "tech"),
              "region": ("east", "north", "south", "west"), "sector": ("private", "public")}
    specs = [ColumnSpec(f"x{j}", "numeric") for j in range(6)]
    specs += [ColumnSpec(name, "categorical", values) for name, values in levels.items()]
    specs.append(ColumnSpec("wage", "response_numeric"))
    columns = {f"x{j}": rng.normal(size=n) for j in range(6)}
    columns.update({name: rng.choice(values, size=n) for name, values in levels.items()})
    columns["wage"] = rng.normal(size=n)
    wages = table(specs, columns)
    trained = Schema(tuple(
        ColumnSpec(s.name, s.kind, tuple(v for v in s.levels if v not in ("tech", "west")))
        for s in specs))
    cases += [("wages", wages, None), ("wages-unseen", wages, trained)]

    # splittable tables: a level only one test row holds, a single-level
    # column, and new rows against a schema that lacks a level they hold and
    # holds one they lack
    n = 20
    c = np.array(["a", "b"] * (n // 2))
    c[split_rows(n, SPLIT_SEED)[1][0]] = "z"
    u = rng.normal(size=n)
    abc = ColumnSpec("c", "categorical", ("a", "b", "c"))
    cases += [
        ("test-only-level", table(
            (ColumnSpec("u", "numeric"), ColumnSpec("c", "categorical", ("a", "b", "z")),
             ColumnSpec("y", "response_numeric")), {"u": u, "c": c, "y": u}), None),
        ("single-level-split", table(
            (ColumnSpec("u", "numeric"), ColumnSpec("k", "categorical", ("only",)), abc,
             ColumnSpec("y", "response_numeric")),
            {"u": u, "k": ["only"] * n, "c": rng.choice(abc.levels, size=n), "y": u}), None),
        ("foreign-schema", table(
            (ColumnSpec("u", "numeric"), abc, ColumnSpec("y", "response_numeric")),
            {"u": u, "c": rng.choice(abc.levels, size=n), "y": u}),
         Schema((ColumnSpec("u", "numeric"), ColumnSpec("c", "categorical", ("b", "c", "x")),
                 ColumnSpec("y", "response_numeric")))),
    ]
    return cases


#: The seed of the train/test split in ``encode_cases`` and ``TestEncodeOnce``.
SPLIT_SEED = 3


class TestEncodeDesignReference:
    """``encode_design`` gives what the reference, its body before the
    layout moved into the helper shared with ``load_design_for_predict``,
    gives: the same design bit for bit and in the same order, the same
    groups, warnings and error."""

    @pytest.mark.parametrize("case", encode_cases(), ids=lambda case: case[0])
    def test_same_as_the_reference(self, case):
        _, ds, schema = case
        got, got_warned, got_error = outcome(encode_design, ds, schema)
        want, want_warned, want_error = outcome(reference_encode_design, ds, schema)
        assert (got_warned, got_error) == (want_warned, want_error)
        if want is not None:
            (X, groups), (want_X, want_groups) = got, want
            assert X.flags.f_contiguous and want_X.flags.f_contiguous
            assert X.dtype == want_X.dtype and X.shape == want_X.shape
            assert X.tobytes(order="F") == want_X.tobytes(order="F")
            assert groups == want_groups


class TestEncodeOnce:
    """``fit`` encodes the whole table once and gathers the train and test
    rows of ``split_rows``: the same designs bit for bit, Fortran-ordered,
    and the same groups and error as splitting the table first and encoding
    each half, the test half against the training schema."""

    @pytest.mark.parametrize("case", encode_cases(), ids=lambda case: case[0])
    def test_same_as_split_then_encode(self, case):
        _, ds, schema = case
        halves, _, split_error = outcome(split, ds, SPLIT_SEED)
        rows, _, error = outcome(split_rows, ds.n, SPLIT_SEED)
        assert error == split_error
        if error is not None:
            return
        once, _, error = outcome(encode_design, ds, schema)
        for half, idx in zip(halves, rows):
            want, _, want_error = outcome(reference_encode_design, half, schema or ds.schema)
            assert error == want_error
            if want is not None:
                X = design_rows(once[0], idx)
                assert X.flags.f_contiguous and want[0].flags.f_contiguous
                assert X.dtype == want[0].dtype and np.array_equal(X, want[0])
                assert once[1] == want[1]

    def test_the_cases_hold_what_they_are_named_for(self):
        cases = {name: (ds, schema) for name, ds, schema in encode_cases()}
        train, test = split(cases["test-only-level"][0], SPLIT_SEED)
        assert 2 not in train.columns["c"] and 2 in test.columns["c"]  # "z"
        ds, schema = cases["foreign-schema"]
        (X, groups), warned, _ = outcome(encode_design, ds, schema)
        assert warned == [f"{np.count_nonzero(ds.columns['c'] == 0)} value(s) outside the"
                          " schema level sets mapped to reference"]
        assert groups.column_names[-1] == "c=x" and not X[:, -1].any()


class TestSplit:
    def test_large_n_caps_test_at_10000(self):
        ds = dataset_from_arrays(np.arange(50000.0)[:, None], np.zeros(50000))
        train, test = split(ds, seed=0)
        assert (train.n, test.n) == (40000, 10000)

    def test_small_n_uses_fifth(self):
        ds = dataset_from_arrays(np.arange(1000.0)[:, None], np.zeros(1000))
        train, test = split(ds, seed=3)
        assert (train.n, test.n) == (800, 200)

    def test_deterministic_and_partition(self):
        X = np.arange(997.0)[:, None]
        ds = dataset_from_arrays(X, np.zeros(997))
        t1, s1 = split(ds, seed=11)
        t2, s2 = split(ds, seed=11)
        np.testing.assert_array_equal(t1.columns["x0"], t2.columns["x0"])
        np.testing.assert_array_equal(s1.columns["x0"], s2.columns["x0"])
        merged = np.sort(np.concatenate([t1.columns["x0"], s1.columns["x0"]]))
        np.testing.assert_array_equal(merged, X[:, 0])

    def test_needs_two_rows(self):
        ds = dataset_from_arrays(np.zeros((1, 1)), np.zeros(1))
        with pytest.raises(DataError):
            split(ds, seed=0)

    @pytest.mark.parametrize("n", [2, 4])
    def test_empty_test_split_is_named(self, n):
        ds = dataset_from_arrays(np.arange(float(n))[:, None], np.zeros(n))
        with pytest.raises(DataError, match=f"test split .* of {n} row.* at least 5 rows"):
            split(ds, seed=0)

    def test_five_rows_split_one_for_test(self):
        ds = dataset_from_arrays(np.arange(5.0)[:, None], np.zeros(5))
        train, test = split(ds, seed=0)
        assert (train.n, test.n) == (4, 1)


class TestHoldout:
    @pytest.mark.parametrize("n, k, seed", [(5, 1, 0), (10, 3, 7), (997, 199, 11),
                                            (2000, 2000, 3), (50000, 10000, 1311)])
    def test_matches_the_inline_draw(self, n, k, seed):
        rng = np.random.default_rng(seed)
        want_held = np.sort(rng.choice(n, size=k, replace=False))
        want_kept = np.setdiff1d(np.arange(n), want_held)
        kept, held = holdout(n, k, seed)
        np.testing.assert_array_equal(held, want_held)
        np.testing.assert_array_equal(kept, want_kept)

    def test_split_holds_out_the_test_rows(self):
        ds = dataset_from_arrays(np.arange(50.0)[:, None], np.zeros(50))
        train, test = split(ds, seed=4)
        kept, held = holdout(50, 10, 4)
        np.testing.assert_array_equal(train.columns["x0"], kept)
        np.testing.assert_array_equal(test.columns["x0"], held)


class TestPredictLoader:
    def test_reads_features_without_response(self, tmp_path):
        schema = Schema(
            (
                ColumnSpec("u", "numeric"),
                ColumnSpec("c", "categorical", ("a", "b")),
                ColumnSpec("y", "response_numeric"),
            )
        )
        path = write(tmp_path, "t.csv", "u,c\n1.5,b\n2.5,a\n")
        X = load_design_for_predict(path, schema)
        np.testing.assert_array_equal(X, [[1.5, 1.0], [2.5, 0.0]])

    def test_empty_file_gives_zero_rows(self, tmp_path):
        schema = Schema((ColumnSpec("u", "numeric"), ColumnSpec("y", "response_numeric")))
        path = write(tmp_path, "t.csv", "u,y\n")
        X = load_design_for_predict(path, schema)
        assert X.shape == (0, 1)

    def test_missing_cell_is_an_error(self, tmp_path):
        schema = Schema((ColumnSpec("u", "numeric"), ColumnSpec("y", "response_numeric")))
        path = write(tmp_path, "t.csv", "u,y\n,1\n")
        with pytest.raises(DataError, match="missing value"):
            load_design_for_predict(path, schema)

    def test_non_numeric_cell_is_an_error(self, tmp_path):
        schema = Schema((ColumnSpec("u", "numeric"), ColumnSpec("y", "response_numeric")))
        path = write(tmp_path, "t.csv", "u\n1.5\nabc\n")
        with pytest.raises(DataError, match="non-numeric value 'abc' in numeric column 'u'"):
            load_design_for_predict(path, schema)

    def test_wrong_field_count_names_the_line(self, tmp_path):
        schema = Schema((ColumnSpec("u", "numeric"), ColumnSpec("y", "response_numeric")))
        path = write(tmp_path, "t.csv", "u,y\n1.5,1\n2.5\n")
        with pytest.raises(DataError, match=r"t\.csv:3: wrong field count"):
            load_design_for_predict(path, schema)


    @pytest.mark.parametrize("lines, want", [
        (("1,1", "2", "3,3", "NA,4", "5,5"), "t.csv:3: wrong field count"),
        (("1,1", "NA,2", "3,3", "4", "5,5"), "t.csv:3: missing value in column 'u'"),
    ])
    def test_the_first_bad_row_is_named(self, tmp_path, lines, want):
        schema = Schema((ColumnSpec("u", "numeric"), ColumnSpec("y", "response_numeric")))
        path = write(tmp_path, "t.csv", "u,y\n" + "\n".join(lines) + "\n")
        for reader in (load_design_for_predict, reference_load_design_for_predict):
            with pytest.raises(DataError) as err:
                reader(path, schema)
            assert str(err.value) == f"{path.parent}/{want}"

    def test_the_first_feature_with_a_hole_is_named(self, tmp_path):
        schema = Schema((ColumnSpec("u", "numeric"), ColumnSpec("c", "categorical", ("a", "b")),
                         ColumnSpec("y", "response_numeric")))
        path = write(tmp_path, "t.csv", "y,c,u\n1,a,1\n2,null, N/A \n")
        with pytest.raises(DataError, match=r"t\.csv:3: missing value in column 'u'$"):
            load_design_for_predict(path, schema)

    @pytest.mark.parametrize("lines, want", [
        (("1,1,a", "2,2,NA", "NA,3,a", "4,4,a"), "t.csv:3: missing value in column 'c'"),
        (("1,1,a", "NA,2,a", "3,3,NA", "4,4,a"), "t.csv:3: missing value in column 'u'"),
        (("1,1,a", "2,2,a", "NA,3,NA", "4,4,NA"), "t.csv:4: missing value in column 'u'"),
    ])
    def test_the_earliest_hole_over_all_features_is_named(self, tmp_path, lines, want):
        schema = Schema((ColumnSpec("u", "numeric"), ColumnSpec("c", "categorical", ("a", "b")),
                         ColumnSpec("y", "response_numeric")))
        path = write(tmp_path, "t.csv", "u,y,c\n" + "\n".join(lines) + "\n")
        for reader in (load_design_for_predict, reference_load_design_for_predict):
            with pytest.raises(DataError) as err:
                reader(path, schema)
            assert str(err.value) == f"{path.parent}/{want}"


    # Named cases of the direct encoding, each checked against the reference
    # for the design (bit for bit), the warnings in order and the error

    REGIONS = Schema((ColumnSpec("u", "numeric"),
                      ColumnSpec("r", "categorical", ("a", "east", "west")),
                      ColumnSpec("y", "response_numeric")))

    @staticmethod
    def same_as_reference(path, schema):
        got, got_warned, got_error = outcome(load_design_for_predict, path, schema)
        want, want_warned, want_error = outcome(reference_load_design_for_predict, path, schema)
        assert (got_warned, got_error) == (want_warned, want_error)
        if want is not None:
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        return got, got_warned, got_error

    @pytest.mark.parametrize("header", ["u,r", '"u",r'], ids=["plain", "quoted"])
    def test_padded_categorical_cells(self, tmp_path, header):
        path = write(tmp_path, "t.csv", f"{header}\n1, west \n2,\xa0a\n3,east\t\n4,west\n")
        X, warned, error = self.same_as_reference(path, self.REGIONS)
        assert (warned, error) == ([], None)
        np.testing.assert_array_equal(X, [[1, 0, 1], [2, 0, 0], [3, 1, 0], [4, 0, 1]])

    @pytest.mark.parametrize("cell", ["na", " NA ", "null"])
    def test_a_level_that_is_a_missing_token_is_still_missing(self, tmp_path, cell):
        schema = Schema((ColumnSpec("u", "numeric"),
                         ColumnSpec("c", "categorical", ("a", "na", "null")),
                         ColumnSpec("y", "response_numeric")))
        path = write(tmp_path, "t.csv", f"u,c\n1,a\n2,{cell}\n")
        _, warned, error = self.same_as_reference(path, schema)
        assert (warned, error) == ([], (DataError, f"{path}:3: missing value in column 'c'"))

    def test_a_padded_level_is_still_unseen(self, tmp_path):
        schema = Schema((ColumnSpec("u", "numeric"), ColumnSpec("c", "categorical", (" a", "b")),
                         ColumnSpec("y", "response_numeric")))
        path = write(tmp_path, "t.csv", "u,c\n1, a\n2,b\n3,a\n")
        X, warned, error = self.same_as_reference(path, schema)
        assert (warned, error) == (["2 value(s) outside the schema level sets mapped to reference"],
                                   None)
        np.testing.assert_array_equal(X, [[1, 0], [2, 1], [3, 0]])

    def test_unseen_levels_of_two_columns_are_counted_once(self, tmp_path):
        schema = Schema((ColumnSpec("u", "numeric"), ColumnSpec("c", "categorical", ("a", "b")),
                         ColumnSpec("d", "categorical", ("p", "q")),
                         ColumnSpec("y", "response_numeric")))
        path = write(tmp_path, "t.csv", "u,c,d\n1,z,p\n2,a,x\n3,z,x\n4,b,q\n")
        X, warned, _ = self.same_as_reference(path, schema)
        assert warned == ["4 value(s) outside the schema level sets mapped to reference"]
        np.testing.assert_array_equal(X, [[1, 0, 0], [2, 0, 0], [3, 0, 0], [4, 1, 1]])

    def test_single_level_warnings_in_schema_order_before_the_unseen_one(self, tmp_path):
        # an unseen value of a single-level column is not counted
        schema = Schema((ColumnSpec("e", "categorical", ("x",)), ColumnSpec("u", "numeric"),
                         ColumnSpec("d", "categorical", ("p", "q")),
                         ColumnSpec("c", "categorical", ("only",)),
                         ColumnSpec("y", "response_numeric")))
        path = write(tmp_path, "t.csv", "c,d,e,u\nonly,p,x,1\nother,z,x,2\n")
        X, warned, _ = self.same_as_reference(path, schema)
        assert warned == [
            "categorical column 'e' has a single level; contributes no columns",
            "categorical column 'c' has a single level; contributes no columns",
            "1 value(s) outside the schema level sets mapped to reference",
        ]
        np.testing.assert_array_equal(X, [[1, 0], [2, 0]])

    @pytest.mark.parametrize("cell", ["inf", "-Infinity", "1e400", " inf"])
    def test_a_non_finite_number_is_an_error(self, tmp_path, cell):
        path = write(tmp_path, "t.csv", f"u,r\n1,a\n{cell},south\n")
        _, warned, error = self.same_as_reference(path, self.REGIONS)
        assert (warned, error) == ([], (DataError, "non-finite values in numeric column 'u'"))

    def test_a_non_numeric_cell_is_named_before_any_warning(self, tmp_path):
        # ... and before a non-finite value of an earlier column
        schema = Schema((ColumnSpec("u", "numeric"), ColumnSpec("v", "numeric"),
                         ColumnSpec("c", "categorical", ("only",)),
                         ColumnSpec("d", "categorical", ("p", "q")),
                         ColumnSpec("y", "response_numeric")))
        path = write(tmp_path, "t.csv", "u,v,c,d\ninf,1,only,z\n1,abc,only,p\n")
        _, warned, error = self.same_as_reference(path, schema)
        assert (warned, error) == (
            [], (DataError, f"{path}: non-numeric value 'abc' in numeric column 'v'"))

    def test_the_reader_is_dropped_before_the_design_is_written(self, tmp_path):
        # the file's text and its cell strings are gone by then: with them
        # the traced peak was 5.7 designs, without them 4.7
        rng = np.random.default_rng(29)
        n, names = 2000, [f"x{j}" for j in range(20)]
        numbers = np.char.mod("%.6f", rng.normal(size=(n, 20)))
        region = np.asarray(["east", "north", "south", "west"])[rng.integers(0, 4, n)]
        text = ",".join(names + ["r"]) + "\n" + "".join(
            ",".join(row) + f",{r}\n" for row, r in zip(numbers, region))
        path = write(tmp_path, "t.csv", text)
        schema = Schema((*(ColumnSpec(name, "numeric") for name in names),
                         ColumnSpec("r", "categorical", ("east", "north", "south", "west")),
                         ColumnSpec("y", "response_numeric")))
        tracemalloc.start()
        try:
            X = load_design_for_predict(path, schema)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert X.shape == (n, 23)
        assert peak < 5.2 * X.nbytes

    def test_lf_crlf_and_bare_cr_copies_read_alike(self, tmp_path, tokenizer):
        lines = ["r,y,u", " west ,1,0.5", "south,2,1.5", "east,3,-2", "a,4,1e3"]
        designs = []
        for end, how in (("\n", "loadtxt"), ("\r\n", "loadtxt"), ("\r", "csv")):
            path = tmp_path / f"t{len(designs)}.csv"
            path.write_bytes(end.join(lines).encode("utf-8") + end.encode())
            (X, _, _), ran = tokenizer(self.same_as_reference, path, self.REGIONS)
            assert ran == how
            designs.append(X)
        assert designs[0].tobytes() == designs[1].tobytes() == designs[2].tobytes()
        np.testing.assert_array_equal(designs[0], [[0.5, 0, 1], [1.5, 0, 0], [-2, 1, 0],
                                                   [1e3, 0, 0]])


class TestDummyGroups:
    def test_double_assignment_rejected(self):
        with pytest.raises(DataError):
            DummyGroups(groups=(("c", (0,)),), numeric_indices=(0,), column_names=("a",))


# --------------------------------------------------------------------------
# Row-wise reference readers: the csv.reader tokenizer and the cell-by-cell
# ingest that the column-wise readers replaced, kept as the oracle they must
# match exactly
# --------------------------------------------------------------------------

def reference_read_rows(path):
    """The header (stripped) and every data row as ``csv.reader`` reads the
    file, streamed in ``newline=""`` mode."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DataError(f"{path}: empty file") from None
            if not header:
                raise DataError(f"{path}: the header row (line 1) has no field")
            rows = list(reader)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    return [h.strip() for h in header], rows


def _reference_floats(values):
    try:
        return np.array(values, dtype=np.float64)
    except ValueError:
        return None


def _reference_typed_columns(path, specs, values, parsed):
    columns = {}
    for spec in specs:
        cells = values[spec.name]
        if spec.kind not in ("numeric", "response_numeric"):
            columns[spec.name] = np.array(cells, dtype=str)
            continue
        arr = parsed[spec.name] if spec.name in parsed else _reference_floats(cells)
        if arr is None:
            bad = next(v for v in cells if _reference_floats([v]) is None)
            raise DataError(f"{path}: non-numeric value {bad!r} in numeric column {spec.name!r}")
        columns[spec.name] = arr
    return columns


def reference_load_csv(path, *, kind_hints=None, response=None,
                       categorical_threshold=CATEGORICAL_THRESHOLD, classify=False):
    header, raw_rows = reference_read_rows(path)
    hints = kind_hints or {}
    unknown = [name for name in hints if name not in header]
    if unknown:
        raise DataError(f"{path}: schema names columns {unknown} absent from header")
    resp_name = response
    if resp_name is None:
        resp_name = next((n for n, k in hints.items() if k in RESPONSE_KINDS), None)
    if resp_name is None:
        resp_name = header[-1]
    if resp_name not in header:
        raise DataError(f"{path}: response column {resp_name!r} absent")
    if classify:
        hints = {**hints, resp_name: "response_class"}

    kept = []
    dropped = 0
    for row in raw_rows:
        if len(row) != len(header):
            dropped += 1
            continue
        cells = [c.strip() for c in row]
        if any(c.lower() in MISSING_TOKENS for c in cells):
            dropped += 1
            continue
        kept.append(cells)
    if not kept:
        raise DataError(f"{path}: no usable rows after dropping incomplete ones")
    if dropped:
        warnings.warn(f"{path}: {dropped} row(s) dropped (missing or malformed cells)")

    col_values = {name: [r[i] for r in kept] for i, name in enumerate(header)}

    parsed = {}
    specs = []
    for name in header:
        values = col_values[name]
        kind = hints.get(name)
        if kind is None:
            parsed[name] = _reference_floats(values)
            numeric = parsed[name] is not None
            if name == resp_name:
                kind = "response_numeric" if numeric else "response_class"
            elif numeric and len(set(values)) > categorical_threshold:
                kind = "numeric"
            else:
                kind = "categorical"
        levels = tuple(sorted(set(values))) if kind == "categorical" else ()
        specs.append(ColumnSpec(name, kind, levels))
    schema = Schema(tuple(specs))

    columns = _reference_typed_columns(path, schema.columns, col_values, parsed)
    return coded(schema, columns, dropped)


def reference_load_design_for_predict(path, schema):
    header, raw_rows = reference_read_rows(path)
    feats = schema.features
    missing = [c.name for c in feats if c.name not in header]
    if missing:
        raise DataError(f"{path}: feature columns {missing} are absent")
    positions = {c.name: header.index(c.name) for c in feats}

    values = {c.name: [] for c in feats}
    for rownum, row in enumerate(raw_rows, 2):
        if len(row) != len(header):
            raise DataError(f"{path}:{rownum}: wrong field count")
        for c in feats:
            cell = row[positions[c.name]].strip()
            if cell.lower() in MISSING_TOKENS:
                raise DataError(f"{path}:{rownum}: missing value in column {c.name!r}")
            values[c.name].append(cell)

    n = len(raw_rows)
    width = sum(
        1 if c.kind == "numeric" else max(0, len(c.levels) - 1) for c in feats
    )
    if n == 0:
        return np.empty((0, width))

    columns = _reference_typed_columns(path, feats, values, {})
    resp = schema.response
    columns[resp.name] = (
        np.zeros(n) if resp.kind == "response_numeric" else np.array(["?"] * n, dtype=str)
    )
    # the table's own level sets hold the values outside the schema's
    own = Schema(tuple(ColumnSpec(c.name, c.kind, tuple(sorted({*c.levels, *columns[c.name]})))
                       if c.kind == "categorical" else c for c in schema.columns))
    ds = coded(own, columns)
    design, _ = encode_design(ds, schema)
    return design


def reference_encode_design(ds, schema=None):
    """Oracle: ``encode_design`` as it was before its layout, warnings and
    fill moved into the helper it shares with ``load_design_for_predict``."""
    enc = schema if schema is not None else ds.schema
    columns = decoded(ds)
    absent = [c.name for c in enc.features if c.name not in columns]
    if absent:
        raise DataError(f"dataset lacks feature columns {absent} named by the schema")
    sources = [(spec.name, None) for spec in enc.features if spec.kind == "numeric"]
    groups = []
    unseen = 0
    for spec in enc.features:
        if spec.kind != "categorical":
            continue
        if len(spec.levels) == 1:
            warnings.warn(
                f"categorical column {spec.name!r} has a single level; contributes no columns"
            )
            groups.append((spec.name, ()))
            continue
        values = columns[spec.name]
        unseen += int(np.sum(~np.isin(values, spec.levels)))
        idxs = []
        for level in spec.levels[1:]:
            idxs.append(len(sources))
            sources.append((spec.name, level))
        groups.append((spec.name, tuple(idxs)))

    if unseen:
        warnings.warn(f"{unseen} value(s) outside the schema level sets mapped to reference")

    if not sources:
        empty = [name for name, idxs in groups if not idxs]
        why = f"single-level categorical column(s) {empty} give none" if empty else "no features"
        raise DataError(f"the design has no columns: {why}")
    design = np.empty((ds.n, len(sources)), order="F")
    for j, (name, level) in enumerate(sources):
        values = columns[name]
        design[:, j] = values if level is None else values == level
    info = DummyGroups(
        groups=tuple(groups),
        numeric_indices=tuple(j for j, (_, level) in enumerate(sources) if level is None),
        column_names=tuple(name if level is None else f"{name}={level}"
                           for name, level in sources),
    )
    return design, info


def outcome(reader, *args, **kwargs):
    """``(result, warnings, error)`` of one reader call: the error as its
    type and text, the warnings as their texts in order."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result, error = reader(*args, **kwargs), None
        except Exception as exc:  # compared, not swallowed
            result, error = None, (type(exc), str(exc))
    return result, [str(w.message) for w in caught], error


def assert_same_dataset(got, want):
    assert got.schema == want.schema
    assert got.dropped_rows == want.dropped_rows
    assert list(got.columns) == list(want.columns)
    for name, arr in want.columns.items():
        assert got.columns[name].dtype == arr.dtype, name
        np.testing.assert_array_equal(got.columns[name], arr)


MISSING_SPELLINGS = ("", "na", "nan", "n/a", "null")
ODD_NUMBERS = ("-nan", "+nan", "inf", "-Infinity", "1e400", "\xa07", "\x1c2", "7\x1c",
               "1_0", "0x10", "١")
PADDING = ("", " ", "  ", "\t", "\xa0", "\x1c", "　")
CELL_KINDS = ("missing", "odd", "int", "float", "word")
WORDS = ("a", "b", "B", "c d", "x,y")  # csv.writer quotes "x,y"


@st.composite
def cells(draw, kinds=CELL_KINDS, words=WORDS):
    """One cell of a kind in ``kinds``, padded on either side; a word is one
    of ``words``."""
    kind = draw(st.sampled_from(kinds))
    if kind == "missing":
        token = "".join(
            ch.upper() if draw(st.booleans()) else ch
            for ch in draw(st.sampled_from(MISSING_SPELLINGS)))
    elif kind == "odd":
        token = draw(st.sampled_from(ODD_NUMBERS))
    elif kind == "int":
        token = str(draw(st.integers(0, 3)))
    elif kind == "float":
        token = draw(st.sampled_from(("1.0", "2.0", "1e0", "-3", "0.5")))
    else:
        token = draw(st.sampled_from(words))
    return draw(st.sampled_from(PADDING)) + token + draw(st.sampled_from(PADDING))


@st.composite
def csv_rows(draw, header):
    """Rows for ``header``: each column draws from a few cells, some rows are
    short or long, and there may be none. Half the tables draw no word that
    csv.writer quotes."""
    numeric = ("missing", "int", "float", "int", "float")  # a few values, several spellings
    words = WORDS if draw(st.booleans()) else WORDS[:-1]
    pools = [draw(st.lists(cells(numeric if draw(st.booleans()) else CELL_KINDS, words),
                           min_size=1, max_size=6)) for _ in header]
    rows = []
    for _ in range(draw(st.integers(0, 9))):
        row = [draw(st.sampled_from(pool)) for pool in pools]
        shape = draw(st.sampled_from(("full",) * 8 + ("short", "long")))
        if shape == "short":
            row = row[:-1]
        elif shape == "long":
            row = row + ["1"]
        rows.append(row)
    return rows


@st.composite
def complete_rows(draw, header, numbers=()):
    """At least one row for ``header``, every one of full length. A column
    named in ``numbers`` draws only plain numbers; any other column plain
    numbers (one in two), words (one in four), words and missing cells, or
    cells of every kind (one in eight each). No word is one csv.writer
    quotes."""
    pools = []
    for name in header:
        kinds = ("int", "float") if name in numbers else draw(st.sampled_from(
            (("int", "float"),) * 4 + (("word",),) * 2 + (("word", "missing"), CELL_KINDS)))
        pools.append(draw(st.lists(cells(kinds, WORDS[:-1]), min_size=1, max_size=6)))
    return [[draw(st.sampled_from(pool)) for pool in pools]
            for _ in range(draw(st.integers(1, 9)))]


#: The line terminators ``write_rows`` may end lines with.
TERMINATORS = st.sampled_from(("\n", "\r\n"))

#: Each form of generated table and its share of an oracle's examples:
#: complete tables, unquoted; tables of ``csv_rows`` with every cell quoted;
#: and such tables with only the cells that need it quoted.
TABLE_FORMS = (("complete", 0.4), ("quoted", 0.3), ("plain", 0.3))

#: How csv.writer quotes the tables of each form.
QUOTING = {"complete": csv.QUOTE_MINIMAL, "quoted": csv.QUOTE_ALL, "plain": csv.QUOTE_MINIMAL}


def run_forms(check, examples):
    """Runs ``check(data, form)`` on ``examples`` Hypothesis examples, split
    among the ``TABLE_FORMS`` by their shares. Each form has its own run,
    not a drawn form: Hypothesis generates examples in clusters, and a drawn
    form left one reader under a fifth of the examples in some runs."""
    for form, share in TABLE_FORMS:
        @settings(max_examples=round(examples * share), deadline=None)
        @given(data=st.data())
        def run(data):
            check(data, form)
        run()


def write_rows(path, header, rows, style):
    terminator, quoting = style
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator=terminator, quoting=quoting).writerows([header, *rows])


class CountingCsv:
    """The csv module, counting the calls of ``csv.reader``: patched in for
    ``dataset.csv``, it tells whether ``_read_table`` ran ``csv.reader``."""

    def __init__(self):
        self.readers = 0

    def __getattr__(self, name):
        return getattr(csv, name)

    def reader(self, *args, **kwargs):
        self.readers += 1
        return csv.reader(*args, **kwargs)


@pytest.fixture
def tokenizer(monkeypatch):
    """Calls a reader and names the tokenizer whose columns it read: "csv",
    "loadtxt" (``_load_complete`` gave the columns) or "split"."""
    spy = CountingCsv()
    monkeypatch.setattr(dataset, "csv", spy)
    load_complete, parsed = dataset._load_complete, []

    def counting_load_complete(*args):
        columns = load_complete(*args)
        parsed.append(columns is not None)
        return columns
    monkeypatch.setattr(dataset, "_load_complete", counting_load_complete)

    def ran(call, *args, **kwargs):
        before, tries = spy.readers, len(parsed)
        result = call(*args, **kwargs)
        if spy.readers > before:
            return result, "csv"
        return result, "loadtxt" if any(parsed[tries:]) else "split"
    return ran


def assert_both_tokenizers_ran(ran, examples):
    """Each of the three readers read at least a fifth of the generated files."""
    assert sum(ran.values()) == examples
    assert min(ran["csv"], ran["loadtxt"], ran["split"]) >= examples // 5, dict(ran)


class TestReaderOracle:
    """The column-wise readers give what the row-wise references give on
    small generated files: schema, columns, drops, warnings and errors.
    Files end lines in LF or CRLF. Two in five are complete tables with a
    numeric column, unquoted, which ``np.loadtxt`` parses unless a cell
    sends them to ``str.split``; the others quote every cell (``csv.reader``)
    or only the cells that need it, and of those half draw no cell that
    needs quotes, so each of ``_read_table``'s three readers is checked."""

    EXAMPLES = 400

    def test_load_csv_matches_the_reference(self, tmp_path, categorical_threshold, tokenizer):
        ran = Counter()

        def check(data, form):
            # two columns or more, so that classify leaves c0 numeric
            complete = form == "complete"
            header = [f"c{j}" for j in range(data.draw(st.integers(1 + complete, 4)))]
            rows = data.draw(complete_rows(header, header[:1]) if complete else csv_rows(header))
            path = tmp_path / "t.csv"
            write_rows(path, header, rows, (data.draw(TERMINATORS), QUOTING[form]))
            hint = data.draw(st.sampled_from((None, *COLUMN_KINDS)))
            threshold = data.draw(st.integers(0, 4))
            categorical_threshold(threshold)
            kwargs = {
                "classify": data.draw(st.booleans()),
                "kind_hints": {data.draw(st.sampled_from(header)): hint} if hint else None,
            }
            (got, got_warned, got_error), how = tokenizer(outcome, load_csv, path, **kwargs)
            ran[how] += 1
            want, want_warned, want_error = outcome(reference_load_csv, path,
                                                    categorical_threshold=threshold, **kwargs)
            assert got_error == want_error
            assert got_warned == want_warned
            if want is not None:
                assert_same_dataset(got, want)

        run_forms(check, self.EXAMPLES)
        assert_both_tokenizers_ran(ran, self.EXAMPLES)

    def test_load_design_for_predict_matches_the_reference(self, tmp_path, tokenizer):
        ran = Counter()

        def check(data, form):
            # a complete table has every feature, the first of them numeric
            complete = form == "complete"
            specs = []
            for j in range(data.draw(st.integers(int(complete), 3))):
                levels = data.draw(st.lists(cells().map(str.strip), min_size=1, max_size=4,
                                            unique=True))
                if data.draw(st.booleans()) and not (complete and j == 0):
                    specs.append(ColumnSpec(f"f{j}", "categorical", tuple(sorted(levels))))
                else:
                    specs.append(ColumnSpec(f"f{j}", "numeric"))
            specs.append(ColumnSpec("y", data.draw(st.sampled_from(RESPONSE_KINDS))))
            schema = Schema(tuple(specs))
            header = [s.name for s in specs[:-1]]
            if data.draw(st.booleans()):
                header.append("y")
            if data.draw(st.booleans()) and header and not complete:
                header.pop(data.draw(st.integers(0, len(header) - 1)))
            header = data.draw(st.permutations(header)) or ["y"]
            numbers = [s.name for s in specs if s.kind == "numeric"]
            rows = data.draw(complete_rows(header, numbers) if complete else csv_rows(header))
            path = tmp_path / "t.csv"
            write_rows(path, header, rows, (data.draw(TERMINATORS), QUOTING[form]))
            (got, got_warned, got_error), how = tokenizer(
                outcome, load_design_for_predict, path, schema)
            ran[how] += 1
            want, want_warned, want_error = outcome(reference_load_design_for_predict,
                                                    path, schema)
            assert got_error == want_error
            assert got_warned == want_warned
            if want is not None:
                assert got.dtype == want.dtype and got.shape == want.shape
                np.testing.assert_array_equal(got, want)

        run_forms(check, self.EXAMPLES)
        assert_both_tokenizers_ran(ran, self.EXAMPLES)


#: Characters of number spellings, and of what ``float`` and ``np.loadtxt``
#: tell apart: signs, exponents, underscores, words, Unicode digits and spaces.
NUMBER_PIECES = (*"0123456789" * 2, *"+-.eE_x ", "inf", "nan", "Infinity", "\t", "\x0b",
                 "\x0c", "\x1c", "\x1f", "\x85", "\xa0", "\u3000", "\u0661", "\uff11")


class TestNumberSpellings:
    """``np.loadtxt`` parses a numeric column only where it takes every cell
    to the value ``float`` gives the stripped cell: any other spelling sends
    the table to ``str.split``, so both readers give the reference's result."""

    SCHEMA = Schema((ColumnSpec("u", "numeric"), ColumnSpec("y", "response_numeric")))

    @settings(max_examples=300, deadline=None)
    @given(cell=st.lists(st.sampled_from(NUMBER_PIECES), min_size=1, max_size=6).map("".join))
    def test_same_as_the_reference(self, tmp_path_factory, cell):
        path = tmp_path_factory.getbasetemp() / "spelling.csv"
        path.write_text(f"u,y\n1,1\n{cell},2\n", encoding="utf-8")
        got = outcome(load_design_for_predict, path, self.SCHEMA)
        want = outcome(reference_load_design_for_predict, path, self.SCHEMA)
        assert got[1:] == want[1:]
        if want[0] is not None:
            assert got[0].tobytes() == want[0].tobytes()
        got, want = outcome(load_csv, path), outcome(reference_load_csv, path)
        assert got[1:] == want[1:]
        if want[0] is not None:
            assert_same_dataset(got[0], want[0])


class TestReaderCases:
    """Named files that each tokenizer must read as ``csv.reader`` does: the
    same dataset, warnings and error as the row-wise references. ``how``
    names the reader that gave the columns, one name for both readers or a
    pair (``load_csv``'s, ``load_design_for_predict``'s)."""

    SCHEMA = Schema((ColumnSpec("u", "numeric"), ColumnSpec("v", "categorical", ("a", "c")),
                     ColumnSpec("y", "response_numeric")))
    LONG_ROW = ",".join(["1"] * 70_000)  # past the field limit as a line, not as a cell

    @pytest.mark.parametrize("text, how", [
        ("u,v,y\n1,a,3\n\n4,c,6\n", "split"),
        ("u,v,y\n1,a,3\n4,c,6\n\n", "split"),
        ("u,v,y\n1,a,3\n4,c,6\n\n\n", "split"),
        ("u,v,y\n1,a,3\n4,c,6", "loadtxt"),
        ("u,v,y\n", "split"),
        ("u,v,y", "split"),
        ("u,v,y\n1,a,3,\n4,c,6\n", "split"),
        ("u,v,y,\n1,a,3,\n4,c,6,\n", "loadtxt"),
        ("u,v,y\r\n1,a,3\r\n\r\n4,c,6\r\n", "split"),
        ("u,v,y\n1,a\u2028b,3\n4,c\x1c\x85,6\n", "loadtxt"),
        (" u , v ,y\n 1 , a ,3\n", "loadtxt"),
        ("\n1,a,3\n", "split"),
        ("", "split"),
        ("u,v,y\r1,a,3\r4,c,6\r", "csv"),
        ("u,v,y\n1,a,3\r4,c,6\n", "csv"),
        ("u,v,y\r\n1,a,3\r\r\n4,c,6\r\n", "csv"),
        ("u,v,y\n1,a\x00b,3\n4,c,6\n", "csv"),
        ('u,v,y\r\n1,"a\r\nb",3\r\n4,c,6\r\n', "csv"),
        ('u,"v",y\n1,a,3\n4,c,6\n', "csv"),
        (f"u,v,y\n1,a,3\n{LONG_ROW}\n4,c,6\n", "csv"),
        ("u,v,y\n1,a,3\n4," + "c" * 200_000 + ",6\n", "csv"),
        ("u,v,y\n1,a,3\n \t\n4,c,6\n", "split"),
        ("u,v,y\n1,a,3\n1_0,c,6\n", "split"),
        ("u,v,y\n1,a,3\n\u0661,c,6\n", "split"),
        ("u,v,y\n1,a,3\n-nan,c,6\n", "split"),
        ("u,v,y\n1,a,3\nnan,c,6\n", "split"),
        ("u,v,y\n1,a,3\ninf,c,6\n", "loadtxt"),
        ("u,v,y\n1,a,3\n4,,6\n", "loadtxt"),
        ("u,v,y\n1,a,3\n4,NA,6\n", "loadtxt"),
        ("u,v,y\n1,a,3\n1.0,c,6\n01,a,7\n", "loadtxt"),
        ("u,v,y\n" + "".join(f"{i % 13},{'ac'[i % 2]},{i}\n" for i in range(40)), "loadtxt"),
        ("\ufeffu,v,y\n1,a,3\n4,c,6\n", ("loadtxt", "split")),
        ("v,w\na,b\nc,d\n", "split"),
        ("u,v,y\n1,a\n4,c,6,7\n", "split"),
    ], ids=["blank-line-mid-file", "blank-line-at-the-end", "two-blank-lines-at-the-end",
            "no-final-newline", "header-only", "header-only-no-newline", "trailing-comma",
            "trailing-comma-in-every-line", "blank-CRLF-line", "line-separators-in-cells",
            "padded-cells", "blank-header", "empty-file", "bare-CRs", "one-bare-CR",
            "CR-before-CRLF", "NUL-in-a-cell", "CRLF-in-a-quoted-cell", "quoted-header-cell",
            "line-past-the-field-limit", "unquoted-cell-past-the-field-limit",
            "whitespace-only-line", "underscore-number", "arabic-indic-digit", "minus-nan",
            "nan", "inf", "empty-text-cell", "NA-text-cell", "few-values-many-spellings",
            "thirteen-values", "utf8-bom", "all-text", "a-short-row-and-a-long-one"])
    def test_same_as_the_reference(self, tmp_path, tokenizer, text, how):
        csv_how, predict_how = (how, how) if isinstance(how, str) else how
        path = tmp_path / "t.csv"
        path.write_bytes(text.encode("utf-8"))
        got, ran = tokenizer(outcome, load_csv, path)
        assert ran == csv_how
        want = outcome(reference_load_csv, path)
        assert got[1:] == want[1:]
        if want[0] is not None:
            assert_same_dataset(got[0], want[0])
        got, ran = tokenizer(outcome, load_design_for_predict, path, self.SCHEMA)
        assert ran == predict_how
        want = outcome(reference_load_design_for_predict, path, self.SCHEMA)
        assert got[1:] == want[1:]
        if want[0] is not None:
            np.testing.assert_array_equal(got[0], want[0])

    @pytest.mark.parametrize("kwargs, kinds", [
        ({"kind_hints": {"u": "categorical"}}, ("categorical", "categorical", "response_numeric")),
        ({"kind_hints": {"u": "numeric"}}, ("numeric", "categorical", "response_numeric")),
        ({"classify": True}, ("categorical", "categorical", "response_class")),
    ], ids=["hinted-categorical-numbers", "hinted-numeric-few-values", "classify"])
    def test_options_same_as_the_reference(self, tmp_path, tokenizer, kwargs, kinds):
        path = write(tmp_path, "t.csv", "u,v,y\n1,a,3\n4,c,6\n1.0,a,3\n")
        (got, got_warned, got_error), ran = tokenizer(outcome, load_csv, path, **kwargs)
        assert ran == "loadtxt"
        want, want_warned, want_error = outcome(reference_load_csv, path, **kwargs)
        assert (got_warned, got_error) == (want_warned, want_error) == ([], None)
        assert_same_dataset(got, want)
        assert tuple(c.kind for c in got.schema.columns) == kinds

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(["a", '"', ",", "\r", "\n", "\r\n", "\x85", "\u2028",
                                     "\x1c"])).map("".join))
    def test_lines_as_a_newline_file_yields_them(self, text):
        assert list(dataset._file_lines(text)) == list(io.StringIO(text, newline=""))

    def test_quoted_table_is_not_copied_at_4_bytes_a_character(self, tmp_path):
        # a StringIO of the text held 4 bytes a character beside the text:
        # 8.7x the file traced here
        cells = ['"' + "w" * 150 + f'{i}"' for i in range(8)]
        text = 'u,"v",y\n' + "".join(f"{i},{cells[i % 8]},{i % 7}\n" for i in range(4000))
        path = write(tmp_path, "t.csv", text)
        tracemalloc.start()
        try:
            dataset._read_table(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * len(text)

    def test_a_bare_cr_ends_a_row_as_in_the_csv_module(self, tmp_path):
        # csv.reader over a file opened with newline="" ends a record at a lone CR
        path = write(tmp_path, "t.csv", "u,v,y\n1,a,3\r4,c,6\n")
        X = load_design_for_predict(path, self.SCHEMA)
        np.testing.assert_array_equal(X, [[1.0, 0.0], [4.0, 1.0]])


# --------------------------------------------------------------------------
# dataset_from_arrays: one blocked Fortran copy and one finiteness check,
# against the per-column body it replaced
# --------------------------------------------------------------------------

def reference_dataset_from_arrays(X, y, *, classification=False, feature_names=None,
                                  response_name="y"):
    """Oracle: ``dataset_from_arrays`` as it was, one strided copy per column
    and the constructor's finiteness check of every column."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise DataError("feature matrix must be 2-D")
    if feature_names is None:
        feature_names = tuple(f"x{i}" for i in range(X.shape[1]))
    kind = "response_class" if classification else "response_numeric"
    specs = [ColumnSpec(name, "numeric") for name in feature_names]
    specs.append(ColumnSpec(response_name, kind))
    columns = {name: X[:, i].copy() for i, name in enumerate(feature_names)}
    y = np.asarray(y)
    columns[response_name] = y.astype(str) if classification else y.astype(np.float64)
    return Dataset(Schema(tuple(specs)), columns)


def wrap_cases():
    """``(id, X, y, classification)`` for the oracle comparison."""
    rng = np.random.default_rng(25)
    wide = rng.normal(size=(40, 30))
    digits_X, digits_y = synthdata.synthetic_digits(3000, 25, noise=1.2)
    return [
        ("c-ordered", wide, rng.normal(size=40), False),
        ("f-ordered", np.asfortranarray(wide), rng.normal(size=40), False),
        ("strided", rng.normal(size=(90, 70))[::3, ::-2], rng.normal(size=30), False),
        ("integer", rng.integers(-5, 5, size=(30, 4)), rng.integers(0, 3, size=30), True),
        ("bool", rng.random(size=(30, 3)) < 0.5, rng.integers(0, 2, size=30), False),
        ("float32", wide.astype(np.float32), rng.normal(size=40), False),
        ("one-row", rng.normal(size=(1, 5)), np.array([1.5]), False),
        ("one-column", rng.normal(size=(25, 1)), rng.normal(size=25), False),
        ("digits", digits_X, digits_y, True),
    ]


class TestDatasetFromArrays:
    @pytest.mark.parametrize("case", wrap_cases(), ids=lambda case: case[0])
    def test_same_as_the_reference(self, case):
        _, X, y, classification = case
        got = dataset_from_arrays(X, y, classification=classification)
        want = reference_dataset_from_arrays(X, y, classification=classification)
        assert_same_dataset(got, want)
        copy = got.columns[got.schema.features[0].name].base
        assert copy.flags.f_contiguous and copy.shape == np.shape(X)
        assert all(got.columns[c.name].flags.c_contiguous for c in got.schema.features)
        got_split, _, got_error = outcome(split, got, 7)
        want_split, _, want_error = outcome(split, want, 7)
        assert got_error == want_error
        for ds, want_ds in zip(got_split or (got,), want_split or (want,)):
            assert_same_dataset(ds, want_ds)
            (design, groups), (want_design, want_groups) = encode_design(ds), encode_design(want_ds)
            assert design.dtype == want_design.dtype and np.array_equal(design, want_design)
            assert groups == want_groups

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_the_dataset_does_not_alias_the_callers_array(self, order):
        X = np.asarray(np.arange(60.0).reshape(20, 3), order=order)
        y = np.arange(20.0)
        ds = dataset_from_arrays(X, y)
        want = reference_dataset_from_arrays(X, y)
        X[:] = -1.0
        y[:] = -1.0
        assert_same_dataset(ds, want)

    @pytest.mark.parametrize("where", [
        {(0, 0): np.nan}, {(299, 39): np.inf}, {(150, 7): -np.inf},
        {(0, 30): np.nan, (299, 4): np.inf},  # a later row of an earlier column
        {(299, 0): np.nan, "y": np.inf},  # a feature before the response
        {"y": np.nan},
    ], ids=str)
    def test_a_non_finite_value_names_the_reference_column(self, where):
        rng = np.random.default_rng(3)
        X, y = rng.normal(size=(300, 40)), rng.normal(size=300)
        for cell, value in where.items():
            if cell == "y":
                y[0] = value
            else:
                X[cell] = value
        _, _, error = outcome(dataset_from_arrays, X, y)
        _, _, want_error = outcome(reference_dataset_from_arrays, X, y)
        assert error == want_error
        assert error[0] is DataError and "non-finite" in error[1]

    @pytest.mark.parametrize("names, match", [
        (("a", "b"), "2 feature name.* for 3 feature column"),
        (("a", "b", "c", "d"), "4 feature name.* for 3 feature column"),
    ])
    def test_feature_names_must_name_every_column(self, names, match):
        # the names were once zipped with the columns: too few dropped
        # columns, too many raised IndexError
        with pytest.raises(DataError, match=match):
            dataset_from_arrays(np.zeros((6, 3)), np.zeros(6), feature_names=names)

    @pytest.mark.parametrize("shape", [(6, 1), (6, 2), (5,)])
    def test_the_response_must_be_one_value_per_row(self, shape):
        match = "vector of 6 value.*got shape " + re.escape(str(shape))
        with pytest.raises(DataError, match=match):
            dataset_from_arrays(np.zeros((6, 3)), np.zeros(shape))

    def test_split_runs_no_finiteness_check(self, monkeypatch):
        ds = dataset_from_arrays(np.arange(200.0).reshape(50, 4), np.arange(50.0))
        checked, check = [], dataset._check_finite

        def spy(name, values):
            checked.append(name)
            check(name, values)

        monkeypatch.setattr(dataset, "_check_finite", spy)
        train, test = split(ds, seed=1)
        assert checked == [] and (train.n, test.n) == (40, 10)
        schema = Schema((ColumnSpec("u", "numeric"), ColumnSpec("y", "response_numeric")))
        for bad in (np.nan, np.inf):
            with pytest.raises(DataError, match="non-finite"):
                Dataset(schema, {"u": np.array([1.0, bad]), "y": np.zeros(2)})
        assert checked == ["u", "u"]

    def test_wrapping_a_wide_table_copies_it_once(self):
        X, y = synthdata.synthetic_digits(3000, 0)
        X = X.astype(np.float64)
        tracemalloc.start()
        try:
            dataset_from_arrays(X, y, classification=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * X.nbytes


def numeric_block(ds):
    """The Fortran-ordered float64 block the numeric feature columns of ``ds``
    are views of, back to back in schema order; an assertion error if they
    are not."""
    cols = [ds.columns[c.name] for c in ds.schema.features if c.kind == "numeric"]
    start = cols[0].__array_interface__["data"][0]
    for j, col in enumerate(cols):
        assert col.dtype == np.float64 and col.strides == (8,) and not col.flags.writeable
        assert col.__array_interface__["data"][0] == start + 8 * ds.n * j
    return np.lib.stride_tricks.as_strided(cols[0], (ds.n, len(cols)), (8, 8 * ds.n),
                                           writeable=False)


def block_cases(tmp_path):
    """Datasets by name: a wrapped matrix, a coded table with numerics among
    categoricals, and a loaded CSV."""
    rng = np.random.default_rng(28)
    schema = Schema((
        ColumnSpec("u", "numeric"), ColumnSpec("c", "categorical", ("a", "b", "c")),
        ColumnSpec("v", "numeric"), ColumnSpec("w", "numeric"),
        ColumnSpec("y", "response_class"),
    ))
    mixed = coded(schema, {"u": rng.normal(size=60), "c": rng.choice(["a", "b", "c"], 60),
                           "v": rng.normal(size=60), "w": np.arange(60),
                           "y": rng.choice(["p", "q"], 60)})
    path = write(tmp_path, "t.csv", "u,k,v,y\n" + "".join(
        f"{rng.normal():.6f},{'ab'[i % 2]},{rng.normal():.6f},{rng.normal():.6f}\n"
        for i in range(40)))
    return {"wrapped": dataset_from_arrays(rng.normal(size=(50, 7)), rng.normal(size=50)),
            "mixed": mixed, "csv": load_csv(path)}


class TestNumericBlock:
    """A Dataset holds its numeric feature columns as read-only views of one
    Fortran-ordered block, however it was built; ``take`` gathers the block
    in one copy and ``encode_design`` of an all-numeric table returns it."""

    @pytest.mark.parametrize("case", ["wrapped", "mixed", "csv"])
    def test_take_gathers_one_block(self, case, tmp_path):
        ds = block_cases(tmp_path)[case]
        rows = np.array([5, 0, 3, 3, 17, 8])
        sub = ds.take(rows)
        block = numeric_block(sub)
        names = [c.name for c in ds.schema.features if c.kind == "numeric"]
        want = np.column_stack([ds.columns[name][rows] for name in names])
        assert block.flags.f_contiguous and np.array_equal(block, want)
        assert list(sub.columns) == list(ds.columns)
        for name, arr in ds.columns.items():
            assert sub.columns[name].dtype == arr.dtype
            np.testing.assert_array_equal(sub.columns[name], arr[rows])

    def test_the_constructor_adopts_a_block_and_copies_other_columns(self):
        ds = dataset_from_arrays(np.arange(12.0).reshape(4, 3), np.zeros(4))
        again = Dataset(ds.schema, ds.columns)
        assert np.shares_memory(numeric_block(again), numeric_block(ds))
        columns = {**ds.columns, "x1": np.array([9.0, 8.0, 7.0, 6.0])}
        other = Dataset(ds.schema, columns)
        assert not np.shares_memory(numeric_block(other), numeric_block(ds))
        np.testing.assert_array_equal(other.columns["x1"], columns["x1"])

    def test_the_encoded_block_is_read_only(self):
        X = np.random.default_rng(1).normal(size=(30, 4))
        ds = dataset_from_arrays(X, np.zeros(30))
        for table in (ds, *split(ds, 2)):
            design, _ = encode_design(table)
            assert design.flags.f_contiguous and np.shares_memory(design, numeric_block(table))
            before = {name: arr.copy() for name, arr in table.columns.items()}
            with pytest.raises(ValueError, match="read-only"):
                design[0, 0] = 1.0
            with pytest.raises(ValueError):
                design.flags.writeable = True
            for name, arr in before.items():
                np.testing.assert_array_equal(table.columns[name], arr)

    def test_encoding_a_wrapped_table_copies_nothing(self):
        X, y = synthdata.synthetic_digits(3000, 0)
        X = X.astype(np.float64)
        ds = dataset_from_arrays(X, y, classification=True)
        tracemalloc.start()
        try:
            design, _ = encode_design(ds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.05 * X.nbytes
        np.testing.assert_array_equal(design, X)

    def test_split_copies_the_table_once(self):
        X, y = synthdata.synthetic_digits(3000, 0)
        X = X.astype(np.float64)
        ds = dataset_from_arrays(X, y, classification=True)
        tracemalloc.start()
        try:
            split(ds, 7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * X.nbytes
