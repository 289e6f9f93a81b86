"""Model container round trips and version gating."""

import json

import numpy as np
import pytest

from polykit import fitcore as fc
from polykit import modelio
from polykit.cli import EXIT_OK, main
from polykit.dataset import DummyGroups, dataset_from_arrays, encode_design
from polykit.errors import ModelFormatError
from polykit.polyterms import PolySpec, enumerate_terms


def fitted_model(method="ols", pca=False, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(120, 3))
    if method == "logistic":
        y = (X[:, 0] + 0.5 * X[:, 1] > 0).astype(int)
        ds = dataset_from_arrays(X, y, classification=True)
    else:
        y = 1 + X @ np.array([1.0, -2.0, 0.5]) + rng.normal(0, 0.1, 120)
        ds = dataset_from_arrays(X, y)
    design, groups = encode_design(ds)
    basis = fc.pca_fit(design, 0.999) if pca else None
    width = basis.r if pca else design.shape[1]
    tg = DummyGroups.all_numeric(width) if pca else groups
    terms = enumerate_terms(width, tg, PolySpec(2))
    return (
        fc.fit_poly_model(
            design, ds.response_values(), terms, method,
            lam=0.5 if method == "ridge" else None,
            pca=basis, schema=ds.schema, groups=groups,
        ),
        design,
    )


@pytest.mark.parametrize("method", ["ols", "ridge", "logistic"])
@pytest.mark.parametrize("pca", [False, True])
def test_round_trip_preserves_predictions(tmp_path, method, pca):
    model, design = fitted_model(method, pca)
    path = tmp_path / "model.json"
    modelio.save_model(model, path)
    back = modelio.load_model(path)
    assert back.method == model.method
    np.testing.assert_array_equal(fc.predict(back, design), fc.predict(model, design))
    assert back.terms.terms == model.terms.terms
    if model.schema is not None:
        assert back.schema == model.schema


def test_version_mismatch_rejected(tmp_path):
    model, _ = fitted_model()
    obj = json.loads(modelio.model_to_json(model))
    path = tmp_path / "model.json"
    for version in (99, True, 1.0):  # True and 1.0 compare equal to 1
        obj["version"] = version
        path.write_text(json.dumps(obj), encoding="utf-8")
        with pytest.raises(ModelFormatError, match="version"):
            modelio.load_model(path)


def test_garbage_rejected(tmp_path):
    path = tmp_path / "model.json"
    path.write_text("not json at all", encoding="utf-8")
    with pytest.raises(ModelFormatError):
        modelio.load_model(path)


def test_missing_file_rejected(tmp_path):
    with pytest.raises(ModelFormatError):
        modelio.load_model(tmp_path / "absent.json")


#: A version 1 ridge container (schema x numeric, g categorical a/b/c, 6
#: degree-2 terms) as the version 1 writer saved it, with its
#: ``standardization`` record, and what ``polykit predict`` wrote for it.
V1_RIDGE_CONTAINER = r"""{
 "aliased": [],
 "classes": null,
 "coef": [
  1.8558531495714896,
  1.5798253676391694,
  0.09485788164234056,
  -1.0296869711717094,
  0.0967401929210051,
  0.18682287151055563
 ],
 "format": "polykit-model",
 "groups": {
  "column_names": [
   "x",
   "g=b",
   "g=c"
  ],
  "groups": [
   [
    "g",
    [
     1,
     2
    ]
   ]
  ],
  "numeric_indices": [
   0
  ]
 },
 "intercept": 0.9243951957001395,
 "lambda": 0.5,
 "method": "ridge",
 "pca": null,
 "schema": [
  {
   "kind": "numeric",
   "levels": [],
   "name": "x"
  },
  {
   "kind": "categorical",
   "levels": [
    "a",
    "b",
    "c"
   ],
   "name": "g"
  },
  {
   "kind": "response_numeric",
   "levels": [],
   "name": "y"
  }
 ],
 "standardization": {
  "means": [
   -0.24734375000000003,
   0.25,
   0.4375,
   0.7618335312499999,
   -0.01309375000000001,
   -0.08384375000000002
  ],
  "scales": [
   0.8370511337940697,
   0.4330127018922193,
   0.49607837082461076,
   0.844022960247046,
   0.481937519250097,
   0.55641082559197
  ]
 },
 "term_groups": {
  "column_names": [
   "x",
   "g=b",
   "g=c"
  ],
  "groups": [
   [
    "g",
    [
     1,
     2
    ]
   ]
  ],
  "numeric_indices": [
   0
  ]
 },
 "terms": "# termset v1 width=3 degree=2 max_interact=2\n0^1\n1^1\n2^1\n0^2\n0^1 1^1\n0^1 2^1\n",
 "version": 1
}
"""
V1_PREDICT_ROWS = """x,g
0.5,a
-1.25,b
2,c
0,b
"""
V1_PREDICTIONS = """prediction
1.594900027692957
-1.5454070072321053
0.9858572348197332
2.5042205633393086
"""


def test_version_one_container_predicts_bit_identically(tmp_path):
    model_path = tmp_path / "model.json"
    model_path.write_text(V1_RIDGE_CONTAINER, encoding="utf-8")
    rows = tmp_path / "new.csv"
    rows.write_text(V1_PREDICT_ROWS, encoding="utf-8")
    out = tmp_path / "preds.csv"
    rc = main(["predict", "--model", str(model_path), "--data", str(rows), "--out", str(out)])
    assert rc == EXIT_OK
    assert out.read_text(encoding="utf-8") == V1_PREDICTIONS
    resaved = json.loads(modelio.model_to_json(modelio.load_model(model_path)))
    assert resaved["version"] == 2 and "standardization" not in resaved


#: Version 2 containers as ``polykit fit`` wrote them: degree 2 on a CSV
#: with a numeric and a three-level categorical column, and a three-class
#: logistic fit after ``--pca 0.9``.
V2_CATEGORICAL_CONTAINER = r"""{
 "aliased": [],
 "classes": null,
 "coef": [
  2.021492765770885,
  0.5144981717020888,
  1.006113287710083,
  -1.001525582461595,
  -0.028928550558666714,
  -0.022941481529718952
 ],
 "format": "polykit-model",
 "groups": {
  "column_names": [
   "u",
   "c=b",
   "c=c"
  ],
  "groups": [
   [
    "c",
    [
     1,
     2
    ]
   ]
  ],
  "numeric_indices": [
   0
  ]
 },
 "intercept": 0.9923958199633124,
 "lambda": null,
 "method": "ols",
 "pca": null,
 "schema": [
  {
   "kind": "numeric",
   "levels": [],
   "name": "u"
  },
  {
   "kind": "categorical",
   "levels": [
    "a",
    "b",
    "c"
   ],
   "name": "c"
  },
  {
   "kind": "response_numeric",
   "levels": [],
   "name": "y"
  }
 ],
 "term_groups": {
  "column_names": [
   "u",
   "c=b",
   "c=c"
  ],
  "groups": [
   [
    "c",
    [
     1,
     2
    ]
   ]
  ],
  "numeric_indices": [
   0
  ]
 },
 "terms": "# termset v1 width=3 degree=2 max_interact=2\n0^1\n1^1\n2^1\n0^2\n0^1 1^1\n0^1 2^1\n",
 "version": 2
}
"""
V2_LOGISTIC_PCA_CONTAINER = r"""{
 "aliased": [],
 "classes": [
  "0",
  "1",
  "2"
 ],
 "coef": [
  [
   -0.5525772548983435,
   -0.09466539165524511,
   0.6310774202138674
  ],
  [
   0.006110633796381031,
   0.074724980476922,
   -0.120152493590991
  ],
  [
   0.08434648425995508,
   -0.19430035746950544,
   0.06886579936600123
  ],
  [
   -0.01339618672003474,
   0.049178449102970284,
   -0.015248915808575306
  ],
  [
   -0.053032674213544795,
   0.027336206350048197,
   0.01433708122577409
  ]
 ],
 "format": "polykit-model",
 "groups": {
  "column_names": [
   "u",
   "v",
   "w"
  ],
  "groups": [],
  "numeric_indices": [
   0,
   1,
   2
  ]
 },
 "intercept": [
  -2.013392400151182,
  0.7325417222579789,
  -1.4869397156726611
 ],
 "lambda": null,
 "method": "logistic",
 "pca": {
  "components": [
   [
    0.8933091236435469,
    -0.25437547997338045
   ],
   [
    0.4492792580051735,
    0.5276475594009842
   ],
   [
    -0.012122621066374108,
    0.8104820591762025
   ]
  ],
  "means": [
   3.238970833333333,
   1.9455875000000002,
   -0.011658333333333326
  ],
  "retained_fraction": 0.9354162147436774,
  "target_fraction": 0.9
 },
 "schema": [
  {
   "kind": "numeric",
   "levels": [],
   "name": "u"
  },
  {
   "kind": "numeric",
   "levels": [],
   "name": "v"
  },
  {
   "kind": "numeric",
   "levels": [],
   "name": "w"
  },
  {
   "kind": "response_class",
   "levels": [],
   "name": "y"
  }
 ],
 "term_groups": {
  "column_names": [
   "x0",
   "x1"
  ],
  "groups": [],
  "numeric_indices": [
   0,
   1
  ]
 },
 "terms": "# termset v1 width=2 degree=2 max_interact=2\n0^1\n1^1\n0^2\n0^1 1^1\n1^2\n",
 "version": 2
}
"""


@pytest.mark.parametrize("text", [V2_CATEGORICAL_CONTAINER, V2_LOGISTIC_PCA_CONTAINER],
                         ids=["categorical", "logistic-pca"])
def test_load_then_save_is_byte_identical(tmp_path, text):
    path = tmp_path / "model.json"
    path.write_text(text, encoding="utf-8")
    again = tmp_path / "again.json"
    modelio.save_model(modelio.load_model(path), again)
    assert again.read_text(encoding="utf-8") == text


class TestSerialization:
    def test_round_trip(self):
        groups = DummyGroups(
            groups=(("c", (2,)),), numeric_indices=(0, 1), column_names=("u", "v", "c=x")
        )
        ts = enumerate_terms(3, groups, PolySpec(3, 2))
        back = modelio._terms_from_text(modelio._terms_to_text(ts), groups)
        assert back.terms == ts.terms
        assert back.spec == ts.spec
        assert back.width == ts.width

    def test_bad_header(self):
        model, _ = fitted_model()
        obj = json.loads(modelio.model_to_json(model))
        obj["terms"] = "0^1\n"
        with pytest.raises(ModelFormatError, match="termset"):
            modelio.model_from_json(json.dumps(obj))
