"""Versioned JSON container for fitted models.

The container carries everything prediction on raw CSV rows needs: the
training schema, dummy-group layout, term set, optional PCA basis and the
coefficients themselves. The term set is a ``# termset v1`` text field
that only this module writes and reads. Version 1 containers, which also
held a never-read standardization record, still load.
"""

from __future__ import annotations

import json

import numpy as np

from .dataset import ColumnSpec, DummyGroups, Schema
from .errors import DataError, ModelFormatError
from .fitcore import PCABasis, PolyModel
from .polyterms import Monomial, PolySpec, TermSet

FORMAT_NAME = "polykit-model"
FORMAT_VERSION = 2


def _schema_to_obj(schema: Schema | None):
    if schema is None:
        return None
    return [
        {"name": c.name, "kind": c.kind, "levels": list(c.levels)} for c in schema.columns
    ]


def _schema_from_obj(obj) -> Schema | None:
    if obj is None:
        return None
    if not all(isinstance(v, str) for c in obj for v in (c["name"], *c["levels"])):
        raise ModelFormatError("schema column names and levels must be strings")
    return Schema(tuple(ColumnSpec(c["name"], c["kind"], tuple(c["levels"])) for c in obj))


def _groups_to_obj(groups: DummyGroups | None):
    if groups is None:
        return None
    return {
        "groups": [[src, list(idxs)] for src, idxs in groups.groups],
        "numeric_indices": list(groups.numeric_indices),
        "column_names": list(groups.column_names),
    }


def _groups_from_obj(obj) -> DummyGroups | None:
    if obj is None:
        return None
    return DummyGroups(
        groups=tuple((src, tuple(idxs)) for src, idxs in obj["groups"]),
        numeric_indices=tuple(obj["numeric_indices"]),
        column_names=tuple(obj["column_names"]),
    )


def _terms_to_text(terms: TermSet) -> str:
    """A provenance header, then one monomial per line of space-separated
    ``col^exp`` factors."""
    spec = terms.spec
    lines = [f"# termset v1 width={terms.width} degree={spec.degree}"
             f" max_interact={spec.max_interact_degree}"]
    lines.extend(" ".join(f"{c}^{e}" for c, e in m.powers) for m in terms)
    return "\n".join(lines) + "\n"


def _terms_from_text(text: str, groups: DummyGroups | None) -> TermSet:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("# termset v1"):
        raise ValueError("not a termset (missing '# termset v1' header)")
    meta = dict(kv.split("=") for kv in lines[0].split()[3:])
    width = int(meta["width"])
    spec = PolySpec(int(meta["degree"]), int(meta["max_interact"]))
    terms = []
    for ln in lines[1:]:
        factors = (f.partition("^") for f in ln.split())
        terms.append(Monomial(tuple(sorted((int(c), int(e)) for c, _, e in factors))))
    if groups is None:
        groups = DummyGroups.all_numeric(width)
    return TermSet(tuple(terms), width, groups, spec)


def model_to_json(model: PolyModel) -> str:
    obj = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "method": model.method,
        "lambda": model.lam,
        "intercept": (
            model.intercept.tolist()
            if isinstance(model.intercept, np.ndarray)
            else model.intercept
        ),
        "coef": model.coef.tolist(),
        "classes": list(model.classes) if model.classes is not None else None,
        "aliased": list(model.aliased),
        "terms": _terms_to_text(model.terms),
        "term_groups": _groups_to_obj(model.terms.groups),
        "pca": None,
        "schema": _schema_to_obj(model.schema),
        "groups": _groups_to_obj(model.groups),
    }
    if model.pca is not None:
        obj["pca"] = {
            "components": model.pca.components.tolist(),
            "means": model.pca.means.tolist(),
            "retained_fraction": model.pca.retained_fraction,
            "target_fraction": model.pca.target_fraction,
        }
    return json.dumps(obj, indent=1, sort_keys=True)


def model_from_json(text: str) -> PolyModel:
    """Parse a container; any malformed content raises ModelFormatError."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"not a JSON model container: {exc}") from exc
    if not isinstance(obj, dict):
        raise ModelFormatError("model container is not a JSON object")
    if obj.get("format") != FORMAT_NAME:
        raise ModelFormatError("missing or wrong container format marker")
    version = obj.get("version")
    if type(version) is not int or version not in (1, FORMAT_VERSION):  # True == 1, 1.0 == 1
        raise ModelFormatError(
            f"model container version {version!r} unsupported"
            f" (this build reads versions 1 to {FORMAT_VERSION})"
        )
    try:
        return _model_from_obj(obj)
    except KeyError as exc:
        raise ModelFormatError(f"model container lacks the key {exc}") from exc
    except (AttributeError, TypeError, ValueError, DataError) as exc:
        raise ModelFormatError(f"malformed model container: {exc}") from exc


def _finite(value) -> np.ndarray:
    out = np.array(value, dtype=np.float64)
    if not np.all(np.isfinite(out)):
        raise ValueError("non-finite number")
    return out


def _model_from_obj(obj: dict) -> PolyModel:
    groups = _groups_from_obj(obj["groups"])
    terms = _terms_from_text(obj["terms"], _groups_from_obj(obj["term_groups"]))
    pca = None
    if obj["pca"] is not None:
        pca = PCABasis(
            components=_finite(obj["pca"]["components"]),
            means=_finite(obj["pca"]["means"]),
            retained_fraction=obj["pca"]["retained_fraction"],
            target_fraction=obj["pca"]["target_fraction"],
        )
    intercept = _finite(obj["intercept"])
    return PolyModel(
        terms=terms,
        intercept=intercept if intercept.ndim else float(intercept),
        coef=_finite(obj["coef"]),
        method=obj["method"],
        lam=obj["lambda"],
        pca=pca,
        classes=tuple(obj["classes"]) if obj["classes"] is not None else None,
        aliased=tuple(obj["aliased"]),
        schema=_schema_from_obj(obj["schema"]),
        groups=groups,
    )


def save_model(model: PolyModel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(model_to_json(model) + "\n")


def load_model(path) -> PolyModel:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return model_from_json(fh.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise ModelFormatError(f"cannot read model file {path}: {exc}") from exc
