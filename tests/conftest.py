"""Helpers shared by the test modules."""

import numpy as np

from polykit.dataset import Dataset


def coded(schema, columns, dropped_rows=0):
    """The Dataset of ``columns``, each categorical one given as its level
    names: it holds their codes, the index of each name in the schema's
    level set."""
    columns = dict(columns)
    for spec in schema.columns:
        if spec.kind == "categorical":
            index = {level: k for k, level in enumerate(spec.levels)}
            columns[spec.name] = np.array([index[v] for v in columns[spec.name]], np.intp)
    return Dataset(schema, columns, dropped_rows=dropped_rows)


def decoded(ds):
    """The columns of ``ds``, each categorical one as its level names."""
    columns = dict(ds.columns)
    for spec in ds.schema.columns:
        if spec.kind == "categorical":
            columns[spec.name] = np.array(spec.levels, dtype=str)[columns[spec.name]]
    return columns
