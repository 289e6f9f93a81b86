"""Tabular ingestion: column typing, dummy encoding, train/test splitting.

A :class:`Dataset` is an immutable table of fully-populated columns plus a
:class:`Schema` that types each column. A categorical column holds integer
level codes, each an index into its ``ColumnSpec.levels``; a class response
holds its labels. Categorical columns are expanded into 0/1 indicator
("dummy") columns by :func:`encode_design`, one per level but the first,
the indicator of level k being ``codes == k``; :class:`DummyGroups` records
which design columns came from which source so downstream term enumeration
can apply the indicator degeneracy rules.
"""

from __future__ import annotations

import csv
import re
import warnings
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import partial
from itertools import compress, repeat

import numpy as np

from .errors import DataError

COLUMN_KINDS = ("numeric", "categorical", "response_numeric", "response_class")
RESPONSE_KINDS = ("response_numeric", "response_class")

#: Cell values (lowercased) treated as missing during ingestion.
MISSING_TOKENS = frozenset({"", "na", "nan", "n/a", "null"})

#: A feature column whose distinct-value count is at or below this is
#: treated as categorical even when every value parses as a number; a
#: schema sidecar (``kind_hints``) types any column its own way.
CATEGORICAL_THRESHOLD = 12


def _floats(values: Sequence[str]) -> np.ndarray | None:
    """The cells as float64 in one conversion, or None when one is not a
    number. NumPy accepts exactly the spellings ``float`` accepts."""
    try:
        return np.array(values, dtype=np.float64)
    except ValueError:
        return None


def _strip(cells: Sequence[str]) -> list[str]:
    """The cells stripped of surrounding whitespace."""
    return list(map(str.strip, cells))


class _Column:
    """One CSV column: its raw cells, their float64 values (None when a cell
    is not a number even once stripped, or is missing in a column the raw
    conversion rejected) and, on demand, the stripped cells. The cells may
    be given as a function that gives them, called when first asked for: a
    numeric column needs its text only to count or keep its spellings."""

    def __init__(self, cells: Sequence[str] | Callable[[], Sequence[str]],
                 floats: np.ndarray | None, stripped: list[str] | None):
        self._cells = cells
        self.floats = floats
        self._stripped = stripped

    @property
    def cells(self) -> Sequence[str]:
        if callable(self._cells):
            self._cells = self._cells()
        return self._cells

    @classmethod
    def read(cls, cells: Sequence[str] | _Column,
             stop: int | None = None) -> tuple[_Column, np.ndarray]:
        """The column of its first ``stop`` cells and its missing-cell mask.
        The raw cells are converted once; of the missing tokens only ``nan``
        converts, so only the NaN cells of a converted column are looked up.
        A column the conversion rejects is stripped, and only its cells no
        longer than a missing token are looked up; it is converted again only
        when no cell is missing, as :meth:`take` converts the kept ones. A
        column :func:`_read_table` gave already parsed has no missing cell
        and comes back whole."""
        if isinstance(cells, _Column):
            return cells, np.zeros(len(cells.floats), bool)
        if stop is not None:
            cells = cells[:stop]
        floats = _floats(cells)
        if floats is not None:
            missing = np.isnan(floats)
            for i in np.flatnonzero(missing):
                missing[i] = cells[i].strip().lower() in MISSING_TOKENS
            return cls(cells, floats, None), missing
        stripped = _strip(cells)
        # a cell longer than every missing token is none of them: lowering never shortens
        longest = max(map(len, MISSING_TOKENS))
        lengths = np.fromiter(map(len, stripped), np.intp, len(stripped))
        maybe = np.flatnonzero(lengths <= longest).tolist()
        missing = np.zeros(len(stripped), bool)
        missing[maybe] = [stripped[i].lower() in MISSING_TOKENS for i in maybe]
        return cls(cells, None if missing.any() else _floats(stripped), stripped), missing

    def strings(self) -> list[str]:
        """The cells stripped of surrounding whitespace."""
        if self._stripped is None:
            self._stripped = _strip(self.cells)
        return self._stripped

    def take(self, keep: np.ndarray) -> _Column:
        """The cells where ``keep`` holds. A column that did not convert is
        converted again, as the cells that stopped it may be gone; a column
        that did takes its cells only if they are asked for."""
        flags = keep.tolist()
        if self.floats is not None:
            return _Column(lambda: list(compress(self.cells, flags)), self.floats[keep], None)
        stripped = list(compress(self.strings(), flags))
        return _Column(stripped, _floats(stripped), stripped)

    def typed(self, path, spec: ColumnSpec) -> np.ndarray:
        """float64 for the numeric kinds, the level codes of a categorical,
        the stripped strings of a class response."""
        if spec.kind == "categorical":
            return _level_codes(self.strings(), spec.levels)[0]
        if spec.kind == "response_class":
            return np.array(self.strings(), dtype=str)
        if self.floats is None:
            bad = next(v for v in self.strings() if _floats([v]) is None)
            raise DataError(f"{path}: non-numeric value {bad!r} in numeric column {spec.name!r}")
        return self.floats


def _level_codes(cells: Sequence[str], levels: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The index in ``levels`` of each stripped cell (-1 for a value outside
    them) and the missing-cell mask.

    Each raw cell is looked up once. The lookup holds only the levels a
    stripped, present cell can equal: those that equal their own ``strip()``
    and are no missing token. So a hit is a present cell of that level, and
    only a miss is stripped, checked against ``MISSING_TOKENS`` and looked
    up again.
    """
    lookup = {level: k for k, level in enumerate(levels)
              if level == level.strip() and level.lower() not in MISSING_TOKENS}
    codes = np.fromiter(map(lookup.get, cells, repeat(-1)), np.intp, len(cells))
    missing = np.zeros(len(cells), bool)
    for i in np.flatnonzero(codes < 0).tolist():
        cell = cells[i].strip()
        if cell.lower() in MISSING_TOKENS:
            missing[i] = True
        else:
            codes[i] = lookup.get(cell, -1)
    return codes, missing


def _check_finite(name: str, values: np.ndarray) -> None:
    """A ``DataError`` unless every value of numeric column ``name`` is finite."""
    if not np.all(np.isfinite(values)):
        raise DataError(f"non-finite values in numeric column {name!r}")


@dataclass(frozen=True)
class ColumnSpec:
    """Name, kind and (for categoricals) the observed level set of a column."""

    name: str
    kind: str
    levels: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind not in COLUMN_KINDS:
            raise DataError(f"unknown column kind {self.kind!r} for {self.name!r}")
        if self.kind == "categorical" and len(self.levels) < 1:
            raise DataError(f"categorical column {self.name!r} must list >= 1 level")
        if self.kind != "categorical" and self.levels:
            raise DataError(f"only categorical columns carry levels ({self.name!r})")


@dataclass(frozen=True)
class Schema:
    """Typed column layout with exactly one response column."""

    columns: tuple[ColumnSpec, ...]

    def __post_init__(self):
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise DataError("duplicate column names in schema")
        n_resp = sum(c.kind in RESPONSE_KINDS for c in self.columns)
        if n_resp != 1:
            raise DataError(f"schema must have exactly one response column, got {n_resp}")

    @property
    def response(self) -> ColumnSpec:
        return next(c for c in self.columns if c.kind in RESPONSE_KINDS)

    @property
    def features(self) -> tuple[ColumnSpec, ...]:
        return tuple(c for c in self.columns if c.kind not in RESPONSE_KINDS)

    @property
    def is_classification(self) -> bool:
        return self.response.kind == "response_class"

    def column(self, name: str) -> ColumnSpec:
        for c in self.columns:
            if c.name == name:
                return c
        raise KeyError(name)


@dataclass(frozen=True)
class Dataset:
    """Immutable table: one array per schema column, no missing values.

    Numeric (and numeric-response) columns hold float64; a categorical
    column holds integer level codes in ``[0, len(levels))`` of its
    ``ColumnSpec``; a class-response column holds its labels as strings.
    ``dropped_rows`` records how many incomplete rows ingestion discarded.

    The numeric feature columns are read-only views of one Fortran-ordered
    float64 block, in schema order, whoever builds the Dataset: the
    constructor adopts the block its columns already are the columns of
    (:func:`_numeric_block`) and copies them into a new one otherwise;
    :meth:`take` gathers the block's rows in one copy; :func:`encode_design`
    of a table with no indicator column returns the block itself.
    """

    schema: Schema
    columns: dict[str, np.ndarray]
    dropped_rows: int = 0

    def __post_init__(self):
        self._check(values=True)
        self._hold(_numeric_block([self.columns[name] for name in self._numeric_names], self.n))

    def _check(self, values: bool) -> None:
        """Every schema column present, equally long and not empty, and,
        with ``values``, every numeric column finite and every categorical
        one level codes."""
        lengths = set()
        for spec in self.schema.columns:
            if spec.name not in self.columns:
                raise DataError(f"dataset missing column {spec.name!r}")
            arr = np.asarray(self.columns[spec.name])
            lengths.add(len(arr))
            if values and spec.kind in ("numeric", "response_numeric"):
                _check_finite(spec.name, np.asarray(arr, dtype=np.float64))
            elif values and spec.kind == "categorical" and not (
                    arr.dtype.kind in "iu" and np.all((arr >= 0) & (arr < len(spec.levels)))):
                raise DataError(f"categorical column {spec.name!r} must hold integer level"
                                f" codes in [0, {len(spec.levels)})")
        if len(lengths) != 1:
            raise DataError("dataset columns have unequal lengths")
        if self.n < 1:
            raise DataError("dataset must contain at least one row")

    def _hold(self, block: np.ndarray) -> None:
        """Keep ``block``, made read-only, and make the numeric feature
        columns its views, in the places ``columns`` has them."""
        block.flags.writeable = False
        object.__setattr__(self, "_block", block)
        object.__setattr__(self, "columns", {**self.columns,
                                             **dict(zip(self._numeric_names, block.T))})

    @classmethod
    def _of_checked(cls, schema: Schema, columns: dict[str, np.ndarray],
                    block: np.ndarray) -> Dataset:
        """The Dataset of ``columns``, whose numeric feature columns are
        replaced by the views of ``block``, and whose values are known to
        pass the constructor's checks: checked as it checks, but for the
        values."""
        ds = object.__new__(cls)
        object.__setattr__(ds, "schema", schema)
        object.__setattr__(ds, "columns", columns)
        object.__setattr__(ds, "dropped_rows", 0)
        ds._hold(block)
        ds._check(values=False)
        return ds

    @property
    def _numeric_names(self) -> list[str]:
        """The numeric feature names in schema order: the block's columns."""
        return [c.name for c in self.schema.features if c.kind == "numeric"]

    @property
    def n(self) -> int:
        return len(self.columns[self.schema.columns[0].name])

    def response_values(self) -> np.ndarray:
        """Response column: float64 for regression, labels for classification."""
        resp = self.schema.response
        arr = self.columns[resp.name]
        return arr.astype(np.float64) if resp.kind == "response_numeric" else arr

    def take(self, indices: np.ndarray) -> "Dataset":
        """Row subset in the given order (shares the schema). The numeric
        block is gathered in one copy, Fortran-ordered as :func:`design_rows`
        gathers a design, and each other column by its own index. The values
        were checked when this Dataset was built, so they are not checked
        again."""
        numeric = set(self._numeric_names)
        cols = {name: arr if name in numeric else arr[indices]
                for name, arr in self.columns.items()}
        block = design_rows(self._block, indices)
        block.base.flags.writeable = False  # the copy itself, so no view of it is writeable
        return Dataset._of_checked(self.schema, cols, block)


def _numeric_block(columns: list[np.ndarray], n: int) -> np.ndarray:
    """The n x k Fortran-ordered float64 block whose columns are the k
    numeric ``columns``, in order. Columns that already are such a block's,
    contiguous float64 arrays back to back in one allocation, are adopted
    as a view of it with no copy; any others are copied into a new block."""
    columns = [np.asarray(c) for c in columns]
    owners = [c if c.base is None else c.base for c in columns]
    starts = [c.__array_interface__["data"][0] for c in columns]
    if columns and all(
            c.dtype == np.float64 and c.strides == (8,) and owner is owners[0]
            and start == starts[0] + 8 * n * j
            for j, (c, owner, start) in enumerate(zip(columns, owners, starts))):
        return np.lib.stride_tricks.as_strided(columns[0], (n, len(columns)), (8, 8 * n),
                                               writeable=False)
    block = np.empty((n, len(columns)), order="F")
    for j, c in enumerate(columns):
        block[:, j] = c
    return block


@dataclass(frozen=True)
class DummyGroups:
    """Bookkeeping for a design matrix produced by :func:`encode_design`.

    ``groups`` maps each categorical source column to the design-column
    indices of its indicator block; ``numeric_indices`` lists the columns
    that passed through unchanged. Every design column belongs to exactly
    one of the two.
    """

    groups: tuple[tuple[str, tuple[int, ...]], ...] = ()
    numeric_indices: tuple[int, ...] = ()
    column_names: tuple[str, ...] = ()

    def __post_init__(self):
        seen: set[int] = set(self.numeric_indices)
        for _, idxs in self.groups:
            for i in idxs:
                if i in seen:
                    raise DataError(f"design column {i} assigned twice")
                seen.add(i)
        if self.column_names and seen != set(range(len(self.column_names))):
            raise DataError("dummy-group indices do not cover the design width")

    @property
    def width(self) -> int:
        return len(self.column_names)

    def group_of(self) -> dict[int, int]:
        """Map design-column index -> ordinal of its dummy group."""
        return {i: g for g, (_, idxs) in enumerate(self.groups) for i in idxs}

    @classmethod
    def all_numeric(cls, width: int, names: tuple[str, ...] | None = None) -> "DummyGroups":
        if names is None:
            names = tuple(f"x{i}" for i in range(width))
        return cls(groups=(), numeric_indices=tuple(range(width)), column_names=names)


def key_value_lines(path, role: str, form: str = "key = value"):
    """``(lineno, key, value)`` of each line of a UTF-8 ``role`` file, split at
    the first ``=``; ``#`` comments and blank lines are skipped. An unreadable
    file, or a line without ``=`` (expected: ``form``), is a ``DataError``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise DataError(f"{path}:{lineno}: expected '{form}'")
                key, value = (part.strip() for part in line.split("=", 1))
                yield lineno, key, value
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {role} file {path}: {exc}") from exc


def parse_schema_sidecar(path) -> dict[str, str]:
    """Read a schema sidecar file: one ``column = kind`` line per column.
    Kinds are the four column kinds; categorical level sets are always
    inferred from the data."""
    hints: dict[str, str] = {}
    for lineno, name, kind in key_value_lines(path, "schema", "column = kind"):
        if kind not in COLUMN_KINDS:
            raise DataError(f"{path}:{lineno}: unknown kind {kind!r}")
        hints[name] = kind
    return hints


def _read_table(path) -> tuple[list[str], Callable]:
    """The stripped header and ``rows(numeric)``, which gives the field
    count of each data row and the data rows of full length column by
    column: each column its cells, or a ``_Column`` already read.
    ``numeric(first)`` says from the cells of the first data row which
    columns to parse as numbers.

    The file is read whole. When its text, each ``\\r\\n`` made ``\\n``,
    holds no ``"``, no other ``\\r``, no NUL (which ``csv.reader`` refused
    before Python 3.11) and no line longer than ``csv.field_size_limit()``,
    the excel dialect of ``csv.reader`` splits it at exactly each ``\\n`` and
    each ``,``: so does ``str.split``, once over the joined lines of full
    length, and column j is every ``fields``-th cell from the j-th. Any
    other text is read by ``csv.reader``, as from the file. Both give an
    empty line no field.

    A plain text with a data row, no empty line and no row of the wrong
    field count is a complete table, which :func:`_load_complete` parses
    with no Python string per numeric cell where it can. ``str.split``
    stays the reader of the other plain tables, and of those whose numbers
    ``np.loadtxt`` does not take: it keeps every cell, so the readers can
    drop the bad rows or name the bad cell.
    """
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            text = fh.read()
        # a text with no CR needs neither the two CR counts nor the CRLF replace
        cr = "\r" in text
        plain = not ('"' in text or "\0" in text) and (
            not cr or text.count("\r") == text.count("\r\n"))
        flat = (text.replace("\r\n", "\n") if cr else text) if plain else ""
        lines = flat.split("\n") if plain else []
        if lines and not lines[-1]:
            lines.pop()  # the end of the last line, or an empty file
        limit = csv.field_size_limit()
        plain = plain and not (len(flat) > limit and max(map(len, lines)) > limit)
        records = lines if plain else list(csv.reader(_file_lines(text)))
        if not records:
            raise DataError(f"{path}: empty file")
        header = (lines[0].split(",") if lines[0] else []) if plain else records[0]
        fields = len(header)
        if not fields:
            raise DataError(f"{path}: the header row (line 1) has no field")
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc

    def rows(numeric: Callable[[list[str]], list[bool]]) -> tuple[list[int], list]:
        data = records[1:]
        if not plain:
            full = [row for row in data if len(row) == fields]
            return list(map(len, data)), list(zip(*full)) if full else [()] * fields
        numbers = numeric(data[0].split(",")) if data else []
        # np.loadtxt refuses a row of another field count, so the comma total
        # is enough to keep the tables with bad rows from it
        if any(numbers) and "" not in data and flat.count(",") == (fields - 1) * len(lines):
            parsed = _load_complete(data, numbers)
            if parsed is not None:
                return [fields] * len(data), parsed
        counts = [line.count(",") + 1 if line else 0 for line in data]
        full = [line for line, k in zip(data, counts) if k == fields]
        cells = ",".join(full).split(",") if full else []
        return counts, [cells[j::fields] for j in range(fields)]

    return [h.strip() for h in header], rows


def _file_lines(text: str) -> list[str]:
    r"""The lines of ``text`` as a file opened with ``newline=""`` yields
    them, each with its end: split after each ``\r\n``, lone ``\r`` and
    ``\n``. (``str.splitlines`` also splits at ``\x1c``, ``\x85``,
    ``\u2028`` and more; a ``StringIO`` holds the text at 4 bytes a
    character.)
    """
    return re.findall(r"[^\r\n]*(?:\r\n?|\n)|[^\r\n]+", text)


def _field(lines: list[str], j: int) -> list[str]:
    """The j-th comma-separated cell of each line."""
    return [line.split(",", j + 1)[j] for line in lines]


def _load_complete(lines: list[str], numeric: list[bool]) -> list | None:
    """The columns of a complete plain table, its data ``lines``, from one
    ``np.loadtxt`` call; None where ``str.split`` must read it.

    A numeric column is a float64 field. ``np.loadtxt`` takes a subset of
    the spellings ``float`` takes of a stripped cell (not ``1_0`` nor
    ``١``), to the same values, and of the missing tokens only ``nan``.
    Such a column comes back as a ``_Column`` whose text is split from the
    lines only if asked for; any other column is an object field of its raw
    cells. Every column of the table is a field, so a row of the wrong
    field count raises. The table goes to ``str.split`` on a ``ValueError``
    (a cell that is no number, a missing one among them), when the row
    count is not the line count, and when a numeric column holds a NaN
    (``nan`` is a missing token, ``-nan`` is not). A table with no numeric
    column never comes here: the object fields of an all-text table cost
    about what ``str.split`` does.
    """
    dtype = np.dtype([(f"f{j}", "f8" if number else "O") for j, number in enumerate(numeric)])
    try:
        # the lines as a list: a StringIO of the text would copy it to 4 bytes a character
        table = np.loadtxt(lines, delimiter=",", comments=None, dtype=dtype, ndmin=1)
    except ValueError:
        return None
    if len(table) != len(lines):
        return None
    columns = []
    for j, number in enumerate(numeric):
        cells = table[f"f{j}"]
        if number:
            floats = np.ascontiguousarray(cells)
            if np.isnan(floats).any():
                return None
            cells = _Column(partial(_field, lines, j), floats, None)
        columns.append(cells)
    return columns


def load_csv(
    path,
    *,
    kind_hints: dict[str, str] | None = None,
    response: str | None = None,
    classify: bool = False,
) -> Dataset:
    """Load a comma-delimited UTF-8 file with a header row into a Dataset.

    Column typing: per-column ``kind_hints`` (e.g. from
    :func:`parse_schema_sidecar`) override inference. An inferred feature
    column is categorical iff a non-numeric value occurs or its
    distinct-value count is <= ``CATEGORICAL_THRESHOLD``. The response
    column is named by ``response`` (default: last header column) and is
    inferred as a class response iff it holds non-numeric values; with
    ``classify`` it is a class response whatever its values, as if hinted
    ``response_class``.

    Rows with any missing cell (or the wrong field count) are dropped; the
    count is reported as a warning and on ``Dataset.dropped_rows``. New rows
    are read against a saved schema by :func:`load_design_for_predict`.

    Ingest is column-wise: :func:`_read_table` gives the cells of the rows
    of full length column by column, and each column is converted to
    float64 in one call, which settles both whether it is numeric and, from
    its NaN cells, which of its cells are missing. Only a column the
    conversion rejects is stripped and checked for missing tokens, and only
    in its cells no longer than a token. A complete plain table is parsed
    in one ``np.loadtxt`` call instead, each column whose first cell is a
    number and that no hint or ``classify`` makes text straight to float64;
    such a column is split from the lines again only for its spellings,
    when it has at most ``CATEGORICAL_THRESHOLD`` values. A table with
    bad rows, or with a numeric column ``np.loadtxt`` does not take whole
    (a hole among its cells), is split as above.
    """
    header, rows = _read_table(path)
    hints = kind_hints or {}
    unknown = [name for name in hints if name not in header]
    if unknown:
        raise DataError(f"{path}: schema names columns {unknown} absent from header")
    resp_name = response if response is not None else next(
        (n for n, k in hints.items() if k in RESPONSE_KINDS), header[-1])
    if resp_name not in header:
        raise DataError(f"{path}: response column {resp_name!r} absent")
    if classify:
        hints = {**hints, resp_name: "response_class"}

    text = [hints.get(name) in ("categorical", "response_class") for name in header]
    counts, cells = rows(lambda first: [not is_text and _floats([cell]) is not None
                                        for is_text, cell in zip(text, first)])
    del rows  # the file's text goes with it, before the Dataset copies the numeric columns
    read = [_Column.read(column) for column in cells]
    keep = ~np.logical_or.reduce([holes for _, holes in read])
    kept = int(np.count_nonzero(keep))
    if not kept:
        raise DataError(f"{path}: no usable rows after dropping incomplete ones")
    dropped = len(counts) - kept
    if dropped:
        warnings.warn(f"{path}: {dropped} row(s) dropped (missing or malformed cells)")
    cols = [col if kept == len(keep) else col.take(keep) for col, _ in read]

    specs = []
    for name, col in zip(header, cols):
        kind = hints.get(name)
        if kind is None:
            numeric = col.floats is not None
            if name == resp_name:
                kind = "response_numeric" if numeric else "response_class"
            elif numeric and (len(np.unique(col.floats)) > CATEGORICAL_THRESHOLD
                              or len(set(col.strings())) > CATEGORICAL_THRESHOLD):
                kind = "numeric"
            else:
                kind = "categorical"
        levels = tuple(sorted(set(col.strings()))) if kind == "categorical" else ()
        specs.append(ColumnSpec(name, kind, levels))
    schema = Schema(tuple(specs))

    columns = {spec.name: col.typed(path, spec) for spec, col in zip(specs, cols)}
    return Dataset(schema, columns, dropped_rows=dropped)


def encode_design(ds: Dataset, schema: Schema | None = None) -> tuple[np.ndarray, DummyGroups]:
    """Build the numeric design matrix: numerics pass through, categoricals
    become k-1 indicator columns (lexicographically first level dropped).
    The matrix is column-major (Fortran-ordered).

    Column order is all numeric features in schema order, then one indicator
    block per categorical feature in schema order; a design with no columns
    is a ``DataError`` that names the features that gave none. Passing a training
    ``schema`` encodes new data against the training level sets: each code
    is mapped through the level names onto that schema's level set, and a
    value outside it maps to the all-zero reference encoding with a warning.

    A design of the numeric features alone, in the Dataset's own order, is
    the Dataset's numeric block itself, read-only and not copied; with
    indicator columns the numeric columns are copied in once, one
    contiguous column at a time, and the indicators written after them.
    """
    enc = schema if schema is not None else ds.schema
    own = {c.name: c for c in ds.schema.columns}
    absent = [c.name for c in enc.features if c.name not in own or own[c.name].kind != c.kind]
    if absent:
        raise DataError(f"dataset lacks feature columns {absent} of the kinds the schema names")
    columns = {c.name: ds.columns[c.name] for c in enc.features}
    for spec in enc.features:
        if own[spec.name].levels != spec.levels:  # map the codes by level name
            index = {level: k for k, level in enumerate(spec.levels)}
            table = np.array([index.get(level, -1) for level in own[spec.name].levels], np.intp)
            columns[spec.name] = table[columns[spec.name]]
    same = [c.name for c in enc.features if c.kind == "numeric"] == ds._numeric_names
    return _encode(enc.features, columns, ds.n, ds._block if same else None)


def _encode(features: Sequence[ColumnSpec], columns: dict[str, np.ndarray],
            n: int, block: np.ndarray | None = None) -> tuple[np.ndarray, DummyGroups]:
    """The column-major design of ``n`` rows and its layout: each numeric
    feature in schema order, its values ``columns[name]``, then one block
    per categorical feature in schema order, the column ``codes == k`` for
    each of its levels k but the first, ``codes`` being ``columns[name]``.
    A given ``block`` holds the numeric features' values, in that order: a
    view of it is the design when no indicator column follows.

    A single-level categorical gives no column and a warning, in schema
    order; the codes of -1, values outside the level sets of the other
    categoricals, are counted in one warning after them. A design with no
    column is a ``DataError`` that names the features that gave none.
    """
    numerics = [spec for spec in features if spec.kind == "numeric"]
    categoricals = [spec for spec in features if spec.kind == "categorical"]
    names = [spec.name for spec in numerics]
    blocks: list[tuple[ColumnSpec, tuple[int, ...]]] = []
    for spec in categoricals:
        if len(spec.levels) == 1:
            warnings.warn(
                f"categorical column {spec.name!r} has a single level; contributes no columns"
            )
        blocks.append((spec, tuple(range(len(names), len(names) + len(spec.levels) - 1))))
        names += [f"{spec.name}={level}" for level in spec.levels[1:]]

    unseen = sum(int(np.count_nonzero(columns[spec.name] < 0))
                 for spec in categoricals if len(spec.levels) > 1)
    if unseen:
        warnings.warn(f"{unseen} value(s) outside the schema level sets mapped to reference")

    if not names:
        empty = [spec.name for spec, _ in blocks]
        why = f"single-level categorical column(s) {empty} give none" if empty else "no features"
        raise DataError(f"the design has no columns: {why}")
    groups = DummyGroups(tuple((spec.name, idxs) for spec, idxs in blocks),
                         tuple(range(len(numerics))), tuple(names))
    if block is not None and len(names) == len(numerics):
        return block.view(), groups  # a view: the block's own flags stay the Dataset's
    design = np.empty((n, len(names)), order="F")
    for j, spec in enumerate(numerics):
        design[:, j] = columns[spec.name]
    for spec, idxs in blocks:
        for k, j in enumerate(idxs, 1):
            design[:, j] = columns[spec.name] == k
    return design, groups


def design_rows(design: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The ``rows`` of a design in one copy, Fortran-ordered as
    :func:`encode_design` writes a design: NumPy's column means of a C- and
    an F-ordered copy of the same rows can differ in the last bit."""
    return np.take(design.T, rows, axis=1).T


def split(ds: Dataset, seed: int) -> tuple[Dataset, Dataset]:
    """Deterministic train/test split: the rows of :func:`split_rows`."""
    return tuple(ds.take(rows) for rows in split_rows(ds.n, seed))


def split_rows(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Sorted row indices ``(train, test)`` of a deterministic split of n rows.

    Test size is min(10000, n) when n > 20000, otherwise floor(n/5), so
    fewer than 5 rows is a ``DataError``; rows are sampled uniformly without
    replacement under ``seed`` and the train set is the complement.
    """
    test_n = min(10000, n) if n > 20000 else n // 5
    if test_n == 0:
        raise DataError(f"the test split (a fifth of the rows) of {n} row(s) is empty;"
                        " the data needs at least 5 rows")
    return holdout(n, test_n, seed)


def holdout(n: int, k: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Sorted row indices ``(kept, held)``: ``held`` is k of the n rows drawn
    uniformly without replacement under ``seed``, ``kept`` the rest."""
    rng = np.random.default_rng(seed)
    held = np.sort(rng.choice(n, size=k, replace=False))
    mask = np.ones(n, dtype=bool)
    mask[held] = False
    return np.flatnonzero(mask), held


def load_design_for_predict(path, schema: Schema) -> np.ndarray:
    """Encode a CSV of feature rows against a training schema.

    The response column need not be present. Rows must be complete: unlike
    training ingestion, nothing is dropped, so the output keeps one row
    per input row. A file with no data rows yields a (0, width) matrix.

    Only the feature columns are read, column-wise as in :func:`load_csv`.
    The first bad row in file order is named: a wrong field count, or else
    the first feature column, in schema order, with a missing cell. Each
    column is read only up to the earliest missing cell found so far. A
    complete plain table is parsed in one ``np.loadtxt`` call, the numeric
    features straight to float64; a numeric cell it refuses, a missing one
    among them, sends the table to ``str.split``, which names the cell.

    The design is written straight from the parsed columns, with the
    layout, warnings and errors of :func:`encode_design`: a numeric feature
    from its float64 values, a categorical one from the level code of each
    cell, found by one lookup of the raw cell (:func:`_level_codes`); the
    cells are not kept as strings and no ``Dataset`` is built. After the
    missing cells and field counts, a non-numeric cell of a numeric feature
    is named before a non-finite value, and both before any warning.
    """
    header, rows = _read_table(path)
    feats = schema.features
    missing = [c.name for c in feats if c.name not in header]
    if missing:
        raise DataError(f"{path}: feature columns {missing} are absent")
    numeric = {c.name for c in feats if c.kind == "numeric"}
    counts, cells = rows(lambda first: [name in numeric for name in header])
    fields = len(header)
    short = len(counts)
    if counts.count(fields) != short:
        short = next(i for i, k in enumerate(counts) if k != fields)
    read, hole = [], short
    for spec in feats:
        column = cells[header.index(spec.name)]
        if spec.kind == "numeric":
            col, holes = _Column.read(column, hole)
        else:
            col, holes = _level_codes(column[:hole], spec.levels)
        if holes.any():
            hole, name = int(np.argmax(holes)), spec.name
        read.append(col)
    del rows, cells  # the file's text and cells go with them, before the design is written
    if hole < short:
        raise DataError(f"{path}:{hole + 2}: missing value in column {name!r}")
    if short < len(counts):
        raise DataError(f"{path}:{short + 2}: wrong field count")

    n = len(counts)
    width = sum(1 if c.kind == "numeric" else len(c.levels) - 1 for c in feats)
    if n == 0:
        return np.empty((0, width))

    columns = {c.name: col.typed(path, c) if c.kind == "numeric" else col
               for c, col in zip(feats, read)}
    for c in feats:
        if c.kind == "numeric":
            _check_finite(c.name, columns[c.name])
    design, _ = _encode(feats, columns, n)
    return design


def dataset_from_arrays(
    X: np.ndarray,
    y: np.ndarray,
    *,
    classification: bool = False,
    feature_names: tuple[str, ...] | None = None,
    response_name: str = "y",
) -> Dataset:
    """Wrap an all-numeric feature matrix and response vector as a Dataset.

    X is checked for finiteness once and copied once, Fortran-ordered, and
    each feature column is a contiguous view of that copy, so the Dataset
    shares no memory with X. A non-finite value is named by its column, the
    first in order, features before the response. ``feature_names`` must
    name every column of X, and ``y`` must be a vector with one value per
    row of X.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise DataError("feature matrix must be 2-D")
    n, width = X.shape
    if feature_names is None:
        feature_names = tuple(f"x{i}" for i in range(width))
    if len(feature_names) != width:
        raise DataError(f"{len(feature_names)} feature name(s) for {width} feature column(s)")
    y = np.asarray(y)
    if y.shape != (n,):
        raise DataError(f"the response must be a vector of {n} value(s), one per row;"
                        f" got shape {y.shape}")
    kind = "response_class" if classification else "response_numeric"
    specs = [ColumnSpec(name, "numeric") for name in feature_names]
    specs.append(ColumnSpec(response_name, kind))
    schema = Schema(tuple(specs))
    design = _fortran_copy(X, feature_names)
    columns = dict(zip(feature_names, design.T))
    columns[response_name] = y.astype(str) if classification else y.astype(np.float64)
    if not classification:
        _check_finite(response_name, columns[response_name])
    return Dataset._of_checked(schema, columns, design)


def _fortran_copy(X: np.ndarray, names: Sequence[str]) -> np.ndarray:
    """A Fortran-ordered copy of the float64 matrix X, made in row blocks of
    2**17 cells (a megabyte), each checked for finiteness just before it is
    copied: a block of a C-ordered X is then still in cache when it is
    written transposed (3,000 x 784 on a 2-core x86 host: about 4 ms,
    against 17 ms for one ``copy(order="F")``). A non-finite value is a
    ``DataError`` that names the first column in ``names`` that holds one."""
    n, width = X.shape
    design = np.empty((n, width), order="F")
    finite = True
    for rows in _cell_blocks(n, width):
        block = X[rows]
        finite = finite and bool(np.isfinite(block).all())
        design[rows] = block
    if not finite:
        j = int(np.argmin(np.isfinite(design).all(axis=0)))
        _check_finite(names[j], design[:, j])
    return design


def _cell_blocks(length: int, width: int) -> list[slice]:
    """Consecutive slices that cover ``range(length)``, each of at most
    ``2**17 // width`` positions (at least one): the row blocks of an
    ``length x width`` matrix, or the column blocks of a ``width x length``
    one, of 2**17 cells, a megabyte of float64, each."""
    step = max(1, (1 << 17) // max(width, 1))
    return [slice(start, start + step) for start in range(0, length, step)]
