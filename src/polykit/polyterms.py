"""Polynomial basis enumeration and design-matrix expansion.

A term is a monomial over design-matrix columns. Indicator columns are
degenerate under powers (0/1 values are idempotent) and under products
within one indicator block (at most one indicator per source column is 1
in any row), so neither squared indicators nor within-group products are
ever generated. Monomials touching two or more distinct columns are
additionally capped at ``max_interact_degree`` total degree.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .dataset import DummyGroups
from .errors import MemoryBudgetError

#: Cap on rows x columns of an expanded matrix.
CELL_BUDGET = 200_000_000

#: Term-count bounds saturate at the largest signed 64-bit integer.
BOUND_SATURATION = 2**63 - 1


@dataclass(frozen=True)
class Monomial:
    """Product of design columns raised to positive integer exponents.

    ``powers`` is a tuple of (column index, exponent) pairs, sorted by
    column, with every exponent >= 1.
    """

    powers: tuple[tuple[int, int], ...]

    def __post_init__(self):
        cols = [c for c, _ in self.powers]
        if not self.powers:
            raise ValueError("a monomial involves at least one column")
        if cols != sorted(set(cols)):
            raise ValueError("monomial columns must be sorted and distinct")
        if any(e < 1 for _, e in self.powers):
            raise ValueError("monomial exponents must be >= 1")

    @property
    def degree(self) -> int:
        return sum(e for _, e in self.powers)

    def label(self, names: tuple[str, ...] | None = None) -> str:
        parts = []
        for c, e in self.powers:
            name = names[c] if names else f"x{c}"
            parts.append(name if e == 1 else f"{name}^{e}")
        return "*".join(parts)


@dataclass(frozen=True)
class PolySpec:
    """Expansion degree plus the total-degree cap on interaction terms."""

    degree: int
    max_interact_degree: int | None = None

    def __post_init__(self):
        if self.max_interact_degree is None:
            object.__setattr__(self, "max_interact_degree", self.degree)
        if self.degree < 1:
            raise ValueError("degree must be >= 1")
        if not 1 <= self.max_interact_degree <= self.degree:
            raise ValueError("need 1 <= max_interact_degree <= degree")


@dataclass(frozen=True)
class TermSet:
    """Ordered, duplicate-free monomial list plus its provenance.

    Order is graded lexicographic, which makes the term list for degree d a
    prefix of the list for degree d+1 under the same interaction cap.
    """

    terms: tuple[Monomial, ...]
    width: int
    groups: DummyGroups
    spec: PolySpec

    def __post_init__(self):
        if len(set(self.terms)) != len(self.terms):
            raise ValueError("duplicate monomials in term set")
        dummy_group = self.groups.group_of()
        for mono in self.terms:
            touched: set[int] = set()
            for c, e in mono.powers:
                if not 0 <= c < self.width:
                    raise ValueError(f"column {c} outside design width {self.width}")
                g = dummy_group.get(c)
                if g is None:
                    continue
                if e > 1:
                    raise ValueError(f"indicator column {c} carries exponent {e}")
                if g in touched:
                    raise ValueError(f"two indicators of group {g} in one monomial")
                touched.add(g)

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self) -> Iterator[Monomial]:
        return iter(self.terms)

    def __getitem__(self, i: int) -> Monomial:
        return self.terms[i]

    def labels(self, names: tuple[str, ...] | None = None) -> tuple[str, ...]:
        if names is None and self.groups.column_names:
            names = self.groups.column_names
        return tuple(m.label(names) for m in self.terms)

    def linear_indices(self) -> tuple[int, ...]:
        return tuple(i for i, m in enumerate(self.terms) if m.degree == 1)


def enumerate_terms(width: int, groups: DummyGroups, spec: PolySpec,
                    keep: Sequence[int] | None = None) -> TermSet:
    """Every admissible monomial of total degree 1..spec.degree, in graded
    order; with ``keep``, ascending positions in that order, only the
    monomials at those positions.

    Admissible means: indicator exponents are at most 1, no two indicators
    from the same group co-occur, and any monomial with >= 2 distinct
    columns has total degree <= spec.max_interact_degree. The intercept is
    not a term; fitters add it themselves.

    One walk per degree takes later columns in order and tries exponents
    from high to low, which yields that degree's terms in graded order
    without sorting them. It counts every position but builds a monomial
    only at a kept one.
    """
    if width < 1:
        raise ValueError("design width must be >= 1")
    dummy_group = groups.group_of()
    found: list[Monomial] = []
    chosen: list[tuple[int, int]] = []
    wanted = iter(keep) if keep is not None else itertools.count()
    position, target = 0, next(wanted, -1)

    def leaf() -> None:
        nonlocal position, target
        if position == target:
            found.append(Monomial(tuple(chosen)))
            target = next(wanted, -1)
        position += 1

    def walk(col: int, remaining: int, groups_used: frozenset[int]) -> None:
        if remaining == 0:
            leaf()
            return
        for nxt in range(col, width):
            g = dummy_group.get(nxt)
            if g is not None and g in groups_used:
                continue
            for e in range(1 if g is not None else remaining, 0, -1):
                chosen.append((nxt, e))
                walk(nxt + 1, remaining - e, groups_used if g is None else groups_used | {g})
                chosen.pop()

    for degree in range(1, spec.degree + 1):
        if degree <= spec.max_interact_degree:
            walk(0, degree, frozenset())
        else:  # above the interaction cap only powers of one numeric column remain
            for c in range(width):
                if c not in dummy_group:
                    chosen.append((c, degree))
                    leaf()
                    chosen.pop()
    return TermSet(tuple(found), width, groups, spec)


def count_terms(width: int, groups: DummyGroups, spec: PolySpec) -> int:
    """``len(enumerate_terms(width, groups, spec))``, counted without
    building the terms.

    Up to K = min(degree, cap) a term is a numeric monomial times one
    indicator from each of j distinct groups; the j-th elementary symmetric
    polynomial of the group sizes counts the indicator choices, and stars
    and bars the numeric monomials of degree <= K - j; the constant, the
    empty product, is no term. Above the cap each degree adds one power of
    each numeric column.
    """
    if width < 1:
        raise ValueError("design width must be >= 1")
    sizes = Counter(g for c, g in groups.group_of().items() if c < width).values()
    numeric = width - sum(sizes)
    top = min(spec.degree, spec.max_interact_degree)
    picks = [1] + [0] * top  # picks[j]: one indicator from each of j distinct groups
    for size in sizes:
        for j in range(top, 0, -1):
            picks[j] += size * picks[j - 1]
    up_to_cap = sum(picks[j] * math.comb(numeric + top - j, numeric) for j in range(top + 1))
    return up_to_cap - 1 + (spec.degree - top) * numeric


def kept_term_count(total: int, linear: int, keep_fraction: float) -> int:
    """Terms :func:`thinned_terms` keeps of ``total``, ``linear`` of
    them of degree 1: ceil(keep_fraction * total), but never fewer than the
    linear ones."""
    return min(total, max(linear, math.ceil(keep_fraction * total)))


def check_cell_budget(rows: int, n_terms: int) -> None:
    """Raise :class:`MemoryBudgetError` when expanding ``rows`` rows over
    ``n_terms`` terms would exceed ``CELL_BUDGET`` cells."""
    cells = rows * n_terms
    if cells > CELL_BUDGET:
        raise MemoryBudgetError(
            f"expansion needs {cells} cells (> budget {CELL_BUDGET});"
            " reduce dimension with PCA or drop random columns"
        )


class TermCountBound(NamedTuple):
    bound: int
    saturated: bool


def count_terms_bound(p: int, d: int) -> TermCountBound:
    """Upper bound on the all-numeric term count from the recurrence
    B(1) = p, B(k+1) = (p+1) B(k).

    Saturates at 2**63 - 1 with ``saturated=True`` instead of overflowing.
    """
    if p < 1 or d < 1:
        raise ValueError("need p >= 1 and d >= 1")
    bound = p
    for _ in range(d - 1):
        bound *= p + 1
        if bound > BOUND_SATURATION:
            return TermCountBound(BOUND_SATURATION, True)
    return TermCountBound(bound, False)


def exact_numeric_term_count(p: int, d: int) -> int:
    """All-numeric term count in closed form: C(p+d, d) - 1."""
    return math.comb(p + d, d) - 1


def exponent_matrix(monomials: Sequence[Monomial], width: int) -> np.ndarray:
    """Integer matrix with one row per monomial: its exponent on each of
    ``width`` design columns."""
    out = np.zeros((len(monomials), width), dtype=np.int64)
    for j, mono in enumerate(monomials):
        for c, e in mono.powers:
            out[j, c] = e
    return out


def graded_position(exponents: np.ndarray) -> np.ndarray:
    """Position of each exponent vector (the last axis) in graded order:
    degree first, then higher exponents on earlier columns first (x0^2,
    x0*x1, x1^2). The constant is at 0 and term j of every all-numeric
    ``enumerate_terms`` set at j + 1.

    With suffix sums s_t = e_t + ... + e_(p-1), C(s_t + p - t - 1, p - t)
    counts the monomials ordered first by a lower degree (t = 0) or by a
    larger exponent on column t - 1 after equal columns 0..t-2.
    """
    exponents = np.asarray(exponents, dtype=np.int64)
    p = exponents.shape[-1]
    top = int(exponents.sum(axis=-1).max(initial=0))
    counts = np.array([[math.comb(s + p - t - 1, p - t) for s in range(top + 1)]
                       for t in range(p)], dtype=np.int64)
    position = suffix = 0  # one column at a time keeps temporaries at 1/p of the input
    for t in reversed(range(p)):
        suffix = suffix + exponents[..., t]
        position = position + counts[t, suffix]
    return position


def expand(design: np.ndarray, terms: TermSet) -> np.ndarray:
    """Evaluate every term on every row: column j of the result is term j.

    The result is column-major (Fortran-ordered), so each term is written
    into one contiguous column: its first factor is copied in and the later
    ones multiplied in place, in the term's column order, from a cache of
    the column powers.

    Raises :class:`MemoryBudgetError` when rows x terms would exceed
    ``CELL_BUDGET``; shrink via PCA or :func:`thinned_terms` first.
    """
    design = np.asarray(design, dtype=np.float64)
    if design.ndim != 2 or design.shape[1] != terms.width:
        raise ValueError(
            f"design width {design.shape[1] if design.ndim == 2 else '?'}"
            f" does not match term-set width {terms.width}"
        )
    n = design.shape[0]
    check_cell_budget(n, len(terms))
    out = np.empty((n, len(terms)), order="F")
    power_cache: dict[tuple[int, int], np.ndarray] = {}
    for j, mono in enumerate(terms):
        col = out[:, j]
        for k, (c, e) in enumerate(mono.powers):
            key = (c, e)
            if key not in power_cache:
                power_cache[key] = design[:, c] ** e
            if k == 0:
                col[:] = power_cache[key]
            else:
                np.multiply(col, power_cache[key], out=col)
    return out


def thinned_terms(width: int, groups: DummyGroups, spec: PolySpec,
                  keep_fraction: float, seed: int) -> TermSet:
    """A seeded random share of :func:`enumerate_terms`'s terms, built
    without building the others: :func:`kept_term_count` of them.

    All degree-1 monomials, the first ``width`` positions, are always kept
    (so the result still nests the linear model); the remaining slots are a
    uniform draw of the higher-degree positions, found from
    :func:`count_terms` alone. Graded order is preserved.
    """
    if not 0 < keep_fraction <= 1:
        raise ValueError("keep_fraction must be in (0, 1]")
    total = count_terms(width, groups, spec)
    n_extra = kept_term_count(total, width, keep_fraction) - width
    picked = np.random.default_rng(seed).choice(total - width, size=n_extra, replace=False)
    picked.sort()
    return enumerate_terms(width, groups, spec, [*range(width), *(picked + width).tolist()])
