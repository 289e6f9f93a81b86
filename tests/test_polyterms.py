"""Term enumeration, bounds, expansion and random thinning.

The enumeration oracle used throughout is independent of the production
code path: it walks every exponent vector with itertools.product and
applies the admissibility rules directly.
"""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polykit import polyterms
from polykit.dataset import DummyGroups
from polykit.errors import MemoryBudgetError
from polykit.polyterms import (
    Monomial,
    PolySpec,
    TermSet,
    count_terms,
    count_terms_bound,
    enumerate_terms,
    exact_numeric_term_count,
    expand,
    exponent_matrix,
    graded_position,
    kept_term_count,
    thinned_terms,
)


def brute_force_terms(width, groups, degree, max_interact):
    """Reference enumeration by exhaustive exponent-vector scan."""
    dummy_of = groups.group_of()
    out = set()
    for exps in itertools.product(range(degree + 1), repeat=width):
        total = sum(exps)
        if not 1 <= total <= degree:
            continue
        cols = [i for i, e in enumerate(exps) if e]
        if any(exps[c] > 1 for c in cols if c in dummy_of):
            continue
        gs = [dummy_of[c] for c in cols if c in dummy_of]
        if len(gs) != len(set(gs)):
            continue
        if len(cols) >= 2 and total > max_interact:
            continue
        out.add(tuple((c, exps[c]) for c in cols))
    return out


def reference_expand(design, terms):
    """Row-major expansion, one fresh vector per factor: the term values
    ``expand`` must reproduce bit for bit."""
    design = np.asarray(design, dtype=np.float64)
    n = design.shape[0]
    out = np.empty((n, len(terms)))
    power_cache = {}
    for j, mono in enumerate(terms):
        col = np.ones(n)
        for c, e in mono.powers:
            key = (c, e)
            if key not in power_cache:
                power_cache[key] = design[:, c] ** e
            col = col * power_cache[key]
        out[:, j] = col
    return out


def reference_thinning(terms, keep_fraction, seed):
    """Thinning of a built term set: all degree-1 terms plus a seeded draw
    of the others, in graded order. ``thinned_terms`` must keep exactly
    these terms without building the rest."""
    total = len(terms)
    linear = set(terms.linear_indices())
    higher = [i for i in range(total) if i not in linear]
    n_extra = kept_term_count(total, len(linear), keep_fraction) - len(linear)
    picked = np.random.default_rng(seed).choice(len(higher), size=n_extra, replace=False)
    keep = linear | {higher[i] for i in picked}
    return TermSet(tuple(terms[i] for i in sorted(keep)), terms.width, terms.groups, terms.spec)


def numeric_terms(p, degree, max_interact=None):
    return enumerate_terms(p, DummyGroups.all_numeric(p), PolySpec(degree, max_interact))


class TestEnumerate:
    def test_two_numeric_degree_two(self):
        ts = numeric_terms(2, 2)
        assert ts.labels(("u", "v")) == ("u", "v", "u^2", "u*v", "v^2")

    def test_single_linear(self):
        ts = numeric_terms(1, 1)
        assert len(ts) == 1
        assert ts[0].powers == ((0, 1),)

    def test_categorical_only(self):
        groups = DummyGroups(
            groups=(("c", (0, 1)),), numeric_indices=(), column_names=("c=b", "c=c")
        )
        ts = enumerate_terms(2, groups, PolySpec(2))
        assert ts.labels() == ("c=b", "c=c")

    def test_numeric_plus_dummy_with_cap(self):
        groups = DummyGroups(
            groups=(("d", (1,)),), numeric_indices=(0,), column_names=("u", "d=1")
        )
        ts = enumerate_terms(2, groups, PolySpec(3, 2))
        assert ts.labels() == ("u", "d=1", "u^2", "u*d=1", "u^3")

    @pytest.mark.parametrize("p", range(1, 7))
    @pytest.mark.parametrize("d", range(1, 5))
    def test_all_numeric_count_formula(self, p, d):
        assert len(numeric_terms(p, d)) == exact_numeric_term_count(p, d)

    @pytest.mark.parametrize("width,degree,cap", [(3, 3, 2), (4, 2, 2), (2, 4, 3)])
    def test_matches_brute_force_with_dummies(self, width, degree, cap):
        groups = DummyGroups(
            groups=(("c", (width - 2, width - 1)),),
            numeric_indices=tuple(range(width - 2)),
            column_names=tuple(f"x{i}" for i in range(width)),
        )
        got = {m.powers for m in enumerate_terms(width, groups, PolySpec(degree, cap))}
        assert got == brute_force_terms(width, groups, degree, cap)

    @pytest.mark.parametrize("groups, degree, cap", [
        ((("c", (2, 3)),), 3, 2),
        ((("a", (1, 2, 3)), ("b", (4, 5))), 3, 3),
        ((("a", (0, 1)), ("b", (3, 4))), 4, 2),
        ((("a", (4,)),), 4, 3),
    ])
    def test_graded_order_with_dummies(self, groups, degree, cap):
        # degree first, then higher exponents on earlier columns first
        width = 6 if len(groups) > 1 else 5
        in_groups = {i for _, idxs in groups for i in idxs}
        layout = DummyGroups(groups=groups,
                             numeric_indices=tuple(i for i in range(width) if i not in in_groups),
                             column_names=tuple(f"x{i}" for i in range(width)))

        def key(powers):
            dense = [0] * width
            for c, e in powers:
                dense[c] = e
            return sum(dense), tuple(-e for e in dense)

        ts = enumerate_terms(width, layout, PolySpec(degree, cap))
        assert [m.powers for m in ts] == sorted(
            brute_force_terms(width, layout, degree, cap), key=key)

    def test_peak_memory_is_bounded(self):
        # sorting by a terms x width exponent matrix needed 114 MB here
        tracemalloc.start()
        try:
            ts = numeric_terms(300, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(ts) == exact_numeric_term_count(300, 2)
        assert peak <= 40e6, peak / 1e6

    def test_degree_prefix_closure(self):
        for p in (1, 2, 3):
            for d in (1, 2, 3):
                small = numeric_terms(p, d, min(d, 2)).terms
                large = numeric_terms(p, d + 1, min(d, 2)).terms
                assert large[: len(small)] == small

    def test_termset_rejects_dummy_violations(self):
        groups = DummyGroups(
            groups=(("c", (0, 1)),), numeric_indices=(), column_names=("a", "b")
        )
        with pytest.raises(ValueError):
            TermSet((Monomial(((0, 2),)),), 2, groups, PolySpec(2))
        with pytest.raises(ValueError):
            TermSet((Monomial(((0, 1), (1, 1))),), 2, groups, PolySpec(2))


@st.composite
def layouts(draw):
    """A design of 1-8 columns, each numeric or in one of up to five dummy
    groups (some of them empty), with a degree of 1-4 and any interaction cap."""
    width = draw(st.integers(1, 8))
    owner = draw(st.lists(st.integers(-1, 3), min_size=width, max_size=width))  # -1: numeric
    n_groups = draw(st.integers(max(owner) + 1, 5))
    groups = DummyGroups(
        groups=tuple((f"g{g}", tuple(c for c in range(width) if owner[c] == g))
                     for g in range(n_groups)),
        numeric_indices=tuple(c for c in range(width) if owner[c] < 0),
        column_names=tuple(f"c{c}" for c in range(width)),
    )
    degree = draw(st.integers(1, 4))
    return width, groups, PolySpec(degree, draw(st.integers(1, degree)))


class TestCountTerms:
    @settings(max_examples=400, deadline=None)
    @given(layouts())
    def test_matches_the_enumeration(self, layout):
        assert count_terms(*layout) == len(enumerate_terms(*layout))

    @pytest.mark.parametrize("p", range(1, 9))
    @pytest.mark.parametrize("d", range(1, 5))
    def test_all_numeric_is_the_closed_form(self, p, d):
        assert count_terms(p, DummyGroups.all_numeric(p), PolySpec(d)) == \
            exact_numeric_term_count(p, d)

    def test_counts_a_set_too_large_to_build(self):
        assert count_terms(784, DummyGroups.all_numeric(784), PolySpec(3)) == 80_931_144

    @settings(max_examples=200, deadline=None)
    @given(layouts(), st.floats(0.0, 1.0, exclude_min=True), st.integers(0, 9))
    def test_kept_count_is_what_dropping_keeps(self, layout, fraction, seed):
        assert len(thinned_terms(*layout, fraction, seed)) == \
            kept_term_count(count_terms(*layout), layout[0], fraction)


class TestCountBound:
    def test_examples(self):
        assert count_terms_bound(3, 2) == (12, False)
        assert count_terms_bound(1, 1) == (1, False)
        assert count_terms_bound(90, 2) == (8190, False)

    def test_saturation(self):
        bound, saturated = count_terms_bound(100, 12)
        assert saturated
        assert bound == 2**63 - 1

    @pytest.mark.parametrize("p", range(1, 7))
    @pytest.mark.parametrize("d", range(1, 5))
    def test_dominates_exact_count(self, p, d):
        assert count_terms_bound(p, d).bound >= exact_numeric_term_count(p, d)


class TestExpand:
    def test_row_values(self):
        monos = (
            Monomial(((0, 1),)),
            Monomial(((1, 1),)),
            Monomial(((0, 1), (1, 1))),
            Monomial(((0, 2),)),
        )
        ts = TermSet(monos, 2, DummyGroups.all_numeric(2), PolySpec(2))
        row = expand(np.array([[2.0, 3.0]]), ts)
        np.testing.assert_array_equal(row, [[2.0, 3.0, 6.0, 4.0]])

    def test_zero_row(self):
        ts = numeric_terms(3, 3)
        out = expand(np.zeros((2, 3)), ts)
        np.testing.assert_array_equal(out, np.zeros((2, len(ts))))

    def test_dummy_passthrough(self):
        groups = DummyGroups(
            groups=(("c", (0, 1)),), numeric_indices=(), column_names=("d1", "d2")
        )
        ts = enumerate_terms(2, groups, PolySpec(2))
        out = expand(np.array([[1.0, 0.0]]), ts)
        np.testing.assert_array_equal(out, [[1.0, 0.0]])

    def test_budget_exceeded(self, monkeypatch):
        ts = numeric_terms(3, 2)
        monkeypatch.setattr(polyterms, "CELL_BUDGET", 10)
        with pytest.raises(MemoryBudgetError, match="PCA"):
            expand(np.ones((100, 3)), ts)

    def test_width_mismatch(self):
        ts = numeric_terms(3, 2)
        with pytest.raises(ValueError):
            expand(np.ones((5, 2)), ts)

    def test_no_duplicate_columns_on_random_data(self):
        rng = np.random.default_rng(5)
        design = rng.normal(size=(40, 3))
        out = expand(design, numeric_terms(3, 3))
        for i in range(out.shape[1]):
            for j in range(i + 1, out.shape[1]):
                assert not np.array_equal(out[:, i], out[:, j])


def _mixed_terms(degree, cap):
    """Two numeric columns, then dummy groups of two and three indicators."""
    groups = DummyGroups(groups=(("a", (2, 3)), ("b", (4, 5, 6))), numeric_indices=(0, 1),
                         column_names=tuple(f"x{i}" for i in range(7)))
    return enumerate_terms(7, groups, PolySpec(degree, cap))


def _mixed_design(n, seed=0):
    rng = np.random.default_rng(seed)
    a, b = rng.integers(0, 3, n), rng.integers(0, 4, n)  # level 0 is the reference
    indicators = [a == 1, a == 2, b == 1, b == 2, b == 3]
    return np.column_stack([rng.normal(size=(n, 2))] + indicators)


class TestExpandLayout:
    """``expand`` writes column-major output that matches the row-major
    reference bit for bit, whatever the layout of its input."""

    @pytest.mark.parametrize("degree, cap", [(2, None), (3, None), (3, 2), (4, 1)])
    @pytest.mark.parametrize("layout", ["C", "F", "row-slice"])
    def test_matches_reference(self, degree, cap, layout):
        terms = _mixed_terms(degree, cap)
        design = _mixed_design(60)
        if layout == "F":
            design = np.asfortranarray(design)
        elif layout == "row-slice":
            design = np.asfortranarray(_mixed_design(180))[10:130:2]
        out = expand(design, terms)
        assert out.flags.f_contiguous
        np.testing.assert_array_equal(out, reference_expand(design, terms), strict=True)

    @pytest.mark.parametrize("n", [0, 1])
    def test_zero_and_one_rows(self, n):
        terms = _mixed_terms(3, 2)
        design = _mixed_design(n)
        out = expand(design, terms)
        assert out.shape == (n, len(terms)) and out.flags.f_contiguous
        np.testing.assert_array_equal(out, reference_expand(design, terms), strict=True)

    def test_numeric_degree_three(self):
        terms = numeric_terms(4, 3)
        design = np.random.default_rng(2).normal(size=(500, 4))
        out = expand(design, terms)
        assert out.flags.f_contiguous
        np.testing.assert_array_equal(out, reference_expand(design, terms), strict=True)


class TestThinnedTerms:
    @settings(max_examples=300, deadline=None)
    @given(layouts(), st.floats(0.0, 1.0, exclude_min=True), st.integers(0, 9))
    def test_keeps_what_thinning_the_full_set_keeps(self, layout, fraction, seed):
        kept = thinned_terms(*layout, fraction, seed)
        assert kept == reference_thinning(enumerate_terms(*layout), fraction, seed)

    def test_keep_all_is_identity(self):
        ts = numeric_terms(3, 3)
        assert thinned_terms(3, ts.groups, ts.spec, 1.0, seed=0).terms == ts.terms

    def test_linear_terms_survive(self):
        kept = thinned_terms(3, DummyGroups.all_numeric(3), PolySpec(3), 0.3, seed=1)
        assert len(kept) == 6  # ceil(0.3 * 19)
        assert kept.linear_indices() == (0, 1, 2)

    def test_deterministic(self):
        groups, spec = DummyGroups.all_numeric(4), PolySpec(3)
        assert thinned_terms(4, groups, spec, 0.4, seed=9) == \
            thinned_terms(4, groups, spec, 0.4, seed=9)

    def test_bad_fraction(self):
        with pytest.raises(ValueError):
            thinned_terms(2, DummyGroups.all_numeric(2), PolySpec(2), 0.0, seed=0)

    def test_builds_only_the_kept_terms(self):
        # 200 columns at degree 3 enumerate 1,373,700 terms; building them all
        # and then thinning to 2% peaked at 381 MB traced
        groups, spec = DummyGroups.all_numeric(200), PolySpec(3)
        tracemalloc.start()
        try:
            kept = thinned_terms(200, groups, spec, 0.02, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(kept) == 27_474
        assert peak < 60 * 2**20


class TestExponents:
    @pytest.mark.parametrize("p, d", [(1, 6), (2, 5), (3, 4), (5, 3), (7, 2)])
    def test_graded_position_ranks_the_graded_order(self, p, d):
        # reference order: degree, then higher exponents on earlier columns first
        vectors = [e for e in itertools.product(range(d + 1), repeat=p) if sum(e) <= d]
        vectors.sort(key=lambda e: (sum(e), tuple(-x for x in e)))
        np.testing.assert_array_equal(graded_position(vectors), np.arange(len(vectors)))
        exps = exponent_matrix(numeric_terms(p, d), p)
        np.testing.assert_array_equal(exps, vectors[1:])

    def test_graded_position_of_wide_sets(self):
        # 3**40 > 2**63: a per-column base-3 key of these vectors would overflow int64
        exps = exponent_matrix(numeric_terms(40, 2), 40)
        np.testing.assert_array_equal(graded_position(exps), np.arange(1, len(exps) + 1))
        sums = graded_position(exps[:40, None, :] + exps[None, :40, :])
        assert sums.max() == len(exps)


class TestMonomial:
    def test_validation(self):
        with pytest.raises(ValueError):
            Monomial(())
        with pytest.raises(ValueError):
            Monomial(((0, 0),))
        with pytest.raises(ValueError):
            Monomial(((1, 1), (0, 1)))

    def test_degree_and_eval(self):
        m = Monomial(((0, 2), (2, 1)))
        assert m.degree == 3
        terms = TermSet((m,), 3, DummyGroups.all_numeric(3), PolySpec(3))
        val = expand(np.array([[2.0, 9.0, 3.0]]), terms)
        np.testing.assert_array_equal(val, [[12.0]])
