"""Forward stepwise selection behavior."""

import tracemalloc

import numpy as np
import pytest

from polykit import fitcore as fc
from polykit import stepwise as sw
from polykit.dataset import (
    DummyGroups, dataset_from_arrays, encode_design, holdout, load_csv,
)
from polykit.errors import DataError
from polykit.polyterms import Monomial, PolySpec, TermSet, enumerate_terms, expand


def candidate_set():
    """{u, v, w, u*v, u^2, v^2} over three numeric columns."""
    monos = (
        Monomial(((0, 1),)),
        Monomial(((1, 1),)),
        Monomial(((2, 1),)),
        Monomial(((0, 1), (1, 1))),
        Monomial(((0, 2),)),
        Monomial(((1, 2),)),
    )
    groups = DummyGroups.all_numeric(3, ("u", "v", "w"))
    return TermSet(monos, 3, groups, PolySpec(2))


def quadratic_dataset(seed, n=400, sigma=0.5):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-2, 2, size=(n, 3))
    y = 2 * X[:, 0] + X[:, 0] ** 2 + rng.normal(0, sigma, n)
    return dataset_from_arrays(X, y, feature_names=("u", "v", "w"))


def reference_trace(train, config, seed):
    """The refit-per-candidate regression search that ``fsr`` replaced: at
    every greedy step, one pivoted-QR OLS fit per remaining candidate.

    Returns the growth trace as (term label, validation score, fits
    evaluated) rows, the intercept-only row first.
    """
    design, _ = encode_design(train)
    y = train.response_values()
    n = design.shape[0]
    n_val = int(n * config.validation_fraction)
    rng = np.random.default_rng(seed)
    val_idx = np.sort(rng.choice(n, size=n_val, replace=False))
    mask = np.ones(n, dtype=bool)
    mask[val_idx] = False
    sub_idx = np.flatnonzero(mask)
    expanded = expand(design, config.candidates)
    P_sub, P_val = expanded[sub_idx], expanded[val_idx]
    y_sub, y_val = y[sub_idx], y[val_idx]
    labels = config.candidates.labels()

    prev_score = fc.mape(np.full(n_val, y_sub.mean()), y_val)
    trace = [("", prev_score, 0)]
    selected: list[int] = []
    remaining = list(range(len(config.candidates)))
    fits = 0
    while remaining:
        best_j, best_score = None, None
        for j in remaining:
            fit = fc.fit_ols(P_sub[:, selected + [j]], y_sub)
            score = fc.mape(P_val[:, selected + [j]] @ fit.coef + fit.intercept, y_val)
            fits += 1
            if best_score is None or score < best_score:
                best_j, best_score = j, score
        if prev_score - best_score <= config.improvement_tolerance and fits >= config.min_models:
            break
        selected.append(best_j)
        remaining.remove(best_j)
        trace.append((labels[best_j], best_score, fits))
        prev_score = best_score
    return trace


def assert_matches_reference(train, config, seed):
    """fsr picks the reference's term sequence, with the same fit counts and
    trace scores within 1e-9 (relative); returns fsr's result."""
    res = sw.fsr(train, config, seed=seed)
    ref = reference_trace(train, config, seed)
    got = [(r.term_label, r.validation_score, r.fits_evaluated) for r in res.trace]
    assert [(label, fits) for label, _, fits in got] == [(label, fits) for label, _, fits in ref]
    np.testing.assert_allclose([s for _, s, _ in got], [s for _, s, _ in ref], rtol=1e-9, atol=0)
    return res


def mixed_table(tmp_path, seed, n=500, extra=0):
    """A wage-style CSV, loaded: numeric u and v, categorical g (3 levels)
    and h (2 levels), ``extra`` numeric noise columns, and a response with
    main effects, a square and a group-by-numeric interaction."""
    rng = np.random.default_rng(seed)
    u, v = rng.normal(size=n), rng.uniform(-1, 1, size=n)
    g = rng.integers(0, 3, size=n)
    h = rng.integers(0, 2, size=n)
    noise = rng.normal(size=(n, extra))
    y = 1 + 2 * u - v**2 + np.array([0.0, 1.5, -1.0])[g] + 0.8 * h * u + rng.normal(0, 0.5, n)
    header = ["u", "v", "g", "h"] + [f"x{k}" for k in range(extra)] + ["y"]
    rows = [",".join(header)] + [
        ",".join([f"{a:.8f}", f"{b:.8f}", "pqr"[c], "st"[d]] + [f"{x:.8f}" for x in xs]
                 + [f"{t:.8f}"])
        for a, b, c, d, xs, t in zip(u, v, g, h, noise, y)
    ]
    path = tmp_path / "mixed.csv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return load_csv(path)


def full_candidates(ds, degree=2):
    """Every term of ``degree`` over the encoded design of ``ds``."""
    design, groups = encode_design(ds)
    return enumerate_terms(design.shape[1], groups, PolySpec(degree))


def full_pass(candidates):
    """min_models of a full greedy pass: the search runs until it stops improving
    with no candidate left to try."""
    m = len(candidates)
    return m * (m + 1) // 2


class TestReferenceSearch:
    @pytest.mark.parametrize("seed", range(7))
    @pytest.mark.parametrize("tolerance", [0.0, 0.02])
    def test_quadratic_dataset(self, seed, tolerance):
        cfg = sw.FSRConfig(candidate_set(), improvement_tolerance=tolerance)
        assert_matches_reference(quadratic_dataset(seed), cfg, seed)

    @pytest.mark.parametrize("seed", range(10))
    def test_c09_cases(self, seed):
        # acceptance criterion c09's data, candidates and tolerance
        cfg = sw.FSRConfig(candidate_set(), improvement_tolerance=0.02)
        assert_matches_reference(quadratic_dataset(100 + seed, n=400), cfg, seed)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_mixed_table_full_pass(self, tmp_path, seed):
        ds = mixed_table(tmp_path, seed)
        terms = full_candidates(ds)
        cfg = sw.FSRConfig(terms, improvement_tolerance=0.0, min_models=full_pass(terms))
        res = assert_matches_reference(ds, cfg, seed)
        assert res.trace[-1].fits_evaluated <= full_pass(terms)

    def test_aliased_candidates_score_the_parent(self):
        seed, n = 5, 400
        rng = np.random.default_rng(seed)
        X = rng.uniform(-2, 2, size=(n, 2))
        y = 2 * X[:, 0] + X[:, 0] ** 2 + rng.normal(0, 0.5, n)
        # the holdout fsr draws for this seed: column "c" is constant on the
        # sub-training rows and varies only on the validation rows
        val_idx = np.sort(np.random.default_rng(seed).choice(n, size=n // 5, replace=False))
        c = np.ones(n)
        c[val_idx] = rng.normal(size=len(val_idx))
        design = np.column_stack([X, X[:, 0], c])  # "u2" duplicates "u"
        names = ("u", "v", "u2", "c")
        ds = dataset_from_arrays(design, y, feature_names=names)
        monos = (
            Monomial(((0, 1),)), Monomial(((1, 1),)), Monomial(((2, 1),)),
            Monomial(((3, 1),)), Monomial(((0, 2),)), Monomial(((0, 1), (1, 1))),
        )
        ts = TermSet(monos, 4, DummyGroups.all_numeric(4, names), PolySpec(2))
        # min_models above a full pass: every candidate enters the trace
        cfg = sw.FSRConfig(ts, improvement_tolerance=0.0, min_models=full_pass(ts) + 1)
        res = assert_matches_reference(ds, cfg, seed)
        assert len(res.trace) == len(ts) + 1
        for prev, row in zip(res.trace, res.trace[1:]):
            if row.term_label in ("u2", "c"):
                assert row.validation_score == prev.validation_score
        assert "u2" not in res.model.terms.labels()
        assert "c" not in res.model.terms.labels()


def blob_dataset(seed, n=300):
    """Three overlapping Gaussian classes in the plane."""
    rng = np.random.default_rng(seed)
    centers = np.array([[0.0, 0.0], [1.5, 0.0], [0.0, 1.5]])
    X = np.vstack([rng.normal(size=(n // 3, 2)) + c for c in centers])
    labels = np.repeat([0, 1, 2], n // 3)
    return dataset_from_arrays(X, labels, classification=True, feature_names=("u", "v"))


def reference_classification_search(train, config, seed):
    """The one-vs-all logistic search as ``fsr`` ran it on a row-order
    expansion: one cold ``fit_logistic_ova`` per remaining candidate on the
    sub-training rows, the first strict argmax of validation PCC kept at
    each step, then the parsimony rule and the refit of the chosen terms.

    Returns the trace as (term label, validation score, fits evaluated,
    selected) rows, the intercept-only row first, and the final model.
    """
    design, _ = encode_design(train)
    y = train.response_values()
    n = design.shape[0]
    n_val = int(n * config.validation_fraction)
    sub_idx, val_idx = holdout(n, n_val, seed)
    expanded = expand(design, config.candidates)
    P_sub, P_val = expanded[sub_idx], expanded[val_idx]
    y_sub, y_val = y[sub_idx], y[val_idx]
    labels = config.candidates.labels()

    values, counts = np.unique(y_sub, return_counts=True)
    prev_score = fc.pcc(np.full(n_val, values[np.argmax(counts)]), y_val)
    trace = [("", prev_score, 0)]
    selected: list[int] = []
    remaining = list(range(len(config.candidates)))
    fits = 0
    while remaining:
        best_j, best_score = None, None
        for j in remaining:
            cols = selected + [j]
            fit = fc.fit_logistic_ova(P_sub[:, cols], y_sub, config.max_iter, config.tol)
            score = fc.pcc(fit.predict(P_val[:, cols]), y_val)
            fits += 1
            if best_score is None or score > best_score:
                best_j, best_score = j, score
        if best_score - prev_score <= config.improvement_tolerance and fits >= config.min_models:
            break
        selected.append(best_j)
        remaining.remove(best_j)
        trace.append((labels[best_j], best_score, fits))
        prev_score = best_score

    best = max(score for _, score, _ in trace)
    best_step = next(i for i, (_, score, _) in enumerate(trace)
                     if score >= best - config.improvement_tolerance)
    terms = TermSet(tuple(config.candidates[j] for j in sorted(selected[:best_step])),
                    config.candidates.width, config.candidates.groups, config.candidates.spec)
    model = fc.fit_poly_model(design[sub_idx], y_sub, terms, "logistic",
                              max_iter=config.max_iter, tol=config.tol)
    return [row + (0 < i <= best_step,) for i, row in enumerate(trace)], model


class TestReferenceClassificationSearch:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("degree", [2, 3])
    @pytest.mark.parametrize("tolerance", [0.0, 0.02])
    @pytest.mark.parametrize("full", [False, True], ids=["stop-rule", "full-pass"])
    def test_blob_classes(self, seed, degree, tolerance, full):
        ds = blob_dataset(seed)
        terms = full_candidates(ds, degree)
        cfg = sw.FSRConfig(terms, improvement_tolerance=tolerance,
                           min_models=full_pass(terms) if full else 1)
        res = sw.fsr(ds, cfg, seed=seed)
        trace, model = reference_classification_search(ds, cfg, seed)
        got = [(r.term_label, r.validation_score, r.fits_evaluated, r.selected)
               for r in res.trace]
        assert got == trace
        assert res.model.terms.terms == model.terms.terms
        assert res.model.classes == model.classes
        assert np.array_equal(res.model.coef, model.coef)
        assert np.array_equal(res.model.intercept, model.intercept)


class TestMemory:
    def test_peak_is_bounded_by_the_expansion(self, tmp_path):
        # one expansion of every candidate over every training row, centred in
        # place and updated in place, is the search's only design-sized array
        ds = mixed_table(tmp_path, 0, n=1000, extra=4)
        terms = full_candidates(ds)
        cfg = sw.FSRConfig(terms, improvement_tolerance=0.0, min_models=full_pass(terms))
        expansion = ds.n * len(terms) * 8
        tracemalloc.start()
        try:
            sw.fsr(ds, cfg, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * expansion, peak / expansion


class TestSupportRecovery:
    def test_true_terms_found_noise_terms_excluded(self):
        hits = 0
        for seed in range(5):
            ds = quadratic_dataset(100 + seed)
            cfg = sw.FSRConfig(candidate_set(), improvement_tolerance=0.02)
            labels = set(sw.fsr(ds, cfg, seed=seed).model.terms.labels())
            hits += {"u", "u^2"} <= labels and not ({"v", "w"} & labels)
        assert hits >= 4


class TestNullModel:
    def test_pure_noise_keeps_intercept_only(self):
        ok_empty = 0
        ok_mape = 0
        for seed in range(5):
            rng = np.random.default_rng(seed)
            X = rng.uniform(-2, 2, size=(2000, 3))
            y = rng.normal(0, 1.0, 2000)
            ds = dataset_from_arrays(X, y, feature_names=("u", "v", "w"))
            mad = float(np.mean(np.abs(y - y.mean())))
            cfg = sw.FSRConfig(candidate_set(), improvement_tolerance=0.05 * mad)
            res = sw.fsr(ds, cfg, seed=seed)
            ok_empty += len(res.model.terms) == 0
            score = res.trace[0].validation_score
            ok_mape += abs(score - mad) / mad < 0.05
        assert ok_empty >= 4
        assert ok_mape >= 4


class TestNoiseFloor:
    def test_exact_candidates_reach_noise_scale(self):
        # with the generator's own terms as the only candidates, validation
        # error should approach E|noise| = sigma * sqrt(2/pi)
        sigma = 0.5
        floor = sigma * np.sqrt(2 / np.pi)
        for seed in range(3):
            rng = np.random.default_rng(50 + seed)
            X = rng.uniform(-2, 2, size=(2000, 1))
            y = 2 * X[:, 0] + X[:, 0] ** 2 + rng.normal(0, sigma, 2000)
            ds = dataset_from_arrays(X, y, feature_names=("u",))
            monos = (Monomial(((0, 1),)), Monomial(((0, 2),)))
            ts = TermSet(monos, 1, DummyGroups.all_numeric(1, ("u",)), PolySpec(2))
            cfg = sw.FSRConfig(ts, improvement_tolerance=0.0)
            res = sw.fsr(ds, cfg, seed=seed)
            final = res.trace[-1].validation_score
            best = min(r.validation_score for r in res.trace)
            assert abs(best - floor) / floor < 0.10
            assert final >= best


class TestInvariants:
    def test_never_worse_than_intercept_only(self):
        for seed in range(5):
            ds = quadratic_dataset(seed)
            cfg = sw.FSRConfig(candidate_set())
            res = sw.fsr(ds, cfg, seed=seed)
            base = res.trace[0].validation_score
            chosen = [r for r in res.trace if r.selected]
            score = chosen[-1].validation_score if chosen else base
            assert score <= base

    def test_selection_is_subset_and_duplicate_free(self):
        ds = quadratic_dataset(3)
        cfg = sw.FSRConfig(candidate_set())
        res = sw.fsr(ds, cfg, seed=3)
        terms = res.model.terms.terms
        assert len(set(terms)) == len(terms)
        assert set(terms) <= set(candidate_set().terms)

    def test_deterministic_under_seed(self):
        ds = quadratic_dataset(4)
        cfg = sw.FSRConfig(candidate_set())
        a = sw.fsr(ds, cfg, seed=9)
        b = sw.fsr(ds, cfg, seed=9)
        assert a.model.terms.terms == b.model.terms.terms
        assert a.trace == b.trace

    def test_refit_matches_trace_score(self):
        # the returned model, scored on the holdout, reproduces its trace row
        ds = quadratic_dataset(6)
        cfg = sw.FSRConfig(candidate_set(), improvement_tolerance=0.02)
        res = sw.fsr(ds, cfg, seed=6)
        chosen = [r for r in res.trace if r.selected]
        if not chosen:
            pytest.skip("intercept-only selection for this seed")
        from polykit.dataset import encode_design

        design, _ = encode_design(ds)
        y = ds.response_values()
        rng = np.random.default_rng(6)
        n_val = int(ds.n * cfg.validation_fraction)
        val_idx = np.sort(rng.choice(ds.n, size=n_val, replace=False))
        preds = fc.predict(res.model, design[val_idx])
        assert fc.mape(preds, y[val_idx]) == pytest.approx(
            chosen[-1].validation_score, rel=1e-9
        )


class TestClassification:
    def test_blob_classes_selected_terms_beat_majority(self):
        rng = np.random.default_rng(0)
        centers = np.array([[0, 0], [4, 0], [0, 4]])
        X = np.vstack([rng.normal(size=(80, 2)) * 0.6 + c for c in centers])
        labels = np.repeat([0, 1, 2], 80)
        ds = dataset_from_arrays(X, labels, classification=True, feature_names=("u", "v"))
        terms = enumerate_terms(2, DummyGroups.all_numeric(2, ("u", "v")), PolySpec(1))
        cfg = sw.FSRConfig(terms, min_models=1)
        res = sw.fsr(ds, cfg, seed=0)
        base = res.trace[0].validation_score
        final = max(r.validation_score for r in res.trace)
        assert final > base
        assert len(res.model.terms) >= 1


class TestErrors:
    def test_empty_candidates(self):
        groups = DummyGroups.all_numeric(1)
        ts = TermSet((), 1, groups, PolySpec(1))
        with pytest.raises(DataError):
            sw.FSRConfig(ts)

    def test_holdout_too_small(self):
        ds = quadratic_dataset(0, n=3)
        cfg = sw.FSRConfig(candidate_set(), validation_fraction=0.2)
        with pytest.raises(DataError, match="holdout"):
            sw.fsr(ds, cfg, seed=0)

    def test_width_mismatch(self):
        ds = quadratic_dataset(0)
        monos = (Monomial(((0, 1),)),)
        ts = TermSet(monos, 2, DummyGroups.all_numeric(2), PolySpec(1))
        with pytest.raises(DataError, match="width"):
            sw.fsr(ds, sw.FSRConfig(ts), seed=0)

    @pytest.mark.parametrize("tolerance", [-1.0, float("nan")])
    def test_bad_improvement_tolerance(self, tolerance):
        with pytest.raises(ValueError, match="improvement_tolerance"):
            sw.FSRConfig(candidate_set(), improvement_tolerance=tolerance)

    def test_trace_csv_layout(self):
        ds = quadratic_dataset(1)
        res = sw.fsr(ds, sw.FSRConfig(candidate_set()), seed=1)
        text = sw.trace_to_csv(res.trace)
        lines = text.splitlines()
        assert lines[0] == "step,term,validation_score,fits_evaluated,selected"
        assert len(lines) == len(res.trace) + 1
