"""Self-validation suite: invariant checks over sampled data rows."""

import math
from itertools import combinations

import numpy as np
import pytest

from woexplain import (
    bayes_decomposition,
    best_contrast,
    fit,
    predicted_class,
    run_validation,
    score_subset,
    woe_chain,
)
from woexplain import contrast as contrast_module, gaussian, prior_log_odds
from woexplain import validate as validate_module
from woexplain.contrast import ContrastParams, _penalty
from woexplain.core import _chains
from woexplain.errors import (
    InvalidDataError,
    InvalidParameterError,
    NothingToExplainError,
    NumericalConditioningError,
    WoeError,
)
from woexplain.gaussian import GaussianClassModel, _order_terms
from woexplain.types import HypothesisSet
from woexplain.validate import (
    BRUTE_MAX_ROWS,
    IDENTITY_TOL,
    ROUNDING_C,
    InvariantCheck,
    _random_partition,
    _random_split,
)

from oracles import random_model


def fitted_case(seed=42, n_classes=3, n_features=4, mode="full"):
    rng = np.random.default_rng(seed)
    data = np.vstack([
        rng.normal(1.2 * c, 1.0, size=(50, n_features)) for c in range(n_classes)
    ])
    labels = np.repeat(np.arange(n_classes), 50)
    return fit(data, labels, mode=mode), data


class TestRunValidation:
    def test_fitted_model_passes_all_four(self):
        model, data = fitted_case()
        checks = run_validation(model, data, trials=40, seed=1)
        assert [c.name for c in checks] == [
            "bayes-identity", "additivity", "ordering-invariance",
            "contrast-equivalence",
        ]
        assert all(c.passed for c in checks)
        for check in checks[:3]:
            assert 0.0 <= check.max_deviation < check.tolerance
            assert "row" in check.detail
        assert checks[3].max_deviation == 0.0

    def test_diagonal_model_passes(self):
        model, data = fitted_case(mode="diagonal")
        assert all(c.passed for c in run_validation(model, data, trials=30, seed=2))

    def test_identities_hold_even_for_off_model_rows(self):
        """The identities are exact for any input, not just training data."""
        model, _ = fitted_case()
        rng = np.random.default_rng(3)
        alien = rng.normal(50.0, 10.0, size=(20, 4))
        checks = run_validation(model, alien, trials=20, seed=3)
        assert all(c.passed for c in checks)

    def test_same_seed_reproduces_deviations(self):
        model, data = fitted_case()
        first = run_validation(model, data, trials=25, seed=9)
        second = run_validation(model, data, trials=25, seed=9)
        assert [c.max_deviation for c in first] == [c.max_deviation for c in second]

    def test_brute_force_skipped_past_class_cap(self):
        rng = np.random.default_rng(4)
        model = random_model(rng, 13, 2)
        data = rng.normal(size=(10, 2))
        checks = run_validation(model, data, trials=10, seed=0)
        last = checks[-1]
        assert last.name == "contrast-equivalence"
        assert last.passed
        assert last.detail == "skipped: 13 classes exceed the exhaustive cap 12"

    def test_nan_deviation_fails(self):
        """Row 0 lies beyond every density, so each identity there reads NaN, the worst."""
        model = random_model(np.random.default_rng(4), 13, 2)
        checks = run_validation(model, np.array([[1e200, 0.0], [0.0, 0.0]]))
        for check in checks[:3]:
            assert not check.passed
            assert math.isnan(check.max_deviation)
            assert check.detail == "worst at row 0"

    def test_input_validation(self):
        model, data = fitted_case()
        with pytest.raises(InvalidDataError):
            run_validation(model, data[:, :2], trials=10)
        with pytest.raises(InvalidDataError):
            run_validation(model, np.empty((0, 4)), trials=10)
        for trials in (0, 2.5, "3", float("nan"), float("inf"), None):
            with pytest.raises(InvalidDataError, match="trials"):
                run_validation(model, data, trials=trials)
        assert run_validation(model, data, trials=2.0, seed=5) == run_validation(
            model, data, trials=2, seed=5)
        for seed in (-1, 1.7, "x"):
            with pytest.raises(InvalidParameterError, match="seed"):
                run_validation(model, data, trials=10, seed=seed)

    def test_first_non_finite_sampled_row_raises(self):
        """Evidence's error, for the first sampled row that has one; unsampled rows are not read."""
        model, data = fitted_case()
        data = data.copy()
        data[::7, 2] = np.nan
        data[::5, 1] = np.inf
        for seed in range(6):
            row_ids = np.random.default_rng(seed).integers(0, data.shape[0], size=30)
            bad = [int(i) for i in row_ids if not np.isfinite(data[i]).all()]
            feature = int(np.flatnonzero(~np.isfinite(data[bad[0]]))[0])
            with pytest.raises(InvalidDataError,
                               match=f"^non-finite value at observed feature {feature}$"):
                run_validation(model, data, trials=30, seed=seed)

    def test_single_class_model_has_nothing_to_explain(self):
        lonely = GaussianClassModel(
            means=np.zeros((1, 2)),
            covariances=np.array([np.eye(2)]),
            priors=np.array([1.0]),
            mode="full",
            feature_names=("a", "b"),
        ).validate()
        data = np.zeros((3, 2))
        with pytest.raises(NothingToExplainError):
            run_validation(lonely, data, trials=5)
        # the argument checks still come first
        with pytest.raises(InvalidDataError):
            run_validation(lonely, data, trials=0)


def replayed_checks(model, data, trials, seed):
    """run_validation's checks, rebuilt through the public one-call routes, a trial at a time.

    Replays the sampling draws in run_validation's order: the row ids,
    then per trial the split, the partition and the reordering. Each
    trial's tolerance is max(IDENTITY_TOL, ROUNDING_C * eps * S), S the
    magnitudes its identity adds and cancels: the woes and, once per woe,
    the row's finite |log prior| and |J| of every class.
    """
    rng = np.random.default_rng(seed)
    k, n = model.n_classes, model.n_features
    row_ids = [int(i) for i in rng.integers(0, data.shape[0], size=trials)]
    log_prior = np.log(model.priors)
    trials_seen = {"bayes": [], "add": [], "ord": []}

    def note(name, dev, magnitudes, row):
        tol = max(IDENTITY_TOL, ROUNDING_C * np.finfo(float).eps * magnitudes)
        trials_seen[name].append((dev, tol, row))

    for i in row_ids:
        joint = _order_terms(tuple(range(n)), data[i][None], model, {}).sum(axis=2)[:, 0]
        formed = float(np.where(np.isfinite(joint), np.abs(joint), 0.0).sum()
                       + np.abs(log_prior[np.isfinite(log_prior)]).sum())
        a, b = _random_split(rng, k)
        prior, total, post = bayes_decomposition(a, b, data[i], model)
        note("bayes", abs(post - prior - total),
             abs(post) + abs(prior) + abs(total) + 3 * formed, i)
        part = _random_partition(rng, n)
        reordered = [part[int(j)] for j in rng.permutation(len(part))]
        first = woe_chain(a, b, part, data[i], model)
        second = woe_chain(a, b, reordered, data[i], model)
        size = sum(map(abs, first))
        note("add", abs(sum(first) - total), size + abs(total) + (len(first) + 1) * formed, i)
        note("ord", abs(sum(first) - sum(second)),
             size + sum(map(abs, second)) + 2 * len(first) * formed, i)
    checks = []
    for name, seen in zip(("bayes-identity", "additivity", "ordering-invariance"),
                          trials_seen.values()):
        dev, tol, row = max(seen, key=lambda t: t[0] / t[1])
        checks.append(InvariantCheck(name, all(d < t for d, t, _ in seen), dev, tol,
                                     f"worst at row {row}"))

    params = ContrastParams()
    if k > params.max_exhaustive_classes:
        return checks + [InvariantCheck(
            "contrast-equivalence", True, 0.0, 0.0,
            f"skipped: {k} classes exceed the exhaustive cap {params.max_exhaustive_classes}")]
    universe = HypothesisSet(tuple(range(k)))
    mismatches, first_bad = 0, None
    for i in row_ids[:BRUTE_MAX_ROWS]:
        c_star = predicted_class(model, data[i])
        chosen = best_contrast(universe, c_star, data[i], model, params)
        others = [c for c in range(k) if c != c_star]
        best, best_score = None, -np.inf
        for size in range(1, k):
            for cand in sorted(tuple(sorted((c_star, *combo)))
                               for combo in combinations(others, size - 1)):
                s = score_subset(cand, universe, data[i], model, params)
                if s > best_score:
                    best, best_score = cand, s
        if chosen.classes != best:
            mismatches += 1
            first_bad = i if first_bad is None else first_bad
    brute = min(trials, BRUTE_MAX_ROWS)
    return checks + [InvariantCheck(
        "contrast-equivalence", mismatches == 0, float(mismatches), 0.0,
        f"{brute} rows enumerated"
        + (f", first mismatch at row {first_bad}" if first_bad is not None else ""))]


def replayed_error(model, data, trials, seed):
    """The first error of run_validation's reads made one trial at a time, or None.

    Every sampled row's joint first, then per trial its prior odds and
    its two chains, read together, in run_validation's sampling order.
    """
    rng = np.random.default_rng(seed)
    k, n = model.n_classes, model.n_features
    row_ids = [int(i) for i in rng.integers(0, data.shape[0], size=trials)]
    try:
        for i in dict.fromkeys(row_ids):
            _order_terms(tuple(range(n)), data[i][None], model, {})
        for i in row_ids:
            a, b = _random_split(rng, k)
            prior_log_odds(a, b, model)
            part = _random_partition(rng, n)
            reordered = [part[int(j)] for j in rng.permutation(len(part))]
            _chains([(a, b, part), (a, b, reordered)], data[i][None], model, {})
    except WoeError as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


class CountingBackend:
    """A stand-in model with the model's arrays that counts calls of the public density route."""

    def __init__(self, model):
        self.model = model
        self.calls = 0
        self.n_features = model.n_features
        self.n_classes = model.n_classes
        self.mode = model.mode
        self.means = model.means
        self.covariances = model.covariances
        self.priors = model.priors

    def class_conditional_log_density(self, *args):
        self.calls += 1
        return self.model.class_conditional_log_density(*args)


class TestSharedFactorization:
    @pytest.mark.parametrize("mode", ["full", "diagonal"])
    def test_every_check_equals_the_one_call_routes(self, mode):
        """Bit for bit, at K=9 and n=16, where sums of 8+ terms depend on layout."""
        rng = np.random.default_rng(21 if mode == "full" else 22)
        model = random_model(rng, 9, 16, mode)
        data = rng.normal(0.0, 2.5, size=(40, 16))
        trials, seed = 12, 7
        assert run_validation(model, data, trials=trials, seed=seed) == replayed_checks(
            model, data, trials, seed)

    @pytest.mark.parametrize("mode", ["full", "diagonal"])
    @pytest.mark.parametrize("k", [6, 13])
    def test_chunked_trials_equal_the_one_call_routes(self, monkeypatch, mode, k):
        """More trials than rows, one row at 3e3 scale, and chunks of three trials, bit for bit."""
        rng = np.random.default_rng(24 + k + (mode == "full"))
        n = 9
        model = random_model(rng, k, n, mode)
        data = rng.normal(0.0, 2.5, size=(6, n))
        data[4] *= 3e3 / 2.5
        trials, seed = 40, 8
        whole = run_validation(model, data, trials=trials, seed=seed)
        monkeypatch.setattr(gaussian, "BATCH_ELEMENTS", 3 * k * (n + 1) ** 2)
        assert run_validation(model, data, trials=trials, seed=seed) == whole
        assert whole == replayed_checks(model, data, trials, seed)

    def test_stacked_blocks_stay_within_batch_elements(self, monkeypatch):
        """Every root and every factored block of a run fits BATCH_ELEMENTS, whatever the trials."""
        rng = np.random.default_rng(25)
        k, n = 5, 6
        model = random_model(rng, k, n)
        data = rng.normal(size=(50, n))
        batch = 4 * k * (n + 1) ** 2 + 7
        whole = run_validation(model, data, trials=60, seed=2)
        root, block_terms = gaussian._root, gaussian._block_terms
        sizes = {"root": [], "block": []}

        def roots(x, m):
            stack = root(x, m)
            sizes["root"].append(stack.aug.size)
            return stack

        def blocks(covs, dev):
            sizes["block"].append(covs.size)
            return block_terms(covs, dev)

        monkeypatch.setattr(gaussian, "BATCH_ELEMENTS", batch)
        monkeypatch.setattr(gaussian, "_root", roots)
        monkeypatch.setattr(gaussian, "_block_terms", blocks)
        assert run_validation(model, data, trials=60, seed=2) == whole
        assert len(sizes["root"]) == 15
        assert max(sizes["root"] + sizes["block"]) <= batch

    def test_density_calls_do_not_grow_with_trials(self, monkeypatch):
        """No primitive call, and as many factoring calls at 300 trials as at 30."""
        rng = np.random.default_rng(23)
        model = random_model(rng, 8, 5)
        data = rng.normal(size=(500, 5))
        counting = CountingBackend(model)
        block_terms = gaussian._block_terms
        factorings = []

        def counted(covs, dev):
            factorings.append(covs.shape)
            return block_terms(covs, dev)

        monkeypatch.setattr(gaussian, "_block_terms", counted)
        calls = []
        for trials in (30, 300):
            factorings.clear()
            checks = run_validation(counting, data, trials=trials, seed=4)
            calls.append(len(factorings))
            # each brute-force row scores 2^7 - 1 candidates, none by its own call
            assert counting.calls == 0
            assert checks == run_validation(model, data, trials=trials, seed=4)
        assert calls[0] == calls[1]

    @pytest.mark.parametrize("priors", [(1 / 3, 1 / 3, 1 / 3), (0.5, 0.5, 0.0)])
    def test_errors_come_in_trial_order(self, monkeypatch, priors):
        """A stacked chunk raises what the first failing trial raises, with its class.

        Each of classes 0 and 1 has a covariance that factors in feature
        order but not with one pair of features swapped, so a trial fails
        only where its chain orders swap that pair; a zero prior makes
        some splits raise DegeneratePriorError. A failed factor names the
        first failing order's class, so one order per factoring call
        names the same class as the default stacking.
        """
        near = np.array([[1.0, 2.0], [2.0, 4.0 + 1e-15]])
        covs = np.array([np.eye(3)] * 3)
        covs[0][:2, :2] = near
        covs[1][1:, 1:] = near
        model = GaussianClassModel(means=np.zeros((3, 3)), covariances=covs,
                                   priors=np.array(priors), mode="full", feature_names="abc")
        data = np.random.default_rng(26).normal(size=(8, 3))
        raised = set()
        for seed in range(40):
            with np.errstate(divide="ignore"):
                expected = replayed_error(model, data, 12, seed)
                for batch in (gaussian.BATCH_ELEMENTS, 1):
                    with monkeypatch.context() as patched:
                        patched.setattr(gaussian, "BATCH_ELEMENTS", batch)
                        with pytest.raises(WoeError) as got:
                            run_validation(model, data, trials=12, seed=seed)
                    assert f"{type(got.value).__name__}: {got.value}" == expected
            raised.add(expected)
        assert len(raised) == (3 if priors[2] == 0.0 else 2)
        # order (0, 2, 1) fails under class 1 only, and (1, 0, 2) under class 0 only
        message = "^the covariance of class 1 is not positive definite$"
        chains = [([0], [1], [(0,), (2,), (1,)]), ([0], [1], [(1,), (0,), (2,)])]
        for requests in (chains, chains[:1]):
            with np.errstate(divide="ignore"), pytest.raises(NumericalConditioningError,
                                                             match=message):
                _chains(requests, data[:1], model, {})

    def test_enumeration_is_independent_of_the_search(self, monkeypatch):
        search = validate_module._best_contrast

        def wrong(v, c, joint, log_prior, params):
            right = search(v, c, joint, log_prior, params)
            other = next(x for x in v.classes if x != c)
            return HypothesisSet((c,) if len(right) > 1 else tuple(sorted((c, other))))

        monkeypatch.setattr(validate_module, "_best_contrast", wrong)
        model, data = fitted_case(n_classes=4)
        trials = BRUTE_MAX_ROWS + 5
        row_ids = np.random.default_rng(6).integers(0, data.shape[0], size=trials)
        check = run_validation(model, data, trials=trials, seed=6)[3]
        assert check.name == "contrast-equivalence"
        assert not check.passed
        assert check.max_deviation == float(BRUTE_MAX_ROWS)
        assert check.detail == (f"{BRUTE_MAX_ROWS} rows enumerated, "
                                f"first mismatch at row {int(row_ids[0])}")


def far_case(seed):
    """A 4-class diagonal model fitted on 80 rows, and 20 rows at 3e3 * N(0, 1)."""
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(4), 20)
    model = fit(rng.normal(labels[:, None], 1.0, size=(80, 6)), labels, mode="diagonal")
    return model, 3e3 * rng.normal(size=(20, 6))


class TestRoundingTolerance:
    def test_far_rows_pass(self):
        """Far rows hold their identities to rounding: every seeded run passes, and where
        a row's magnitudes outgrow the 1e-9 floor its tolerance is reported."""
        raised = 0
        for seed in range(20):
            model, rows = far_case(seed)
            checks = run_validation(model, rows, trials=20, seed=seed)
            assert all(c.passed for c in checks), (seed, checks)
            for check in checks[:3]:
                assert check.max_deviation < check.tolerance
                raised += check.tolerance > IDENTITY_TOL
        assert raised == 60

    @pytest.mark.parametrize("mode", ["full", "diagonal"])
    def test_a_dropped_chain_term_fails(self, monkeypatch, mode):
        """A planted identity error still fails where the rows are near the classes."""
        chains = validate_module._chains

        def dropped(*args):
            return [chain[:-1] if len(chain) > 1 else [0.0] for chain in chains(*args)]

        monkeypatch.setattr(validate_module, "_chains", dropped)
        model, data = fitted_case(mode=mode)
        checks = run_validation(model, data, trials=40, seed=1)
        assert not checks[1].passed
        assert checks[1].tolerance == IDENTITY_TOL
        assert checks[1].max_deviation > 1e3 * IDENTITY_TOL

    def test_floor_tolerances_report_the_largest_deviation(self):
        """Where every tolerance is the floor, the worst row is the one of largest deviation."""
        check = validate_module._identity_check(
            "x", (1e-12, 3e-12, 2e-12, 3e-12), (IDENTITY_TOL,) * 4, [5, 6, 7, 8])
        assert (check.passed, check.max_deviation, check.tolerance, check.detail) == (
            True, 3e-12, IDENTITY_TOL, "worst at row 6")
        check = validate_module._identity_check(
            "x", (2e-9, 5e-9, float("nan")), (1e-9, 1e-8, 1e-9), [5, 6, 7])
        assert not check.passed and math.isnan(check.max_deviation) and check.detail.endswith("7")
        check = validate_module._identity_check("x", (2e-9, 5e-9), (1e-9, 1e-8), [5, 6])
        assert (check.passed, check.max_deviation, check.tolerance) == (False, 2e-9, 1e-9)


def reference_candidates(k, c_star):
    """Every subset of range(k) holding c_star but not all of it, in (size, lexicographic) order."""
    others = [c for c in range(k) if c != c_star]
    return [tuple(sorted((c_star, *combo))) for size in range(1, k)
            for combo in combinations(others, size - 1)]


def reference_enumerated(c_stars, joints, log_prior, alpha):
    """The enumeration with one tuple and one complement per candidate."""
    k = joints.shape[1]
    best = []
    for c_star, joint in zip(c_stars, joints):
        candidates = reference_candidates(k, c_star)
        scores = []
        for size in range(1, k):
            found = [cand for cand in candidates if len(cand) == size]
            u = np.array(found)
            rest = np.array([[c for c in range(k) if c not in cand] for cand in found])
            scores.append(gaussian.mixture_log_ratio(log_prior[u], joint[None, u])
                          - gaussian.mixture_log_ratio(log_prior[rest], joint[None, rest])
                          - _penalty(size, k, alpha))
        keys = np.concatenate(scores, axis=1)[0]
        keys[np.isnan(keys)] = -np.inf
        top = int(keys.argmax())
        best.append(candidates[top] if keys[top] > -np.inf else None)
    return best


class TestEnumerationTable:
    def test_candidates_in_size_then_lexicographic_order(self):
        for k in range(2, 13):
            table = validate_module._candidate_table(k)
            assert len(table) == k - 1
            for c_star in range(k):
                got = []
                for u, rest in table:
                    holds = (u == c_star).any(axis=1)
                    got += [tuple(row) for row in u[holds].tolist()]
                    assert (np.sort(np.hstack([u, rest]), axis=1) == np.arange(k)).all()
                assert got == reference_candidates(k, c_star), (k, c_star)

    def test_picks_equal_the_reference_at_twelve_classes(self):
        """Seeded K=12 rows, with rows whose every score is -inf or NaN among them."""
        rng = np.random.default_rng(33)
        for mode in ("full", "diagonal"):
            model = random_model(rng, 12, 5, mode)
            joints = np.array([model.class_conditional_log_density(c, range(5), x, [], [])
                               for x in rng.normal(0.0, 3.0, size=(8, 5))
                               for c in range(12)]).reshape(8, 12)
            joints[2] = -np.inf
            joints[3] = np.nan
            joints[4, ::2] = -np.inf
            log_prior = np.log(model.priors)
            c_stars = [0, 5, 5, 11, 3, 5, 0, 7]
            with np.errstate(divide="ignore", invalid="ignore"):
                got = validate_module._enumerated(c_stars, joints, log_prior, 0.05)
                want = reference_enumerated(c_stars, joints, log_prior, 0.05)
            assert got == want
            assert got[2] is None and got[3] is None and got[0] is not None

    def test_run_validation_never_reads_the_search_table(self, monkeypatch):
        """The enumeration builds its own table: with contrast._subset_rows raising, and the
        search's picks replayed, run_validation gives the same passing checks."""
        assert not hasattr(validate_module, "_subset_rows")
        model, data = fitted_case(n_classes=5)
        search, picks = validate_module._best_contrast, []

        def recorded(*args):
            picks.append(search(*args))
            return picks[-1]

        monkeypatch.setattr(validate_module, "_best_contrast", recorded)
        whole = run_validation(model, data, trials=30, seed=3)
        replayed = iter(picks)

        def refused(n):
            raise AssertionError("the enumeration read the search's subset table")

        validate_module._candidate_table.cache_clear()
        monkeypatch.setattr(contrast_module, "_subset_rows", refused)
        monkeypatch.setattr(validate_module, "_best_contrast", lambda *args: next(replayed))
        assert run_validation(model, data, trials=30, seed=3) == whole
        assert all(c.passed for c in whole)
