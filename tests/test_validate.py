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
from woexplain import validate as validate_module
from woexplain.contrast import ContrastParams
from woexplain.errors import InvalidDataError, InvalidParameterError, NothingToExplainError
from woexplain.gaussian import GaussianClassModel
from woexplain.types import HypothesisSet
from woexplain.validate import BRUTE_MAX_ROWS, _random_partition, _random_split

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
    """run_validation's numbers, rebuilt through the public one-call routes.

    Replays the sampling draws in run_validation's order: the row ids,
    then per trial the split, the partition and the reordering.
    """
    rng = np.random.default_rng(seed)
    k, n = model.n_classes, model.n_features
    row_ids = [int(i) for i in rng.integers(0, data.shape[0], size=trials)]
    worst = {name: (0.0, row_ids[0]) for name in ("bayes", "add", "ord")}

    def note(name, dev, row):
        if dev > worst[name][0]:
            worst[name] = (dev, row)

    for i in row_ids:
        a, b = _random_split(rng, k)
        prior, total, post = bayes_decomposition(a, b, data[i], model)
        note("bayes", abs(post - prior - total), i)
        part = _random_partition(rng, n)
        reordered = [part[int(j)] for j in rng.permutation(len(part))]
        first = sum(woe_chain(a, b, part, data[i], model))
        second = sum(woe_chain(a, b, reordered, data[i], model))
        note("add", abs(first - total), i)
        note("ord", abs(first - second), i)

    params = ContrastParams()
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
    return worst, mismatches, first_bad


class CountingBackend:
    """A stand-in model that counts calls of the density primitive."""

    def __init__(self, model):
        self.model = model
        self.calls = 0
        self.n_features = model.n_features
        self.n_classes = model.n_classes
        self.priors = model.priors

    def log_density_terms(self, order, values):
        self.calls += 1
        return self.model.log_density_terms(order, values)

    def marginal_moments(self, label, feature):
        return self.model.marginal_moments(label, feature)


class TestSharedFactorization:
    @pytest.mark.parametrize("mode", ["full", "diagonal"])
    def test_every_check_equals_the_one_call_routes(self, mode):
        """Bit for bit, at K=9 and n=16, where sums of 8+ terms depend on layout."""
        rng = np.random.default_rng(21 if mode == "full" else 22)
        model = random_model(rng, 9, 16, mode)
        data = rng.normal(0.0, 2.5, size=(40, 16))
        trials, seed = 12, 7
        checks = run_validation(model, data, trials=trials, seed=seed)
        worst, mismatches, first_bad = replayed_checks(model, data, trials, seed)
        for check, name in zip(checks, ("bayes", "add", "ord")):
            dev, row = worst[name]
            assert check.max_deviation == dev
            assert check.detail == f"worst at row {row}"
        assert checks[3].max_deviation == float(mismatches)
        assert checks[3].detail == f"{trials} rows enumerated" + (
            f", first mismatch at row {first_bad}" if first_bad is not None else "")

    def test_at_most_three_density_calls_per_trial(self):
        rng = np.random.default_rng(23)
        model = random_model(rng, 8, 5)
        data = rng.normal(size=(500, 5))
        trials = 30
        counting = CountingBackend(model)
        checks = run_validation(counting, data, trials=trials, seed=4)
        # each brute-force row scores 2^7 - 1 candidates, none by its own call
        assert counting.calls <= 3 * trials
        assert checks == run_validation(model, data, trials=trials, seed=4)

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
