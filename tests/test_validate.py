"""Self-validation suite: invariant checks over sampled data rows."""

import numpy as np
import pytest

from woexplain import fit, run_validation
from woexplain.errors import InvalidDataError, InvalidParameterError

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
        assert "skipped" in last.detail

    def test_input_validation(self):
        model, data = fitted_case()
        with pytest.raises(InvalidDataError):
            run_validation(model, data[:, :2], trials=10)
        with pytest.raises(InvalidDataError):
            run_validation(model, np.empty((0, 4)), trials=10)
        with pytest.raises(InvalidDataError):
            run_validation(model, data, trials=0)
        for seed in (-1, 1.7, "x"):
            with pytest.raises(InvalidParameterError, match="seed"):
                run_validation(model, data, trials=10, seed=seed)
