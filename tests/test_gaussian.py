"""Density model checks against independent oracles.

Conditionals computed by the package (sequential terms from one Cholesky
factor per class of the covariance permuted into the scoring order) are
cross-checked against scipy.stats evaluations combined through the
probability chain rule, closed-form bivariate conditioning, and direct
quadrature, so the two sides share no linear algebra.
"""

import json

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats
from scipy.integrate import trapezoid
from scipy.special import expit, logsumexp

from woexplain import (
    Evidence,
    GaussianClassModel,
    fit,
    load_model,
    model_from_dict,
    model_to_dict,
    posterior,
    predicted_class,
    save_model,
    set_conditional_log_likelihood,
)
from woexplain.errors import (
    DegenerateDensityError,
    InsufficientDataError,
    InvalidDataError,
    InvalidModelError,
    InvalidParameterError,
    InvalidPartitionError,
    MissingEvidenceError,
    NumericalConditioningError,
    UnknownLabelError,
)

from oracles import (
    conditional_logpdf as oracle_conditional_logpdf,
    joint_logpdf as oracle_joint_logpdf,
    random_model,
    random_split,
    set_conditional as oracle_set_conditional,
)


class TestLogDensityTerms:
    def test_prefix_sums_are_joint_densities(self):
        """Row c's prefix sums give class c's joint density of every prefix."""
        rng = np.random.default_rng(64)
        for mode in ("full", "diagonal"):
            for _ in range(10):
                model = random_model(rng, 3, 5, mode=mode)
                order = [int(i) for i in rng.permutation(5)]
                x = rng.normal(0.0, 2.0, size=5)
                sums = np.cumsum(model.log_density_terms(order, x), axis=1)
                for c in range(3):
                    for m in range(1, 6):
                        oracle = oracle_joint_logpdf(model, c, order[:m], x[:m])
                        assert_allclose(sums[c, m - 1], oracle, rtol=1e-10)

    def test_covariance_that_fails_to_factor_names_its_class(self):
        """Found class by class: the first class whose ordered covariance fails."""
        bad = np.array([[1.0, 0.0, 2.0], [0.0, 1.0, 0.0], [2.0, 0.0, 1.0]])
        model = GaussianClassModel(
            means=np.zeros((3, 3)),
            covariances=np.array([np.eye(3), bad, bad]),
            priors=np.full(3, 1.0 / 3.0),
            mode="full",
            feature_names=("a", "b", "c"),
        )
        message = "^the covariance of class 1 is not positive definite$"
        with pytest.raises(NumericalConditioningError, match=message):
            model.log_density_terms([2, 1, 0], [0.0, 0.0, 0.0])
        with pytest.raises(NumericalConditioningError, match=message):
            model.log_density_terms(np.array([[0, 1], [2, 0]]), np.zeros((2, 2)))
        # submatrices that do factor are scored as usual
        terms = model.log_density_terms(np.array([[0, 1], [1, 2]]), np.zeros((2, 2)))
        assert np.isfinite(terms).all()

    def test_empty_order(self):
        rng = np.random.default_rng(65)
        for mode in ("full", "diagonal"):
            terms = random_model(rng, 3, 2, mode=mode).log_density_terms((), [])
            assert terms.shape == (3, 0)

    def test_stacked_orders_equal_single_orders(self):
        """An (M, m) stack gives (K, M, m), each row equal to its own call."""
        rng = np.random.default_rng(66)
        for mode in ("full", "diagonal"):
            model = random_model(rng, 12, 10, mode=mode)
            x = rng.normal(0.0, 2.0, size=10)
            for m in (1, 3, 10):
                orders = np.array([rng.permutation(10)[:m] for _ in range(7)])
                stacked = model.log_density_terms(orders, x[orders])
                assert stacked.shape == (12, 7, m)
                for j, order in enumerate(orders):
                    single = model.log_density_terms([int(i) for i in order], x[order])
                    assert (stacked[:, j] == single).all()

    def test_stacked_order_errors(self):
        rng = np.random.default_rng(67)
        model = random_model(rng, 2, 3)
        with pytest.raises(InvalidPartitionError, match="index 3 outside 0..2"):
            model.log_density_terms(np.array([[0, 1], [1, 3]]), np.zeros((2, 2)))
        with pytest.raises(InvalidPartitionError, match="duplicate index"):
            model.log_density_terms(np.array([[0, 1], [2, 2]]), np.zeros((2, 2)))
        with pytest.raises(InvalidPartitionError, match="integers"):
            model.log_density_terms(np.array([[0.0, 1.0]]), np.zeros((1, 2)))
        with pytest.raises(InvalidDataError):
            model.log_density_terms(np.array([[0, 1]]), np.zeros((1, 3)))


class TestClassConditionalLogDensity:
    def test_joint_matches_scipy(self):
        """Marginal densities over arbitrary index subsets match scipy."""
        rng = np.random.default_rng(42)
        for _ in range(25):
            model = random_model(rng, 3, 5)
            c = int(rng.integers(0, 3))
            target, _ = random_split(rng, 5)
            x = rng.normal(0.0, 2.0, size=len(target))
            ours = model.class_conditional_log_density(c, target, x)
            assert_allclose(ours, oracle_joint_logpdf(model, c, target, x), rtol=1e-10)

    def test_conditional_matches_chain_rule_oracle(self):
        """Cholesky chain conditioning equals joint-minus-prefix from scipy."""
        rng = np.random.default_rng(43)
        for _ in range(25):
            model = random_model(rng, 2, 6)
            c = int(rng.integers(0, 2))
            target, prefix = random_split(rng, 6)
            x_t = rng.normal(size=len(target))
            x_p = rng.normal(size=len(prefix))
            ours = model.class_conditional_log_density(c, target, x_t, prefix, x_p)
            oracle = oracle_conditional_logpdf(model, c, target, x_t, prefix, x_p)
            assert_allclose(ours, oracle, rtol=1e-9, atol=1e-11)

    def test_bivariate_conditioning_closed_form(self):
        """With unit variances and correlation 0.5, x1 | x2=1 is N(0.5, 0.75)."""
        cov = np.array([[1.0, 0.5], [0.5, 1.0]])
        model = GaussianClassModel(
            means=np.zeros((2, 2)),
            covariances=np.array([cov, cov]),
            priors=np.array([0.5, 0.5]),
            mode="full",
            feature_names=("x0", "x1"),
        ).validate()
        at_mean = model.class_conditional_log_density(0, (0,), [0.5], (1,), [1.0])
        assert_allclose(at_mean, np.log(1.0 / np.sqrt(2.0 * np.pi * 0.75)), rtol=1e-12)
        xs = np.linspace(-3.0, 3.0, 7)
        expected = stats.norm.logpdf(xs, 0.5, np.sqrt(0.75))
        got = [model.class_conditional_log_density(0, (0,), [x], (1,), [1.0]) for x in xs]
        assert_allclose(got, expected, rtol=1e-12)

    def test_full_joint_equals_subset_path(self):
        """Target = all coordinates gives the same value as any other route."""
        rng = np.random.default_rng(44)
        model = random_model(rng, 2, 4)
        x = rng.normal(size=4)
        ours = model.class_conditional_log_density(0, (0, 1, 2, 3), x)
        assert_allclose(ours, oracle_joint_logpdf(model, 0, (0, 1, 2, 3), x), rtol=1e-10)

    def test_conditioning_consistency(self):
        """log p(s, t) = log p(t) + log p(s | t) for every split."""
        rng = np.random.default_rng(45)
        model = random_model(rng, 2, 5)
        x = rng.normal(size=5)
        for _ in range(20):
            target, prefix = random_split(rng, 5)
            if not prefix:
                continue
            both = list(target) + list(prefix)
            joint = model.class_conditional_log_density(0, both, x[both])
            split = model.class_conditional_log_density(
                0, prefix, x[list(prefix)]
            ) + model.class_conditional_log_density(
                0, target, x[list(target)], prefix, x[list(prefix)]
            )
            assert abs(joint - split) < 1e-10

    def test_diagonal_prefix_is_noop(self):
        """In diagonal mode any prefix yields the empty-prefix value exactly."""
        rng = np.random.default_rng(46)
        model = random_model(rng, 3, 5, mode="diagonal")
        x = rng.normal(size=5)
        base = model.class_conditional_log_density(1, (0, 2), x[[0, 2]])
        conditioned = model.class_conditional_log_density(
            1, (0, 2), x[[0, 2]], (1, 3, 4), x[[1, 3, 4]]
        )
        assert conditioned == base

    def test_empty_target_is_log_one(self):
        rng = np.random.default_rng(47)
        model = random_model(rng, 2, 3)
        assert model.class_conditional_log_density(0, (), []) == 0.0

    def test_index_errors(self):
        rng = np.random.default_rng(48)
        model = random_model(rng, 2, 3)
        with pytest.raises(InvalidPartitionError):
            model.class_conditional_log_density(0, (0, 1), [0.0, 0.0], (1,), [0.0])
        with pytest.raises(InvalidPartitionError):
            model.class_conditional_log_density(0, (3,), [0.0])
        with pytest.raises(InvalidPartitionError):
            model.class_conditional_log_density(0, (0, 0), [0.0, 0.0])
        with pytest.raises(UnknownLabelError):
            model.class_conditional_log_density(2, (0,), [0.0])
        with pytest.raises(InvalidDataError):
            model.class_conditional_log_density(0, (0, 1), [0.0])


class TestSetLikelihood:
    def test_singleton_equals_class_conditional(self):
        """A one-class set is not a mixture at all."""
        rng = np.random.default_rng(49)
        model = random_model(rng, 3, 4)
        x = rng.normal(size=4)
        target, prefix = (0, 2), (1, 3)
        direct = model.class_conditional_log_density(
            1, target, x[[0, 2]], prefix, x[[1, 3]]
        )
        mixture = set_conditional_log_likelihood(
            model, [1], target, x[[0, 2]], prefix, x[[1, 3]]
        )
        assert mixture == direct

    def test_full_universe_is_total_probability(self):
        """The all-classes set gives the plain marginal mixture density."""
        rng = np.random.default_rng(50)
        model = random_model(rng, 4, 3)
        x = rng.normal(size=3)
        ours = set_conditional_log_likelihood(model, [0, 1, 2, 3], (0, 1, 2), x)
        lls = np.array([oracle_joint_logpdf(model, c, (0, 1, 2), x) for c in range(4)])
        assert_allclose(ours, logsumexp(np.log(model.priors) + lls), rtol=1e-12)

    def test_matches_mixture_oracle_with_prefix(self):
        rng = np.random.default_rng(51)
        for _ in range(15):
            model = random_model(rng, 4, 5)
            target, prefix = random_split(rng, 5)
            x_t = rng.normal(size=len(target))
            x_p = rng.normal(size=len(prefix))
            classes = sorted(rng.choice(4, size=int(rng.integers(2, 5)), replace=False))
            ours = set_conditional_log_likelihood(
                model, [int(c) for c in classes], target, x_t, prefix, x_p
            )
            oracle = oracle_set_conditional(model, classes, target, x_t, prefix, x_p)
            assert_allclose(ours, oracle, rtol=1e-9, atol=1e-11)

    def test_conditional_mixture_normalizes_1d(self):
        """exp(set conditional) integrates to 1 over a 1-D target."""
        rng = np.random.default_rng(52)
        model = random_model(rng, 2, 2)
        x_p = np.array([0.7])
        span = np.abs(model.means).max() + 10.0 * np.sqrt(model.covariances.max())
        grid = np.linspace(-span, span, 4001)
        dens = np.array([
            np.exp(set_conditional_log_likelihood(model, [0, 1], (0,), [g], (1,), x_p))
            for g in grid
        ])
        assert_allclose(trapezoid(dens, grid), 1.0, atol=1e-4)

    def test_conditional_mixture_normalizes_2d(self):
        """exp(set conditional) integrates to 1 over a 2-D target."""
        rng = np.random.default_rng(53)
        model = random_model(rng, 2, 3)
        x_p = np.array([-0.4])
        span = np.abs(model.means).max() + 9.0 * np.sqrt(model.covariances.max())
        grid = np.linspace(-span, span, 101)
        dens = np.empty((grid.size, grid.size))
        for i, u in enumerate(grid):
            for j, v in enumerate(grid):
                dens[i, j] = np.exp(set_conditional_log_likelihood(
                    model, [0, 1], (0, 1), [u, v], (2,), x_p
                ))
        total = trapezoid(trapezoid(dens, grid, axis=1), grid)
        assert_allclose(total, 1.0, atol=1e-4)


class TestPosterior:
    def test_symmetric_model_is_uniform(self):
        cov = np.eye(2)
        model = GaussianClassModel(
            means=np.zeros((3, 2)),
            covariances=np.array([cov] * 3),
            priors=np.full(3, 1.0 / 3.0),
            mode="full",
            feature_names=("a", "b"),
        ).validate()
        assert_allclose(posterior(model, [0.3, -0.8]), np.full(3, 1.0 / 3.0), rtol=1e-12)

    def test_two_gaussian_logistic(self):
        """Unit-variance means 0 and 1 at x=1: P(Y=1|x) is expit(0.5)."""
        model = GaussianClassModel(
            means=np.array([[0.0], [1.0]]),
            covariances=np.array([[[1.0]], [[1.0]]]),
            priors=np.array([0.5, 0.5]),
            mode="full",
            feature_names=("x",),
        ).validate()
        assert_allclose(posterior(model, [1.0])[1], expit(0.5), rtol=1e-12)

    def test_extreme_evidence_is_stable(self):
        model = GaussianClassModel(
            means=np.array([[0.0], [1.0]]),
            covariances=np.array([[[1.0]], [[1.0]]]),
            priors=np.array([0.5, 0.5]),
            mode="full",
            feature_names=("x",),
        ).validate()
        probs = posterior(model, [100.0])
        assert np.all(np.isfinite(probs))
        assert probs[1] > 1.0 - 1e-10
        assert abs(probs.sum() - 1.0) <= 1e-12

    @pytest.mark.parametrize("mode", ["full", "diagonal"])
    def test_input_beyond_every_density_is_an_error(self, mode):
        """Past about 1e154 sigma z * z overflows, every joint log density is -inf,
        and no class can be favored; an error, not a NaN posterior or class 0."""
        rng = np.random.default_rng(57)
        x = np.vstack([rng.normal(c, 1.0, size=(30, 3)) for c in range(3)])
        model = fit(x, np.repeat(np.arange(3), 30), mode=mode)
        for far in ([1e200, 0.0, 0.0], [0.0, -1e300, 1e200]):
            with pytest.raises(DegenerateDensityError, match="no finite joint log density"):
                posterior(model, far)
            with pytest.raises(DegenerateDensityError, match="no finite joint log density"):
                predicted_class(model, far)
        probs = posterior(model, [1e150, 0.0, 0.0])
        assert np.all(np.isfinite(probs)) and abs(probs.sum() - 1.0) <= 1e-12

    def test_sums_to_one(self):
        rng = np.random.default_rng(55)
        for _ in range(20):
            model = random_model(rng, int(rng.integers(2, 6)), 3)
            probs = posterior(model, rng.normal(0.0, 3.0, size=3))
            assert abs(probs.sum() - 1.0) <= 1e-12

    def test_requires_full_observation(self):
        rng = np.random.default_rng(56)
        model = random_model(rng, 2, 3)
        e = Evidence(np.zeros(3), observed_mask=np.array([True, False, True]))
        with pytest.raises(MissingEvidenceError):
            posterior(model, e)


class TestFit:
    def test_sample_mean_and_priors(self):
        data = np.array([[0.0, 0.0], [2.0, 0.0], [5.0, 1.0], [7.0, 3.0], [6.0, 2.0]])
        labels = [0, 0, 1, 1, 1]
        model = fit(data, labels, mode="diagonal")
        assert_allclose(model.means[0], [1.0, 0.0])
        assert_allclose(model.priors, [0.4, 0.6])

    def test_ml_covariance_with_ridge(self):
        rng = np.random.default_rng(57)
        data = rng.normal(size=(40, 3))
        labels = np.array([0] * 20 + [1] * 20)
        floor = 1e-9
        model = fit(data, labels, mode="full", variance_floor=floor)
        for c in (0, 1):
            xc = data[labels == c]
            expected = np.cov(xc, rowvar=False, bias=True) + floor * np.eye(3)
            assert_allclose(model.covariances[c], expected, rtol=1e-12)

    def test_variance_floor_applies_to_constant_feature(self):
        data = np.array([[1.0, 5.0], [1.0, 6.0], [1.0, 0.0], [1.0, 1.0]])
        labels = [0, 0, 1, 1]
        model = fit(data, labels, mode="diagonal", variance_floor=1e-3)
        assert model.covariances[0][0] == 1e-3
        assert model.covariances[1][0] == 1e-3

    def test_monte_carlo_recovery_and_idempotence(self):
        """Fitting 10k draws recovers the generator, and refits converge."""
        rng = np.random.default_rng(42)
        mean0, mean1 = np.array([0.0, 1.0, -1.0]), np.array([2.0, -0.5, 0.5])
        cov0 = np.array([[1.0, 0.3, 0.0], [0.3, 1.5, -0.2], [0.0, -0.2, 0.8]])
        cov1 = np.array([[2.0, -0.4, 0.1], [-0.4, 1.0, 0.2], [0.1, 0.2, 1.2]])
        data = np.vstack([
            rng.multivariate_normal(mean0, cov0, size=10_000),
            rng.multivariate_normal(mean1, cov1, size=10_000),
        ])
        labels = np.array([0] * 10_000 + [1] * 10_000)
        model = fit(data, labels, mode="full")
        assert np.all(np.abs(model.means - np.array([mean0, mean1])) <= 0.05)
        assert np.all(np.abs(model.covariances - np.array([cov0, cov1])) <= 0.1)

        resampled = np.vstack([
            rng.multivariate_normal(model.means[0], model.covariances[0], size=10_000),
            rng.multivariate_normal(model.means[1], model.covariances[1], size=10_000),
        ])
        refit = fit(resampled, labels, mode="full")
        assert np.all(np.abs(refit.means - model.means) <= 0.05)
        assert np.all(np.abs(refit.covariances - model.covariances) <= 0.1)

    def test_single_class_rejected(self):
        data = np.zeros((4, 2))
        with pytest.raises(InsufficientDataError):
            fit(data, [0, 0, 0, 0])

    def test_thin_class_rejected(self):
        data = np.random.default_rng(58).normal(size=(5, 2))
        with pytest.raises(InsufficientDataError, match="class 1"):
            fit(data, [0, 0, 0, 0, 1])

    def test_absent_class_rejected(self):
        data = np.random.default_rng(59).normal(size=(4, 2))
        with pytest.raises(InsufficientDataError, match="class 1"):
            fit(data, [0, 0, 2, 2])

    def test_bad_inputs(self):
        good = np.zeros((4, 2))
        labels = [0, 0, 1, 1]
        with pytest.raises(InvalidDataError):
            fit(np.array([[0.0, np.nan]] + [[0.0, 0.0]] * 3), labels)
        with pytest.raises(InvalidDataError):
            fit(good, [0, 0, 1, 1.5])
        with pytest.raises(InvalidDataError):
            fit(good, [-1, -1, 1, 1])
        with pytest.raises(InvalidDataError):
            fit(good, [0, 0, 1])
        with pytest.raises(InvalidParameterError):
            fit(good, labels, variance_floor=0.0)
        with pytest.raises(InvalidParameterError):
            fit(good, labels, mode="sparse")


class TestModelValidation:
    def base_kwargs(self):
        return dict(
            means=np.zeros((2, 2)),
            covariances=np.array([np.eye(2), np.eye(2)]),
            mode="full",
            feature_names=("a", "b"),
        )

    def test_priors_must_sum_to_one(self):
        model = GaussianClassModel(priors=np.array([0.5, 0.4]), **self.base_kwargs())
        with pytest.raises(InvalidModelError, match="sum"):
            model.validate()

    def test_priors_must_be_positive(self):
        model = GaussianClassModel(priors=np.array([1.0, 0.0]), **self.base_kwargs())
        with pytest.raises(InvalidModelError, match="positive"):
            model.validate()

    def test_covariance_must_be_positive_definite(self):
        kwargs = self.base_kwargs()
        kwargs["covariances"] = np.array([np.eye(2).tolist(), [[1.0, 2.0], [2.0, 1.0]]])
        model = GaussianClassModel(priors=np.array([0.5, 0.5]), **kwargs)
        with pytest.raises(InvalidModelError,
                           match="^the covariance of class 1 is not positive definite$"):
            model.validate()

    def test_covariance_must_be_symmetric(self):
        kwargs = self.base_kwargs()
        kwargs["covariances"] = np.array([[[1.0, 0.5], [0.1, 1.0]], np.eye(2).tolist()])
        model = GaussianClassModel(priors=np.array([0.5, 0.5]), **kwargs)
        with pytest.raises(InvalidModelError, match="symmetric"):
            model.validate()

    def test_structural_shape_mismatch(self):
        with pytest.raises(InvalidModelError):
            GaussianClassModel(
                means=np.zeros((2, 2)),
                covariances=np.zeros((2, 3, 3)),
                priors=np.array([0.5, 0.5]),
                mode="full",
                feature_names=("a", "b"),
            )


class TestPersistence:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(60)
        model = random_model(rng, 3, 4)
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.mode == model.mode
        assert loaded.feature_names == model.feature_names
        assert np.array_equal(loaded.means, model.means)
        assert np.array_equal(loaded.covariances, model.covariances)
        assert np.array_equal(loaded.priors, model.priors)

    def test_save_is_byte_stable(self, tmp_path):
        rng = np.random.default_rng(61)
        model = random_model(rng, 2, 3, mode="diagonal")
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        save_model(model, first)
        save_model(load_model(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_document_shape(self):
        rng = np.random.default_rng(62)
        doc = model_to_dict(random_model(rng, 2, 2))
        assert list(doc) == ["version", "mode", "feature_names", "classes"]
        assert list(doc["classes"][0]) == ["label", "prior", "mean", "cov"]
        doc_diag = model_to_dict(random_model(rng, 2, 2, mode="diagonal"))
        assert list(doc_diag["classes"][0]) == ["label", "prior", "mean", "var"]

    def test_bad_documents_rejected(self, tmp_path):
        rng = np.random.default_rng(63)
        doc = model_to_dict(random_model(rng, 2, 2))
        wrong_version = dict(doc, version=99)
        with pytest.raises(InvalidModelError, match="version"):
            model_from_dict(wrong_version)
        sparse_labels = json.loads(json.dumps(doc))
        sparse_labels["classes"][1]["label"] = 5
        with pytest.raises(InvalidModelError, match="labels"):
            model_from_dict(sparse_labels)
        bad_priors = json.loads(json.dumps(doc))
        bad_priors["classes"][0]["prior"] = 0.4
        bad_priors["classes"][1]["prior"] = 0.5
        with pytest.raises(InvalidModelError, match="sum"):
            model_from_dict(bad_priors)
        not_json = tmp_path / "broken.json"
        not_json.write_text("{not json", encoding="utf-8")
        with pytest.raises(InvalidModelError, match="JSON"):
            load_model(not_json)
