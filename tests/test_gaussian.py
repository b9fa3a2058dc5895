"""Density model checks against independent oracles.

Conditionals computed by the package (sequential terms from one Cholesky
factor per class of the covariance permuted into the scoring order) are
cross-checked against scipy.stats evaluations combined through the
probability chain rule, closed-form bivariate conditioning, and direct
quadrature, so the two sides share no linear algebra.
"""

import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose, assert_array_equal
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
    woe_conditional,
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
from woexplain.gaussian import (
    _defined,
    _densities,
    _order_terms,
    _prefix_states,
    mixture_log_ratio,
)

from oracles import (
    conditional_logpdf as oracle_conditional_logpdf,
    conditioned_model,
    contract_bound,
    joint_logpdf as oracle_joint_logpdf,
    random_model,
    random_split,
    set_conditional as oracle_set_conditional,
)


def set_likelihood(model, classes, target, x_target, prefix=(), x_prefix=()):
    """log P(X_target = x_target | X_prefix = x_prefix, Y in classes), read from the kernel
    woe_conditional_many reads: the prefix's state, the order's base and target terms, and
    their mixture over the classes. Undefined weights raise as the package's routes raise."""
    order = tuple(prefix) + tuple(target)
    x = np.zeros((1, model.n_features))
    x[0, list(order)] = np.concatenate([np.ravel(x_prefix), np.ravel(x_target)])
    p = len(prefix)
    base, terms, _ = _densities([order], p, x, model, _prefix_states([order[:p]], x, model, {}))
    h = list(classes)
    with np.errstate(divide="ignore", invalid="ignore"):
        return _defined(mixture_log_ratio(base[h, 0], terms.sum(axis=2)[h, 0]))


class TestLogDensityTerms:
    """J's one reader (_order_terms) against the oracles."""

    def test_prefix_sums_are_joint_densities(self):
        """Row c's prefix sums give class c's joint density of every prefix."""
        rng = np.random.default_rng(64)
        for mode in ("full", "diagonal"):
            for _ in range(10):
                model = random_model(rng, 3, 5, mode=mode)
                order = [int(i) for i in rng.permutation(5)]
                x = rng.normal(0.0, 2.0, size=5)
                sums = np.cumsum(_order_terms(tuple(order), x[None], model, {})[:, 0], axis=1)
                for c in range(3):
                    for m in range(1, 6):
                        oracle = oracle_joint_logpdf(model, c, order[:m], x[order[:m]])
                        assert_allclose(sums[c, m - 1], oracle, rtol=1e-10)
                        assert (abs(sums[c, m - 1] - oracle)
                                <= contract_bound(model, [c], (), order[:m], x))

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
        x = np.zeros((1, 3))
        with pytest.raises(NumericalConditioningError, match=message):
            _order_terms((2, 1, 0), x, model, {})
        with pytest.raises(NumericalConditioningError, match=message):
            _order_terms((2, 0), x, model, {})
        with pytest.raises(NumericalConditioningError, match=message):
            model.class_conditional_log_density(0, (0,), [0.0], (2,), [0.0])
        # submatrices that do factor are scored as usual
        for order in ((0, 1), (1, 2)):
            assert np.isfinite(_order_terms(order, x, model, {})).all()

    def test_empty_order(self):
        rng = np.random.default_rng(65)
        for mode in ("full", "diagonal"):
            terms = _order_terms((), np.zeros((1, 2)), random_model(rng, 3, 2, mode=mode), {})
            assert terms.shape == (3, 1, 0)

    def test_order_errors(self):
        """The public route that takes an order checks it, and its values, with these errors."""
        rng = np.random.default_rng(67)
        model = random_model(rng, 2, 3)
        score = model.class_conditional_log_density
        with pytest.raises(InvalidPartitionError, match="^order index 3 outside 0..2$"):
            score(0, [1, 3], [0.0, 0.0])
        with pytest.raises(InvalidPartitionError, match=r"^duplicate index in order: \[2, 0, 2\]$"):
            score(0, [0, 2], [0.0, 0.0], [2], [0.0])
        with pytest.raises(InvalidPartitionError, match="^order indices must be integers$"):
            score(0, np.array([0.0, 1.0]), [0.0, 0.0])
        with pytest.raises(InvalidPartitionError, match="^order indices must be integers$"):
            score(0, [[0, 1], [1, 2]], [0.0, 0.0])
        with pytest.raises(InvalidDataError, match="^3 target values for 2 target indices$"):
            score(0, [0, 1], [0.0, 0.0, 0.0])

    @pytest.mark.parametrize("mode", ["full", "diagonal"])
    def test_non_finite_value_names_its_feature(self, mode):
        """The route that takes values by index checks them as Evidence does."""
        rng = np.random.default_rng(68)
        model = random_model(rng, 3, 4, mode=mode)
        score = model.class_conditional_log_density
        for bad in (np.nan, np.inf, -np.inf):
            message = "^non-finite value at observed feature 2$"
            with pytest.raises(InvalidDataError, match=message):
                score(0, (2,), [bad])
            with pytest.raises(InvalidDataError, match=message):
                score(0, (1,), [0.5], (3, 2), [0.1, bad])


class TestBorderedRead:
    """A block read is one Cholesky of the bordered block [[S, s d], [s d^T, big]] (_block_terms)."""

    def test_terms_match_oracle_when_ill_conditioned_and_far(self):
        """Each prefix sum of a read's terms, and its base, within the contract bound:
        condition numbers up to 1e8, rows up to 50 sd out, empty and nonempty prefixes."""
        for seed in range(32):
            rng = np.random.default_rng(3100 + seed)
            k, n = (2, 3, 5, 4)[seed % 4], int(rng.integers(2, 8))
            model = conditioned_model(rng, k, n, (1e2, 1e4, 1e6, 1e8)[seed // 4 % 4])
            c = int(rng.integers(k))
            sd = np.sqrt(np.diagonal(model.covariances[c]))
            far = (1.0, 5.0, 50.0, 50.0)[seed // 8]
            x = model.means[c] + far * sd * rng.normal(size=n)
            order = tuple(int(i) for i in rng.permutation(n))
            p = int(rng.integers(0, n))
            prefix, target = order[:p], order[p:]
            base, terms, _ = _densities([order], p, x[None], model,
                                        _prefix_states([prefix], x[None], model, {}))
            sums = np.cumsum(terms[:, 0], axis=1)
            for cc in range(k):
                if prefix:
                    joint = base[cc, 0] - np.log(model.priors[cc])
                    oracle = oracle_joint_logpdf(model, cc, prefix, x[list(prefix)])
                    assert abs(joint - oracle) <= contract_bound(model, [cc], (), prefix, x), seed
                for i in range(len(target)):
                    oracle = oracle_conditional_logpdf(model, cc, target[:i + 1],
                                                       x[list(target[:i + 1])], prefix,
                                                       x[list(prefix)])
                    bound = contract_bound(model, [cc], prefix, target[:i + 1], x)
                    assert abs(sums[cc, i] - oracle) <= bound, (seed, cc, i)

    def test_stacked_with_overflowing_reads_keeps_lone_bits(self):
        """Reads of rows whose residuals reach 1e150 and 1e200 sd, where z^2 overflows,
        stacked with a read of an ordinary row, leave that read's bits as they are alone."""
        rng = np.random.default_rng(71)
        k, n = 4, 6
        model = conditioned_model(rng, k, n, 1e6)
        sd = np.sqrt(np.diagonal(model.covariances[0]))
        x = model.means[0] + sd * np.array([rng.normal(size=n), 1e150 * rng.normal(size=n),
                                            1e200 * rng.normal(size=n)])
        for p in (0, 2):
            prefixes = [tuple(int(i) for i in rng.permutation(n)[:p]) for _ in range(3)]
            orders = [prefix + tuple(int(i) for i in rng.permutation(
                [j for j in range(n) if j not in prefix]))[:3] for prefix in prefixes]
            reads = [(order, r) for order in orders for r in (0, 1, 2)]
            states = _prefix_states([order[:p] for order, _ in reads], x, model, {})
            base, terms, where = _densities([order for order, _ in reads], p, x, model, states,
                                            [r for _, r in reads])
            assert not np.isfinite(terms[:, where[2::3]]).all()
            for order in orders:
                one = x[:1]
                alone = _densities([order], p, one, model,
                                   _prefix_states([order[:p]], one, model, {}))
                col = where[reads.index((order, 0))]
                assert base[:, col].tobytes() == alone[0][:, 0].tobytes()
                assert terms[:, col].tobytes() == alone[1][:, 0].tobytes()

    def test_row_at_1e150_sd_gives_finite_or_minus_inf_terms(self):
        """No NaN, no LinAlgError and no warning, from the root and after a prefix."""
        for seed in range(12):
            rng = np.random.default_rng(3200 + seed)
            k, n = 3, int(rng.integers(2, 8))
            model = conditioned_model(rng, k, n, (1.0, 1e4, 1e8)[seed % 3])
            c = int(rng.integers(k))
            sd = np.sqrt(np.diagonal(model.covariances[c]))
            x = (model.means[c] + 1e150 * sd * rng.choice([-1.0, 1.0], size=n))[None]
            order = tuple(int(i) for i in rng.permutation(n))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                reads = [_order_terms(order, x, model, {})]
                for p in range(1, n):
                    reads.append(_densities([order], p, x, model,
                                            _prefix_states([order[:p]], x, model, {}))[1])
            for terms in reads:
                assert not np.isnan(terms).any(), seed
                assert (np.isfinite(terms) | (terms == -np.inf)).all(), seed

    @staticmethod
    def correlated_model():
        """Two classes of one covariance, every correlation 0.9, in three features."""
        cov = np.full((3, 3), 0.9) + 0.1 * np.eye(3)
        return GaussianClassModel(means=np.zeros((2, 3)), covariances=np.array([cov, cov]),
                                  priors=np.full(2, 0.5), mode="full",
                                  feature_names=("a", "b", "c")).validate()

    def test_rows_at_the_float_limit_read_minus_inf(self):
        """Residuals near 1.7e308 factor: each log density is -inf, its value rounded,
        where a triangular solve's inf - inf would leave it undefined."""
        model = self.correlated_model()
        for x in ([1.7e308, -1.7e308, -1.7e308], [1.7e308, 1.0, -1.7e308], [1e308, -1e308, 1.0]):
            assert model.class_conditional_log_density(0, (0, 1, 2), x) == -np.inf

    def test_residual_that_conditioning_overflows(self):
        """x1 - 0.9 x0 overflows to -inf when x1 is conditioned on x0: its term is -inf,
        its log density rounded, and no covariance is blamed. Conditioned on x1 too, x2's
        residual is -inf + inf: its term, and every term after an infinite one, is NaN."""
        model = self.correlated_model()
        x = np.array([[1.7e308, -1.7e308, -1.7e308]])
        for p, first in ((1, -np.inf), (2, np.nan)):
            _, terms, _ = _densities([(0, 1, 2)], p, x, model,
                                     _prefix_states([(0, 1)[:p]], x, model, {}))
            assert_array_equal(terms[..., 0], first)
            assert np.isnan(terms[..., 1:]).all()
        assert model.class_conditional_log_density(0, (1,), [-1.7e308], (0,), [1.7e308]) == -np.inf
        with pytest.raises(DegenerateDensityError, match="too far from every class mean"):
            model.class_conditional_log_density(0, (2,), [-1.7e308], (0, 1), [1.7e308, -1.7e308])


class TestRootColumns:
    """One root state holds a column per input row, and every read from it is a lone read."""

    @pytest.mark.parametrize("mode", ["full", "diagonal"])
    def test_rows_read_together_equal_each_alone(self, mode):
        rng = np.random.default_rng(69)
        for k, n in ((2, 1), (6, 9), (13, 16)):
            model = random_model(rng, k, n, mode=mode)
            x = rng.normal(0.0, 2.5, size=(5, n))
            x[3] *= 3e3 / 2.5
            rows = [int(r) for r in rng.integers(0, 5, size=12)]
            for m in sorted({1, n // 2 or 1, n}):
                orders = [tuple(int(i) for i in rng.permutation(n)[:m]) for _ in rows]
                orders[5] = orders[2]
                states = _prefix_states((), x, model, {})
                _, terms, where = _densities(orders, 0, x, model, states, rows)
                assert len(set(where.tolist())) == len(set(zip(orders, rows)))
                for order, r, col in zip(orders, rows, where):
                    alone = _order_terms(order, x[r][None], model, {})[:, 0]
                    assert terms[:, col].tobytes() == alone.tobytes()

    @pytest.mark.parametrize("mode", ["full", "diagonal"])
    def test_prefixes_of_many_rows_equal_each_alone(self, mode):
        """A prefix conditioned for every row at once gives each row's lone read."""
        rng = np.random.default_rng(70)
        k, n = 5, 8
        model = random_model(rng, k, n, mode=mode)
        x = rng.normal(0.0, 2.5, size=(4, n))
        prefixes = [tuple(int(i) for i in rng.permutation(n)[:3]) for _ in range(3)]
        orders = [prefix + tuple(i for i in range(n) if i not in prefix)[:2]
                  for prefix in prefixes for _ in range(4)]
        rows = [r for _ in prefixes for r in range(4)]
        # the first prefix carried from a shorter state, the others from the root
        memo = _prefix_states([prefixes[0][:1]], x, model, {})
        states = _prefix_states(prefixes, x, model, memo)
        base, terms, where = _densities(orders, 3, x, model, states, rows)
        for order, r, col in zip(orders, rows, where):
            one = x[r][None]
            alone = _densities([order], 3, one, model, _prefix_states([order[:3]], one, model, {}))
            assert base[:, col].tobytes() == alone[0][:, 0].tobytes()
            assert terms[:, col].tobytes() == alone[1][:, 0].tobytes()


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
    def test_class_difference_is_conditional_woe_bit_for_bit(self):
        """woe_conditional and the set likelihood read one conditional route."""
        rng = np.random.default_rng(66)
        for _ in range(20):
            model = random_model(rng, 4, 7)
            x = rng.normal(0.0, 2.0, size=7)
            perm = [int(i) for i in rng.permutation(7)]
            cut = int(rng.integers(1, 7))
            prefix, target = tuple(perm[:cut]), tuple(perm[cut:cut + int(rng.integers(1, 8 - cut))])
            c, d = (int(i) for i in rng.choice(4, size=2, replace=False))
            sides = [set_likelihood(model, [h], target, x[list(target)], prefix, x[list(prefix)])
                     for h in (c, d)]
            assert woe_conditional([c], [d], target, prefix, x, model) == sides[0] - sides[1]
            assert sides[0] == model.class_conditional_log_density(
                c, target, x[list(target)], prefix, x[list(prefix)])

    def test_singleton_equals_class_conditional(self):
        """A one-class set is not a mixture at all."""
        rng = np.random.default_rng(49)
        model = random_model(rng, 3, 4)
        x = rng.normal(size=4)
        target, prefix = (0, 2), (1, 3)
        direct = model.class_conditional_log_density(
            1, target, x[[0, 2]], prefix, x[[1, 3]]
        )
        mixture = set_likelihood(model, [1], target, x[[0, 2]], prefix, x[[1, 3]])
        assert mixture == direct

    def test_full_universe_is_total_probability(self):
        """The all-classes set gives the plain marginal mixture density."""
        rng = np.random.default_rng(50)
        model = random_model(rng, 4, 3)
        x = rng.normal(size=3)
        ours = set_likelihood(model, [0, 1, 2, 3], (0, 1, 2), x)
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
            ours = set_likelihood(model, [int(c) for c in classes], target, x_t, prefix, x_p)
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
            np.exp(set_likelihood(model, [0, 1], (0,), [g], (1,), x_p))
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
                dens[i, j] = np.exp(set_likelihood(model, [0, 1], (0, 1), [u, v], (2,), x_p))
        total = trapezoid(trapezoid(dens, grid, axis=1), grid)
        assert_allclose(total, 1.0, atol=1e-4)


    def test_hypothesis_without_density_on_the_target_gives_minus_inf(self):
        """Classes 0 and 1 give 1e200 no finite density: log 0, with no warning."""
        model = GaussianClassModel(
            means=np.zeros((3, 2)),
            covariances=np.array([np.eye(2), np.eye(2), np.diag([1e300, 1.0])]),
            priors=np.full(3, 1.0 / 3.0),
            mode="full",
            feature_names=("a", "b"),
        ).validate()
        assert set_likelihood(model, [0, 1], [0], [1e200]) == -np.inf
        assert np.isfinite(set_likelihood(model, [1, 2], [0], [1e200]))

    def test_prefix_without_density_under_the_hypothesis_raises(self):
        """No class of [0, 1] gives the prefix 1e200 a density: its weights are undefined,
        and the set likelihood raises as woe_conditional does for the same condition."""
        model = GaussianClassModel(
            means=np.zeros((3, 2)),
            covariances=np.array([np.eye(2), np.eye(2), np.diag([1e300, 1.0])]),
            priors=np.full(3, 1.0 / 3.0),
            mode="full",
            feature_names=("a", "b"),
        ).validate()
        with pytest.raises(DegenerateDensityError, match="lies too far from every class mean"):
            set_likelihood(model, [0, 1], [1], [0.5], [0], [1e200])
        with pytest.raises(DegenerateDensityError, match="lies too far from every class mean"):
            woe_conditional([0, 1], [2], (1,), (0,), [1e200, 0.5], model)
        assert np.isfinite(set_likelihood(model, [1, 2], [1], [0.5], [0], [1e200]))


@st.composite
def mixtures(draw):
    """(base, delta) of shape (rows, classes): finite bases, deltas partly -inf.

    The first row's deltas are all -inf, a mixture with no mass on the
    new evidence.
    """
    shape = (draw(st.integers(1, 6)), draw(st.integers(2, 13)))
    base = draw(arrays(float, shape, elements=st.floats(-50.0, 50.0)))
    delta = draw(arrays(float, shape, elements=st.one_of(
        st.just(-np.inf), st.floats(-50.0, 50.0))))
    delta[0] = -np.inf
    return base, delta


class TestMixtureLogRatio:
    @settings(deadline=None)
    @given(mixtures())
    def test_matches_logsumexp_and_is_never_nan(self, mixture):
        base, delta = mixture
        with np.errstate(divide="ignore"):
            ours = mixture_log_ratio(base, delta)
            oracle = logsumexp(base + delta, axis=-1) - logsumexp(base, axis=-1)
        assert not np.isnan(ours).any()
        assert ours[0] == -np.inf
        assert_allclose(ours, oracle, rtol=1e-12, atol=1e-12)


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

    def test_wrong_length_is_missing_evidence(self):
        """The same error, with the same message, as woe and best_contrast give."""
        model = random_model(np.random.default_rng(57), 2, 2)
        for route in (posterior, predicted_class):
            with pytest.raises(MissingEvidenceError,
                               match="evidence has 1 features, model expects 2"):
                route(model, [0.0])


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
        for floor in (0.0, "abc", [1], -1.0, np.inf, np.nan, 10**400):
            with pytest.raises(InvalidParameterError, match="variance floor must be positive"):
                fit(good, labels, variance_floor=floor)
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



def _model(mode="diagonal", means=((0.0, 0.0), (1.0, 1.0)), covariances=((1.0, 1.0), (1.0, 1.0)),
           priors=(0.5, 0.5), names=("a", "b")):
    return GaussianClassModel(means=np.array(means), covariances=np.array(covariances),
                              priors=np.array(priors), mode=mode, feature_names=names)


def _doc(**changes):
    doc = model_to_dict(_model())
    doc.update(changes)
    return doc


def _entry(**fields):
    return _doc(classes=[fields])


# (call, error type, message) of a raise at the public edge of gaussian.py
EDGE_ERRORS = {
    "model/mode": (lambda: _model(mode="spherical"),
                   InvalidModelError, "unknown covariance mode 'spherical'"),
    "model/means-1d": (lambda: _model(means=(0.0, 0.0)),
                       InvalidModelError, "means must be (K, n), got shape (2,)"),
    "model/no-features": (lambda: _model(means=np.zeros((2, 0)), covariances=np.zeros((2, 0)),
                                         names=()),
                          InvalidModelError, "need at least 1 class and 1 feature, got 2x0"),
    "model/priors-shape": (lambda: _model(priors=(1.0,)),
                           InvalidModelError, "priors shape (1,) does not match (2,)"),
    "model/names": (lambda: _model(names=("a",)),
                    InvalidModelError, "1 feature names for 2 features"),
    "model/repeated-names": (lambda: _model(names=("a", "a")),
                             InvalidModelError, "feature name 'a' is repeated"),
    "validate/non-finite": (lambda: _model(means=((0.0, np.nan), (1.0, 1.0))).validate(),
                            InvalidModelError, "non-finite entries in means"),
    "validate/variance": (lambda: _model(covariances=((1.0, 0.0), (1.0, 1.0))).validate(),
                          InvalidModelError, "variance of feature 1 in class 0 is not positive"),
    "class_density/prefix-values": (
        lambda: _model().class_conditional_log_density(0, [0], [0.0], [1], [0.0, 1.0]),
        InvalidDataError, "2 prefix values for 1 prefix indices"),
    "fit/1d": (lambda: fit(np.zeros(4), [0, 0, 1, 1]),
               InvalidDataError, "data must be a 2-D array, got shape (4,)"),
    "fit/no-columns": (lambda: fit(np.zeros((4, 0)), [0, 0, 1, 1]),
                       InvalidDataError, "data must have at least one feature column"),
    "from_dict/not-object": (lambda: model_from_dict([]),
                             InvalidModelError, "model document must be a JSON object"),
    "from_dict/mode": (lambda: model_from_dict(_doc(mode="spherical")),
                       InvalidModelError, "unknown covariance mode 'spherical'"),
    "from_dict/no-names": (lambda: model_from_dict(_doc(feature_names=[])),
                           InvalidModelError, "feature_names must be a nonempty list"),
    "from_dict/no-classes": (lambda: model_from_dict(_doc(classes=[])),
                             InvalidModelError, "classes must be a nonempty list"),
    "from_dict/no-label": (lambda: model_from_dict(_entry(prior=1.0, mean=[0.0, 0.0])),
                           InvalidModelError, "every class entry needs an integer label"),
    "from_dict/malformed": (lambda: model_from_dict(_entry(label=0, prior=1.0, mean=[0.0, 0.0])),
                            InvalidModelError, "malformed class entry: 'var'"),
    "from_dict/means-length": (
        lambda: model_from_dict(_entry(label=0, prior=1.0, mean=[0.0], var=[1.0])),
        InvalidModelError, "class means do not match feature_names in length"),
}


@pytest.mark.parametrize("case", list(EDGE_ERRORS))
def test_edge_errors_name_their_cause(case):
    call, error, message = EDGE_ERRORS[case]
    with pytest.raises(error) as caught:
        call()
    assert type(caught.value) is error
    assert str(caught.value) == message


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
        for mode in ("diagonal", "full"):
            model = random_model(rng, 2, 3, mode=mode)
            first, second = tmp_path / "a.json", tmp_path / "b.json"
            save_model(model, first)
            save_model(load_model(first), second)
            assert first.read_bytes() == second.read_bytes()

    def test_document_shape(self):
        rng = np.random.default_rng(62)
        model = random_model(rng, 3, 4)
        doc = model_to_dict(model)
        assert list(doc) == ["version", "mode", "feature_names", "classes"]
        assert doc["version"] == 2
        assert list(doc["classes"][0]) == ["label", "prior", "mean", "cov"]
        # each full covariance is its lower triangle: row i holds i + 1 entries
        for c, entry in enumerate(doc["classes"]):
            assert entry["cov"] == [row[:i + 1]
                                    for i, row in enumerate(model.covariances[c].tolist())]
        doc_diag = model_to_dict(random_model(rng, 2, 2, mode="diagonal"))
        assert list(doc_diag["classes"][0]) == ["label", "prior", "mean", "var"]

    @pytest.mark.parametrize("mode", ["full", "diagonal"])
    def test_format_1_loads_to_the_bits_of_format_2(self, mode):
        """A version-1 document, whole matrices in full mode, is the same model."""
        model = random_model(np.random.default_rng(66), 3, 4, mode=mode)
        doc = model_to_dict(model)
        old = json.loads(json.dumps(doc))
        old["version"] = 1
        if mode == "full":
            for c, entry in enumerate(old["classes"]):
                entry["cov"] = model.covariances[c].tolist()
        new, legacy = model_from_dict(doc), model_from_dict(old)
        assert doc["version"] == 2
        for field in ("means", "covariances", "priors"):
            assert getattr(new, field).tobytes() == getattr(legacy, field).tobytes()
            assert getattr(new, field).tobytes() == getattr(model, field).tobytes()
        assert model_to_dict(legacy) == doc

    def test_format_2_covariances_must_be_lower_triangles(self):
        doc = model_to_dict(random_model(np.random.default_rng(67), 3, 3))
        triangle = doc["classes"][1]["cov"]
        message = "class 1 cov must be a lower triangle: 3 lists, list i holding i + 1 numbers"
        for cov in [
            [row + [0.0] * (2 - i) for i, row in enumerate(triangle)],  # whole rows
            triangle[:2],  # a row missing
            triangle + [[0.0, 0.0, 0.0, 1.0]],  # a row too many
            [triangle[0], triangle[2], triangle[1]],  # rows out of order
            [triangle[0], triangle[1], 2.0],  # a number for a row
            "[[1.0]]",
        ]:
            bad = json.loads(json.dumps(doc))
            bad["classes"][1]["cov"] = cov
            with pytest.raises(InvalidModelError) as caught:
                model_from_dict(bad)
            assert str(caught.value) == message
        # a version-1 document keeps whole rows
        bad = json.loads(json.dumps(doc))
        bad["version"] = 1
        with pytest.raises(InvalidModelError, match="^malformed class entry: "):
            model_from_dict(bad)

    @pytest.mark.parametrize("version", [0, 3, 99, "2", 2.0, True, None])
    def test_unsupported_version_message(self, version):
        doc = dict(model_to_dict(_model()), version=version)
        with pytest.raises(InvalidModelError) as caught:
            model_from_dict(doc)
        assert str(caught.value) == f"unsupported model version {version!r}, expected 1 or 2"

    def test_asymmetry_names_the_first_class_past_its_own_tolerance(self):
        """Each class is held to 1e-10 (1 + max |cov_c|): class 0's large entries do not
        widen the tolerance of class 2."""
        big = [[1e6, 1e-5], [0.0, 1e6]]  # within 1e-10 (1 + 1e6)
        skew = [[1.0, 0.3], [0.3 + 1e-8, 1.0]]  # past 1e-10 (1 + 1)
        eye = np.eye(2).tolist()
        doc = model_to_dict(_model(mode="full", means=np.zeros((3, 2)),
                                   covariances=np.tile(np.eye(2), (3, 1, 1)),
                                   priors=(0.25, 0.25, 0.5)))
        doc["version"] = 1
        for covs, c in [((big, eye, skew), 2), ((big, skew, skew), 1), ((skew, eye, eye), 0)]:
            for entry, cov in zip(doc["classes"], covs):
                entry["cov"] = cov
            with pytest.raises(InvalidModelError) as caught:
                model_from_dict(doc)
            assert str(caught.value) == f"covariance of class {c} is not symmetric"
        for entry, cov in zip(doc["classes"], (big, eye, eye)):
            entry["cov"] = cov
        assert model_from_dict(doc).covariances[0].tolist() == big

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

    @pytest.mark.parametrize("labels", [(0.7, 1.2), (0.0, 1.0), (False, True), ("0", "1")])
    def test_labels_are_json_integers(self, tmp_path, labels):
        """A float label is not truncated, and a bool or a string is no label."""
        doc = model_to_dict(_model())
        for entry, label in zip(doc["classes"], labels):
            entry["label"] = label
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(InvalidModelError,
                           match="^every class entry needs an integer label$"):
            load_model(path)

    @pytest.mark.parametrize("mode", ["full", "diagonal"])
    def test_model_numbers_are_json_numbers(self, tmp_path, mode):
        """Text and bools are refused wherever a number belongs, naming the class and the
        field; JSON integers load as floats, and one too large for a float is refused."""
        doc = model_to_dict(random_model(np.random.default_rng(64), 2, 2, mode=mode))
        key = "cov" if mode == "full" else "var"
        text = [["2", 0], [0, 1]] if mode == "full" else ["2", "1e0"]
        path = tmp_path / "model.json"
        for field, value, message in [
            ("prior", "0.5", "class 1 prior must hold JSON numbers only, got str"),
            ("mean", ["1", True], "class 1 mean must hold JSON numbers only, got bool, str"),
            (key, text, f"class 1 {key} must hold JSON numbers only, got str"),
        ]:
            bad = json.loads(json.dumps(doc))
            bad["classes"][1][field] = value
            path.write_text(json.dumps(bad), encoding="utf-8")
            with pytest.raises(InvalidModelError) as caught:
                load_model(path)
            assert str(caught.value) == message
        doc["classes"][1]["mean"] = [1, -2]
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert load_model(path).means[1].tolist() == [1.0, -2.0]
        doc["classes"][1]["mean"] = [1, 10**400]
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(InvalidModelError,
                           match="^malformed class entry: int too large to convert to float$"):
            load_model(path)

    def test_a_text_mean_is_not_split_into_digits(self, tmp_path):
        """"12" is no vector of the two features 1.0 and 2.0."""
        doc = model_to_dict(_model())
        doc["classes"][0]["mean"] = "12"
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(InvalidModelError, match="^malformed class entry: "):
            load_model(path)
        for entry in doc["classes"]:
            entry["mean"] = "12"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(InvalidModelError,
                           match="^class means do not match feature_names in length$"):
            load_model(path)
