"""Weight-of-evidence scores checked against closed forms and quadrature.

The oracle side evaluates densities with scipy.stats and builds every
conditional by explicit grid integration or the probability chain rule,
so none of the package's conditioning or mixture code is on both sides
of an assertion.
"""

import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats
from scipy.integrate import trapezoid

from woexplain import (
    AttributePartition,
    ContrastParams,
    Evidence,
    GaussianClassModel,
    HypothesisSet,
    as_hypothesis,
    bayes_decomposition,
    best_contrast,
    information_value,
    posterior_log_odds,
    prior_log_odds,
    woe,
    woe_chain,
    woe_conditional,
    woe_conditional_many,
)
from woexplain import core, gaussian
from woexplain.core import _chains, first_max
from woexplain.errors import (
    DegenerateDensityError,
    DegeneratePriorError,
    InvalidHypothesisError,
    InvalidPartitionError,
    MissingEvidenceError,
    NumericalConditioningError,
    UnknownLabelError,
)

from woexplain.gaussian import _order_terms, mixture_log_ratio

from oracles import (
    conditioned_model,
    contract_bound,
    random_model,
    random_ordered_partition,
    woe_between,
)


def two_unit_gaussians(mean_b=1.0):
    """Two unit-variance 1-D classes with equal priors."""
    return GaussianClassModel(
        means=np.array([[0.0], [mean_b]]),
        covariances=np.array([[[1.0]], [[1.0]]]),
        priors=np.array([0.5, 0.5]),
        mode="full",
        feature_names=("x",),
    ).validate()


def correlated_model(rng, n_classes, rho=0.5):
    """Classes sharing a 2-D unit-variance covariance with correlation rho."""
    cov = np.array([[1.0, rho], [rho, 1.0]])
    weights = rng.uniform(0.5, 2.0, size=n_classes)
    return GaussianClassModel(
        means=rng.normal(0.0, 1.5, size=(n_classes, 2)),
        covariances=np.array([cov] * n_classes),
        priors=weights / weights.sum(),
        mode="full",
        feature_names=("x0", "x1"),
    ).validate()


def random_sets(rng, n_classes):
    """Two disjoint nonempty class sets drawn at random."""
    perm = [int(c) for c in rng.permutation(n_classes)]
    a_size = int(rng.integers(1, n_classes))
    b_size = int(rng.integers(1, n_classes - a_size + 1))
    return perm[:a_size], perm[a_size:a_size + b_size]


class TestWoe:
    def test_unit_gaussian_closed_form(self):
        """Means 0 and 1, unit variance, x=1: woe(1/0) = 0.5 nats."""
        model = two_unit_gaussians()
        assert_allclose(woe(1, 0, [1.0], model), 0.5, rtol=1e-12)

    def test_matches_scipy_route(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            model = random_model(rng, int(rng.integers(2, 6)), 3)
            a, b = random_sets(rng, model.n_classes)
            x = rng.normal(0.0, 2.0, size=3)
            ours = woe(a, b, x, model)
            oracle = woe_between(model, a, b, (0, 1, 2), x)
            assert_allclose(ours, oracle, rtol=1e-10, atol=1e-12)

    def test_antisymmetry_is_exact(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            model = random_model(rng, 4, 3)
            a, b = random_sets(rng, 4)
            x = rng.normal(size=3)
            assert woe(a, b, x, model) == -woe(b, a, x, model)

    def test_sign_tracks_likelier_hypothesis(self):
        """Positive woe means the evidence favors the entailed set."""
        model = two_unit_gaussians(mean_b=2.0)
        assert woe(1, 0, [2.0], model) > 0.0
        assert woe(1, 0, [0.0], model) < 0.0
        assert woe(1, 0, [1.0], model) == pytest.approx(0.0, abs=1e-12)

    def test_identical_densities_give_zero(self):
        cov = np.eye(2)
        model = GaussianClassModel(
            means=np.zeros((2, 2)),
            covariances=np.array([cov, cov]),
            priors=np.array([0.7, 0.3]),
            mode="full",
            feature_names=("a", "b"),
        ).validate()
        assert woe(0, 1, [1.2, -0.4], model) == 0.0

    def test_partial_evidence_scores_observed_subset(self):
        """Only observed coordinates are scored: whatever an unobserved entry holds,
        NaN, an infinity or a value near the float limit, the empty-prefix,
        nonempty-prefix, chain and total scores are the bits a 0.0 filler gives,
        with no warning."""
        rng = np.random.default_rng(44)
        model = random_model(rng, 3, 4)
        values = rng.normal(size=4)
        mask = np.array([True, False, True, False])
        e = Evidence(values, observed_mask=mask)
        ours = woe([0], [1, 2], e, model)
        oracle = woe_between(model, [0], [1, 2], (0, 2), values[[0, 2]])
        assert_allclose(ours, oracle, rtol=1e-10)

        def scores(filler):
            e = Evidence(np.where(mask, values, filler), observed_mask=mask)
            return repr((woe_conditional([0], [1, 2], (2,), (), e, model),
                         woe_conditional([0], [1, 2], (2,), (0,), e, model),
                         woe_chain([0], [1, 2], [(2,), (0,)], e, model),
                         woe([0], [1, 2], e, model)))

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            plain = scores(0.0)
            for filler in (np.nan, np.inf, -np.inf, 1.7e308, -1.7e308):
                assert scores(filler) == plain

    def test_hypothesis_errors(self):
        rng = np.random.default_rng(45)
        model = random_model(rng, 3, 2)
        x = [0.0, 0.0]
        with pytest.raises(InvalidHypothesisError):
            woe([0, 1], [1, 2], x, model)
        with pytest.raises(UnknownLabelError):
            woe([0], [3], x, model)
        with pytest.raises(MissingEvidenceError):
            woe([0], [1], [0.0, 0.0, 0.0], model)

    def test_non_integral_label_is_rejected(self):
        """A float class label is rejected, never truncated to a class."""
        model = random_model(np.random.default_rng(58), 3, 2, mode="diagonal")
        x = np.zeros(2)
        with pytest.raises(InvalidHypothesisError):
            woe([0.5], [1], x, model)
        with pytest.raises(UnknownLabelError):
            model.check_label(1.7)
        with pytest.raises(InvalidHypothesisError):
            HypothesisSet((0.9, 2))
        with pytest.raises(InvalidHypothesisError):
            as_hypothesis(0.5)
        assert HypothesisSet((np.int64(2), np.int32(0))).classes == (0, 2)
        assert model.check_label(np.int64(1)) == 1
        assert as_hypothesis(np.uint8(1)) == HypothesisSet((1,))
        assert woe([np.int64(0)], [1], x, model) == woe([0], [1], x, model)


class TestWoeConditional:
    def test_quadrature_oracle_singletons(self):
        """Conditional woe for single classes against a pure-grid oracle."""
        rng = np.random.default_rng(46)
        model = correlated_model(rng, 2)
        x0, x1 = 0.8, -0.3
        grid = np.linspace(-12.0, 12.0, 4001)

        def cond_log_density(c):
            joint = stats.multivariate_normal(
                model.means[c], model.covariances[c]
            )
            num = joint.logpdf([x0, x1])
            marg = trapezoid(
                joint.pdf(np.column_stack([grid, np.full_like(grid, x1)])), grid
            )
            return num - np.log(marg)

        ours = woe_conditional([0], [1], (0,), (1,), [x0, x1], model)
        assert_allclose(ours, cond_log_density(0) - cond_log_density(1), atol=1e-4)

    def test_quadrature_oracle_mixture(self):
        """Composite-set conditional woe against a pure-grid oracle."""
        rng = np.random.default_rng(47)
        model = correlated_model(rng, 3)
        x0, x1 = -0.5, 0.9
        grid = np.linspace(-12.0, 12.0, 4001)

        def grid_pieces(c):
            joint = stats.multivariate_normal(model.means[c], model.covariances[c])
            marg = trapezoid(
                joint.pdf(np.column_stack([grid, np.full_like(grid, x1)])), grid
            )
            return joint.pdf([x0, x1]) / marg, marg

        def set_cond(classes):
            conds, weights = [], []
            for c in classes:
                cond, marg = grid_pieces(c)
                conds.append(cond)
                weights.append(model.priors[c] * marg)
            weights = np.array(weights) / np.sum(weights)
            return np.log(np.dot(weights, conds))

        ours = woe_conditional([0, 1], [2], (0,), (1,), [x0, x1], model)
        assert_allclose(ours, set_cond([0, 1]) - set_cond([2]), atol=1e-4)

    def test_empty_prefix_is_marginal(self):
        rng = np.random.default_rng(48)
        model = random_model(rng, 3, 3)
        x = rng.normal(size=3)
        restricted = Evidence(x, observed_mask=np.array([True, False, True]))
        via_conditional = woe_conditional([0], [1, 2], (0, 2), (), x, model)
        assert via_conditional == woe([0], [1, 2], restricted, model)

    def test_partition_errors(self):
        rng = np.random.default_rng(49)
        model = random_model(rng, 2, 3)
        x = rng.normal(size=3)
        with pytest.raises(InvalidPartitionError):
            woe_conditional([0], [1], (), (0,), x, model)
        with pytest.raises(InvalidPartitionError):
            woe_conditional([0], [1], (0, 1), (1,), x, model)
        masked = Evidence(x, observed_mask=np.array([True, True, False]))
        with pytest.raises(MissingEvidenceError):
            woe_conditional([0], [1], (2,), (0,), masked, model)

    def test_out_of_range_index_is_partition_error(self):
        """Indices are bounds-checked before the observed mask is read."""
        rng = np.random.default_rng(50)
        model = random_model(rng, 2, 3)
        x = np.zeros(3)
        for score in (woe_conditional, lambda a, b, t, p, e, m: woe_conditional_many(
                a, b, [t], p, e, m)):
            with pytest.raises(InvalidPartitionError, match="target index 5 outside 0..2"):
                score([0], [1], (5,), (), x, model)
            with pytest.raises(InvalidPartitionError, match="prefix index 3 outside 0..2"):
                score([0], [1], (0,), (3,), x, model)
            with pytest.raises(InvalidPartitionError, match="sequence of integer indices"):
                score([0], [1], 1, (), x, model)
            with pytest.raises(InvalidPartitionError, match="sequence of integer indices"):
                score([0], [1], [[1, 2]], (), x, model)
            for ragged in ((0, (1,)), ((0, 1),)):
                with pytest.raises(InvalidPartitionError, match="prefix indices must be integers"):
                    score([0], [1], (2,), ragged, x, model)

    def test_float_index_is_partition_error(self):
        """A non-integral index is rejected, never truncated to a feature."""
        rng = np.random.default_rng(57)
        model = random_model(rng, 2, 3)
        x = rng.normal(size=3)
        for bad in (1.7, 0.5, 1.0):
            cases = [
                lambda: woe_conditional([0], [1], (bad,), (), x, model),
                lambda: woe_conditional([0], [1], (2,), (bad,), x, model),
                lambda: model.class_conditional_log_density(0, (bad,), [0.0]),
                lambda: information_value(bad, 0, 1, model),
                lambda: woe_chain([0], [1], [(0, bad), (2,)], x, model),
                lambda: AttributePartition(((0, bad), (2,))),
            ]
            for case in cases:
                with pytest.raises(InvalidPartitionError):
                    case()


class TestWoeConditionalMany:
    def test_equals_scalar_bit_for_bit(self):
        """K = 12 with 8 classes on one side, ragged targets, short and long prefixes."""
        rng = np.random.default_rng(51)
        for mode in ("full", "diagonal"):
            model = random_model(rng, 12, 20, mode=mode)
            x = rng.normal(0.0, 2.0, size=20)
            for a, b in ((range(8), range(8, 12)), (range(4), range(4, 12))):
                for p_size in (0, 3, 9):
                    perm = [int(i) for i in rng.permutation(20)]
                    prefix, free = tuple(perm[:p_size]), perm[p_size:]
                    targets = [tuple(rng.choice(free, size=int(rng.integers(1, 10)),
                                                replace=False)) for _ in range(12)]
                    many = woe_conditional_many(a, b, targets, prefix, x, model)
                    for t, got in zip(targets, many):
                        assert got == woe_conditional(a, b, t, prefix, x, model)

    def test_no_targets(self):
        rng = np.random.default_rng(52)
        model = random_model(rng, 3, 2)
        assert woe_conditional_many([0], [1, 2], [], (0,), [0.0, 0.0], model).shape == (0,)

    def test_checks_match_scalar(self):
        rng = np.random.default_rng(53)
        model = random_model(rng, 2, 3)
        x = rng.normal(size=3)
        masked = Evidence(x, observed_mask=np.array([True, True, False]))
        with pytest.raises(InvalidPartitionError, match="nonempty"):
            woe_conditional_many([0], [1], [(1,), ()], (0,), x, model)
        with pytest.raises(InvalidPartitionError, match="both target and prefix"):
            woe_conditional_many([0], [1], [(2,), (0, 1)], (1,), x, model)
        with pytest.raises(MissingEvidenceError):
            woe_conditional_many([0], [1], [(1,), (2,)], (0,), masked, model)
        with pytest.raises(MissingEvidenceError):
            woe_conditional_many([0], [1], [(1,)], (2,), masked, model)
        with pytest.raises(InvalidHypothesisError):
            woe_conditional_many([0], [0, 1], [(1,)], (), x, model)

    def test_nested_targets_are_rejected(self):
        """A target whose entries are sequences is no target, whatever its shape."""
        rng = np.random.default_rng(55)
        model = random_model(rng, 2, 3)
        x = rng.normal(size=3)
        for targets in ([[(1,)]], [[[1]]], [(0,), [(1,)]]):
            with pytest.raises(InvalidPartitionError, match="sequence of integer indices"):
                woe_conditional_many([0], [1], targets, (), x, model)
            with pytest.raises(InvalidPartitionError, match="sequence of integer indices"):
                woe_conditional_many([0], [1], targets, (2,), x, model)
        # integer-valued numpy scalars are indices
        got = woe_conditional_many([0], [1], [np.array([1]), (np.int64(0),)], (2,), x, model)
        assert got.tolist() == [woe_conditional([0], [1], (1,), (2,), x, model),
                                woe_conditional([0], [1], (0,), (2,), x, model)]


class TestCarriedPrefixes:
    """Full-mode scores with a nonempty prefix read the prefix's conditioned state."""

    def test_matches_oracle_when_ill_conditioned_and_far(self):
        """Condition numbers up to 1e8, inputs up to 50 sd out, K up to 12."""
        for seed in range(48):
            rng = np.random.default_rng(2000 + seed)
            k = (2, 3, 5, 12)[seed % 4]
            n = int(rng.integers(3, 9))
            cond = (1e2, 1e4, 1e6, 1e8)[seed // 4 % 4]
            model = conditioned_model(rng, k, n, cond)
            c = int(rng.integers(k))
            sd = np.sqrt(np.diagonal(model.covariances[c]))
            far = (0.0, 5.0, 50.0)[seed // 16]
            x = model.means[c] + sd * (far * rng.choice([-1.0, 1.0], size=n) if far
                                       else rng.normal(size=n))
            perm = [int(i) for i in rng.permutation(n)]
            cut = int(rng.integers(1, n))
            prefix = tuple(perm[:cut])
            target = tuple(perm[cut:cut + int(rng.integers(1, n - cut + 1))])
            labels = [int(i) for i in rng.permutation(k)]
            split = int(rng.integers(1, k))
            a, b = sorted(labels[:split]), sorted(labels[split:])
            ours = woe_conditional(a, b, target, prefix, x, model)
            oracle = woe_between(model, a, b, target, x[list(target)], prefix, x[list(prefix)])
            assert abs(ours - oracle) <= contract_bound(model, a + b, prefix, target, x), seed

    def test_non_positive_pivot_names_its_class(self):
        """A prefix whose covariance is not positive definite under class 1."""
        bad = np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        model = GaussianClassModel(
            means=np.zeros((3, 3)),
            covariances=np.array([np.eye(3), bad, bad]),
            priors=np.full(3, 1.0 / 3.0),
            mode="full",
            feature_names=("a", "b", "c"),
        )
        with pytest.raises(NumericalConditioningError,
                           match="^the covariance of class 1 is not positive definite$"):
            woe_conditional([0], [1, 2], (2,), (0, 1), np.zeros(3), model)
        # a prefix that does condition is scored as usual
        assert np.isfinite(woe_conditional([0], [1, 2], (1,), (2,), np.zeros(3), model))


def test_first_max_picks_what_a_strict_loop_picks():
    """The first of the tied best above the floor; NaN is never better."""
    rng = np.random.default_rng(54)
    pool = np.array([np.nan, -np.inf, -1.0, 0.0, 2.0, np.inf])
    for _ in range(200):
        keys = rng.choice(pool, size=int(rng.integers(1, 7)))
        floor = float(rng.choice([-np.inf, 0.0, np.nan]))
        best, incumbent = None, floor
        for i, k in enumerate(keys):
            if k > incumbent:
                best, incumbent = i, k
        assert first_max(keys, floor) == best


class TestWoeChain:
    def test_terms_sum_to_total(self):
        """Additivity: chain terms sum to the all-at-once woe."""
        rng = np.random.default_rng(50)
        for _ in range(20):
            model = random_model(rng, 4, 6)
            a, b = random_sets(rng, 4)
            x = rng.normal(size=6)
            ordering = random_ordered_partition(rng, range(6))
            terms = woe_chain(a, b, ordering, x, model)
            assert len(terms) == len(ordering)
            assert abs(sum(terms) - woe(a, b, x, model)) < 1e-9

    def test_sum_is_ordering_invariant(self):
        rng = np.random.default_rng(51)
        for _ in range(10):
            model = random_model(rng, 3, 5)
            a, b = random_sets(rng, 3)
            x = rng.normal(size=5)
            first = sum(woe_chain(a, b, random_ordered_partition(rng, range(5)), x, model))
            second = sum(woe_chain(a, b, random_ordered_partition(rng, range(5)), x, model))
            assert abs(first - second) < 1e-9

    def test_single_group_equals_total(self):
        rng = np.random.default_rng(52)
        model = random_model(rng, 3, 4)
        x = rng.normal(size=4)
        terms = woe_chain([0], [1, 2], [(0, 1, 2, 3)], x, model)
        assert terms == [woe([0], [1, 2], x, model)]

    def test_diagonal_chain_terms_are_marginals(self):
        """Independent features, singleton sets: terms ignore the prefix.

        Composite sets do not collapse this way because the mixture
        weights still update with the prefix, so they only get the
        sum-level check below.
        """
        rng = np.random.default_rng(53)
        model = random_model(rng, 3, 4, mode="diagonal")
        x = rng.normal(size=4)
        ordering = [(2,), (0,), (3,), (1,)]
        chained = woe_chain([0], [1], ordering, x, model)
        marginal = [woe_conditional([0], [1], g, (), x, model) for g in ordering]
        assert chained == marginal
        composite = woe_chain([0], [1, 2], ordering, x, model)
        assert abs(sum(composite) - woe([0], [1, 2], x, model)) < 1e-12

    def test_partial_evidence_partition(self):
        rng = np.random.default_rng(54)
        model = random_model(rng, 2, 4)
        e = Evidence(rng.normal(size=4), observed_mask=np.array([True, True, False, True]))
        terms = woe_chain([0], [1], [(3,), (0, 1)], e, model)
        assert abs(sum(terms) - woe([0], [1], e, model)) < 1e-12

    def test_ordering_errors(self):
        rng = np.random.default_rng(55)
        model = random_model(rng, 2, 3)
        x = rng.normal(size=3)
        with pytest.raises(InvalidPartitionError, match="empty"):
            woe_chain([0], [1], [(0, 1, 2), ()], x, model)
        with pytest.raises(InvalidPartitionError,
                           match=r"^duplicate index in ordering: \[0, 1, 1, 2\]$"):
            woe_chain([0], [1], [(0, 1), (1, 2)], x, model)
        with pytest.raises(InvalidPartitionError,
                           match=r"^ordering must partition the observed coordinates "
                                 r"\[0, 1, 2\], got \[0, 1\]$"):
            woe_chain([0], [1], [(0, 1)], x, model)
        with pytest.raises(InvalidPartitionError, match=r"^ordering index 3 outside 0\.\.2$"):
            woe_chain([0], [1], [(0, 1, 2), (3,)], x, model)
        with pytest.raises(InvalidPartitionError, match=r"^ordering index -1 outside 0\.\.2$"):
            woe_chain([0], [1], [(0, 1, 2), (-1,)], x, model)
        for ordering in ([(0, 1), (2.0,)], [0, 1, 2], [(0, 1), ((2,),)]):
            with pytest.raises(InvalidPartitionError,
                               match=r"^ordering indices must be integers$"):
                woe_chain([0], [1], ordering, x, model)
        # an unobserved ordering feature is missing evidence, as on every other route
        partial = Evidence(x, [True, False, True])
        with pytest.raises(MissingEvidenceError, match=r"^ordering feature 1 is not observed$"):
            woe_chain([0], [1], [(0, 1), (2,)], partial, model)
        assert woe_chain([0], [1], [(2,), (0,)], partial, model) == woe_chain(
            [0], [1], [(2,), (0,)], Evidence(np.where([True, False, True], x, np.nan),
                                              [True, False, True]), model)


class TestStackedChains:
    """Chains are factored together and scored group-parallel, bit for bit as one at a time."""

    def test_orders_in_one_call_equal_each_alone(self, monkeypatch):
        rng, stack_rng = np.random.default_rng(70), np.random.default_rng(73)
        density = core._densities
        calls = []

        def counted(orders, p, *args):
            calls.append((len(orders[0]), p))
            return density(orders, p, *args)

        monkeypatch.setattr(core, "_densities", counted)
        for mode in ("diagonal", "full"):
            for k, n in ((13, 40), (2, 1), (8, 9), (5, 17)):
                model = random_model(rng, k, n, mode)
                e = Evidence(rng.normal(0.0, 3.0, size=n))
                requests = [(*random_sets(rng, k), random_ordered_partition(rng, range(n)))
                            for _ in range(4)]
                requests.append(requests[0])
                calls.clear()
                together = _chains(requests, e.values[None], model, {})
                assert calls == [(n, 0)]
                alone = [_chains([request], e.values[None], model, {})[0] for request in requests]
                assert repr(together) == repr(alone)
                assert all(type(s) is float for chain in together for s in chain)
                # at rows of one stack, the repeated request at another row than its first
                xs = stack_rng.normal(0.0, 3.0, size=(3, n))
                rows = [0, 2, 1, 2, 1]
                # hypotheses hold their classes sorted, and mixtures sum in that order
                requests = [(sorted(a), sorted(b), groups) for a, b, groups in requests]
                calls.clear()
                stacked = _chains(requests, xs, model, {}, rows)
                assert calls == [(n, 0)]
                assert repr(stacked) == repr([woe_chain(a, b, groups, xs[r], model)
                                              for (a, b, groups), r in zip(requests, rows)])

    def test_woe_chain_equals_a_running_base_loop(self):
        rng = np.random.default_rng(71)
        for mode in ("diagonal", "full"):
            for _ in range(12):
                k, n = int(rng.integers(2, 14)), int(rng.integers(1, 41))
                model = random_model(rng, k, n, mode)
                x = rng.normal(0.0, 3.0, size=n) * rng.choice([1.0, 20.0])
                # hypotheses hold their classes sorted, and mixtures sum in that order
                a, b = map(sorted, random_sets(rng, k))
                ordering = random_ordered_partition(rng, range(n))
                order = [i for g in ordering for i in g]
                terms = _order_terms(tuple(order), x[None], model, {})[:, 0]
                base, start, expected = np.log(model.priors), 0, []
                for group in ordering:
                    delta = terms[:, start:start + len(group)].sum(axis=1)
                    expected.append(mixture_log_ratio(base[a], delta[a])
                                    - mixture_log_ratio(base[b], delta[b]))
                    base, start = base + delta, start + len(group)
                assert repr(woe_chain(a, b, ordering, x, model)) == repr(expected)

    @pytest.mark.parametrize("mode", ["diagonal", "full"])
    def test_chunked_factoring_is_bit_exact(self, monkeypatch, mode):
        """Chunked factoring gives the one-call scores bit for bit,
        also where a term sum runs over more than eight features."""
        rng = np.random.default_rng(74)
        unchunked = gaussian.BATCH_ELEMENTS
        block_terms = gaussian._block_terms
        calls = []

        def counted(blocks):
            calls.append(blocks.shape[1])
            return block_terms(blocks)

        monkeypatch.setattr(gaussian, "_block_terms", counted)
        for k, n in ((3, 9), (5, 12), (12, 20)):
            model = random_model(rng, k, n, mode)
            x = rng.normal(0.0, 3.0, size=n)
            a, b = random_sets(rng, k)
            perm = [int(i) for i in rng.permutation(n)]
            prefix, free = tuple(perm[:n // 2]), perm[n // 2:]
            targets = [tuple(rng.choice(free, size=int(rng.integers(1, len(free) + 1)),
                                        replace=False)) for _ in range(9)]
            requests = [(a, b, random_ordered_partition(rng, range(n))) for _ in range(7)]

            def scores():
                return (woe_conditional_many(a, b, targets, prefix, x, model).tobytes(),
                        woe_conditional_many(a, b, targets, (), x, model).tobytes(),
                        repr(_chains(requests, x[None], model, {})))

            whole = scores()
            # one order per chunk, then three full-length orders (or more shorter ones)
            for batch in (1, 3 * k * n * n):
                monkeypatch.setattr(gaussian, "BATCH_ELEMENTS", batch)
                calls.clear()
                assert scores() == whole
                if mode == "full":
                    assert len(calls) > 2 and (batch > 1 or max(calls) == 1)
                else:
                    # diagonal terms are computed directly, with nothing to factor
                    assert calls == []
            monkeypatch.setattr(gaussian, "BATCH_ELEMENTS", unchunked)

    def test_no_observed_coordinate_gives_an_empty_chain(self):
        rng = np.random.default_rng(72)
        for mode in ("diagonal", "full"):
            model = random_model(rng, 3, 2, mode)
            e = Evidence(np.zeros(2), observed_mask=np.zeros(2, dtype=bool))
            assert woe_chain([0], [1, 2], [], e, model) == []


class TestBayesDecomposition:
    def test_uniform_prior_example(self):
        """Equal priors, x=1: (0, 0.5, 0.5)."""
        model = two_unit_gaussians()
        prior, total, post = bayes_decomposition(1, 0, [1.0], model)
        assert prior == 0.0
        assert_allclose(total, 0.5, rtol=1e-12)
        assert_allclose(post, 0.5, rtol=1e-12)

    def test_prior_only_example(self):
        """Identical densities, priors 3:1: woe 0, odds are prior odds."""
        cov = np.eye(1)
        model = GaussianClassModel(
            means=np.zeros((2, 1)),
            covariances=np.array([cov, cov]),
            priors=np.array([0.75, 0.25]),
            mode="full",
            feature_names=("x",),
        ).validate()
        prior, total, post = bayes_decomposition(0, 1, [0.3], model)
        assert_allclose(prior, np.log(3.0), rtol=1e-12)
        assert total == 0.0
        assert_allclose(post, np.log(3.0), rtol=1e-12)

    def test_identity_on_random_models(self):
        """posterior log-odds = prior log-odds + woe, via two code paths."""
        rng = np.random.default_rng(56)
        for _ in range(50):
            model = random_model(rng, int(rng.integers(2, 6)), 3)
            a, b = random_sets(rng, model.n_classes)
            x = rng.normal(0.0, 2.0, size=3)
            prior, total, post = bayes_decomposition(a, b, x, model)
            assert abs(prior + total - post) < 1e-9

    def test_identity_under_partial_evidence(self):
        rng = np.random.default_rng(57)
        model = random_model(rng, 3, 4)
        e = Evidence(
            rng.normal(size=4), observed_mask=np.array([False, True, True, False])
        )
        prior, total, post = bayes_decomposition([0], [2], e, model)
        assert abs(prior + total - post) < 1e-9

    def test_zero_prior_mass_raises(self):
        model = GaussianClassModel(
            means=np.zeros((2, 1)),
            covariances=np.array([[[1.0]], [[1.0]]]),
            priors=np.array([0.0, 1.0]),
            mode="full",
            feature_names=("x",),
        )
        with pytest.raises(DegeneratePriorError):
            prior_log_odds(0, 1, model)

    def test_posterior_log_odds_matches_posterior_ratio(self):
        rng = np.random.default_rng(58)
        model = random_model(rng, 4, 2)
        x = rng.normal(size=2)
        from woexplain import posterior

        probs = posterior(model, x)
        ours = posterior_log_odds([0, 3], [1], x, model)
        assert_allclose(ours, np.log(probs[0] + probs[3]) - np.log(probs[1]), rtol=1e-9)


class TestPartialEvidence:
    """The one-call routes read J along the observed coordinates only."""

    @pytest.mark.parametrize("mode", ["full", "diagonal"])
    @pytest.mark.parametrize("fill", [np.nan, np.inf, -np.inf])
    def test_unobserved_slots_never_move_a_bit(self, mode, fill):
        rng = np.random.default_rng(93)
        model = random_model(rng, 6, 7, mode)
        x = rng.normal(0.0, 2.0, size=7)
        mask = np.array([True, False, True, True, False, True, False])
        zeros = Evidence(np.where(mask, x, 0.0), mask)
        filled = Evidence(np.where(mask, x, fill), mask)
        a, b = [0, 3], [1, 4, 5]
        routes = {
            "woe": lambda e: woe(a, b, e, model),
            "posterior_log_odds": lambda e: posterior_log_odds(a, b, e, model),
            "bayes_decomposition": lambda e: bayes_decomposition(a, b, e, model),
            "best_contrast": lambda e: best_contrast(range(6), 2, e, model, ContrastParams()),
        }
        for name, route in routes.items():
            assert repr(route(filled)) == repr(route(zeros)), name
        # and the zeros read what the observed coordinates alone give
        observed = list(zeros.observed_indices)
        assert woe(a, b, zeros, model) == pytest.approx(
            woe_between(model, a, b, observed, x[observed]), rel=1e-9, abs=1e-9)


class TestInputBeyondEveryDensity:
    @pytest.mark.parametrize("mode", ["full", "diagonal"])
    def test_public_routes_raise_instead_of_nan(self, mode):
        """Every class of A u B gives -inf: an error, not a NaN from -inf - -inf."""
        rng = np.random.default_rng(60)
        model = random_model(rng, 3, 3, mode)
        far = [1e200, 0.0, 0.0]
        partial = Evidence(np.array(far), observed_mask=np.array([True, False, True]))
        for e in (far, partial):
            for route in (woe, posterior_log_odds, bayes_decomposition):
                with pytest.raises(DegenerateDensityError, match="no finite joint log density"):
                    route([0], [1, 2], e, model)
        near = Evidence(np.array(far), observed_mask=np.array([False, True, True]))
        prior, total, post = bayes_decomposition([0], [1, 2], near, model)
        assert np.isfinite([prior, total, post]).all()
        assert total == woe([0], [1, 2], near, model)
        assert post == posterior_log_odds([0], [1, 2], near, model)

    def test_a_side_without_density_scores_infinity(self):
        """Only class 2 (variance 1e300) has a density at 1e200: the other side's mass is 0."""
        model = GaussianClassModel(
            means=np.zeros((3, 1)),
            covariances=np.array([[[1.0]], [[1.0]], [[1e300]]]),
            priors=np.full(3, 1.0 / 3.0),
            mode="full",
            feature_names=("x",),
        ).validate()
        x = [1e200]
        for a, b, inf in (([0, 1], [2], -math.inf), ([2], [0, 1], math.inf)):
            assert woe(a, b, x, model) == inf
            assert posterior_log_odds(a, b, x, model) == inf
            assert bayes_decomposition(a, b, x, model)[1:] == (inf, inf)
            assert woe_chain(a, b, [(0,)], x, model) == [inf]
            assert woe_conditional_many(a, b, [(0,)], (), x, model).tolist() == [inf]

    def test_woe_conditional_many_scores_a_side_without_density_itself(self, monkeypatch):
        """Class 2 alone has a density on feature 0 at 1e200; the stacked route gives +inf.

        The chain kernel is not consulted. Every class has the same
        density on feature 1, so its woe is 0.
        """
        model = GaussianClassModel(
            means=np.zeros((3, 2)),
            covariances=np.array([np.eye(2), np.eye(2), np.diag([1e300, 1.0])]),
            priors=np.full(3, 1.0 / 3.0),
            mode="full",
            feature_names=("a", "b"),
        ).validate()
        x = [1e200, 0.5]

        def unused(*args):
            raise AssertionError("the chain kernel scored a stacked target")

        monkeypatch.setattr(core, "_chains", unused)
        scores = woe_conditional_many([2], [0, 1], [(0,), (1,), (0, 1)], (), x, model)
        assert scores[[0, 2]].tolist() == [math.inf, math.inf]
        assert_allclose(scores[1], 0.0, atol=1e-12)

    def test_undefined_scores_raise(self):
        """No class of A u B has a density on feature 0, so no score that reads it is defined."""
        model = GaussianClassModel(
            means=np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
            covariances=np.ones((3, 3)),
            priors=np.full(3, 1.0 / 3.0),
            mode="diagonal",
            feature_names=("a", "b", "c"),
        ).validate()
        far = [1e200, 0.0, 0.0]
        undefined = [
            lambda: woe_chain([0], [1, 2], [[0], [1, 2]], far, model),
            lambda: woe_conditional_many([0], [1, 2], [(1,), (0,)], (), far, model),
            # B's mixture weights are undefined given feature 0
            lambda: woe_conditional([0], [1, 2], (1,), (0,), far, model),
        ]
        for route in undefined:
            with pytest.raises(DegenerateDensityError, match="no finite joint log density"):
                route()
        scores = woe_conditional_many([0], [1, 2], [(1,), (1, 2)], (), far, model)
        assert np.isfinite(scores).all()


class TestInformationValue:
    def unit_model(self, mean_b, var_b):
        return GaussianClassModel(
            means=np.array([[0.0], [mean_b]]),
            covariances=np.array([[1.0], [var_b]]),
            priors=np.array([0.5, 0.5]),
            mode="diagonal",
            feature_names=("x",),
        ).validate()

    def test_mean_shift_closed_form(self):
        """N(0,1) vs N(1,1): IV = 1."""
        iv = information_value(0, 0, 1, self.unit_model(1.0, 1.0))
        assert_allclose(iv, 1.0, atol=1e-3)

    def test_variance_ratio_closed_form(self):
        """N(0,1) vs N(0,4): IV = 0.5 * (1/4 + 4/1) - 1 = 1.125."""
        iv = information_value(0, 0, 1, self.unit_model(0.0, 4.0))
        assert_allclose(iv, 1.125, atol=1e-3)

    def test_identical_marginals_give_zero(self):
        iv = information_value(0, 0, 1, self.unit_model(0.0, 1.0))
        assert iv == 0.0

    def test_symmetry_and_nonnegativity(self):
        rng = np.random.default_rng(59)
        for _ in range(10):
            model = random_model(rng, 3, 3, mode="diagonal")
            f = int(rng.integers(0, 3))
            a, b = [int(c) for c in rng.choice(3, size=2, replace=False)]
            forward = information_value(f, a, b, model)
            assert forward >= 0.0
            assert_allclose(forward, information_value(f, b, a, model), rtol=1e-9)

    def test_full_covariance_uses_marginal(self):
        """IV depends only on the feature's own marginal moments."""
        rng = np.random.default_rng(60)
        full = random_model(rng, 2, 3, mode="full")
        diag = GaussianClassModel(
            means=full.means,
            covariances=np.array([np.diag(c) for c in full.covariances]),
            priors=full.priors,
            mode="diagonal",
            feature_names=full.feature_names,
        ).validate()
        for f in range(3):
            assert_allclose(
                information_value(f, 0, 1, full),
                information_value(f, 0, 1, diag),
                rtol=1e-12,
            )

    def test_degenerate_variance_raises(self):
        model = GaussianClassModel(
            means=np.zeros((2, 1)),
            covariances=np.array([[1.0], [0.0]]),
            priors=np.array([0.5, 0.5]),
            mode="diagonal",
            feature_names=("x",),
        )
        with pytest.raises(DegenerateDensityError):
            information_value(0, 0, 1, model)
