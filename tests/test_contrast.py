"""Contrast-set search: objective values, argmax, ties, and regimes.

The brute-force enumerator used as the search oracle scores candidates
through scipy.stats densities and scipy's logsumexp and applies the
documented tie-break through min() over (size, labels), so it shares
neither the scoring nor the iteration order with the implementation.
"""

import math
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import logsumexp

from woexplain import (
    ContrastParams,
    ExplainerParams,
    GaussianClassModel,
    HypothesisSet,
    best_contrast,
    score_subset,
    woe,
)
from woexplain import contrast
from woexplain.core import first_max
from woexplain.gaussian import LOG_2PI
from woexplain.errors import (
    DegenerateDensityError,
    EmptyContrastError,
    InvalidHypothesisError,
    InvalidParameterError,
    MissingEvidenceError,
)

from oracles import joint_logpdf, random_model


def brute_force_best(model, v, c_star, params, x):
    """Independent argmax: score every subset via scipy, tie-break by min().

    Each class's joint log density comes from scipy.stats once; the
    mixtures of all subsets are weighted scipy logsumexps over them.
    """
    v = list(v)
    features = tuple(range(model.n_features))
    joint = np.array([joint_logpdf(model, c, features, x) for c in v])
    log_w = np.log(model.priors[v])
    others = [k for k, c in enumerate(v) if c != c_star]
    masks = np.array([[c == c_star for c in v]] * 2 ** len(others))
    for bit, k in enumerate(others):
        masks[:, k] |= (np.arange(len(masks)) >> bit & 1).astype(bool)
    masks = masks[masks.sum(axis=1) < len(v)]

    def mixture(member):
        # masking by -inf rather than b=member: scipy before 1.15 takes the
        # max over masked entries too, and underflows when they dominate
        return (logsumexp(np.where(member, log_w + joint, -np.inf), axis=1)
                - logsumexp(np.where(member, log_w, -np.inf), axis=1))

    sizes = masks.sum(axis=1)
    scores = (mixture(masks) - mixture(~masks)
              - params.alpha_reg * (sizes - len(v) / 2.0) ** 2)
    top = scores.max()
    winners = [tuple(c for c, m in zip(v, row) if m) for row in masks[scores == top]]
    return min(winners, key=lambda u: (len(u), u))


def flat_model(n_classes, n_features=2):
    """A diagonal model whose every class has the same density at x = 0, so every split ties.

    Zero means and variances exp(-log 2 pi): since np.log(np.exp(-LOG_2PI))
    == -LOG_2PI, every log density term at x = 0 is exactly -0.0, which
    makes all mixture sides equal bit for bit and leaves only the
    regularizer and the tie-break to decide the winner.
    """
    return GaussianClassModel(
        means=np.zeros((n_classes, n_features)),
        covariances=np.full((n_classes, n_features), np.exp(-LOG_2PI)),
        priors=np.full(n_classes, 1.0 / n_classes),
        mode="diagonal",
        feature_names=[f"x{i}" for i in range(n_features)],
    )


class TestContrastParams:
    def test_defaults(self):
        params = ContrastParams()
        assert params.alpha_reg == 0.1
        assert params.max_exhaustive_classes == 12

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            ContrastParams(alpha_reg=-0.1)
        with pytest.raises(InvalidParameterError):
            ContrastParams(alpha_reg=float("nan"))
        with pytest.raises(InvalidParameterError):
            ContrastParams(max_exhaustive_classes=1)
        with pytest.raises(InvalidParameterError):
            ContrastParams(max_exhaustive_classes=2.5)

    @pytest.mark.parametrize("make", [
        lambda: ContrastParams(max_exhaustive_classes=float("nan")),
        lambda: ContrastParams(max_exhaustive_classes=float("inf")),
        lambda: ContrastParams(max_exhaustive_classes="12"),
        lambda: ContrastParams(alpha_reg="x"),
        lambda: ContrastParams(alpha_reg=None),
        lambda: ExplainerParams(attribute_size=float("nan")),
        lambda: ExplainerParams(attribute_size=float("inf")),
    ])
    def test_non_numbers_are_parameter_errors(self, make):
        """Not a bare ValueError, TypeError or OverflowError from int()/float()."""
        with pytest.raises(InvalidParameterError):
            make()


def penalized(u, v, alpha, penalty):
    """Whether score_subset of U in V is woe(U / V\\U) minus penalty, bit for bit."""
    model = random_model(np.random.default_rng(8), max(v) + 1, 2)
    x = [0.3, -1.2]
    rest = [c for c in v if c not in u]
    return score_subset(u, v, x, model, ContrastParams(alpha_reg=alpha)) == (
        woe(u, rest, x, model) - penalty)


class TestRegularizer:
    """score_subset subtracts R(U) = alpha_reg * (|U| - |V|/2)^2."""

    def test_even_split_is_free(self):
        assert penalized([0, 1], [0, 1, 2, 3], 0.7, 0.0)

    def test_singleton_of_four(self):
        assert penalized([0], [0, 1, 2, 3], 1.0, 1.0)

    def test_nine_of_ten(self):
        assert penalized(list(range(9)), list(range(10)), 0.5, 8.0)

    def test_requires_subset(self):
        model = random_model(np.random.default_rng(9), 3, 2)
        with pytest.raises(InvalidHypothesisError, match="^entailed set must be a subset"):
            score_subset([0, 4], [0, 1, 2], [0.0, 0.0], model, ContrastParams(alpha_reg=1.0))

    def test_refuses_what_contrast_params_refuse(self):
        """alpha_reg is checked by ContrastParams' own rule, with its error."""
        for alpha in ("x", None, -1.0, math.inf, math.nan, 10**400):
            with pytest.raises(InvalidParameterError, match=r"^alpha_reg must be >= 0"):
                ContrastParams(alpha_reg=alpha)
        assert penalized([0], [0, 1, 2, 3], "0.5", 0.5)


class TestScoreSubset:
    def test_symmetric_densities_score_zero(self):
        """With identical class densities and alpha 0, every split scores 0."""
        cov = np.eye(2)
        model = GaussianClassModel(
            means=np.zeros((4, 2)),
            covariances=np.array([cov] * 4),
            priors=np.full(4, 0.25),
            mode="full",
            feature_names=("a", "b"),
        ).validate()
        params = ContrastParams(alpha_reg=0.0)
        x = [0.4, -1.1]
        v = [0, 1, 2, 3]
        for u in ([0], [0, 1], [0, 2, 3], [1, 2]):
            assert score_subset(u, v, x, model, params) == pytest.approx(0.0, abs=1e-12)

    def test_woe_parts_are_exact_negatives(self):
        rng = np.random.default_rng(42)
        model = random_model(rng, 5, 3)
        params = ContrastParams(alpha_reg=0.3)
        x = rng.normal(size=3)
        v = list(range(5))
        for u in ([0], [1, 3], [0, 2, 4]):
            rest = [c for c in v if c not in u]
            woe_u = score_subset(u, v, x, model, params) + 0.3 * (len(u) - 2.5) ** 2
            woe_rest = score_subset(rest, v, x, model, params) + 0.3 * (len(rest) - 2.5) ** 2
            assert woe_u == -woe_rest

    def test_three_class_closed_form(self):
        """Means 0, 1, 5, unit variance, equal priors, x = 0.4.

        Equal priors make every mixture an unweighted average of member
        densities, so the oracle is a plain closed-form log-ratio.
        """
        model = GaussianClassModel(
            means=np.array([[0.0], [1.0], [5.0]]),
            covariances=np.array([[[1.0]], [[1.0]], [[1.0]]]),
            priors=np.full(3, 1.0 / 3.0),
            mode="full",
            feature_names=("x",),
        ).validate()
        x = 0.4
        params = ContrastParams(alpha_reg=0.1)

        def phi(mean):
            return math.exp(-0.5 * (x - mean) ** 2) / math.sqrt(2.0 * math.pi)

        def oracle(u, rest):
            avg_u = sum(phi(model.means[c][0]) for c in u) / len(u)
            avg_r = sum(phi(model.means[c][0]) for c in rest) / len(rest)
            return math.log(avg_u) - math.log(avg_r) - 0.1 * (len(u) - 1.5) ** 2

        for u in ([0], [0, 1], [0, 2]):
            rest = [c for c in (0, 1, 2) if c not in u]
            ours = score_subset(u, [0, 1, 2], [x], model, params)
            assert_allclose(ours, oracle(u, rest), rtol=0, atol=1e-9)

    def test_full_universe_rejected(self):
        rng = np.random.default_rng(43)
        model = random_model(rng, 3, 2)
        with pytest.raises(EmptyContrastError):
            score_subset([0, 1, 2], [0, 1, 2], [0.0, 0.0], model, ContrastParams())
        with pytest.raises(InvalidHypothesisError):
            score_subset([0, 3], [0, 1, 2], [0.0, 0.0], model, ContrastParams())

    def test_input_beyond_every_density_is_an_error(self):
        rng = np.random.default_rng(44)
        model = random_model(rng, 3, 3)
        with pytest.raises(DegenerateDensityError, match="no finite joint log density"):
            score_subset([0], [0, 1, 2], [1e200, 0.0, 0.0], model, ContrastParams())


class TestBestContrast:
    def test_no_comparable_candidate_is_an_error(self):
        rng = np.random.default_rng(45)
        model = random_model(rng, 3, 3)
        with pytest.raises(DegenerateDensityError,
                           match="no candidate split has a comparable score"):
            best_contrast([0, 1, 2], 0, [1e200, 0.0, 0.0], model, ContrastParams())

    def test_contrast_without_density_wins_at_the_smallest_size(self):
        """Only class 2 (variance 1e300) has a density at 1e200.

        (2,) and (0, 2) both score +inf, so the tie-break picks (2,).
        """
        model = GaussianClassModel(
            means=np.zeros((3, 1)),
            covariances=np.array([[[1.0]], [[1.0]], [[1e300]]]),
            priors=np.full(3, 1.0 / 3.0),
            mode="full",
            feature_names=("x",),
        ).validate()
        params = ContrastParams()
        for u in ([2], [0, 2], [1, 2]):
            assert score_subset(u, [0, 1, 2], [1e200], model, params) == math.inf
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            oracle = brute_force_best(model, range(3), 2, params, [1e200])
        assert oracle == (2,)
        assert best_contrast([0, 1, 2], 2, [1e200], model, params) == HypothesisSet((2,))

    def test_two_classes_forced(self):
        rng = np.random.default_rng(44)
        model = random_model(rng, 2, 3)
        x = rng.normal(size=3)
        got = best_contrast([0, 1], 1, x, model, ContrastParams())
        assert got == HypothesisSet((1,))

    def test_matches_brute_force_six_classes(self):
        """Exhaustive search agrees with the independent enumerator."""
        rng = np.random.default_rng(45)
        params = ContrastParams(alpha_reg=0.1)
        for _ in range(20):
            model = random_model(rng, 6, 3)
            x = rng.normal(0.0, 2.0, size=3)
            c_star = int(rng.integers(0, 6))
            ours = best_contrast(range(6), c_star, x, model, params)
            oracle = brute_force_best(model, range(6), c_star, params, x)
            assert tuple(ours) == oracle

    def test_matches_brute_force_nine_to_twelve_classes(self):
        """Up to the exhaustive cap, where mixture sides reach 8+ classes.

        The later trials are hostile to the size bounds that prune the
        search: priors down to 1e-12, inputs far from every class mean,
        and alpha from 0 to 2.
        """
        rng = np.random.default_rng(53)
        for trial in range(60):
            k = 9 + trial % 4
            model = random_model(rng, k, 3, mode=("full", "diagonal")[trial % 2])
            x = rng.normal(0.0, 2.0, size=3)
            alpha = 0.1
            if trial >= 20:
                weights = rng.choice([1.0, 1e-4, 1e-12], size=k)
                model = GaussianClassModel(
                    means=model.means, covariances=model.covariances,
                    priors=weights / weights.sum(), mode=model.mode,
                    feature_names=model.feature_names,
                ).validate()
                x = x * rng.choice([1.0, 30.0, 1e3])
                alpha = float(rng.choice([0.0, 0.1, 2.0]))
            params = ContrastParams(alpha_reg=alpha)
            c_star = int(rng.integers(0, k))
            ours = best_contrast(range(k), c_star, x, model, params)
            assert tuple(ours) == brute_force_best(model, range(k), c_star, params, x)

    def test_matches_brute_force_on_sub_universe(self):
        """The search also runs on remaining sets smaller than all classes."""
        rng = np.random.default_rng(46)
        params = ContrastParams(alpha_reg=0.2)
        model = random_model(rng, 6, 2)
        x = rng.normal(size=2)
        v = (0, 2, 3, 5)
        ours = best_contrast(v, 3, x, model, params)
        assert tuple(ours) == brute_force_best(model, v, 3, params, x)

    def test_far_class_lands_in_contrast(self):
        """Means 0, 1, 10 and x near 0.5: the far class is contrasted away."""
        model = GaussianClassModel(
            means=np.array([[0.0], [1.0], [10.0]]),
            covariances=np.array([[[1.0]], [[1.0]], [[1.0]]]),
            priors=np.full(3, 1.0 / 3.0),
            mode="full",
            feature_names=("x",),
        ).validate()
        params = ContrastParams(alpha_reg=0.01)
        got = best_contrast([0, 1, 2], 0, [0.5], model, params)
        assert 0 in got
        assert 2 not in got
        assert tuple(got) == brute_force_best(model, (0, 1, 2), 0, params, [0.5])

    def test_exact_ties_prefer_small_then_lexicographic(self):
        """On a flat landscape only the tie-break decides."""
        flat = flat_model(4)
        x = [0.0, 0.0]
        no_penalty = best_contrast(range(4), 2, x, flat, ContrastParams(alpha_reg=0.0))
        assert tuple(no_penalty) == (2,)
        even_split = best_contrast(range(4), 2, x, flat, ContrastParams(alpha_reg=1.0))
        assert tuple(even_split) == (0, 2)

    def test_exact_ties_at_twelve_classes_in_both_regimes(self):
        """A flat landscape at K = 12: the exhaustive argmax and greedy growth
        both settle ties on the smaller, then lexicographically first, set."""
        flat = flat_model(12)
        x = [0.0, 0.0]
        for cap in (12, 4):
            def search(alpha, c_star):
                params = ContrastParams(alpha_reg=alpha, max_exhaustive_classes=cap)
                return tuple(best_contrast(range(12), c_star, x, flat, params))

            assert search(0.0, 7) == (7,)
            assert search(1.0, 7) == (0, 1, 2, 3, 4, 7)
            assert search(1.0, 0) == (0, 1, 2, 3, 4, 5)

    def test_monotone_regularization(self):
        """Raising alpha never moves the winner further from an even split."""
        rng = np.random.default_rng(47)
        for _ in range(10):
            model = random_model(rng, 5, 3)
            x = rng.normal(size=3)
            c_star = int(rng.integers(0, 5))
            sizes = []
            for alpha in (0.0, 0.05, 0.2, 1.0, 5.0):
                u = best_contrast(range(5), c_star, x, model, ContrastParams(alpha_reg=alpha))
                sizes.append(abs(len(u) - 2.5))
            assert all(b <= a for a, b in zip(sizes, sizes[1:]))

    def test_greedy_regime(self):
        """Past the cap the greedy search still returns a valid, stable split."""
        rng = np.random.default_rng(48)
        params = ContrastParams(alpha_reg=0.1, max_exhaustive_classes=4)
        for _ in range(10):
            model = random_model(rng, 6, 2)
            x = rng.normal(size=2)
            c_star = int(rng.integers(0, 6))
            got = best_contrast(range(6), c_star, x, model, params)
            assert c_star in got
            assert 1 <= len(got) < 6
            assert got == best_contrast(range(6), c_star, x, model, params)
            floor = score_subset([c_star], range(6), x, model, params)
            assert score_subset(got, range(6), x, model, params) >= floor

    def test_determinism(self):
        rng = np.random.default_rng(49)
        model = random_model(rng, 7, 3)
        x = rng.normal(size=3)
        first = best_contrast(range(7), 4, x, model, ContrastParams())
        second = best_contrast(range(7), 4, x, model, ContrastParams())
        assert first == second

    def test_membership_and_strictness_always_hold(self):
        rng = np.random.default_rng(50)
        for _ in range(30):
            k = int(rng.integers(2, 7))
            model = random_model(rng, k, 2)
            x = rng.normal(size=2)
            c_star = int(rng.integers(0, k))
            got = best_contrast(range(k), c_star, x, model, ContrastParams())
            assert c_star in got
            assert len(got) < k

    def test_argument_errors(self):
        rng = np.random.default_rng(51)
        model = random_model(rng, 4, 2)
        x = [0.0, 0.0]
        with pytest.raises(InvalidHypothesisError):
            best_contrast([0, 1], 3, x, model, ContrastParams())
        with pytest.raises(EmptyContrastError):
            best_contrast([2], 2, x, model, ContrastParams())
        # a non-integral predicted class is rejected, not truncated to 1
        with pytest.raises(InvalidHypothesisError, match="must be an integer"):
            best_contrast([0, 1, 2], 1.7, x, model, ContrastParams())

    def test_evidence_length_must_match_model(self):
        """A short or long vector is rejected, not truncated or misread."""
        rng = np.random.default_rng(52)
        model = random_model(rng, 4, 3)
        for x in ([0.0, 0.0], [0.0, 0.0, 0.0, 0.0]):
            with pytest.raises(MissingEvidenceError, match="model expects 3"):
                best_contrast(range(4), 0, x, model, ContrastParams())


def separated_diagonal_model(k):
    """k well-separated unit-variance classes on a line, equal priors."""
    return GaussianClassModel(
        means=np.arange(k, dtype=float)[:, None] * np.array([[3.0, -2.0]]),
        covariances=np.ones((k, 2)),
        priors=np.full(k, 1.0 / k),
        mode="diagonal",
        feature_names=("a", "b"),
    ).validate()


class TestSizeBounds:
    """The per-size upper bound the exhaustive search prunes with."""

    @staticmethod
    def brute_force_size_max(log_prior, joint, c_star, alpha):
        """Best objective of each size s = 1..k-1, every split scored by scipy."""
        k = len(joint)
        others = [c for c in range(k) if c != c_star]
        masks = np.zeros((2 ** (k - 1), k), dtype=bool)
        masks[:, c_star] = True
        for bit, c in enumerate(others):
            masks[:, c] = np.arange(len(masks)) >> bit & 1
        masks = masks[masks.sum(axis=1) < k]
        a = log_prior + joint

        def side(member):
            return (logsumexp(np.where(member, a, -np.inf), axis=1)
                    - logsumexp(np.where(member, log_prior, -np.inf), axis=1))

        sizes = masks.sum(axis=1)
        scores = side(masks) - side(~masks) - alpha * (sizes - k / 2.0) ** 2
        return np.array([scores[sizes == s].max() for s in range(1, k)])

    def test_brute_force_max_within_pruning_threshold(self):
        """For every size, no split scores above bound + slack.

        Models are drawn to be hostile: priors down to 1e-12, |J| up to
        1e12, exact ties (copied classes) and near ties (a few ulps
        apart) across classes, and alpha in {0, 0.1, 2}.
        """
        rng = np.random.default_rng(54)
        eps = sys.float_info.epsilon
        for trial in range(600):
            k = int(rng.integers(2, 11))
            weights = rng.choice([1.0, 0.5, 1e-3, 1e-12], size=k)
            scale = float(rng.choice([1.0, 1e3, 1e6, 1e12]))
            joint = scale * rng.normal(size=k)
            if trial % 3 == 0:  # exact ties
                copies = rng.integers(0, k, size=k)
                joint, weights = joint[copies], weights[copies]
            elif trial % 3 == 1:  # near ties
                joint = joint[0] + np.abs(joint[0]) * eps * rng.integers(-4, 5, size=k)
            log_prior = np.log(weights / weights.sum())
            c_star = int(rng.integers(0, k))
            alpha = float(rng.choice([0.0, 0.1, 2.0]))
            own = np.arange(k) == c_star
            bound, size_scale = contrast._size_bounds(log_prior, joint, own, alpha)
            best = self.brute_force_size_max(log_prior, joint, c_star, alpha)
            threshold = bound + contrast.PRUNE_SLACK * eps * (size_scale + np.abs(best))
            assert np.all(best <= threshold), (trial, best - bound)

    def test_pruned_search_matches_enumeration_with_infinite_densities(self, monkeypatch):
        """-inf joints leave the bound valid in the extended reals.

        Up to 90% of the joints are -inf and priors reach 1e-300; the
        pruned search must pick the first maximum of the unpruned
        enumeration, and raise where that has none. Sizes still get
        skipped, so the -inf joints do not switch pruning off.
        """
        rng = np.random.default_rng(55)
        params = ContrastParams(alpha_reg=0.1)
        calls = []
        split_scores = contrast._split_scores

        def counted(member, *args):
            calls.append(1)
            return split_scores(member, *args)

        monkeypatch.setattr(contrast, "_split_scores", counted)
        skipped = 0
        for _ in range(300):
            k = int(rng.integers(2, 13))
            weights = rng.choice([1.0, 0.5, 1e-3, 1e-300], size=k)
            log_prior = np.log(weights / weights.sum())
            joint = rng.normal(0.0, 20.0, size=k)
            joint[rng.random(k) < rng.choice([0.2, 0.5, 0.9])] = -np.inf
            labels = np.arange(k)
            c_star = int(rng.integers(0, k))
            enumerated = [table[table[:, c_star]] for table in contrast._subset_rows(k)]
            with np.errstate(divide="ignore", invalid="ignore"):
                found = np.concatenate([split_scores(t, labels, log_prior, joint, params.alpha_reg)
                                        for t in enumerated])
            best = first_max(found)
            calls.clear()
            universe = HypothesisSet(tuple(range(k)))
            if best is None:
                with pytest.raises(DegenerateDensityError):
                    contrast._best_contrast(universe, c_star, joint, log_prior, params)
                continue
            got = contrast._best_contrast(universe, c_star, joint, log_prior, params)
            assert got.classes == tuple(labels[np.concatenate(enumerated)[best]])
            skipped += len(calls) < k - 1
        assert skipped > 0

    def test_pruning_skips_sizes_and_keeps_the_argmax(self, monkeypatch):
        """Well-separated classes at K = 12: few of the 11 sizes get scored.

        The unpruned reference search gets NaN bounds, which prune nothing.
        """
        model = separated_diagonal_model(12)
        params = ContrastParams(alpha_reg=0.1)
        calls = []
        split_scores = contrast._split_scores

        def counted(member, *args):
            calls.append(int(member[0].sum()))
            return split_scores(member, *args)

        monkeypatch.setattr(contrast, "_split_scores", counted)
        for c_star in (0, 5, 11):
            x = model.means[c_star] + 0.3
            calls.clear()
            pruned = best_contrast(range(12), c_star, x, model, params)
            assert len(calls) <= 3, calls
            with monkeypatch.context() as m:
                m.setattr(contrast, "_size_bounds",
                          lambda log_prior, joint, own, alpha: (np.full(11, np.nan),) * 2)
                calls.clear()
                full = best_contrast(range(12), c_star, x, model, params)
                assert sorted(calls) == list(range(1, 12))
            assert pruned == full
