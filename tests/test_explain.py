"""End-to-end explanation runs: step structure, identities, determinism.

The replay oracle re-enumerates every candidate split of every recorded
step through the public scorer and re-derives the winner with min()
instead of the implementation's streaming comparison. Feature-group
discovery is checked against a from-scratch copy of the subset scan
driven by the scipy scoring route.
"""

import importlib
import json
import math
from itertools import combinations

import numpy as np
import pytest
from numpy.testing import assert_allclose

from woexplain import (
    AttributePartition,
    AttributeScore,
    ContrastParams,
    Evidence,
    ExplainerParams,
    ExplanationStep,
    GaussianClassModel,
    HypothesisSet,
    bayes_decomposition,
    best_contrast,
    explain,
    filter_display,
    fit,
    predicted_class,
    report_to_dict,
    score_attributes,
    score_subset,
    woe,
    write_report,
)
from woexplain.errors import (
    DegenerateDensityError,
    InvalidHypothesisError,
    InvalidParameterError,
    InvalidPartitionError,
    MissingEvidenceError,
    NothingToExplainError,
    NumericalConditioningError,
)

from oracles import random_model, woe_between


def single_group_params(n_features, **kwargs):
    partition = AttributePartition((tuple(range(n_features)),))
    return ExplainerParams(partition=partition, **kwargs)


def replay_winner(model, v, c_star, x, params):
    """Re-derive a step's winner from score_subset over all candidates."""
    others = [c for c in v if c != c_star]
    scored = []
    for mask in range(2 ** len(others)):
        u = tuple(sorted([c_star] + [o for k, o in enumerate(others) if mask >> k & 1]))
        if len(u) == len(v):
            continue
        scored.append((u, score_subset(u, v, x, model, params)))
    top = max(s for _, s in scored)
    return min((u for u, s in scored if s == top), key=lambda u: (len(u), u))


class TestExplainLoop:
    def test_binary_model_single_step(self):
        rng = np.random.default_rng(42)
        model = random_model(rng, 2, 3)
        x = rng.normal(size=3)
        report = explain(x, model, single_group_params(3))
        assert len(report.steps) == 1
        step = report.steps[0]
        assert tuple(step.entailed) == (report.predicted_class,)
        assert tuple(step.contrast) == (1 - report.predicted_class,)

    def test_replay_reproduces_recorded_maximizers(self):
        """Every step's entailed set survives a full candidate re-scoring."""
        rng = np.random.default_rng(43)
        model = random_model(rng, 10, 3)
        x = rng.normal(0.0, 2.0, size=3)
        params = single_group_params(3)
        report = explain(x, model, params)
        remaining = tuple(range(10))
        for step in report.steps:
            assert tuple(sorted(tuple(step.entailed) + tuple(step.contrast))) == remaining
            winner = replay_winner(model, remaining, report.predicted_class, x, params.contrast)
            assert tuple(step.entailed) == winner
            remaining = tuple(step.entailed)

    def test_every_class_contrasted_exactly_once(self):
        """Exhaustiveness: non-predicted classes appear in one contrast set."""
        rng = np.random.default_rng(44)
        for _ in range(30):
            k = int(rng.integers(2, 7))
            model = random_model(rng, k, 2)
            x = rng.normal(0.0, 2.0, size=2)
            report = explain(x, model, single_group_params(2))
            ruled_out = [c for step in report.steps for c in step.contrast]
            assert sorted(ruled_out + [report.predicted_class]) == list(range(k))
            assert len(report.steps) <= k - 1
            sizes = [len(step.entailed) + len(step.contrast) for step in report.steps]
            assert sizes == sorted(sizes, reverse=True)
            assert tuple(report.steps[-1].entailed) == (report.predicted_class,)

    def test_step_identity_thirty_features(self):
        """prior + sum of attribute woe = posterior log-odds per step."""
        rng = np.random.default_rng(45)
        data = np.vstack([
            rng.normal(0.0, 1.0, size=(400, 30)),
            rng.normal(0.6, 1.3, size=(400, 30)),
        ])
        labels = np.array([0] * 400 + [1] * 400)
        model = fit(data, labels, mode="full")
        partition = AttributePartition(
            tuple(tuple(range(3 * k, 3 * k + 3)) for k in range(10))
        )
        params = ExplainerParams(partition=partition)
        report = explain(rng.normal(0.3, 1.0, size=30), model, params)
        assert len(report.steps) == 1
        step = report.steps[0]
        assert len(step.attributes) == 10
        covered = sorted(f for a in step.attributes for f in a.features)
        assert covered == list(range(30))
        assert abs(step.prior_log_odds + step.total_woe - step.posterior_log_odds) < 1e-9

    def test_identity_holds_on_every_step(self):
        rng = np.random.default_rng(46)
        model = random_model(rng, 5, 4)
        partition = AttributePartition(((0, 1), (2,), (3,)))
        report = explain(rng.normal(size=4), model, ExplainerParams(partition=partition))
        for step in report.steps:
            assert abs(step.prior_log_odds + step.total_woe - step.posterior_log_odds) < 1e-9

    def test_input_validation(self):
        rng = np.random.default_rng(48)
        model = random_model(rng, 3, 2)
        params = single_group_params(2)
        with pytest.raises(MissingEvidenceError):
            explain([0.0, 0.0, 0.0], model, params)
        from woexplain import Evidence

        partial = Evidence(np.zeros(2), observed_mask=np.array([True, False]))
        with pytest.raises(MissingEvidenceError):
            explain(partial, model, params)
        lonely = GaussianClassModel(
            means=np.zeros((1, 2)),
            covariances=np.array([np.eye(2)]),
            priors=np.array([1.0]),
            mode="full",
            feature_names=("a", "b"),
        ).validate()
        with pytest.raises(NothingToExplainError):
            explain([0.0, 0.0], lonely, single_group_params(2))

    def test_input_beyond_every_density_names_the_cause(self):
        """Every joint log density -inf: the posterior's error, not a failed contrast search."""
        rng = np.random.default_rng(49)
        model = random_model(rng, 3, 3)
        for params in (single_group_params(3), ExplainerParams(attribute_size=1)):
            with pytest.raises(DegenerateDensityError, match="no finite joint log density"):
                explain([1e200, 0.0, 0.0], model, params)

    # the contrast search scores a candidate whose side has no mass as NaN, with numpy's warning
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_contrast_without_density_has_infinite_posterior_odds(self):
        """Only class 2 (variance 1e300) has a density at 1e200: each contrast has no mass."""
        model = GaussianClassModel(
            means=np.zeros((3, 1)),
            covariances=np.array([[[1.0]], [[1.0]], [[1e300]]]),
            priors=np.full(3, 1.0 / 3.0),
            mode="full",
            feature_names=("x",),
        ).validate()
        for params in (single_group_params(1), ExplainerParams(attribute_size=1)):
            steps = explain([1e200], model, params).steps
            assert [s.posterior_log_odds for s in steps] == [math.inf, math.inf]
            assert [a.woe for s in steps for a in s.attributes] == [math.inf, math.inf]

    # every candidate is the NaN of -inf - -inf, which numpy warns about
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_no_comparable_attribute_is_an_error(self):
        rng = np.random.default_rng(50)
        model = random_model(rng, 3, 3)
        partition = AttributePartition(((0,), (1, 2)))
        for params in (ExplainerParams(partition=partition), ExplainerParams(attribute_size=1)):
            with pytest.raises(DegenerateDensityError,
                               match="every candidate attribute scored NaN or -inf"):
                score_attributes([0], [1, 2], [1e200, 0.0, 0.0], model, params)

    def test_covariance_that_fails_to_factor_names_its_class(self):
        bad = np.array([[1.0, 2.0], [2.0, 1.0]])
        model = GaussianClassModel(
            means=np.zeros((3, 2)),
            covariances=np.array([np.eye(2), bad, bad]),
            priors=np.full(3, 1.0 / 3.0),
            mode="full",
            feature_names=("a", "b"),
        )
        with pytest.raises(NumericalConditioningError,
                           match="^the covariance of class 1 is not positive definite$"):
            explain([0.0, 0.0], model, single_group_params(2))


class TestOrderingPolicies:
    def setup_case(self, seed=49):
        rng = np.random.default_rng(seed)
        model = random_model(rng, 3, 6)
        x = rng.normal(0.0, 1.5, size=6)
        partition = AttributePartition(((0, 3), (1,), (2, 5), (4,)))
        return model, x, partition

    def params(self, partition, **kwargs):
        return ExplainerParams(partition=partition, **kwargs)

    def test_sums_agree_across_policies_and_seeds(self):
        model, x, partition = self.setup_case()
        variants = [
            self.params(partition),
            self.params(partition, ordering_policy="fixed"),
            self.params(partition, ordering_policy="random", ordering_seed=1),
            self.params(partition, ordering_policy="random", ordering_seed=7),
        ]
        reports = [explain(x, model, p) for p in variants]
        for k in range(len(reports[0].steps)):
            sums = [r.steps[k].total_woe for r in reports]
            assert max(sums) - min(sums) < 1e-9
            entaileds = {tuple(r.steps[k].entailed) for r in reports}
            assert len(entaileds) == 1

    def test_fixed_keeps_partition_order(self):
        model, x, partition = self.setup_case()
        report = explain(x, model, self.params(partition, ordering_policy="fixed"))
        for step in report.steps:
            assert tuple(a.features for a in step.attributes) == partition.groups

    def test_greedy_orders_by_conditional_magnitude(self):
        """The first greedy attribute has the largest marginal magnitude."""
        model, x, partition = self.setup_case()
        report = explain(x, model, self.params(partition))
        step = report.steps[0]
        from woexplain import woe_conditional

        marginals = {
            g: abs(woe_conditional(step.entailed, step.contrast, g, (), x, model))
            for g in partition.groups
        }
        first = step.attributes[0]
        assert abs(first.woe) == max(marginals.values())
        assert marginals[first.features] == abs(first.woe)

    def test_random_policy_is_seed_deterministic(self):
        model, x, partition = self.setup_case()
        p = self.params(partition, ordering_policy="random", ordering_seed=5)
        first = report_to_dict(explain(x, model, p))
        second = report_to_dict(explain(x, model, p))
        assert json.dumps(first) == json.dumps(second)

    def test_marginal_mode_keeps_order_and_ignores_prefix(self):
        model, x, partition = self.setup_case()
        report = explain(x, model, self.params(partition, scoring_mode="marginal"))
        from woexplain import woe_conditional

        for step in report.steps:
            assert tuple(a.features for a in step.attributes) == partition.groups
            for a in step.attributes:
                expected = woe_conditional(
                    step.entailed, step.contrast, a.features, (), x, model
                )
                assert a.woe == expected
                assert not a.conditional


class TestGreedyGroups:
    def test_whole_feature_set_is_one_group(self):
        """attribute_size = n collapses to a single all-features group."""
        rng = np.random.default_rng(50)
        model = random_model(rng, 2, 4)
        x = rng.normal(size=4)
        attrs = score_attributes([0], [1], x, model, ExplainerParams(attribute_size=4))
        assert len(attrs) == 1
        assert attrs[0].features == (0, 1, 2, 3)
        assert attrs[0].woe == woe([0], [1], x, model)

    def test_matches_brute_force_subset_scan(self):
        """Group discovery equals an independent scan via the scipy route."""
        rng = np.random.default_rng(51)
        for trial in range(5):
            model = random_model(rng, 2, 6)
            x = rng.normal(0.0, 1.5, size=6)
            attrs = score_attributes(
                [0], [1], x, model,
                ExplainerParams(attribute_size=2, scoring_mode="marginal"),
            )
            remaining = list(range(6))
            expected = []
            while len(remaining) > 2:
                best = max(
                    combinations(remaining, 2),
                    key=lambda g: woe_between(model, [0], [1], g, x[list(g)]),
                )
                expected.append(best)
                remaining = [f for f in remaining if f not in best]
            expected.append(tuple(remaining))
            assert [a.features for a in attrs] == expected

    def test_groups_partition_the_features(self):
        rng = np.random.default_rng(52)
        model = random_model(rng, 3, 7)
        x = rng.normal(size=7)
        attrs = score_attributes([0], [1, 2], x, model, ExplainerParams(attribute_size=3))
        covered = sorted(f for a in attrs for f in a.features)
        assert covered == list(range(7))
        assert [len(a.features) for a in attrs] == [3, 3, 1]

    def test_size_larger_than_observed_rejected(self):
        rng = np.random.default_rng(53)
        model = random_model(rng, 2, 3)
        with pytest.raises(InvalidParameterError):
            score_attributes([0], [1], [0.0] * 3, model, ExplainerParams(attribute_size=4))


def loop_groups(a, b, x, model, size):
    """Group discovery one marginal woe_conditional call at a time."""
    from woexplain import woe_conditional
    from woexplain.explain import MAX_SUBSET_SCAN

    def best_of(candidates):
        best, best_score = None, -math.inf
        for cand in candidates:
            s = woe_conditional(a, b, cand, (), x, model)
            if s > best_score:
                best, best_score = cand, s
        return best

    remaining, groups = list(range(model.n_features)), []
    while len(remaining) > size:
        if math.comb(len(remaining), size) <= MAX_SUBSET_SCAN:
            best = best_of(combinations(remaining, size))
        else:
            best = ()
            for _ in range(size):
                best = best_of(tuple(sorted(best + (f,))) for f in remaining if f not in best)
        groups.append(best)
        remaining = [f for f in remaining if f not in best]
    return groups + [tuple(remaining)]


def loop_greedy_order(a, b, x, model, groups):
    """Greedy max-|woe| ordering one conditional call at a time."""
    from woexplain import woe_conditional

    out, prefix, left = [], (), list(groups)
    while left:
        best, best_s, best_abs = None, 0.0, -math.inf
        for g in left:
            s = woe_conditional(a, b, g, prefix, x, model)
            if abs(s) > best_abs:
                best, best_s, best_abs = g, s, abs(s)
        out.append((best, best_s))
        left.remove(best)
        prefix += best
    return out


class TestBatchedSearchesMatchLoops:
    """The batched searches pick and score exactly as one-call-per-candidate loops."""

    def test_greedy_ordering(self):
        rng = np.random.default_rng(60)
        groups = ((0, 1, 2, 3, 4, 5, 6, 7, 8), (9,), (10, 11), (12, 13, 14), (15,),
                  (16, 17, 18, 19))
        for mode in ("full", "diagonal"):
            model = random_model(rng, 12, 20, mode=mode)
            x = rng.normal(0.0, 2.0, size=20)
            a, b = list(range(8)), list(range(8, 12))
            params = ExplainerParams(partition=AttributePartition(groups))
            got = [(s.features, s.woe) for s in score_attributes(a, b, x, model, params)]
            assert got == loop_greedy_order(a, b, x, model, groups)

    def test_group_scan_and_grow(self, monkeypatch):
        """A low scan cap sends the first round of 8 features through the grow
        fallback; the 5 left after it are scanned."""
        monkeypatch.setattr(importlib.import_module("woexplain.explain"), "MAX_SUBSET_SCAN", 10)
        rng = np.random.default_rng(61)
        for mode in ("full", "diagonal"):
            model = random_model(rng, 12, 8, mode=mode)
            x = rng.normal(0.0, 2.0, size=8)
            a, b = list(range(4)), list(range(4, 12))
            params = ExplainerParams(attribute_size=3, scoring_mode="marginal")
            got = [s.features for s in score_attributes(a, b, x, model, params)]
            assert got == loop_groups(a, b, x, model, 3)

    def test_unobserved_feature_still_rejected(self):
        rng = np.random.default_rng(62)
        model = random_model(rng, 3, 4)
        x = Evidence(rng.normal(size=4), observed_mask=np.array([True, True, False, True]))
        partition = AttributePartition(((0,), (1, 2), (3,)))
        for mode in ("conditional_chain", "marginal"):
            params = ExplainerParams(partition=partition, scoring_mode=mode)
            with pytest.raises(MissingEvidenceError, match="feature 2"):
                score_attributes([0], [1, 2], x, model, params)


def assert_steps_match_one_split(x, model, params):
    """Each step of explain() equals the public one-split routes on its split, with ==."""
    report = explain(x, model, params)
    assert report.predicted_class == predicted_class(model, x)
    remaining = HypothesisSet(tuple(range(model.n_classes)))
    for step in report.steps:
        assert step.entailed == best_contrast(remaining, report.predicted_class, x, model,
                                              params.contrast)
        prior, _, post = bayes_decomposition(step.entailed, step.contrast, x, model)
        assert (step.prior_log_odds, step.posterior_log_odds) == (prior, post)
        alone = score_attributes(step.entailed, step.contrast, x, model, params)
        assert [(a.features, a.woe, a.name, a.conditional) for a in step.attributes] == [
            (a.features, a.woe, a.name, a.conditional) for a in alone]
        remaining = step.entailed
    return report


class TestStepsMatchOneSplit:
    """explain() scores all steps at once; each step is what one split alone gives."""

    @pytest.mark.parametrize("mode", ["full", "diagonal"])
    @pytest.mark.parametrize("policy", ["greedy_max_woe", "fixed", "random"])
    def test_fixed_partitions(self, mode, policy):
        rng = np.random.default_rng(70)
        ragged = AttributePartition(((0, 3), (1,), (2, 5, 6, 7, 8, 9, 10, 11), (4,)))
        named = AttributePartition(ragged.groups, names=("a", "b", "c", "d"))
        for partition in (ragged, named):
            for _ in range(3):
                model = random_model(rng, 7, 12, mode=mode)
                x = rng.normal(0.0, 2.0, size=12)
                for scoring in ("conditional_chain", "marginal"):
                    params = ExplainerParams(partition=partition, scoring_mode=scoring,
                                             ordering_policy=policy, ordering_seed=3,
                                             contrast=ContrastParams(alpha_reg=0.0))
                    assert len(assert_steps_match_one_split(x, model, params).steps) > 1

    @pytest.mark.parametrize("mode", ["full", "diagonal"])
    @pytest.mark.parametrize("scan_cap", [10_000, 5])
    def test_greedy_groups_diverge_across_steps(self, mode, scan_cap, monkeypatch):
        """Steps discover different groups, so their remaining features and
        prefixes differ round by round; a scan cap of 5 sends every round
        through the grow fallback."""
        monkeypatch.setattr(importlib.import_module("woexplain.explain"),
                            "MAX_SUBSET_SCAN", scan_cap)
        rng = np.random.default_rng(71)
        diverged = 0
        for policy in ("greedy_max_woe", "fixed", "random"):
            for scoring in ("conditional_chain", "marginal"):
                model = random_model(rng, 6, 8, mode=mode)
                x = rng.normal(0.0, 2.0, size=8)
                params = ExplainerParams(attribute_size=3, scoring_mode=scoring,
                                         ordering_policy=policy, ordering_seed=5,
                                         contrast=ContrastParams(alpha_reg=0.0))
                report = assert_steps_match_one_split(x, model, params)
                groups = {frozenset(a.features for a in step.attributes)
                          for step in report.steps}
                diverged += len(groups) > 1
        assert diverged

    def test_first_chain_term_is_the_first_groups_woe(self):
        """With independent features the first chain term is the woe of the first
        group's evidence alone, bit for bit: the chain keeps the single-order
        arithmetic also for a group of ten features."""
        rng = np.random.default_rng(73)
        partition = AttributePartition((tuple(range(10)), (10,), (11,)))
        for _ in range(5):
            model = random_model(rng, 5, 12, mode="diagonal")
            x = rng.normal(0.0, 2.0, size=12)
            first = Evidence(x, observed_mask=np.arange(12) < 10)
            params = ExplainerParams(partition=partition, ordering_policy="fixed")
            for step in explain(x, model, params).steps:
                assert step.attributes[0].woe == woe(step.entailed, step.contrast, first, model)

    def test_parameter_errors_come_before_any_search(self, monkeypatch):
        rng = np.random.default_rng(72)
        model = random_model(rng, 3, 4)
        calls = []
        density = GaussianClassModel.log_density_terms

        def counted(self, order, values):
            calls.append(order)
            return density(self, order, values)

        monkeypatch.setattr(GaussianClassModel, "log_density_terms", counted)
        x = rng.normal(size=4)
        with pytest.raises(InvalidParameterError,
                           match=r"^attribute_size 5 exceeds the 4 observed features$"):
            explain(x, model, ExplainerParams(attribute_size=5))
        with pytest.raises(InvalidPartitionError,
                           match=r"^partition covers 3 features, model has 4$"):
            explain(x, model, ExplainerParams(partition=AttributePartition(((0, 1), (2,)))))
        assert calls == []


class TestFilterDisplay:
    def make_step(self, scores):
        from woexplain import HypothesisSet

        return ExplanationStep(
            entailed=HypothesisSet((0,)),
            contrast=HypothesisSet((1,)),
            prior_log_odds=0.1,
            posterior_log_odds=0.1 + sum(scores),
            scoring_mode="conditional_chain",
            attributes=tuple(
                AttributeScore(features=(k,), woe=s, conditional=True)
                for k, s in enumerate(scores)
            ),
        )

    def test_rule_of_thumb_threshold(self):
        step = filter_display(self.make_step([2.5, -0.4, -3.1]), 2.0)
        assert step.displayed_mask == (True, False, True)

    def test_zero_threshold_shows_all(self):
        step = filter_display(self.make_step([2.5, -0.4, -3.1]), 0.0)
        assert step.displayed_mask == (True, True, True)

    def test_infinite_threshold_hides_all_but_keeps_numbers(self):
        original = self.make_step([2.5, -0.4, -3.1])
        filtered = filter_display(original, math.inf)
        assert filtered.displayed_mask == (False, False, False)
        assert filtered.total_woe == original.total_woe
        assert [a.woe for a in filtered.attributes] == [a.woe for a in original.attributes]
        assert filtered.entailed == original.entailed
        assert filtered.posterior_log_odds == original.posterior_log_odds

    def test_boundary_is_inclusive(self):
        step = filter_display(self.make_step([2.0, -2.0, 1.999]), 2.0)
        assert step.displayed_mask == (True, True, False)


class TestScoringModeCollapse:
    def test_diagonal_fixed_partition_modes_agree(self):
        """Independent features: chain scores equal marginal scores."""
        rng = np.random.default_rng(54)
        model = random_model(rng, 2, 5, mode="diagonal")
        x = rng.normal(size=5)
        partition = AttributePartition(((0, 2), (1,), (3, 4)))
        chain = score_attributes(
            [0], [1], x, model,
            ExplainerParams(partition=partition, ordering_policy="fixed"),
        )
        marginal = score_attributes(
            [0], [1], x, model,
            ExplainerParams(partition=partition, scoring_mode="marginal"),
        )
        assert [a.woe for a in chain] == [a.woe for a in marginal]
        assert [a.features for a in chain] == [a.features for a in marginal]


class TestParamsAndReportShape:
    def test_exactly_one_attribute_source(self):
        partition = AttributePartition(((0,), (1,)))
        with pytest.raises(InvalidParameterError):
            ExplainerParams()
        with pytest.raises(InvalidParameterError):
            ExplainerParams(partition=partition, attribute_size=1)
        with pytest.raises(InvalidParameterError):
            ExplainerParams(attribute_size=0)
        for threshold in (-1.0, math.nan, "x", None):
            with pytest.raises(InvalidParameterError, match="display_threshold"):
                ExplainerParams(partition=partition, display_threshold=threshold)
        with pytest.raises(InvalidParameterError):
            ExplainerParams(partition=partition, scoring_mode="bayes")
        with pytest.raises(InvalidParameterError):
            ExplainerParams(partition=partition, ordering_policy="sorted")

    def test_seed_must_be_a_nonnegative_integer(self):
        partition = AttributePartition(((0,), (1,)))
        for seed in (-1, 1.7, "x", None):
            with pytest.raises(InvalidParameterError, match="ordering_seed"):
                ExplainerParams(partition=partition, ordering_seed=seed)
        assert ExplainerParams(partition=partition, ordering_seed=np.int64(4)).ordering_seed == 4

    def test_partition_must_match_model_width(self):
        rng = np.random.default_rng(55)
        model = random_model(rng, 2, 3)
        partition = AttributePartition(((0, 1),))
        with pytest.raises(InvalidPartitionError):
            score_attributes([0], [1], [0.0, 0.0, 0.0], model,
                             ExplainerParams(partition=partition))
        with pytest.raises(InvalidHypothesisError, match="overlap"):
            score_attributes([0], [0, 1], [0.0, 0.0, 0.0], model,
                             ExplainerParams(partition=AttributePartition(((0, 1, 2),))))

    def test_report_document_layout(self):
        rng = np.random.default_rng(56)
        model = random_model(rng, 3, 4)
        x = rng.normal(size=4)
        partition = AttributePartition(((0, 1), (2, 3)), names=("pair_a", "pair_b"))
        doc = report_to_dict(explain(x, model, ExplainerParams(partition=partition)))
        assert list(doc) == ["version", "predicted_class", "settings", "steps"]
        assert doc["version"] == 2
        assert list(doc["settings"]) == [
            "attribute_source", "scoring_mode", "display_threshold",
            "ordering_policy", "ordering_seed", "alpha_reg",
            "max_exhaustive_classes",
        ]
        assert doc["settings"]["attribute_source"]["type"] == "fixed_partition"
        assert doc["settings"]["attribute_source"]["names"] == ["pair_a", "pair_b"]
        step = doc["steps"][0]
        assert list(step) == [
            "entailed", "contrast", "prior_log_odds",
            "posterior_log_odds", "scoring_mode", "attributes",
        ]
        attr = step["attributes"][0]
        assert list(attr) == ["features", "name", "woe", "displayed"]
        assert attr["name"] in ("pair_a", "pair_b")

    def test_unnamed_partition_omits_name_field(self):
        rng = np.random.default_rng(57)
        model = random_model(rng, 2, 2)
        doc = report_to_dict(explain([0.1, 0.2], model, single_group_params(2)))
        attr = doc["steps"][0]["attributes"][0]
        assert list(attr) == ["features", "woe", "displayed"]
        source = doc["settings"]["attribute_source"]
        assert list(source) == ["type", "groups"]

    def test_greedy_source_recorded(self):
        rng = np.random.default_rng(58)
        model = random_model(rng, 2, 3)
        doc = report_to_dict(explain([0.0] * 3, model, ExplainerParams(attribute_size=2)))
        assert doc["settings"]["attribute_source"] == {
            "type": "greedy_groups", "attribute_size": 2,
        }

    def test_reports_are_byte_identical(self, tmp_path):
        rng = np.random.default_rng(59)
        model = random_model(rng, 4, 3)
        x = rng.normal(size=3)
        params = single_group_params(3)
        first, second = tmp_path / "r1.json", tmp_path / "r2.json"
        write_report(explain(x, model, params), first)
        write_report(explain(x, model, params), second)
        assert first.read_bytes() == second.read_bytes()
        assert first.read_bytes().endswith(b"\n")

    def test_report_floats_round_trip(self, tmp_path):
        rng = np.random.default_rng(60)
        model = random_model(rng, 3, 2)
        x = rng.normal(size=2)
        report = explain(x, model, single_group_params(2))
        path = tmp_path / "report.json"
        write_report(report, path)
        loaded = json.loads(path.read_text(encoding="utf-8"))
        for step, loaded_step in zip(report.steps, loaded["steps"]):
            assert loaded_step["posterior_log_odds"] == step.posterior_log_odds
            assert loaded_step["prior_log_odds"] == step.prior_log_odds
            for a, la in zip(step.attributes, loaded_step["attributes"]):
                assert la["woe"] == a.woe
