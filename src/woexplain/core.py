"""Weight-of-evidence scores.

The weight of evidence of hypothesis A against alternative B given
evidence e is

    woe(A/B : e) = log P(e | Y in A) - log P(e | Y in B)

in natural-log units (nats). Composite hypotheses use prior-weighted
mixture likelihoods, which keeps Bayes rule exact:

    posterior log-odds = prior log-odds + woe

and makes the chain rule over evidence subsets hold identically:

    woe(A/B : e) = sum_i woe(A/B : e_{S_i} | e_{S_1}, ..., e_{S_{i-1}})

for any ordered partition S_1..S_m of the evidence coordinates.

Every score here is a log-sum-exp or a difference of per-class log
densities read from gaussian's one route per covariance mode
(_densities). Diagonal terms are computed directly. In full mode a
scoring round's prefix-then-target orders are read from the stack
states of their prefixes, and a chain's full order from the root
state, the model itself. This module checks the inputs and reduces the
mixtures.
"""

from __future__ import annotations

import math
import operator
from itertools import accumulate
from typing import Sequence

import numpy as np

from .errors import (
    DegenerateDensityError,
    DegeneratePriorError,
    InvalidHypothesisError,
    InvalidParameterError,
    InvalidPartitionError,
    MissingEvidenceError,
)
from .gaussian import (
    GaussianClassModel,
    _checked_evidence,
    _defined,
    _densities,
    _index_rows,
    _prefix_states,
    mixture_log_ratio,
)
from .types import Evidence, HypothesisSet, as_hypothesis


def _checked_count(value, name: str, least: int) -> int:
    """An integer-valued parameter >= least, as an int.

    Integral floats pass; NaN, infinities and non-numbers are parameter
    errors rather than the bare errors int() raises for them.
    """
    try:
        ok = int(value) == value and value >= least
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        raise InvalidParameterError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def _checked_pair(
    entailed, contrast, model: GaussianClassModel
) -> tuple[HypothesisSet, HypothesisSet]:
    a = as_hypothesis(entailed).check_against(model.n_classes)
    b = as_hypothesis(contrast).check_against(model.n_classes)
    if not a.isdisjoint(b):
        shared = sorted(set(a.classes) & set(b.classes))
        raise InvalidHypothesisError(
            f"entailed and contrast sets overlap on classes {shared}"
        )
    return a, b


def _checked_observed(idx: np.ndarray, e: Evidence, what: str) -> None:
    unseen = idx[~e.observed_mask[idx]]
    if unseen.size:
        raise MissingEvidenceError(f"{what} feature {int(unseen[0])} is not observed")


def _checked_prefix(prefix: Sequence[int], e: Evidence) -> tuple[int, ...]:
    (p_idx,) = _index_rows([prefix], e.n_features, "prefix")
    _checked_observed(p_idx, e, "prefix")
    return tuple(p_idx.tolist())


def _checked_targets(targets, prefix: tuple[int, ...], e: Evidence) -> list[tuple[int, ...]]:
    """The targets as tuples of ints, each nonempty, in range, observed and disjoint from prefix.

    Targets of one length are checked together as an (M, |prefix| + t)
    stack of prefix-then-target orders, shortest length first; the first
    offending feature of a stack in row-major order is the one named. A
    target whose entries are not integers, nested sequences included, is
    an InvalidPartitionError. The targets returned are rebuilt from the
    checked stacks.
    """
    p = len(prefix)
    stacks = []
    try:
        targets = [tuple(t) for t in targets]
        for n in sorted(set(map(len, targets))):
            rows = [k for k, t in enumerate(targets) if len(t) == n]
            stacks.append((rows, np.array([prefix + targets[k] for k in rows])))
    except (TypeError, ValueError) as exc:
        raise InvalidPartitionError("each target must be a sequence of integer indices") from exc
    for rows, orders in stacks:
        if orders.shape != (len(rows), p + len(targets[rows[0]])):
            raise InvalidPartitionError("each target must be a sequence of integer indices")
        if orders.shape[1] == p:
            raise InvalidPartitionError("target attribute must be nonempty")
        t = _index_rows(orders[:, p:], e.n_features, "target")
        shared = t[(t[:, :, None] == orders[:, None, :p]).any(axis=2)]
        if shared.size:
            raise InvalidPartitionError(f"feature {int(shared[0])} is in both target and prefix")
        _checked_observed(t, e, "target")
        for k, target in zip(rows, t.tolist()):
            targets[k] = tuple(target)
    return targets


def first_max(keys: np.ndarray, floor: float = -math.inf) -> "int | None":
    """Index of the first largest key above floor, or None.

    The batched searches pick with this what a loop keeping only strictly
    better candidates picks: the earliest of the tied best, and never a
    NaN.
    """
    keys = np.where(np.isnan(keys), -np.inf, keys)
    i = int(np.argmax(keys))
    return i if keys[i] > floor else None


def _chain_scores(a: list[int], b: list[int], lengths, terms: np.ndarray,
                  log_prior: np.ndarray) -> list[float]:
    """woe(A/B : e_g | e of the groups before g) for each group g in turn.

    terms holds every class's sequential log density terms along the
    concatenated groups, of the given lengths, so each group's delta is
    a slice sum; the mixture base of each class is one running sum of
    its log prior and the deltas before, and all groups are scored by one
    mixture_log_ratio pair over (groups, classes) arrays. A group where
    both sides are -inf is undefined and scores NaN.
    """
    bounds = [0, *accumulate(lengths)]
    steps = np.array([log_prior, *(terms[:, start:stop].sum(axis=1)
                                   for start, stop in zip(bounds, bounds[1:]))])
    base = np.cumsum(steps, axis=0)[:-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        return (mixture_log_ratio(base[:, a], steps[1:, a])
                - mixture_log_ratio(base[:, b], steps[1:, b])).tolist()


def _chains(requests, e: Evidence, model: GaussianClassModel) -> list[list[float]]:
    """_chain_scores for every (a, b, groups) request, groups already checked.

    Every request's groups partition the observed coordinates, so the
    concatenated orders share one length and are read together, as
    empty-prefix orders, by one density call (_densities).
    """
    if not requests:
        return []
    orders = [tuple(i for g in groups for i in g) for _, _, groups in requests]
    _, terms, rows = _densities(orders, 0, e.values, model,
                                _prefix_states((), e.values, model, {}))
    log_prior = np.log(model.priors)
    return [_chain_scores(a, b, map(len, groups), terms[:, row], log_prior)
            for (a, b, groups), row in zip(requests, rows)]


def _observed_terms(e: Evidence, model: GaussianClassModel) -> np.ndarray:
    """Every class's log_density_terms along the observed coordinates, in order.

    Row c sums to J_c, the joint log density of the observed evidence
    under class c, from which woe, posterior log-odds and the contrast
    objective are all read.
    """
    idx = list(e.observed_indices)
    return model.log_density_terms(idx, e.values[idx])


def _pair_terms(entailed, contrast, evidence,
                model: GaussianClassModel) -> tuple[list[int], list[int], np.ndarray]:
    """The checked labels of A and B and _observed_terms of the checked evidence."""
    a, b = map(list, _checked_pair(entailed, contrast, model))
    return a, b, _observed_terms(_checked_evidence(evidence, model), model)


def woe(entailed, contrast, evidence, model: GaussianClassModel) -> float:
    """woe(A/B : e) over all observed coordinates of the evidence.

    +inf (-inf) when no class of B (A) gives the evidence a finite joint
    log density. Raises DegenerateDensityError, as posterior does, when
    no class of A u B does.
    """
    a, b, terms = _pair_terms(entailed, contrast, evidence, model)
    return _defined(_chain_scores(a, b, [terms.shape[1]], terms, np.log(model.priors))[0])


def woe_conditional(
    entailed,
    contrast,
    target: Sequence[int],
    prefix: Sequence[int],
    evidence,
    model: GaussianClassModel,
) -> float:
    """woe(A/B : e_target | e_prefix), the chain-rule term for one attribute.

    With an empty prefix this is the marginal WoE of the target subset.
    The one-target case of woe_conditional_many.
    """
    return float(woe_conditional_many(entailed, contrast, [target], prefix, evidence, model)[0])


def woe_conditional_many(
    entailed,
    contrast,
    targets: Sequence[Sequence[int]],
    prefix: Sequence[int],
    evidence,
    model: GaussianClassModel,
) -> np.ndarray:
    """woe_conditional for every target against one shared prefix.

    Targets of one length are checked together and read together from
    the density route: the one-request case of _stacked_woe. Returns
    the scores in target order. A score is +-inf where one side gives
    the target no finite density, as in woe, and an undefined score
    raises DegenerateDensityError: where neither side gives the target a
    finite density, or one side's classes all give the prefix none.
    """
    a, b = map(list, _checked_pair(entailed, contrast, model))
    e = _checked_evidence(evidence, model)
    p_idx = _checked_prefix(prefix, e)
    targets = _checked_targets(targets, p_idx, e)
    return _defined(_stacked_woe([(a, b, p_idx, targets)], e, model, {})[0])


def _stacked_woe(requests, e: Evidence, model: GaussianClassModel,
                 memo: dict) -> list[np.ndarray]:
    """woe(A/B : e_t | e_prefix) for every target t of every (a, b, prefix, targets) request.

    a and b are label lists, prefix a tuple and targets a list of tuples
    of observed features, each target nonempty and disjoint from its
    prefix. Every prefix-then-target order of every request is bucketed
    by (|prefix|, |target|) and a bucket's orders, across requests, are
    scored together (_densities); each request's mixtures are reduced
    over its own rows, so every score is the one a lone call gives.
    Returns one array per request, in target order.

    memo maps prefixes to their (stack, column) states (_prefix_states).
    The requests' prefixes extend its entries, and on return it holds
    their states and the root's and no others: what a next round, whose
    prefixes extend these, can carry on from.
    """
    states = _prefix_states([prefix for _, _, prefix, _ in requests], e.values, model, memo)
    memo.clear()
    memo.update(states)
    buckets: dict[tuple[int, int], list] = {}
    for j, (_, _, prefix, targets) in enumerate(requests):
        lengths = list(map(len, targets))
        for length in set(lengths):
            rows = [k for k, n in enumerate(lengths) if n == length]
            buckets.setdefault((len(prefix), length), []).append(
                (j, rows, [prefix + targets[k] for k in rows]))
    scores = [np.empty(len(targets)) for _, _, _, targets in requests]
    # index arrays, not lists: numpy converts a list on every gather
    sides = [(np.array(a), np.array(b)) for a, b, _, _ in requests]
    with np.errstate(divide="ignore", invalid="ignore"):
        for (p, _), entries in buckets.items():
            base, terms, where = _densities([order for *_, orders in entries for order in orders],
                                            p, e.values, model, states)
            delta = terms.sum(axis=2)
            at = 0
            for j, rows, _ in entries:
                pick = where[at:at + len(rows), None]
                at += len(rows)
                a, b = sides[j]
                scores[j][rows] = (mixture_log_ratio(base[a, pick], delta[a, pick])
                                   - mixture_log_ratio(base[b, pick], delta[b, pick]))
    return scores


def _checked_ordering(ordering: Sequence[Sequence[int]], e: Evidence) -> list[tuple[int, ...]]:
    """The groups of an ordering that partitions the observed coordinates of e."""
    try:
        groups = [tuple(operator.index(i) for i in g) for g in ordering]
    except TypeError as exc:
        raise InvalidPartitionError("ordering indices must be integers") from exc
    flat: list[int] = []
    for k, g in enumerate(groups):
        if not g:
            raise InvalidPartitionError(f"ordering group {k} is empty")
        flat.extend(g)
    if len(set(flat)) != len(flat):
        dup = next(i for i in flat if flat.count(i) > 1)
        raise InvalidPartitionError(f"feature {dup} appears twice in the ordering")
    if set(flat) != set(e.observed_indices):
        raise InvalidPartitionError(
            "ordering must partition the observed coordinates "
            f"{list(e.observed_indices)}, got {sorted(flat)}"
        )
    return groups


def woe_chain(
    entailed,
    contrast,
    ordering: Sequence[Sequence[int]],
    evidence,
    model: GaussianClassModel,
) -> list[float]:
    """Per-attribute conditional WoE along an ordered partition.

    The ordering must partition the observed coordinates of the evidence.
    The scores sum to woe(entailed, contrast, evidence, model) regardless
    of the order; individual terms do depend on it. Infinite and
    undefined terms are as in woe_conditional_many, so an evidence
    beyond every density of A u B raises as in woe.
    """
    a, b = _checked_pair(entailed, contrast, model)
    e = _checked_evidence(evidence, model)
    return _defined(_chains([(list(a), list(b), _checked_ordering(ordering, e))], e, model)[0])


def _prior_log_odds(a: list[int], b: list[int], priors: np.ndarray) -> float:
    pa = float(np.sum(priors[a]))
    pb = float(np.sum(priors[b]))
    if pa <= 0.0 or pb <= 0.0:
        raise DegeneratePriorError("a hypothesis set has zero prior mass")
    return math.log(pa) - math.log(pb)


def prior_log_odds(entailed, contrast, model: GaussianClassModel) -> float:
    """log P(Y in A) - log P(Y in B) from the model priors alone."""
    a, b = _checked_pair(entailed, contrast, model)
    return _prior_log_odds(list(a), list(b), model.priors)


def _posterior_log_odds(a: list[int], b: list[int], terms: np.ndarray,
                        priors: np.ndarray) -> float:
    both = a + b
    joint = np.log(priors[both]) + terms[both].sum(axis=1)
    in_a = np.arange(len(both)) < len(a)
    # A's and B's log shares of the mass of A u B, one row each: -inf for a side without mass
    with np.errstate(divide="ignore", invalid="ignore"):
        shares = mixture_log_ratio(np.tile(joint, (2, 1)), np.where([in_a, ~in_a], 0.0, -np.inf))
    return float(shares[0] - shares[1])


def posterior_log_odds(entailed, contrast, evidence, model: GaussianClassModel) -> float:
    """log P(Y in A | e) - log P(Y in B | e), straight from Bayes rule.

    Each side is the log share of A u B's posterior mass held by A (or
    B), read off the per-class joint scores log P(c) + log P(e | c) with
    mixture_log_ratio: a delta of 0 on the side's classes and -inf on the
    other's. woe is not involved, so the decomposition identity below
    checks the mixture bookkeeping. Infinite, and raises, where woe is.
    """
    a, b, terms = _pair_terms(entailed, contrast, evidence, model)
    return _defined(_posterior_log_odds(a, b, terms, model.priors))


def bayes_decomposition(
    entailed, contrast, evidence, model: GaussianClassModel
) -> tuple[float, float, float]:
    """(prior_log_odds, total_woe, posterior_log_odds) for A vs B given e.

    The three satisfy posterior = prior + woe; prior odds come from the
    model priors and posterior odds from an independent Bayes-rule path.
    Both evidence terms read one factorization of the observed order,
    and an evidence beyond every density of A u B raises as in woe.
    """
    a, b, terms = _pair_terms(entailed, contrast, evidence, model)
    total = _defined(_chain_scores(a, b, [terms.shape[1]], terms, np.log(model.priors))[0])
    return (_prior_log_odds(a, b, model.priors), total,
            _posterior_log_odds(a, b, terms, model.priors))


def information_value(feature: int, class_a: int, class_b: int,
                      model: GaussianClassModel) -> float:
    """Information Value of one feature for separating two classes.

        IV = integral of log[p_a(x)/p_b(x)] (p_a(x) - p_b(x)) dx

    over the feature's marginal densities. This is the symmetrized KL
    divergence (J-divergence), so it is nonnegative, and zero exactly when
    the two marginals coincide. For normal marginals it has the closed form

        IV = ((var_a + d^2) / var_b + (var_b + d^2) / var_a) / 2 - 1

    with d the difference of the two means.
    """
    mu_a, var_a = model.marginal_moments(class_a, feature)
    mu_b, var_b = model.marginal_moments(class_b, feature)
    for label, var in ((class_a, var_a), (class_b, var_b)):
        if var <= 0.0:
            raise DegenerateDensityError(
                f"marginal variance of feature {feature} under class {label} is not positive"
            )
    d2 = (mu_a - mu_b) ** 2
    return 0.5 * ((var_a + d2) / var_b + (var_b + d2) / var_a) - 1.0
