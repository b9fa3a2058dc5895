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
"""

from __future__ import annotations

import math
import operator
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
from .gaussian import DensityBackend, _index_rows, _index_tuple, mixture_log_ratio
from .types import Evidence, HypothesisSet, as_evidence, as_hypothesis

# covariance entries (classes x orders x m x m) one stacked density call may gather
BATCH_ELEMENTS = 1 << 20


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
    entailed, contrast, model: DensityBackend
) -> tuple[HypothesisSet, HypothesisSet]:
    a = as_hypothesis(entailed).check_against(model.n_classes)
    b = as_hypothesis(contrast).check_against(model.n_classes)
    if not a.isdisjoint(b):
        shared = sorted(set(a.classes) & set(b.classes))
        raise InvalidHypothesisError(
            f"entailed and contrast sets overlap on classes {shared}"
        )
    return a, b


def _checked_evidence(e, model: DensityBackend) -> Evidence:
    ev = as_evidence(e)
    if ev.n_features != model.n_features:
        raise MissingEvidenceError(
            f"evidence has {ev.n_features} features, model expects {model.n_features}"
        )
    return ev


def _checked_prefix(prefix: Sequence[int], e: Evidence) -> tuple[int, ...]:
    p_idx = _index_tuple(prefix, e.n_features, "prefix")
    for i in p_idx:
        if not e.observed_mask[i]:
            raise MissingEvidenceError(f"prefix feature {i} is not observed")
    return p_idx


def _checked_targets(targets: np.ndarray, p_idx: tuple[int, ...],
                     e: Evidence) -> np.ndarray:
    """An (M, m) stack of nonempty, in-range, observed targets disjoint from the prefix."""
    if targets.shape[1] == 0:
        raise InvalidPartitionError("target attribute must be nonempty")
    t = _index_rows(targets, e.n_features, "target")
    in_prefix = np.zeros(e.n_features, dtype=bool)
    in_prefix[list(p_idx)] = True
    shared = t[in_prefix[t]]
    if shared.size:
        raise InvalidPartitionError(f"feature {int(shared[0])} is in both target and prefix")
    unseen = t[~e.observed_mask[t]]
    if unseen.size:
        raise MissingEvidenceError(f"target feature {int(unseen[0])} is not observed")
    return t


def first_max(keys: np.ndarray, floor: float = -math.inf) -> "int | None":
    """Index of the first largest key above floor, or None.

    The batched searches pick with this what a loop keeping only strictly
    better candidates picks: the earliest of the tied best, and never a
    NaN.
    """
    keys = np.where(np.isnan(keys), -np.inf, keys)
    i = int(np.argmax(keys))
    return i if keys[i] > floor else None


def _chain(a: HypothesisSet, b: HypothesisSet, groups, e: Evidence,
           model: DensityBackend) -> list[float]:
    """woe(A/B : e_g | e of the groups before g) for each group g in turn.

    One call of the density primitive along the concatenated groups gives
    every class's conditional log density of each group (delta); the
    mixture base of each class is its log prior plus the deltas before.
    """
    order = [i for g in groups for i in g]
    terms = model.log_density_terms(order, e.values[order])
    a, b = list(a), list(b)
    base = np.log(model.priors)
    scores, start = [], 0
    for g in groups:
        delta = terms[:, start:start + len(g)].sum(axis=1)
        scores.append(mixture_log_ratio(base[a], delta[a])
                      - mixture_log_ratio(base[b], delta[b]))
        base = base + delta
        start += len(g)
    return scores


def woe(entailed, contrast, evidence, model: DensityBackend) -> float:
    """woe(A/B : e) over all observed coordinates of the evidence."""
    a, b = _checked_pair(entailed, contrast, model)
    e = _checked_evidence(evidence, model)
    return _chain(a, b, [e.observed_indices], e, model)[0]


def woe_conditional(
    entailed,
    contrast,
    target: Sequence[int],
    prefix: Sequence[int],
    evidence,
    model: DensityBackend,
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
    model: DensityBackend,
) -> np.ndarray:
    """woe_conditional for every target against one shared prefix.

    Targets of one length are checked together and share a stacked call
    of the density primitive, one order (prefix then target) per row, in
    chunks of at most BATCH_ELEMENTS covariance entries, so a search
    scores all its candidates at once. Returns the scores in target
    order.
    """
    a, b = _checked_pair(entailed, contrast, model)
    e = _checked_evidence(evidence, model)
    p_idx = _checked_prefix(prefix, e)
    a, b = list(a), list(b)
    log_prior = np.log(model.priors)[:, None]
    by_length: dict[int, list[int]] = {}
    try:
        for j, t in enumerate(targets):
            by_length.setdefault(len(t), []).append(j)
        stacks = [(rows, np.array([p_idx + tuple(targets[j]) for j in rows])
                   .reshape(len(rows), len(p_idx) + length))
                  for length, rows in sorted(by_length.items())]
    except (TypeError, ValueError) as exc:
        raise InvalidPartitionError("each target must be a sequence of integer indices") from exc
    scores = np.empty(len(targets))
    for rows, orders in stacks:
        m = orders.shape[1]
        _checked_targets(orders[:, len(p_idx):], p_idx, e)
        step = max(1, BATCH_ELEMENTS // (model.n_classes * m * m))
        for start in range(0, len(rows), step):
            chunk = orders[start:start + step]
            terms = model.log_density_terms(chunk, e.values[chunk])
            base = log_prior + terms[:, :, :len(p_idx)].sum(axis=2)
            delta = terms[:, :, len(p_idx):].sum(axis=2)
            scores[rows[start:start + step]] = (mixture_log_ratio(base[a].T, delta[a].T)
                                                - mixture_log_ratio(base[b].T, delta[b].T))
    return scores


def woe_chain(
    entailed,
    contrast,
    ordering: Sequence[Sequence[int]],
    evidence,
    model: DensityBackend,
) -> list[float]:
    """Per-attribute conditional WoE along an ordered partition.

    The ordering must partition the observed coordinates of the evidence.
    The scores sum to woe(entailed, contrast, evidence, model) regardless
    of the order; individual terms do depend on it.
    """
    a, b = _checked_pair(entailed, contrast, model)
    e = _checked_evidence(evidence, model)
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
    return _chain(a, b, groups, e, model)


def prior_log_odds(entailed, contrast, model: DensityBackend) -> float:
    """log P(Y in A) - log P(Y in B) from the model priors alone."""
    a, b = _checked_pair(entailed, contrast, model)
    pa = float(np.sum(model.priors[list(a)]))
    pb = float(np.sum(model.priors[list(b)]))
    if pa <= 0.0 or pb <= 0.0:
        raise DegeneratePriorError("a hypothesis set has zero prior mass")
    return math.log(pa) - math.log(pb)


def posterior_log_odds(entailed, contrast, evidence, model: DensityBackend) -> float:
    """log P(Y in A | e) - log P(Y in B | e), straight from Bayes rule.

    Each side is the log share of A u B's posterior mass held by A (or
    B), read off the per-class joint scores log P(c) + log P(e | c) with
    mixture_log_ratio: a delta of 0 on the side's classes and -inf on the
    other's. woe is not involved, so the decomposition identity below
    checks the mixture bookkeeping.
    """
    a, b = _checked_pair(entailed, contrast, model)
    e = _checked_evidence(evidence, model)
    idx = list(e.observed_indices)
    both = list(a) + list(b)
    terms = model.log_density_terms(idx, e.values[idx])[both]
    joint = np.log(model.priors[both]) + terms.sum(axis=1)
    in_a = np.arange(len(both)) < len(a)
    return (mixture_log_ratio(joint, np.where(in_a, 0.0, -np.inf))
            - mixture_log_ratio(joint, np.where(in_a, -np.inf, 0.0)))


def bayes_decomposition(
    entailed, contrast, evidence, model: DensityBackend
) -> tuple[float, float, float]:
    """(prior_log_odds, total_woe, posterior_log_odds) for A vs B given e.

    The three satisfy posterior = prior + woe; prior odds come from the
    model priors and posterior odds from an independent Bayes-rule path.
    """
    prior = prior_log_odds(entailed, contrast, model)
    total = woe(entailed, contrast, evidence, model)
    post = posterior_log_odds(entailed, contrast, evidence, model)
    return prior, total, post


def information_value(feature: int, class_a: int, class_b: int,
                      model: DensityBackend) -> float:
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
