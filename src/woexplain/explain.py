"""Sequential contrastive explanations.

explain() runs the full loop: predict a class, pick the best entailed
set against the remaining alternatives, score attributes for that
contrast, emit a step, and shrink the remaining class set until only
the prediction is left. Every non-predicted class lands in exactly one
step's contrast set, so the steps read as a nested sequence of
"why this class rather than those".

It runs in three phases that share one per-input state:

1. The full-order log_density_terms of the input are computed once.
   Their row sums are the per-class joints J from which the predicted
   class, every step's contrast search and every step's Bayes
   decomposition are read.
2. The contrast chain runs to the end: each step's split needs only J.
3. Attributes are scored for all splits at once. Each step's attribute
   search (greedy group discovery, then greedy max-|woe| ordering or
   marginal scoring) is a generator that asks for (prefix, targets)
   scores; the searches advance in lockstep, and each round's requests
   go to one stacked scoring call that deduplicates orders across
   steps. Fixed and random orderings then score every step's chain from
   one stacked density call over their distinct orders.

Every score keeps the arithmetic of a lone call, so a report does not
depend on how its steps were stacked.

Attribute scores come in two modes. conditional_chain scores each
attribute conditioned on the ones already scored, so the scores plus
the prior log-odds sum exactly to the posterior log-odds. marginal
scores each attribute on its own, matching the greedy inner loop that
discovers groups, and carries no sum identity.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from itertools import combinations
from pathlib import Path

import numpy as np

from .contrast import ContrastParams, _best_contrast
from .core import (
    _chains,
    _checked_count,
    _checked_evidence,
    _checked_ordering,
    _checked_pair,
    _observed_terms,
    _posterior_log_odds,
    _prior_log_odds,
    _stacked_woe,
    first_max,
)
from .errors import (
    DegenerateDensityError,
    InvalidParameterError,
    InvalidPartitionError,
    MissingEvidenceError,
    NothingToExplainError,
)
from .gaussian import GaussianClassModel, _posterior
from .types import (
    AttributePartition,
    Evidence,
    HypothesisSet,
    as_evidence,
)

REPORT_FORMAT_VERSION = 2

CONDITIONAL_CHAIN = "conditional_chain"
MARGINAL = "marginal"

GREEDY_MAX_WOE = "greedy_max_woe"
FIXED = "fixed"
RANDOM = "random"

# exhaustive subset scan is affordable up to this many candidate groups
MAX_SUBSET_SCAN = 10_000


@dataclass(frozen=True)
class ExplainerParams:
    """Configuration for explain() and score_attributes().

    Exactly one attribute source must be set: a fixed partition of the
    features, or greedy discovery of groups of attribute_size features.
    """

    partition: AttributePartition | None = None
    attribute_size: int | None = None
    scoring_mode: str = CONDITIONAL_CHAIN
    display_threshold: float = 2.0
    ordering_policy: str = GREEDY_MAX_WOE
    ordering_seed: int = 0
    contrast: ContrastParams = field(default_factory=ContrastParams)

    def __post_init__(self):
        if (self.partition is None) == (self.attribute_size is None):
            raise InvalidParameterError(
                "set exactly one attribute source: partition or attribute_size"
            )
        if self.attribute_size is not None:
            object.__setattr__(self, "attribute_size",
                               _checked_count(self.attribute_size, "attribute_size", 1))
        if self.scoring_mode not in (CONDITIONAL_CHAIN, MARGINAL):
            raise InvalidParameterError(f"unknown scoring_mode {self.scoring_mode!r}")
        try:
            threshold = float(self.display_threshold)
        except (TypeError, ValueError):
            threshold = math.nan
        if not threshold >= 0.0:
            raise InvalidParameterError(
                f"display_threshold must be >= 0, got {self.display_threshold!r}"
            )
        if self.ordering_policy not in (GREEDY_MAX_WOE, FIXED, RANDOM):
            raise InvalidParameterError(f"unknown ordering_policy {self.ordering_policy!r}")
        object.__setattr__(self, "display_threshold", threshold)
        object.__setattr__(self, "ordering_seed",
                           _checked_count(self.ordering_seed, "ordering_seed", 0))


@dataclass(frozen=True)
class AttributeScore:
    """WoE of one feature group for one entailed/contrast split."""

    features: tuple[int, ...]
    woe: float
    conditional: bool
    name: str | None = None
    displayed: bool = True


@dataclass(frozen=True)
class ExplanationStep:
    """One round: entailed set U versus contrast set, with attribute scores.

    posterior_log_odds is the full-evidence log-odds of U against the
    contrast (Algorithm-style lod(U)); prior_log_odds the same before
    evidence. In conditional mode prior_log_odds plus the attribute
    scores reproduces posterior_log_odds.
    """

    entailed: HypothesisSet
    contrast: HypothesisSet
    prior_log_odds: float
    posterior_log_odds: float
    scoring_mode: str
    attributes: tuple[AttributeScore, ...]

    @property
    def displayed_mask(self) -> tuple[bool, ...]:
        return tuple(a.displayed for a in self.attributes)

    @property
    def total_woe(self) -> float:
        return float(sum(a.woe for a in self.attributes))


@dataclass(frozen=True)
class ExplanationReport:
    """Every step of one explanation run plus the settings that shaped it."""

    predicted_class: int
    steps: tuple[ExplanationStep, ...]
    settings: dict


def _checked_best(keys: np.ndarray) -> int:
    """first_max over a search's keys; a search with no comparable key fails."""
    best = first_max(keys)
    if best is None:
        raise DegenerateDensityError("every candidate attribute scored NaN or -inf")
    return best


def _discover_groups(remaining: list[int], size: int):
    """One split's greedy group discovery, as a search of repeated marginal-WoE argmax.

    While more than `size` features remain, pick the size-`size` subset
    with the largest marginal WoE for the split (exhaustive scan when
    the candidate count is small enough, otherwise grown one feature at
    a time), remove it, repeat. Whatever remains becomes one final
    residual group so the groups always partition the features.

    Each pick yields a (prefix, candidates) request and receives the
    candidates' scores; the groups are the return value.
    """
    groups: list[tuple[int, ...]] = []
    while len(remaining) > size:
        if math.comb(len(remaining), size) <= MAX_SUBSET_SCAN:
            candidates = list(combinations(remaining, size))
            best = candidates[_checked_best((yield (), candidates))]
        else:
            # grow the group one feature at a time
            best = ()
            for _ in range(size):
                candidates = [tuple(sorted(best + (f,))) for f in remaining if f not in best]
                best = candidates[_checked_best((yield (), candidates))]
        groups.append(best)
        remaining = [f for f in remaining if f not in best]
    if remaining:
        groups.append(tuple(remaining))
    return tuple(groups)


def _attribute_search(params: ExplainerParams, observed: list[int]):
    """One split's attribute search: (groups, order, scores) as a generator.

    Greedy orderings pick, round by round, the group with the largest
    |conditional woe| given the groups already picked. Fixed and random
    orderings leave scores as None: their chains are scored afterwards.
    """
    if params.partition is not None:
        groups = params.partition.groups
    else:
        groups = yield from _discover_groups(observed, params.attribute_size)
    if params.scoring_mode == MARGINAL:
        return groups, range(len(groups)), (yield (), groups)
    if params.ordering_policy == FIXED:
        return groups, range(len(groups)), None
    if params.ordering_policy == RANDOM:
        rng = np.random.default_rng(params.ordering_seed)
        return groups, [int(k) for k in rng.permutation(len(groups))], None
    order, scores = [], []
    prefix: tuple[int, ...] = ()
    left = list(range(len(groups)))
    while left:
        found = yield prefix, [groups[k] for k in left]
        best = _checked_best(np.abs(found))
        order.append(left.pop(best))
        scores.append(found[best])
        prefix += groups[order[-1]]
    return groups, order, scores


def _lockstep(searches: list, splits: list, e: Evidence, model: GaussianClassModel) -> list:
    """Run every split's search to its end, all advancing together.

    Each round gathers the (prefix, targets) request of every live search
    and scores them all in one _stacked_woe call.
    """
    results: list = [None] * len(searches)
    live: dict[int, tuple] = {}

    def advance(s: int, sent) -> None:
        try:
            live[s] = searches[s].send(sent)
        except StopIteration as stop:
            live.pop(s, None)
            results[s] = stop.value

    for s in range(len(searches)):
        advance(s, None)
    while live:
        asked = list(live.items())
        found = _stacked_woe([(*splits[s], prefix, targets) for s, (prefix, targets) in asked],
                             e, model)
        for (s, _), scores in zip(asked, found):
            advance(s, scores)
    return results


def _check_attribute_source(params: ExplainerParams, e: Evidence,
                            model: GaussianClassModel) -> None:
    if params.partition is not None:
        if params.partition.n_features != model.n_features:
            raise InvalidPartitionError(
                f"partition covers {params.partition.n_features} features, "
                f"model has {model.n_features}"
            )
    elif params.attribute_size > len(e.observed_indices):
        raise InvalidParameterError(
            f"attribute_size {params.attribute_size} exceeds the "
            f"{len(e.observed_indices)} observed features"
        )


def _score_splits(splits: list, e: Evidence, model: GaussianClassModel,
                  params: ExplainerParams) -> list:
    """Attribute scores of every (a, b) split, given as label lists.

    Every split's search runs in lockstep (see _lockstep), then the
    fixed or random chains of all splits are scored together.
    """
    observed = list(e.observed_indices)
    found = _lockstep([_attribute_search(params, observed) for _ in splits], splits, e, model)
    chained = [k for k, (_, _, scores) in enumerate(found) if scores is None]
    orderings = [_checked_ordering([found[k][0][g] for g in found[k][1]], e) for k in chained]
    chains = _chains([(*splits[k], o) for k, o in zip(chained, orderings)], e, model)
    for k, scores in zip(chained, chains):
        found[k] = (*found[k][:2], scores)
    conditional = params.scoring_mode != MARGINAL
    names = params.partition.names if params.partition is not None else None
    return [tuple(
        AttributeScore(features=groups[k], woe=float(s), conditional=conditional,
                       name=names[k] if names else None)
        for k, s in zip(order, scores)
    ) for groups, order, scores in found]


def score_attributes(entailed, contrast, evidence, model: GaussianClassModel,
                     params: ExplainerParams) -> tuple[AttributeScore, ...]:
    """Per-attribute WoE scores for one entailed/contrast split.

    With a fixed partition the groups are given; with greedy groups they
    are discovered against this split. conditional_chain orders the
    groups by ordering_policy and scores each conditioned on its
    predecessors; marginal keeps the given order and scores each group
    alone. The one-split case of the search explain() runs for all its
    steps at once.
    """
    a, b = _checked_pair(entailed, contrast, model)
    e = as_evidence(evidence)
    _check_attribute_source(params, e, model)
    return _score_splits([(list(a), list(b))], _checked_evidence(e, model), model, params)[0]


def filter_display(step: ExplanationStep, threshold: float) -> ExplanationStep:
    """Mark attributes with |woe| >= threshold as displayed.

    A pure view: every numeric field is preserved, only the flags move.
    """
    attrs = tuple(replace(a, displayed=abs(a.woe) >= threshold) for a in step.attributes)
    return replace(step, attributes=attrs)


def _settings_record(params: ExplainerParams) -> dict:
    if params.partition is not None:
        source: dict = {
            "type": "fixed_partition",
            "groups": [list(g) for g in params.partition.groups],
        }
        if params.partition.names is not None:
            source["names"] = list(params.partition.names)
    else:
        source = {"type": "greedy_groups", "attribute_size": params.attribute_size}
    return {
        "attribute_source": source,
        "scoring_mode": params.scoring_mode,
        "display_threshold": params.display_threshold,
        "ordering_policy": params.ordering_policy,
        "ordering_seed": params.ordering_seed,
        "alpha_reg": params.contrast.alpha_reg,
        "max_exhaustive_classes": params.contrast.max_exhaustive_classes,
    }


def explain(evidence, model: GaussianClassModel, params: ExplainerParams) -> ExplanationReport:
    """Run the full sequential explanation for one input.

    Starting from all classes, repeatedly split the remaining set into
    the best entailed set (containing the prediction) and its contrast,
    score attributes for that split, and keep the entailed set for the
    next round. Stops when only the predicted class remains, after at
    most K - 1 steps. See the module docstring for the three phases.
    """
    e = _checked_evidence(evidence, model)
    if not e.fully_observed:
        missing = [i for i in range(e.n_features) if not e.observed_mask[i]]
        raise MissingEvidenceError(f"explain needs all features, missing {missing}")
    if model.n_classes < 2:
        raise NothingToExplainError("model has a single class, nothing to contrast")
    _check_attribute_source(params, e, model)

    # phase 1: one factorization of the full order
    terms = _observed_terms(e, model)
    c_star = int(np.argmax(_posterior(model.priors, terms)))
    joint, log_prior = terms.sum(axis=1), np.log(model.priors)

    # phase 2: the contrast chain and each split's Bayes decomposition
    splits: list[tuple[HypothesisSet, HypothesisSet, float, float]] = []
    remaining = HypothesisSet(tuple(range(model.n_classes)))
    while len(remaining) > 1:
        entailed = _best_contrast(remaining, c_star, joint, log_prior, params.contrast)
        contrast = remaining.difference(entailed)
        a, b = list(entailed), list(contrast)
        splits.append((entailed, contrast, _prior_log_odds(a, b, model.priors),
                       _posterior_log_odds(a, b, terms, model.priors)))
        remaining = entailed

    # phase 3: every split's attributes at once
    attributes = _score_splits([(list(u), list(c)) for u, c, _, _ in splits], e, model, params)
    steps = tuple(
        filter_display(ExplanationStep(
            entailed=entailed,
            contrast=contrast,
            prior_log_odds=prior_lo,
            posterior_log_odds=post_lo,
            scoring_mode=params.scoring_mode,
            attributes=attrs,
        ), params.display_threshold)
        for (entailed, contrast, prior_lo, post_lo), attrs in zip(splits, attributes)
    )
    return ExplanationReport(
        predicted_class=c_star,
        steps=steps,
        settings=_settings_record(params),
    )


def report_to_dict(report: ExplanationReport) -> dict:
    """Serializable form of a report; field order is fixed for stable files."""
    steps = []
    for step in report.steps:
        attrs = []
        for a in step.attributes:
            entry: dict = {"features": list(a.features)}
            if a.name is not None:
                entry["name"] = a.name
            entry["woe"] = a.woe
            entry["displayed"] = a.displayed
            attrs.append(entry)
        steps.append({
            "entailed": list(step.entailed),
            "contrast": list(step.contrast),
            "prior_log_odds": step.prior_log_odds,
            "posterior_log_odds": step.posterior_log_odds,
            "scoring_mode": step.scoring_mode,
            "attributes": attrs,
        })
    return {
        "version": REPORT_FORMAT_VERSION,
        "predicted_class": report.predicted_class,
        "settings": report.settings,
        "steps": steps,
    }


def write_report(report: ExplanationReport, path: "str | Path") -> None:
    """Write a report as JSON. Identical runs produce identical bytes."""
    text = json.dumps(report_to_dict(report), indent=2) + "\n"
    Path(path).write_text(text, encoding="utf-8")
