"""Sequential contrastive explanations.

explain() runs the full loop: predict a class, pick the best entailed
set against the remaining alternatives, score attributes for that
contrast, emit a step, and shrink the remaining class set until only
the prediction is left. Every non-predicted class lands in exactly one
step's contrast set, so the steps read as a nested sequence of
"why this class rather than those".

It runs in three phases that share one per-input state:

1. The input's per-class log density terms along the full order are
   computed once, by gaussian's one reader of J (_order_terms), with no
   public re-check (in full mode they are read from the input's root
   state, the model itself, which phase 3 then carries on from). Their
   row sums are the per-class joints J from which the predicted class,
   every step's contrast search and every step's Bayes decomposition
   are read.
2. The contrast chain runs to the end: each step's split needs only J.
3. Attributes are scored for all splits at once. Each step's attribute
   search (greedy group discovery, then greedy max-|woe| ordering or
   marginal scoring) is a generator that asks for (prefix, targets)
   scores; the searches advance in lockstep, and each round's requests
   go to one stacked scoring call that deduplicates orders across
   steps. A split's marginal (empty-prefix) scores do not depend on
   the groups picked before, so each is requested once per split: a
   scan asks for its candidates in one round and picks every later
   group from their scores, and marginal scoring and a greedy
   ordering's first round read the discovered groups' scores. With a
   full covariance, every score is read from a prefix's state, and a
   greedy ordering's prefix is carried from round to round: the
   lockstep keeps a memo of the root and of each live prefix's
   conditioned covariance and residual, and a round's prefix, the last
   one plus the picked group, is that state conditioned on the group,
   not a new factorization. The memo holds only the root and the states
   the next round extends. Fixed and random orderings then score every step's
   chain from one stacked density call over their distinct orders, off
   the same root, and one stacked mixture reduction per side size.

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
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path

import numpy as np

from .contrast import ContrastParams, _best_contrast
from .core import (
    _chains,
    _checked_count,
    _checked_observed,
    _checked_pair,
    _bayes_joints,
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
from .gaussian import (
    _UNDEFINED,
    GaussianClassModel,
    _checked_evidence,
    _defined,
    _order_terms,
    _posterior,
)
from .types import AttributePartition, Evidence, HypothesisSet

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
        except (TypeError, ValueError, OverflowError):
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
    """WoE of one feature group for one entailed/contrast split.

    displayed marks |woe| >= the display threshold it was scored with.
    """

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
    def total_woe(self) -> float:
        return float(sum(a.woe for a in self.attributes))


@dataclass(frozen=True)
class ExplanationReport:
    """Every step of one explanation run plus the settings that shaped it."""

    predicted_class: int
    steps: tuple[ExplanationStep, ...]
    settings: dict


def _checked_best(keys: np.ndarray) -> int:
    """first_max over a search's keys; a search with no comparable key fails.

    Where a key is NaN the error also says why a score is undefined.
    """
    best = first_max(keys)
    if best is None:
        cause = f": {_UNDEFINED}" if np.isnan(keys).any() else ""
        raise DegenerateDensityError(f"every candidate attribute scored NaN or -inf{cause}")
    return best


def _marginal(known: dict, targets: list):
    """The split's marginal woe of each target, as a search step.

    known maps targets to the empty-prefix scores this split has
    received. Only targets not in it are asked for, with one ((), new)
    request, and none when all are known: a split's marginal score does
    not depend on the groups picked before it, so a repeated request
    would return the same number. When nothing is known, as in a fixed
    partition's first round, the scores come back as received.
    """
    new = [t for t in targets if t not in known]
    if new:
        found = yield (), new
        known.update(zip(new, found.tolist()))
        if len(new) == len(targets):
            return found
    return np.array([known[t] for t in targets])


def _discover_groups(remaining: list[int], size: int, known: dict):
    """One split's greedy group discovery, as a search of repeated marginal-WoE argmax.

    While more than `size` features remain, pick the size-`size` subset
    with the largest marginal WoE for the split (exhaustive scan when
    the candidate count is small enough, otherwise grown one feature at
    a time), remove it, repeat. Whatever remains becomes one final
    residual group so the groups always partition the features.

    Each split's marginal scores are requested once (_marginal): a scan
    asks for its candidates once and picks every later group from those
    scores; a grown group asks only for sets not scored yet. The groups
    are the return value.
    """
    groups: list[tuple[int, ...]] = []
    while len(remaining) > size:
        if math.comb(len(remaining), size) <= MAX_SUBSET_SCAN:
            candidates = list(combinations(remaining, size))
            best = candidates[_checked_best((yield from _marginal(known, candidates)))]
        else:
            # grow the group one feature at a time
            best = ()
            for _ in range(size):
                candidates = [tuple(sorted(best + (f,))) for f in remaining if f not in best]
                best = candidates[_checked_best((yield from _marginal(known, candidates)))]
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
    Every marginal score the search needs (discovery's candidates,
    marginal scoring's groups, a greedy ordering's first round) is
    requested once per split, so discovered groups are not asked for
    again.
    """
    known: dict = {}
    if params.partition is not None:
        groups = params.partition.groups
    else:
        groups = yield from _discover_groups(observed, params.attribute_size, known)
    if params.scoring_mode == MARGINAL:
        return groups, range(len(groups)), (yield from _marginal(known, groups))
    if params.ordering_policy == FIXED:
        return groups, range(len(groups)), None
    if params.ordering_policy == RANDOM:
        rng = np.random.default_rng(params.ordering_seed)
        return groups, [int(k) for k in rng.permutation(len(groups))], None
    order, scores = [], []
    prefix: tuple[int, ...] = ()
    left = list(range(len(groups)))
    while left:
        targets = [groups[k] for k in left]
        if prefix:
            found = yield prefix, targets
        else:
            found = yield from _marginal(known, targets)
        best = _checked_best(np.abs(found))
        order.append(left.pop(best))
        scores.append(found[best])
        prefix += groups[order[-1]]
    return groups, order, scores


def _lockstep(searches: list, splits: list, e: Evidence, model: GaussianClassModel,
              memo: dict) -> list:
    """Run every split's search to its end, all advancing together.

    Each round gathers the (prefix, targets) request of every live search
    and scores them all in one _stacked_woe call. memo holds the carried
    prefix states (_stacked_woe): each round leaves in it the root and
    the states of its own prefixes, which the next round's prefixes
    extend.
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
                             e, model, memo)
        for (s, _), scores in zip(asked, found):
            advance(s, scores)
    return results


def _check_attribute_source(params: ExplainerParams, e: Evidence,
                            model: GaussianClassModel) -> None:
    """Check the attribute source against the model and the checked evidence.

    A partition must cover the model's features, every one of them
    observed, so that its groups partition the observed coordinates.
    """
    if params.partition is not None:
        if params.partition.n_features != model.n_features:
            raise InvalidPartitionError(
                f"partition covers {params.partition.n_features} features, "
                f"model has {model.n_features}"
            )
        _checked_observed(np.concatenate(params.partition.groups), e, "partition")
    elif params.attribute_size > len(e.observed_indices):
        raise InvalidParameterError(
            f"attribute_size {params.attribute_size} exceeds the "
            f"{len(e.observed_indices)} observed features"
        )


def _score_splits(splits: list, e: Evidence, model: GaussianClassModel,
                  params: ExplainerParams, memo: dict) -> list:
    """Attribute scores of every (a, b) split, given as label lists.

    Every split's search runs in lockstep (see _lockstep), then the
    fixed or random chains of all splits are scored together; an
    undefined chain term raises DegenerateDensityError, as in woe_chain.
    Each score is displayed where its |woe| reaches
    params.display_threshold. memo holds e's prefix states, its root
    included or not yet built.
    """
    observed = list(e.observed_indices)
    found = _lockstep([_attribute_search(params, observed) for _ in splits], splits, e, model,
                      memo)
    chained = [k for k, (_, _, scores) in enumerate(found) if scores is None]
    chains = _chains([(*splits[k], [found[k][0][g] for g in found[k][1]]) for k in chained],
                     e.values[None], model, memo)
    for k, scores in zip(chained, chains):
        found[k] = (*found[k][:2], _defined(scores))
    conditional = params.scoring_mode != MARGINAL
    names = params.partition.names if params.partition is not None else None
    return [tuple(
        AttributeScore(features=groups[k], woe=woe, conditional=conditional,
                       name=names[k] if names else None,
                       displayed=abs(woe) >= params.display_threshold)
        for k, woe in zip(order, map(float, scores))
    ) for groups, order, scores in found]


def score_attributes(entailed, contrast, evidence, model: GaussianClassModel,
                     params: ExplainerParams) -> tuple[AttributeScore, ...]:
    """Per-attribute WoE scores for one entailed/contrast split.

    With a fixed partition the groups are given; with greedy groups they
    are discovered against this split. conditional_chain orders the
    groups by ordering_policy and scores each conditioned on its
    predecessors; marginal keeps the given order and scores each group
    alone. Attributes with |woe| >= display_threshold are displayed.
    The one-split case of the search explain() runs for all its steps
    at once.
    """
    a, b = _checked_pair(entailed, contrast, model)
    e = _checked_evidence(evidence, model)
    _check_attribute_source(params, e, model)
    return _score_splits([(list(a), list(b))], e, model, params, {})[0]


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

    # phase 1: one factorization of the full order, read from the root every later phase reads
    memo: dict = {}
    terms = _order_terms(e.observed_indices, e.values[None], model, memo)[:, 0]
    joint, log_prior = terms.sum(axis=1), np.log(model.priors)
    c_star = int(np.argmax(_posterior(model.priors, joint)))

    # phase 2: the contrast chain and each split's Bayes decomposition
    splits: list[tuple[HypothesisSet, HypothesisSet, float]] = []
    remaining = HypothesisSet(tuple(range(model.n_classes)))
    while len(remaining) > 1:
        entailed = _best_contrast(remaining, c_star, joint, log_prior, params.contrast)
        contrast = remaining.difference(entailed)
        splits.append((entailed, contrast,
                       _prior_log_odds(list(entailed), list(contrast), model.priors)))
        remaining = entailed
    sides = [(list(u), list(c)) for u, c, _ in splits]
    posterior_lo = _posterior_log_odds(sides, np.tile(_bayes_joints(terms), (len(sides), 1)),
                                       model.priors).tolist()

    # phase 3: every split's attributes at once
    attributes = _score_splits(sides, e, model, params, memo)
    steps = tuple(
        ExplanationStep(
            entailed=entailed,
            contrast=contrast,
            prior_log_odds=prior_lo,
            posterior_log_odds=post_lo,
            scoring_mode=params.scoring_mode,
            attributes=attrs,
        )
        for (entailed, contrast, prior_lo), post_lo, attrs in zip(splits, posterior_lo,
                                                                  attributes)
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
