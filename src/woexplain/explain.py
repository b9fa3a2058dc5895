"""Sequential contrastive explanations.

explain() runs the full loop: predict a class, pick the best entailed
set against the remaining alternatives, score attributes for that
contrast, emit a step, and shrink the remaining class set until only
the prediction is left. Every non-predicted class lands in exactly one
step's contrast set, so the steps read as a nested sequence of
"why this class rather than those".

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

from .contrast import ContrastParams, best_contrast
from .core import (
    _checked_evidence,
    _checked_pair,
    bayes_decomposition,
    first_max,
    woe_chain,
    woe_conditional_many,
)
from .errors import (
    DegenerateDensityError,
    InvalidParameterError,
    InvalidPartitionError,
    MissingEvidenceError,
    NothingToExplainError,
)
from .gaussian import DensityBackend, predicted_class
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
            size = self.attribute_size
            if int(size) != size or size < 1:
                raise InvalidParameterError(
                    f"attribute_size must be an integer >= 1, got {size!r}"
                )
            object.__setattr__(self, "attribute_size", int(size))
        if self.scoring_mode not in (CONDITIONAL_CHAIN, MARGINAL):
            raise InvalidParameterError(f"unknown scoring_mode {self.scoring_mode!r}")
        if math.isnan(self.display_threshold) or self.display_threshold < 0.0:
            raise InvalidParameterError(
                f"display_threshold must be >= 0, got {self.display_threshold!r}"
            )
        if self.ordering_policy not in (GREEDY_MAX_WOE, FIXED, RANDOM):
            raise InvalidParameterError(f"unknown ordering_policy {self.ordering_policy!r}")
        object.__setattr__(self, "display_threshold", float(self.display_threshold))
        object.__setattr__(self, "ordering_seed", int(self.ordering_seed))


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


def _greedy_groups(entailed, contrast, e: Evidence, model: DensityBackend,
                   size: int) -> tuple[tuple[int, ...], ...]:
    """Discover feature groups by repeated marginal-WoE argmax.

    While more than `size` features remain, pick the size-`size` subset
    with the largest marginal WoE for the split (exhaustive scan when
    the candidate count is small enough, otherwise grown one feature at
    a time), remove it, repeat. Whatever remains becomes one final
    residual group so the groups always partition the features.
    """
    remaining = sorted(e.observed_indices)
    if size > len(remaining):
        raise InvalidParameterError(
            f"attribute_size {size} exceeds the {len(remaining)} observed features"
        )

    def pick(candidates: list[tuple[int, ...]]) -> tuple[int, ...]:
        scores = woe_conditional_many(entailed, contrast, candidates, (), e, model)
        return candidates[_checked_best(scores)]

    groups: list[tuple[int, ...]] = []
    while len(remaining) > size:
        if math.comb(len(remaining), size) <= MAX_SUBSET_SCAN:
            best = pick(list(combinations(remaining, size)))
        else:
            # grow the group one feature at a time
            grown: tuple[int, ...] = ()
            for _ in range(size):
                grown = pick([tuple(sorted(grown + (f,))) for f in remaining
                              if f not in grown])
            best = grown
        groups.append(best)
        remaining = [f for f in remaining if f not in best]
    if remaining:
        groups.append(tuple(remaining))
    return tuple(groups)


def score_attributes(entailed, contrast, evidence, model: DensityBackend,
                     params: ExplainerParams) -> tuple[AttributeScore, ...]:
    """Per-attribute WoE scores for one entailed/contrast split.

    With a fixed partition the groups are given; with greedy groups they
    are discovered against this split. conditional_chain orders the
    groups by ordering_policy and scores each conditioned on its
    predecessors; marginal keeps the given order and scores each group
    alone.
    """
    a, b = _checked_pair(entailed, contrast, model)
    e = as_evidence(evidence)

    if params.partition is not None:
        if params.partition.n_features != model.n_features:
            raise InvalidPartitionError(
                f"partition covers {params.partition.n_features} features, "
                f"model has {model.n_features}"
            )
        groups = params.partition.groups
        names: tuple[str | None, ...] = params.partition.names or (None,) * len(groups)
    else:
        groups = _greedy_groups(a, b, e, model, params.attribute_size)
        names = (None,) * len(groups)

    if params.scoring_mode == MARGINAL:
        order = list(range(len(groups)))
        scores = woe_conditional_many(a, b, groups, (), e, model)
        conditional = False
    else:
        conditional = True
        if params.ordering_policy == FIXED:
            order = list(range(len(groups)))
            scores = woe_chain(a, b, [groups[k] for k in order], e, model)
        elif params.ordering_policy == RANDOM:
            rng = np.random.default_rng(params.ordering_seed)
            order = [int(k) for k in rng.permutation(len(groups))]
            scores = woe_chain(a, b, [groups[k] for k in order], e, model)
        else:
            # greedy: next attribute is the one with largest |conditional woe|
            order, scores = [], []
            prefix: tuple[int, ...] = ()
            left = list(range(len(groups)))
            while left:
                found = woe_conditional_many(a, b, [groups[k] for k in left], prefix, e, model)
                best = _checked_best(np.abs(found))
                order.append(left.pop(best))
                scores.append(found[best])
                prefix += groups[order[-1]]

    return tuple(
        AttributeScore(
            features=groups[k],
            woe=float(s),
            conditional=conditional,
            name=names[k],
        )
        for k, s in zip(order, scores)
    )


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


def explain(evidence, model: DensityBackend, params: ExplainerParams) -> ExplanationReport:
    """Run the full sequential explanation for one input.

    Starting from all classes, repeatedly split the remaining set into
    the best entailed set (containing the prediction) and its contrast,
    score attributes for that split, and keep the entailed set for the
    next round. Stops when only the predicted class remains, after at
    most K - 1 steps.
    """
    e = _checked_evidence(evidence, model)
    if not e.fully_observed:
        missing = [i for i in range(e.n_features) if not e.observed_mask[i]]
        raise MissingEvidenceError(f"explain needs all features, missing {missing}")
    if model.n_classes < 2:
        raise NothingToExplainError("model has a single class, nothing to contrast")

    c_star = predicted_class(model, e)
    remaining = HypothesisSet(tuple(range(model.n_classes)))
    steps: list[ExplanationStep] = []
    while len(remaining) > 1:
        entailed = best_contrast(remaining, c_star, e, model, params.contrast)
        contrast = remaining.difference(entailed)
        prior_lo, _, post_lo = bayes_decomposition(entailed, contrast, e, model)
        attrs = score_attributes(entailed, contrast, e, model, params)
        step = ExplanationStep(
            entailed=entailed,
            contrast=contrast,
            prior_log_odds=prior_lo,
            posterior_log_odds=post_lo,
            scoring_mode=params.scoring_mode,
            attributes=attrs,
        )
        steps.append(filter_display(step, params.display_threshold))
        remaining = entailed
    return ExplanationReport(
        predicted_class=c_star,
        steps=tuple(steps),
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
