"""Entailed-versus-contrast split search.

Each explanation round keeps an entailed set U containing the predicted
class and rules out the rest, V minus U. U is chosen to maximize

    woe(U / V\\U : x) - R(U),    R(U) = alpha_reg * (|U| - |V|/2)^2

where R penalizes lopsided splits. Up to max_exhaustive_classes the
argmax is exact over all proper subsets containing the predicted class;
past the cap a deterministic greedy heuristic grows U one class at a
time. Ties break toward smaller U, then the lexicographically smallest
label list, so results are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .core import _checked_evidence, woe
from .errors import (
    EmptyContrastError,
    InvalidHypothesisError,
    InvalidParameterError,
)
from .gaussian import DensityBackend, mixture_log_ratio
from .types import HypothesisSet, as_hypothesis


@dataclass(frozen=True)
class ContrastParams:
    """Knobs for the split search."""

    alpha_reg: float = 0.1
    max_exhaustive_classes: int = 12

    def __post_init__(self):
        alpha = float(self.alpha_reg)
        if not (math.isfinite(alpha) and alpha >= 0.0):
            raise InvalidParameterError(f"alpha_reg must be >= 0, got {self.alpha_reg!r}")
        cap = self.max_exhaustive_classes
        if int(cap) != cap or cap < 2:
            raise InvalidParameterError(
                f"max_exhaustive_classes must be an integer >= 2, got {cap!r}"
            )
        object.__setattr__(self, "alpha_reg", alpha)
        object.__setattr__(self, "max_exhaustive_classes", int(cap))


def _penalty(size_u: int, size_v: int, alpha: float) -> float:
    return alpha * (size_u - size_v / 2.0) ** 2


def regularizer(entailed, full_set, alpha_reg: float) -> float:
    """R(U) = alpha_reg * (|U| - |V|/2)^2, zero at an even split."""
    u = as_hypothesis(entailed)
    v = as_hypothesis(full_set)
    if not u.issubset(v):
        raise InvalidHypothesisError("entailed set must be a subset of the class universe")
    return _penalty(len(u), len(v), float(alpha_reg))


def score_subset(entailed, full_set, evidence, model: DensityBackend,
                 params: ContrastParams) -> float:
    """Objective value of one candidate split: woe(U/V\\U : x) - R(U)."""
    u = as_hypothesis(entailed)
    v = as_hypothesis(full_set)
    if not u.issubset(v):
        raise InvalidHypothesisError("entailed set must be a subset of the class universe")
    if len(u) == len(v):
        raise EmptyContrastError("entailed set equals the class universe, contrast is empty")
    rest = v.difference(u)
    return woe(u, rest, evidence, model) - regularizer(u, v, params.alpha_reg)


def best_contrast(full_set, c_star: int, evidence, model: DensityBackend,
                  params: ContrastParams) -> HypothesisSet:
    """The subset U of V maximizing the regularized WoE objective.

    Always contains c_star and is always a proper subset of V. Within
    the exhaustive regime the result is the exact argmax; candidates are
    visited smallest-first in lexicographic order and only a strictly
    better score replaces the incumbent, which realizes the tie-break.
    """
    v = as_hypothesis(full_set).check_against(model.n_classes)
    c = int(c_star)
    if c not in v:
        raise InvalidHypothesisError(f"predicted class {c} is not in the class universe")
    if len(v) < 2:
        raise EmptyContrastError("need at least two classes to form a contrast")
    e = _checked_evidence(evidence, model)

    # every candidate reuses the same per-class joint log likelihoods
    idx = list(e.observed_indices)
    joint = model.log_density_terms(idx, e.values[idx]).sum(axis=1)
    log_prior = np.log(model.priors)

    def objective(u_labels: tuple[int, ...]) -> float:
        u = list(u_labels)
        rest = [cl for cl in v if cl not in u_labels]
        return (mixture_log_ratio(log_prior[u], joint[u])
                - mixture_log_ratio(log_prior[rest], joint[rest])
                - _penalty(len(u_labels), len(v), params.alpha_reg))

    if len(v) <= params.max_exhaustive_classes:
        others = [cl for cl in v if cl != c]
        best_labels: tuple[int, ...] | None = None
        best_score = -math.inf
        for size in range(1, len(v)):
            candidates = sorted(
                tuple(sorted((c, *combo))) for combo in combinations(others, size - 1)
            )
            for cand in candidates:
                s = objective(cand)
                if s > best_score:
                    best_labels, best_score = cand, s
        assert best_labels is not None
        return HypothesisSet(best_labels)

    # greedy regime: grow U while an addition strictly improves the score
    u = [c]
    current = objective((c,))
    while len(u) < len(v) - 1:
        best_add: int | None = None
        best_score = current
        for cl in v:
            if cl in u:
                continue
            s = objective(tuple(sorted(u + [cl])))
            if s > best_score:
                best_add, best_score = cl, s
        if best_add is None:
            break
        u.append(best_add)
        current = best_score
    return HypothesisSet(tuple(u))
