"""Entailed-versus-contrast split search.

Each explanation round keeps an entailed set U containing the predicted
class and rules out the rest, V minus U. U is chosen to maximize

    woe(U / V\\U : x) - R(U),    R(U) = alpha_reg * (|U| - |V|/2)^2

where R penalizes lopsided splits. Up to max_exhaustive_classes the
argmax is exact over all proper subsets containing the predicted class;
past the cap a deterministic greedy heuristic grows U one class at a
time. Ties break toward smaller U, then the lexicographically smallest
label list, so results are reproducible.

Candidates are scored together, not one call each. The per-class joint
log likelihoods are computed once; each size's candidates become rows
of gathered (log prior, joint) arrays for U and for the rest, taken from
membership tables cached per |V|, and mixture_log_ratio reduces every
row at once. The arithmetic per row is that of score_subset's route, so
the batched search returns the argmax a one-candidate-at-a-time loop
returns, bit for bit; validate.py keeps such a loop as the independent
check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .core import _checked_evidence, first_max, woe
from .errors import (
    DegenerateDensityError,
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


@lru_cache(maxsize=16)
def _subset_rows(n: int) -> tuple[np.ndarray, ...]:
    """Membership rows of every nonempty proper subset of n positions.

    One read-only (C(n, s), n) boolean array per size s = 1..n-1, rows in
    lexicographic order of the position tuples. Keyed by n alone: the
    rows holding a given position keep that order.
    """
    tables = []
    for size in range(1, n):
        combos = np.array(list(combinations(range(n), size)), dtype=np.intp)
        member = np.zeros((len(combos), n), dtype=bool)
        np.put_along_axis(member, combos, True, axis=1)
        member.setflags(write=False)
        tables.append(member)
    return tuple(tables)


def _split_scores(member: np.ndarray, labels: np.ndarray, log_prior: np.ndarray,
                  joint: np.ndarray, alpha: float) -> np.ndarray:
    """Objective of each split given as a membership row over `labels`.

    Every row holds the same number of members. Both sides keep label
    order, so each score equals the scalar objective bit for bit.
    """
    rows, n = member.shape
    size = int(member[0].sum())
    grid = np.broadcast_to(labels, member.shape)
    u = grid[member].reshape(rows, size)
    rest = grid[~member].reshape(rows, n - size)
    return (mixture_log_ratio(log_prior[u], joint[u])
            - mixture_log_ratio(log_prior[rest], joint[rest])
            - _penalty(size, n, alpha))


def best_contrast(full_set, c_star: int, evidence, model: DensityBackend,
                  params: ContrastParams) -> HypothesisSet:
    """The subset U of V maximizing the regularized WoE objective.

    Always contains c_star and is always a proper subset of V. Within
    the exhaustive regime the result is the exact argmax: every
    candidate is scored in one batched evaluation per size, and the
    first maximum in (size, lexicographic) order wins, which realizes
    the tie-break. The greedy regime scores every addition of a growth
    step the same way.
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
    labels = np.array(v.classes)
    own = labels == c

    def scores(member: np.ndarray) -> np.ndarray:
        return _split_scores(member, labels, log_prior, joint, params.alpha_reg)

    if len(v) <= params.max_exhaustive_classes:
        tables = [t[t[:, v.classes.index(c)]] for t in _subset_rows(len(v))]
        best = first_max(np.concatenate([scores(t) for t in tables]))
        if best is None:
            raise DegenerateDensityError("no candidate split has a comparable score")
        return HypothesisSet(tuple(labels[np.concatenate(tables)[best]]))

    # greedy regime: grow U while an addition strictly improves the score
    member = own
    current = scores(member[None])[0]
    while member.sum() < len(v) - 1:
        adds = np.flatnonzero(~member)
        grown = np.repeat(member[None], len(adds), axis=0)
        grown[np.arange(len(adds)), adds] = True
        found = scores(grown)
        best = first_max(found, current)
        if best is None:
            break
        member, current = grown[best], found[best]
    return HypothesisSet(tuple(labels[member]))
