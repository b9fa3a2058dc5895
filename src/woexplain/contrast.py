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
returns, bit for bit; validate.py keeps its own enumeration of every
candidate and a strictly-better scan in tie-break order as the
independent check.

The exhaustive search scores only the sizes that can win. With
a_c = log p_c + J_c and q_c = log p_c, woe(U / V\\U) is
lse_U(a) - lse_U(q) - lse_rest(a) + lse_rest(q), which rises with every
a in U and falls with every q in U. So for a size s, taking each term
at its own extreme over the classes other than c* bounds every split of
that size:

    bound(s) = lse(a_c*, s-1 largest other a) - lse(q_c*, s-1 smallest other q)
               - lse(|V|-s smallest other a) + lse(|V|-s largest other q)
               - alpha_reg * (s - |V|/2)^2

Sizes are scored in descending bound order, and a size is skipped when
its bound is below the best score so far by more than the rounding
slack PRUNE_SLACK * eps * (sum of |bound terms| + |best|). With -inf
densities the bound still holds, in the extended reals; a size with an
infinite term has an infinite slack and is never pruned. A skipped size
holds no split that ties or beats the best, so the first maximum over
the scored sizes, concatenated in size order, is the candidate the full
enumeration picks: the same (size, lexicographic) tie-break, bit for
bit.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .core import _checked_count, first_max, woe
from .errors import (
    DegenerateDensityError,
    EmptyContrastError,
    InvalidHypothesisError,
    InvalidParameterError,
)
from .gaussian import GaussianClassModel, _checked_evidence, _order_terms, mixture_log_ratio
from .types import HypothesisSet, as_hypothesis


@dataclass(frozen=True)
class ContrastParams:
    """Knobs for the split search."""

    alpha_reg: float = 0.1
    max_exhaustive_classes: int = 12

    def __post_init__(self):
        try:
            alpha = float(self.alpha_reg)
        except (TypeError, ValueError, OverflowError):
            alpha = math.nan
        if not (math.isfinite(alpha) and alpha >= 0.0):
            raise InvalidParameterError(f"alpha_reg must be >= 0, got {self.alpha_reg!r}")
        object.__setattr__(self, "alpha_reg", alpha)
        object.__setattr__(self, "max_exhaustive_classes", _checked_count(
            self.max_exhaustive_classes, "max_exhaustive_classes", 2))


# c in the pruning slack c * eps * (sum of |bound terms| + |best|): how
# far, in those units, a computed score may exceed its computed bound
PRUNE_SLACK = 16.0


def _penalty(size_u: int, size_v: int, alpha: float) -> float:
    return alpha * (size_u - size_v / 2.0) ** 2


def score_subset(entailed, full_set, evidence, model: GaussianClassModel,
                 params: ContrastParams) -> float:
    """Objective value of one candidate split: woe(U/V\\U : x) - R(U)."""
    u = as_hypothesis(entailed)
    v = as_hypothesis(full_set)
    if not u.issubset(v):
        raise InvalidHypothesisError("entailed set must be a subset of the class universe")
    if len(u) == len(v):
        raise EmptyContrastError("entailed set equals the class universe, contrast is empty")
    return woe(u, v.difference(u), evidence, model) - _penalty(len(u), len(v), params.alpha_reg)


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


def _size_bounds(log_prior: np.ndarray, joint: np.ndarray, own: np.ndarray,
                 alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Upper bound on the objective of every split of each size, and its scale.

    Entry s - 1 of each array is for splits with |U| = s, s = 1..n-1,
    where U holds the class flagged in `own` (see the module docstring).
    The scale is the sum of the magnitudes of the bound's terms, the
    size of the rounding error the pruning slack allows for. With -inf
    densities the bound holds in the extended reals; a size with an
    infinite term has an infinite scale, and maybe the NaN bound of
    inf - inf, whose "invalid" flag callers silence.
    """
    n = len(own)
    a = log_prior + joint
    a_other, q_other = np.sort(a[~own]), np.sort(log_prior[~own])
    lse = np.logaddexp.accumulate
    terms = (
        lse(np.concatenate((a[own], a_other[::-1])))[:-1],
        -lse(np.concatenate((log_prior[own], q_other)))[:-1],
        -lse(a_other)[::-1],
        lse(q_other[::-1])[::-1],
        -_penalty(np.arange(1, n), n, alpha),
    )
    return sum(terms), sum(map(np.abs, terms))


def best_contrast(full_set, c_star: int, evidence, model: GaussianClassModel,
                  params: ContrastParams) -> HypothesisSet:
    """The subset U of V maximizing the regularized WoE objective.

    Always contains c_star and is always a proper subset of V. Within
    the exhaustive regime the result is the exact argmax: every size
    whose upper bound (see the module docstring) comes within the
    rounding slack of the best score so far is scored in one batched
    evaluation, and the first maximum in (size, lexicographic) order
    wins, which realizes the tie-break; a skipped size cannot hold it.
    The greedy regime scores every addition of a growth step the same
    way.
    """
    v = as_hypothesis(full_set).check_against(model.n_classes)
    try:
        c = operator.index(c_star)
    except TypeError:
        raise InvalidHypothesisError(
            f"predicted class must be an integer, got {c_star!r}") from None
    if c not in v:
        raise InvalidHypothesisError(f"predicted class {c} is not in the class universe")
    if len(v) < 2:
        raise EmptyContrastError("need at least two classes to form a contrast")
    e = _checked_evidence(evidence, model)
    joint = _order_terms(e.observed_indices, e.values[None], model, {})[:, 0].sum(axis=1)
    return _best_contrast(v, c, joint, np.log(model.priors), params)


def _best_contrast(v: HypothesisSet, c: int, joint: np.ndarray, log_prior: np.ndarray,
                   params: ContrastParams) -> HypothesisSet:
    """best_contrast for a checked universe v and class c.

    joint holds every class's joint log likelihood J of the evidence and
    log_prior every class's log prior.
    """
    labels = np.array(v.classes)
    own = labels == c

    def scores(member: np.ndarray) -> np.ndarray:
        return _split_scores(member, labels, log_prior, joint, params.alpha_reg)

    with np.errstate(divide="ignore", invalid="ignore"):
        if len(v) <= params.max_exhaustive_classes:
            bound, scale = _size_bounds(log_prior[labels], joint[labels], own,
                                        params.alpha_reg)
            order = np.argsort(-bound, kind="stable").tolist()
            # as Python floats, inf - inf gives a NaN threshold, which prunes nothing
            bound, scale = bound.tolist(), scale.tolist()
            rows, pos = _subset_rows(len(v)), v.classes.index(c)
            scored, top = {}, -math.inf
            for k in order:
                if bound[k] < top - PRUNE_SLACK * sys.float_info.epsilon * (scale[k] + abs(top)):
                    continue
                table = rows[k][rows[k][:, pos]]
                found = scores(table)
                scored[k] = table, found
                top = max(top, float(np.where(np.isnan(found), -np.inf, found).max()))
            tables, found = zip(*(scored[k] for k in sorted(scored)))
            best = first_max(np.concatenate(found))
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
