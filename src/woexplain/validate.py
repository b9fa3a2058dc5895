"""Self-validation: re-check the exact identities on sampled data rows.

Four checks, mirroring the library's core guarantees: the Bayes
log-odds decomposition, additivity of chained scores, ordering
invariance of the chain sum, and agreement of the contrast search with
a brute-force enumeration. Deviations are reported with the offending
row so a failure is actionable.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .contrast import ContrastParams, _best_contrast, _penalty
from .core import (
    _chain_scores,
    _chains,
    _checked_count,
    _checked_evidence,
    _checked_ordering,
    _checked_pair,
    _observed_terms,
    _posterior_log_odds,
    _prior_log_odds,
)
from .errors import InvalidDataError, InvalidParameterError, NothingToExplainError
from .gaussian import GaussianClassModel, _posterior, mixture_log_ratio
from .types import HypothesisSet

IDENTITY_TOL = 1e-9

# the brute-force enumeration checks at most this many rows, to keep runs quick
BRUTE_MAX_ROWS = 25


@dataclass(frozen=True)
class InvariantCheck:
    """Outcome of one invariant over all sampled rows."""

    name: str
    passed: bool
    max_deviation: float
    tolerance: float
    detail: str = ""


def _identity_check(name: str, deviations: tuple, rows: list[int]) -> InvariantCheck:
    """One identity over every trial: its worst deviation, a NaN counting as the worst."""
    worst = int(np.argmax(deviations))
    return InvariantCheck(
        name=name,
        passed=bool(deviations[worst] < IDENTITY_TOL),
        max_deviation=deviations[worst],
        tolerance=IDENTITY_TOL,
        detail=f"worst at row {rows[worst]}",
    )


def _random_split(rng: np.random.Generator, n_classes: int) -> tuple[list[int], list[int]]:
    perm = rng.permutation(n_classes)
    cut = int(rng.integers(1, n_classes))
    return sorted(int(c) for c in perm[:cut]), sorted(int(c) for c in perm[cut:])


def _random_partition(rng: np.random.Generator, n: int) -> list[list[int]]:
    perm = rng.permutation(n)
    n_groups = int(rng.integers(1, n + 1))
    if n_groups > 1:
        cuts = np.sort(rng.choice(np.arange(1, n), size=n_groups - 1, replace=False))
    else:
        cuts = np.array([], dtype=int)
    return [sorted(int(f) for f in part) for part in np.split(perm, cuts)]


def run_validation(
    model: GaussianClassModel,
    data: np.ndarray,
    trials: int = 100,
    seed: int = 0,
) -> list[InvariantCheck]:
    """Run every invariant on `trials` rows sampled (with replacement).

    Each distinct sampled row's full-order log_density_terms are computed
    once; the Bayes check, the predicted class, the contrast search and
    the brute-force enumeration all read J from them, with the arithmetic
    of the public one-call routes. The two chain orderings of a trial
    are factored together by one stacked call. An identity whose
    deviation is NaN on some row fails, with that NaN as its worst.
    """
    x = np.asarray(data, dtype=float)
    if x.ndim != 2 or x.shape[1] != model.n_features:
        raise InvalidDataError(
            f"data shape {x.shape} does not match model with {model.n_features} features"
        )
    if x.shape[0] == 0:
        raise InvalidDataError("no data rows to validate on")
    try:
        trials = _checked_count(trials, "trials", 1)
    except InvalidParameterError as exc:
        raise InvalidDataError(str(exc)) from None
    seed = _checked_count(seed, "seed", 0)
    if model.n_classes < 2:
        raise NothingToExplainError("model has a single class, nothing to contrast")

    rng = np.random.default_rng(seed)
    n = model.n_features
    k = model.n_classes
    priors = model.priors
    log_prior = np.log(priors)
    row_ids = [int(i) for i in rng.integers(0, x.shape[0], size=trials)]
    evidence = {i: _checked_evidence(x[i], model) for i in dict.fromkeys(row_ids)}
    observed = {i: _observed_terms(e, model) for i, e in evidence.items()}

    deviations = []
    for i in row_ids:
        a, b = map(list, _checked_pair(*_random_split(rng, k), model))
        prior = _prior_log_odds(a, b, priors)
        e, terms = evidence[i], observed[i]
        total = _chain_scores(a, b, [terms.shape[1]], terms, log_prior)[0]
        part = _checked_ordering(_random_partition(rng, n), e)
        reordered = _checked_ordering([part[int(j)] for j in rng.permutation(len(part))], e)
        first, second = map(sum, _chains([(a, b, part), (a, b, reordered)], e, model))
        deviations.append((abs(_posterior_log_odds(a, b, terms, priors) - prior - total),
                           abs(first - total), abs(first - second)))

    checks = [_identity_check(name, devs, row_ids) for name, devs in
              zip(("bayes-identity", "additivity", "ordering-invariance"), zip(*deviations))]

    # the enumeration checks the exhaustive search of the default parameters
    params = ContrastParams()
    if k > params.max_exhaustive_classes:
        checks.append(InvariantCheck(
            name="contrast-equivalence",
            passed=True,
            max_deviation=0.0,
            tolerance=0.0,
            detail=(f"skipped: {k} classes exceed the exhaustive cap "
                    f"{params.max_exhaustive_classes}"),
        ))
        return checks

    universe = HypothesisSet(tuple(range(k)))
    mismatches = 0
    first_bad = None
    brute_rows = row_ids[:BRUTE_MAX_ROWS]
    for i in brute_rows:
        terms = observed[i]
        joint = terms.sum(axis=1)
        c_star = int(np.argmax(_posterior(priors, terms)))
        chosen = _best_contrast(universe, c_star, joint, log_prior, params)
        # score_subset's arithmetic, one candidate at a time, in the search's tie-break order
        others = [c for c in range(k) if c != c_star]
        brute_best, brute_score = None, -np.inf
        for size in range(1, k):
            candidates = sorted(
                tuple(sorted((c_star, *combo))) for combo in combinations(others, size - 1)
            )
            penalty = _penalty(size, k, params.alpha_reg)
            for cand in candidates:
                u = list(cand)
                rest = [c for c in range(k) if c not in cand]
                s = (mixture_log_ratio(log_prior[u], joint[u])
                     - mixture_log_ratio(log_prior[rest], joint[rest])
                     - penalty)
                if s > brute_score:
                    brute_best, brute_score = cand, s
        if chosen.classes != brute_best:
            mismatches += 1
            if first_bad is None:
                first_bad = i
    checks.append(InvariantCheck(
        name="contrast-equivalence",
        passed=mismatches == 0,
        max_deviation=float(mismatches),
        tolerance=0.0,
        detail=(
            f"{len(brute_rows)} rows enumerated"
            + (f", first mismatch at row {first_bad}" if first_bad is not None else "")
        ),
    ))
    return checks
