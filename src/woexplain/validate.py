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

from .contrast import ContrastParams, best_contrast, score_subset
from .core import _checked_count, bayes_decomposition, woe_chain
from .errors import InvalidDataError
from .gaussian import DensityBackend, predicted_class
from .types import HypothesisSet

IDENTITY_TOL = 1e-9

# brute-force enumeration is capped at 2^(BRUTE_MAX_CLASSES-1) candidates
BRUTE_MAX_CLASSES = 12
# and at this many rows, to keep validation runs quick
BRUTE_MAX_ROWS = 25


@dataclass(frozen=True)
class InvariantCheck:
    """Outcome of one invariant over all sampled rows."""

    name: str
    passed: bool
    max_deviation: float
    tolerance: float
    detail: str = ""


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
    model: DensityBackend,
    data: np.ndarray,
    trials: int = 100,
    seed: int = 0,
) -> list[InvariantCheck]:
    """Run every invariant on `trials` rows sampled (with replacement)."""
    x = np.asarray(data, dtype=float)
    if x.ndim != 2 or x.shape[1] != model.n_features:
        raise InvalidDataError(
            f"data shape {x.shape} does not match model with {model.n_features} features"
        )
    if x.shape[0] == 0:
        raise InvalidDataError("no data rows to validate on")
    if trials < 1:
        raise InvalidDataError(f"trials must be >= 1, got {trials}")
    seed = _checked_count(seed, "seed", 0)

    rng = np.random.default_rng(seed)
    n = model.n_features
    k = model.n_classes
    row_ids = [int(i) for i in rng.integers(0, x.shape[0], size=trials)]

    bayes_dev, bayes_row = 0.0, row_ids[0]
    add_dev, add_row = 0.0, row_ids[0]
    ord_dev, ord_row = 0.0, row_ids[0]
    for i in row_ids:
        row = x[i]
        a, b = _random_split(rng, k)
        prior, total, post = bayes_decomposition(a, b, row, model)
        dev = abs(post - prior - total)
        if dev > bayes_dev:
            bayes_dev, bayes_row = dev, i

        part = _random_partition(rng, n)
        first = sum(woe_chain(a, b, part, row, model))
        dev = abs(first - total)
        if dev > add_dev:
            add_dev, add_row = dev, i

        reordered = [part[int(j)] for j in rng.permutation(len(part))]
        second = sum(woe_chain(a, b, reordered, row, model))
        dev = abs(first - second)
        if dev > ord_dev:
            ord_dev, ord_row = dev, i

    checks = [
        InvariantCheck(
            name="bayes-identity",
            passed=bayes_dev < IDENTITY_TOL,
            max_deviation=bayes_dev,
            tolerance=IDENTITY_TOL,
            detail=f"worst at row {bayes_row}",
        ),
        InvariantCheck(
            name="additivity",
            passed=add_dev < IDENTITY_TOL,
            max_deviation=add_dev,
            tolerance=IDENTITY_TOL,
            detail=f"worst at row {add_row}",
        ),
        InvariantCheck(
            name="ordering-invariance",
            passed=ord_dev < IDENTITY_TOL,
            max_deviation=ord_dev,
            tolerance=IDENTITY_TOL,
            detail=f"worst at row {ord_row}",
        ),
    ]

    if k > BRUTE_MAX_CLASSES:
        checks.append(InvariantCheck(
            name="contrast-equivalence",
            passed=True,
            max_deviation=0.0,
            tolerance=0.0,
            detail=f"skipped: {k} classes exceed the exhaustive cap {BRUTE_MAX_CLASSES}",
        ))
        return checks

    params = ContrastParams()
    universe = HypothesisSet(tuple(range(k)))
    mismatches = 0
    first_bad = None
    brute_rows = row_ids[:BRUTE_MAX_ROWS]
    for i in brute_rows:
        row = x[i]
        c_star = predicted_class(model, row)
        chosen = best_contrast(universe, c_star, row, model, params)
        others = [c for c in range(k) if c != c_star]
        brute_best, brute_score = None, -np.inf
        for size in range(1, k):
            candidates = sorted(
                tuple(sorted((c_star, *combo))) for combo in combinations(others, size - 1)
            )
            for cand in candidates:
                s = score_subset(cand, universe, row, model, params)
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
