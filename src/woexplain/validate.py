"""Self-validation: re-check the exact identities on sampled data rows.

Four checks, mirroring the library's core guarantees: the Bayes
log-odds decomposition, additivity of chained scores, ordering
invariance of the chain sum, and agreement of the contrast search with
a brute-force enumeration. Deviations are reported with the offending
row so a failure is actionable.

Trials run stacked, in chunks: the sampled rows of a chunk are the
columns of one root state (gaussian._root), so one density call reads
every row's full-order terms, and the chain kernel behind woe_chain
(core._chains) reads and scores every trial's two chains at their
rows. The Bayes, total and chain mixtures of all the chunk's trials are
reduced together. Every number keeps the bits of the public one-call
routes, and every error is the one a trial-by-trial loop raises first:
a failed factor names the first failing order's class, whatever is
stacked beside it. Only the sampled rows are read: the CLI passes a
row source (_Rows) that converts those records of its CSV file alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable

import numpy as np

from . import gaussian
from .contrast import ContrastParams, _best_contrast, _penalty
from .core import (
    _bayes_joints,
    _chain_scores,
    _chains,
    _checked_count,
    _posterior_log_odds,
    _prior_log_odds,
)
from .errors import (
    DegeneratePriorError,
    InvalidDataError,
    InvalidParameterError,
    NothingToExplainError,
)
from .gaussian import (
    GaussianClassModel,
    _checked_evidence,
    _distinct,
    _grouped,
    _order_terms,
    _posterior,
    mixture_log_ratio,
)
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


@dataclass(frozen=True)
class _Rows:
    """The rows run_validation samples: their shape, and a converter of row ids.

    take gets the distinct sampled ids, a nonempty ascending array, and
    returns their rows, (len(ids), shape[1]); the CLI's source reads only
    those records of a CSV file.
    """

    shape: tuple[int, ...]
    take: Callable[[np.ndarray], np.ndarray]


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
    perm = rng.permutation(n_classes).tolist()
    cut = int(rng.integers(1, n_classes))
    return sorted(perm[:cut]), sorted(perm[cut:])


def _random_partition(rng: np.random.Generator, n: int) -> list[list[int]]:
    perm = rng.permutation(n).tolist()
    n_groups = int(rng.integers(1, n + 1))
    cuts = []
    if n_groups > 1:
        cuts = np.sort(rng.choice(np.arange(1, n), size=n_groups - 1, replace=False)).tolist()
    bounds = [0, *cuts, n]
    return [sorted(perm[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]


def _trial_deviations(rng: np.random.Generator, ids: list[int], x: np.ndarray,
                      model: GaussianClassModel) -> tuple[list, np.ndarray]:
    """The three identity deviations of each trial on the rows ids, and each trial's joint.

    Draws each trial's split, partition and reordering in turn. The
    distinct rows are the columns of one root: one density call reads
    their full-order terms, and one _chains call every trial's two
    chains, each at its row. The total woe of a trial is the one-step
    chain of its row's joint, all trials' scored by one _chain_scores
    call, as _total_woe scores one. Errors come as a loop over the
    trials gives them: the joints' first, then each trial's. Returns the
    deviations and the (len(ids), K) joints.
    """
    k, n = model.n_classes, model.n_features
    distinct, at = _distinct(ids)
    xs = x[distinct]
    states: dict = {}
    terms = _order_terms(tuple(range(n)), xs, model, states)
    joints, bayes = terms.sum(axis=2).T[at], _bayes_joints(terms).T[at]

    sides, priors, requests, failed = [], [], [], None
    for _ in ids:
        a, b = _random_split(rng, k)
        try:
            priors.append(_prior_log_odds(a, b, model.priors))
        except DegeneratePriorError as exc:
            # raised once the trials before it are read, as they would raise first
            failed = exc
            break
        part = _random_partition(rng, n)
        sides.append((a, b))
        requests += [(a, b, part), (a, b, [part[int(j)] for j in rng.permutation(len(part))])]
    sums = [sum(chain) for chain in _chains(requests, xs, model, states,
                                              at[:len(sides)].repeat(2).tolist())]
    if failed is not None:
        raise failed

    totals = _chain_scores(sides, joints[:, None], np.log(model.priors))[:, 0].tolist()
    post = _posterior_log_odds(sides, bayes, model.priors).tolist()
    return [(abs(post[j] - priors[j] - totals[j]), abs(sums[2 * j] - totals[j]),
             abs(sums[2 * j] - sums[2 * j + 1])) for j in range(len(sides))], joints


def _enumerated(c_stars: list[int], joints: np.ndarray, log_prior: np.ndarray,
                alpha: float) -> list:
    """The best entailed set of each row by brute force, independent of the search.

    Every candidate holding a row's c* is scored with score_subset's
    arithmetic; rows that share c* are scored together, each size's
    candidates as the rows of one mixture_log_ratio pair. Each row keeps
    the first best score in (size, lexicographic) order, never a NaN,
    and None where no score is above -inf.
    """
    k = joints.shape[1]
    best: list = [None] * len(c_stars)
    for c_star, rs in _grouped(c_stars).items():
        joint = joints[rs]
        others = [c for c in range(k) if c != c_star]
        candidates, scores = [], []
        for size in range(1, k):
            found = sorted(tuple(sorted((c_star, *combo)))
                           for combo in combinations(others, size - 1))
            u = np.array(found)
            rest = np.array([[c for c in range(k) if c not in cand] for cand in found])
            scores.append(mixture_log_ratio(log_prior[u], joint[:, u])
                          - mixture_log_ratio(log_prior[rest], joint[:, rest])
                          - _penalty(size, k, alpha))
            candidates += found
        keys = np.concatenate(scores, axis=1)
        keys[np.isnan(keys)] = -np.inf
        for r, row in zip(rs, keys):
            top = int(row.argmax())
            best[r] = candidates[top] if row[top] > -np.inf else None
    return best


def run_validation(
    model: GaussianClassModel,
    data: np.ndarray,
    trials: int = 100,
    seed: int = 0,
) -> list[InvariantCheck]:
    """Run every invariant on `trials` rows sampled (with replacement).

    The shape and the parameters are checked first. Then the row ids are
    drawn and each distinct sampled row is read once, in ascending row
    order, so the CLI's row source (_Rows) converts those records of its
    file and no other. The trials run in chunks of at most
    gaussian.BATCH_ELEMENTS root entries, each chunk's rows stacked as the
    columns of one root state (_trial_deviations), so no stacked block
    grows with `trials`. The Bayes check, the predicted class, the
    contrast search and the brute-force enumeration all read each row's
    joint J, with the arithmetic of the public one-call routes, and the
    enumeration scores the rows that share a predicted class together
    (_enumerated). An identity whose deviation is NaN on some row fails,
    with that NaN as its worst. Errors come as a loop over the trials
    gives them, once the sampled rows are read: a non-finite sampled row
    first, then a model that cannot score J, then each trial's in turn.
    """
    if isinstance(data, _Rows):
        rows = data
    else:
        x = np.asarray(data, dtype=float)
        rows = _Rows(x.shape, x.__getitem__)
    if len(rows.shape) != 2 or rows.shape[1] != model.n_features:
        raise InvalidDataError(
            f"data shape {rows.shape} does not match model with {model.n_features} features"
        )
    if rows.shape[0] == 0:
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
    row_ids = [int(i) for i in rng.integers(0, rows.shape[0], size=trials)]
    # each distinct sampled row is read once; the trials index them by rank, in row order
    sampled = np.unique(row_ids)
    xs = rows.take(sampled)
    ranks = np.searchsorted(sampled, row_ids).tolist()
    unseen = ~np.isfinite(xs).all(axis=1)
    if unseen.any():
        # the first sampled row with a non-finite value raises Evidence's error for it
        _checked_evidence(xs[next(j for j in ranks if unseen[j])], model)

    step = max(1, gaussian.BATCH_ELEMENTS // (k * (n + 1) ** 2))
    deviations, joints = [], []
    for lo in range(0, trials, step):
        found, joint = _trial_deviations(rng, ranks[lo:lo + step], xs, model)
        deviations += found
        joints.append(joint[:max(0, BRUTE_MAX_ROWS - lo)])

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
    log_prior = np.log(model.priors)
    brute_rows = row_ids[:BRUTE_MAX_ROWS]
    joints = np.concatenate(joints)
    with np.errstate(divide="ignore", invalid="ignore"):
        c_stars, chosen = [], []
        for joint in joints:
            c_stars.append(int(np.argmax(_posterior(model.priors, joint))))
            chosen.append(_best_contrast(universe, c_stars[-1], joint, log_prior, params).classes)
        brute = _enumerated(c_stars, joints, log_prior, params.alpha_reg)
    bad = [i for i, got, want in zip(brute_rows, chosen, brute) if got != want]
    checks.append(InvariantCheck(
        name="contrast-equivalence",
        passed=not bad,
        max_deviation=float(len(bad)),
        tolerance=0.0,
        detail=(
            f"{len(brute_rows)} rows enumerated"
            + (f", first mismatch at row {bad[0]}" if bad else "")
        ),
    ))
    return checks
