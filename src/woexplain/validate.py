"""Self-validation: re-check the exact identities on sampled data rows.

Four checks, mirroring the library's core guarantees: the Bayes
log-odds decomposition, additivity of chained scores, ordering
invariance of the chain sum, and agreement of the contrast search with
a brute-force enumeration. Deviations are reported with the offending
row so a failure is actionable. An identity must hold on each trial to
max(IDENTITY_TOL, ROUNDING_C * eps * S), S the magnitudes it adds and
cancels there: the 1e-9 floor, or the rounding of far rows' large terms.

The enumeration takes its candidates from a table of its own: the
k-bit masks 1 .. 2^k - 2, split by size into member and complement
index arrays in (size, lexicographic) order, built once per class count
k (_candidate_table) and never from the search's tables, so it stays an
independent check of the search.

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
from functools import lru_cache
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

# a trial's identity holds where its deviation is below max(IDENTITY_TOL, ROUNDING_C * eps * S),
# S the magnitudes the identity adds and cancels: its woes and, once for each woe, the
# |log prior| and |J| of every class the woe is formed from (_trial_deviations). Higham
# (2002), ch. 4: a computed sum of m terms errs by at most gamma_{m-1} * sum |x_i|, with
# gamma_m = m u / (1 - m u) and u = eps / 2. Each magnitude counted in S reaches the identity
# through fewer than sixteen roundings (log prior + J, the log-sum-exp's shift, exp, log and
# shift back, a mixture ratio's difference, a woe's difference of its two sides, and the
# identity's own sum), and gamma_16 is about 16 u = 8 eps.
IDENTITY_TOL = 1e-9
ROUNDING_C = 8.0

# the brute-force enumeration checks at most this many rows, to keep runs quick
BRUTE_MAX_ROWS = 25


@dataclass(frozen=True)
class InvariantCheck:
    """Outcome of one invariant over all sampled rows.

    For an identity, max_deviation and tolerance are those of the trial
    whose deviation is largest against its own tolerance; the contrast
    check counts mismatched rows against a tolerance of 0.
    """

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


def _identity_check(name: str, deviations: tuple, tolerances: tuple,
                    rows: list[int]) -> InvariantCheck:
    """One identity over every trial, reported at the trial worst against its own tolerance.

    A NaN deviation counts as the worst. Where every tolerance is
    IDENTITY_TOL, the worst trial is the one of largest deviation.
    """
    with np.errstate(invalid="ignore"):
        worst = int(np.argmax(np.divide(deviations, tolerances)))
    return InvariantCheck(
        name=name,
        passed=bool(np.less(deviations, tolerances).all()),
        max_deviation=deviations[worst],
        tolerance=tolerances[worst],
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
                      model: GaussianClassModel) -> tuple[list, list, np.ndarray]:
    """The three identity deviations of each trial on the rows ids, their tolerances, and joints.

    Draws each trial's split, partition and reordering in turn. The
    distinct rows are the columns of one root: one density call reads
    their full-order terms, and one _chains call every trial's two
    chains, each at its row. The total woe of a trial is the one-step
    chain of its row's joint, all trials' scored by one _chain_scores
    call, as _total_woe scores one. Errors come as a loop over the
    trials gives them: the joints' first, then each trial's. Each
    tolerance counts the magnitudes its identity adds and cancels
    (ROUNDING_C): the woes, and for each woe its row's finite |log prior|
    and |J| of every class. Returns the deviations, the tolerances and
    the (len(ids), K) joints.
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
    chains = _chains(requests, xs, model, states, at[:len(sides)].repeat(2).tolist())
    if failed is not None:
        raise failed

    log_prior = np.log(model.priors)
    totals = _chain_scores(sides, joints[:, None], log_prior)[:, 0]
    post, prior = _posterior_log_odds(sides, bayes, model.priors), np.array(priors)
    # each chain summed in its step order, as sum(woe_chain(...)) sums it
    first, second = np.array([sum(chain) for chain in chains]).reshape(-1, 2).T
    size, other = np.array([sum(map(abs, chain)) for chain in chains]).reshape(-1, 2).T
    steps = np.array([len(chain) for chain in chains[::2]])
    formed = (np.where(np.isfinite(joints), np.abs(joints), 0.0).sum(axis=1)
              + np.abs(log_prior[np.isfinite(log_prior)]).sum())
    deviations = np.abs([post - prior - totals, first - totals, first - second])
    magnitudes = np.array([abs(post) + abs(prior) + abs(totals) + 3 * formed,
                           size + abs(totals) + (steps + 1) * formed,
                           size + other + 2 * steps * formed])
    # a non-finite woe fails through its deviation; its magnitude leaves the floor
    tolerances = np.maximum(IDENTITY_TOL, ROUNDING_C * np.finfo(float).eps
                            * np.nan_to_num(magnitudes, nan=0.0, posinf=0.0))
    return deviations.T.tolist(), tolerances.T.tolist(), joints


@lru_cache(maxsize=None)
def _candidate_table(k: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Every nonempty proper subset of k classes, in (size, lexicographic) order.

    The subsets are the k-bit masks 1 .. 2^k - 2, split by their number
    of members. One pair of read-only int8 arrays per size s = 1 .. k-1:
    u, (C(k, s), s), each row's members ascending, rows in lexicographic
    order; and rest, (C(k, s), k - s), each row's other classes. k is at
    most the exhaustive cap, 12: 16-bit masks and 8-bit labels keep the
    table, which lives as long as the process, to 49 KB at k = 12.
    """
    masks = np.arange(1, 2 ** k - 1, dtype=np.uint16)
    member = (masks[:, None] >> np.arange(k, dtype=np.uint16)) & 1 == 1
    sizes = member.sum(axis=1)
    table = []
    for size in range(1, k):
        rows = member[sizes == size]
        u = np.nonzero(rows)[1].reshape(-1, size).astype(np.int8)
        rest = np.nonzero(~rows)[1].reshape(-1, k - size).astype(np.int8)
        order = np.lexsort(u.T[::-1])
        u, rest = u[order], rest[order]
        u.setflags(write=False)
        rest.setflags(write=False)
        table.append((u, rest))
    return tuple(table)


def _enumerated(c_stars: list[int], joints: np.ndarray, log_prior: np.ndarray,
                alpha: float) -> list:
    """The best entailed set of each row by brute force, independent of the search.

    The candidates are the rows holding c* of a table of k-bit masks
    built here once per k (_candidate_table), in (size, lexicographic)
    order of their members. Each is scored with score_subset's
    arithmetic; rows that share c* are scored together, each size's
    candidates as the rows of one mixture_log_ratio pair. Each row keeps
    the first best score in that order, never a NaN, and None where no
    score is above -inf. Only a winner is turned into a tuple.
    """
    k = joints.shape[1]
    best: list = [None] * len(c_stars)
    for c_star, rs in _grouped(c_stars).items():
        joint = joints[rs]
        candidates, scores = [], []
        for size, (u, rest) in enumerate(_candidate_table(k), start=1):
            holds = (u == c_star).any(axis=1)
            u, rest = u[holds], rest[holds]
            scores.append(mixture_log_ratio(log_prior[u], joint[:, u])
                          - mixture_log_ratio(log_prior[rest], joint[:, rest])
                          - _penalty(size, k, alpha))
            candidates.append(u)
        keys = np.concatenate(scores, axis=1)
        keys[np.isnan(keys)] = -np.inf
        starts = np.cumsum([0] + [len(u) for u in candidates])
        for r, row in zip(rs, keys):
            top = int(row.argmax())
            if row[top] > -np.inf:
                size = int(np.searchsorted(starts, top, side="right")) - 1
                best[r] = tuple(candidates[size][top - starts[size]].tolist())
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
    deviations, tolerances, joints = [], [], []
    for lo in range(0, trials, step):
        found, allowed, joint = _trial_deviations(rng, ranks[lo:lo + step], xs, model)
        deviations += found
        tolerances += allowed
        joints.append(joint[:max(0, BRUTE_MAX_ROWS - lo)])

    checks = [_identity_check(name, devs, tols, row_ids) for name, devs, tols in
              zip(("bayes-identity", "additivity", "ordering-invariance"), zip(*deviations),
                  zip(*tolerances))]

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
