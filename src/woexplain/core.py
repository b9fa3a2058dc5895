"""Weight-of-evidence scores.

The weight of evidence of hypothesis A against alternative B given
evidence e is

    woe(A/B : e) = log P(e | Y in A) - log P(e | Y in B)

in natural-log units (nats). Composite hypotheses use prior-weighted
mixture likelihoods, which keeps Bayes rule exact:

    posterior log-odds = prior log-odds + woe

and makes the chain rule over evidence subsets hold identically:

    woe(A/B : e) = sum_i woe(A/B : e_{S_i} | e_{S_1}, ..., e_{S_{i-1}})

for any ordered partition S_1..S_m of the evidence coordinates.

Every score here is a log-sum-exp or a difference of per-class log
densities read from gaussian's one route per covariance mode
(_densities). Diagonal terms are computed directly. In full mode a
scoring round's prefix-then-target orders are read from the stack
states of their prefixes, and a chain's full order from the root
state, the model itself. The joints J behind woe, posterior_log_odds
and bayes_decomposition come from gaussian's one reader of J
(_order_terms); this module has none of its own. It checks the inputs,
an ordering's indices by the rule every route shares, and reduces the
mixtures: the chains of a call, and the Bayes splits, are stacked and
reduced by one mixture_log_ratio call per side size, each row with the
bits of a lone one.
"""

from __future__ import annotations

import math
from itertools import accumulate, islice
from typing import Sequence

import numpy as np

from .errors import (
    DegenerateDensityError,
    DegeneratePriorError,
    InvalidHypothesisError,
    InvalidParameterError,
    InvalidPartitionError,
    MissingEvidenceError,
)
from .gaussian import (
    DIAGONAL,
    GaussianClassModel,
    _checked_evidence,
    _defined,
    _densities,
    _grouped,
    _index_rows,
    _order_terms,
    _prefix_states,
    mixture_log_ratio,
)
from .types import Evidence, HypothesisSet, as_hypothesis


def _checked_count(value, name: str, least: int) -> int:
    """An integer-valued parameter >= least, as an int.

    Integral floats pass; NaN, infinities and non-numbers are parameter
    errors rather than the bare errors int() raises for them.
    """
    try:
        ok = int(value) == value and value >= least
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        raise InvalidParameterError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def _checked_pair(
    entailed, contrast, model: GaussianClassModel
) -> tuple[HypothesisSet, HypothesisSet]:
    a = as_hypothesis(entailed).check_against(model.n_classes)
    b = as_hypothesis(contrast).check_against(model.n_classes)
    if not a.isdisjoint(b):
        shared = sorted(set(a.classes) & set(b.classes))
        raise InvalidHypothesisError(
            f"entailed and contrast sets overlap on classes {shared}"
        )
    return a, b


def _checked_observed(idx: np.ndarray, e: Evidence, what: str) -> None:
    unseen = idx[~e.observed_mask[idx]]
    if unseen.size:
        raise MissingEvidenceError(f"{what} feature {int(unseen[0])} is not observed")


def _checked_prefix(prefix: Sequence[int], e: Evidence) -> tuple[int, ...]:
    (p_idx,) = _index_rows([prefix], e.n_features, "prefix")
    _checked_observed(p_idx, e, "prefix")
    return tuple(p_idx.tolist())


def _checked_targets(targets, prefix: tuple[int, ...], e: Evidence) -> list[tuple[int, ...]]:
    """The targets as tuples of ints, each nonempty, in range, observed and disjoint from prefix.

    Targets of one length are checked together as an (M, |prefix| + t)
    stack of prefix-then-target orders, shortest length first; the first
    offending feature of a stack in row-major order is the one named. A
    target whose entries are not integers, nested sequences included, is
    an InvalidPartitionError. The targets returned are rebuilt from the
    checked stacks.
    """
    p = len(prefix)
    stacks = []
    try:
        targets = [tuple(t) for t in targets]
        for _, rows in sorted(_grouped(map(len, targets)).items()):
            stacks.append((rows, np.array([prefix + targets[k] for k in rows])))
    except (TypeError, ValueError) as exc:
        raise InvalidPartitionError("each target must be a sequence of integer indices") from exc
    for rows, orders in stacks:
        if orders.shape != (len(rows), p + len(targets[rows[0]])):
            raise InvalidPartitionError("each target must be a sequence of integer indices")
        if orders.shape[1] == p:
            raise InvalidPartitionError("target attribute must be nonempty")
        t = _index_rows(orders[:, p:], e.n_features, "target")
        shared = t[(t[:, :, None] == orders[:, None, :p]).any(axis=2)]
        if shared.size:
            raise InvalidPartitionError(f"feature {int(shared[0])} is in both target and prefix")
        _checked_observed(t, e, "target")
        for k, target in zip(rows, t.tolist()):
            targets[k] = tuple(target)
    return targets


def first_max(keys: np.ndarray, floor: float = -math.inf) -> "int | None":
    """Index of the first largest key above floor, or None.

    The batched searches pick with this what a loop keeping only strictly
    better candidates picks: the earliest of the tied best, and never a
    NaN.
    """
    keys = np.where(np.isnan(keys), -np.inf, keys)
    i = int(np.argmax(keys))
    return i if keys[i] > floor else None


def _chain_scores(sides: list, deltas: np.ndarray, log_prior: np.ndarray) -> np.ndarray:
    """woe(A/B : e_g | e of the steps before g) for every step g of every chain.

    Chain j scores sides[j] = (a, b), two label lists, and deltas[j, g]
    holds every class's log density of step g's evidence given the
    steps before; the steps past a chain's last are padding, and their
    scores mean nothing. The mixture base of each class is one running
    sum of its log prior and the deltas before, and each side's
    mixtures, over all steps of the chains with as many classes on that
    side, are reduced by one mixture_log_ratio call, so each score has
    the bits of a lone chain's. Returns (C, G) scores; a step where both
    sides are -inf is undefined and scores NaN.
    """
    c, g, k = deltas.shape
    steps = np.concatenate([np.broadcast_to(log_prior, (c, 1, k)), deltas], axis=1)
    base = np.cumsum(steps, axis=1)[:, :-1]
    mixtures = []
    with np.errstate(divide="ignore", invalid="ignore"):
        # every chain's A, then every chain's B
        for side in zip(*sides):
            out = np.empty((c, g))
            for js in _grouped(map(len, side)).values():
                labels = np.array([side[j] for j in js])[:, None, :]
                out[js] = mixture_log_ratio(np.take_along_axis(base[js], labels, axis=2),
                                            np.take_along_axis(deltas[js], labels, axis=2))
            mixtures.append(out)
        return mixtures[0] - mixtures[1]


def _total_woe(a: list[int], b: list[int], joint: np.ndarray, log_prior: np.ndarray) -> float:
    """woe(A/B : e) from every class's joint log density of e: a one-step chain."""
    return float(_chain_scores([(a, b)], joint[None, None], log_prior)[0, 0])


def _group_deltas(terms: np.ndarray, cols: np.ndarray, lengths: list) -> np.ndarray:
    """The (C, G, K) deltas of chains read from the columns of (K, D, m) terms.

    Chain j reads column cols[j], cut into consecutive groups of the
    lengths lengths[j]; entry [j, g] holds every class's sum of group g's
    terms, and entries past a chain's last group are 0. The groups of
    one length are gathered and summed by one call, the way numpy sums a
    lone slice: pairwise where the features are the fast axis of terms
    in memory, else in order (numpy.sum's notes).
    """
    cuts = [(j, g, start, stop - start) for j, lens in enumerate(lengths)
            for g, (start, stop) in enumerate(zip([0, *accumulate(lens)], accumulate(lens)))]
    k = terms.shape[0]
    deltas = np.zeros((len(lengths), max(map(len, lengths)), k))
    pairwise = terms.strides[2] == terms.itemsize
    for size, picks in _grouped(cut[3] for cut in cuts).items():
        j, g, start = np.array([cuts[i][:3] for i in picks]).T
        at = start[:, None] + np.arange(size)
        # every index advanced, so each gather is C-ordered: features last, or classes last
        if pairwise:
            deltas[j, g] = terms[np.arange(k)[:, None, None], cols[j][:, None], at].sum(axis=2).T
        else:
            deltas[j, g] = terms[np.arange(k), cols[j][:, None, None], at[:, :, None]].sum(axis=1)
    return deltas


def _chains(requests, x: np.ndarray, model: GaussianClassModel, memo: dict,
            rows=None) -> list[list[float]]:
    """The chain scores of every (a, b, groups) request, groups already checked.

    x is an (R, n) stack of inputs, and request i is read at row rows[i]
    of it; rows None reads every request at row 0, the one-input case,
    whose callers pass e.values[None]. The groups of every request
    partition the features observed at its row, so the concatenated
    orders share one length and are read together, as empty-prefix
    orders of the root in memo (built and kept there if absent), by one
    density call (_densities); all chains are then scored together
    (_chain_scores). The kernel of woe_chain, explain's fixed and random
    chains, and validate's trials.
    """
    if not requests:
        return []
    orders = [tuple(i for g in groups for i in g) for _, _, groups in requests]
    _, terms, where = _densities(orders, 0, x, model, memo, rows)
    lengths = [list(map(len, groups)) for _, _, groups in requests]
    scores = _chain_scores([(a, b) for a, b, _ in requests], _group_deltas(terms, where, lengths),
                           np.log(model.priors))
    return [row[:len(lens)].tolist() for row, lens in zip(scores, lengths)]


def _pair_terms(entailed, contrast, evidence,
                model: GaussianClassModel) -> tuple[list[int], list[int], np.ndarray]:
    """The checked labels of A and B, and every class's terms of the checked evidence.

    The (K, m) terms run along the observed coordinates, in order, read
    by gaussian's one reader of J (_order_terms): row c sums to J_c, the
    joint log density of the observed evidence under class c, from which
    woe and posterior log-odds are read.
    """
    a, b = map(list, _checked_pair(entailed, contrast, model))
    e = _checked_evidence(evidence, model)
    return a, b, _order_terms(e.observed_indices, e.values[None], model, {})[:, 0]


def woe(entailed, contrast, evidence, model: GaussianClassModel) -> float:
    """woe(A/B : e) over all observed coordinates of the evidence.

    +inf (-inf) when no class of B (A) gives the evidence a finite joint
    log density. Raises DegenerateDensityError, as posterior does, when
    no class of A u B does.
    """
    a, b, terms = _pair_terms(entailed, contrast, evidence, model)
    return _defined(_total_woe(a, b, terms.sum(axis=1), np.log(model.priors)))


def woe_conditional(
    entailed,
    contrast,
    target: Sequence[int],
    prefix: Sequence[int],
    evidence,
    model: GaussianClassModel,
) -> float:
    """woe(A/B : e_target | e_prefix), the chain-rule term for one attribute.

    With an empty prefix this is the marginal WoE of the target subset.
    The one-target case of woe_conditional_many.
    """
    return float(woe_conditional_many(entailed, contrast, [target], prefix, evidence, model)[0])


def woe_conditional_many(
    entailed,
    contrast,
    targets: Sequence[Sequence[int]],
    prefix: Sequence[int],
    evidence,
    model: GaussianClassModel,
) -> np.ndarray:
    """woe_conditional for every target against one shared prefix.

    Targets of one length are checked together and read together from
    the density route: the one-request case of _stacked_woe. Returns
    the scores in target order. A score is +-inf where one side gives
    the target no finite density, as in woe, and an undefined score
    raises DegenerateDensityError: where neither side gives the target a
    finite density, or one side's classes all give the prefix none.
    """
    a, b = map(list, _checked_pair(entailed, contrast, model))
    e = _checked_evidence(evidence, model)
    p_idx = _checked_prefix(prefix, e)
    targets = _checked_targets(targets, p_idx, e)
    return _defined(_stacked_woe([(a, b, p_idx, targets)], e, model, {})[0])


def _stacked_woe(requests, e: Evidence, model: GaussianClassModel,
                 memo: dict) -> list[np.ndarray]:
    """woe(A/B : e_t | e_prefix) for every target t of every (a, b, prefix, targets) request.

    a and b are label lists, prefix a tuple and targets a list of tuples
    of observed features, each target nonempty and disjoint from its
    prefix. Every prefix-then-target order of every request is bucketed
    by (|prefix|, |target|) and a bucket's orders, across requests, are
    scored together (_densities); each request's mixtures are reduced
    over its own rows, so every score is the one a lone call gives.
    Returns one array per request, in target order.

    memo maps prefixes to their (stack, column) states (_prefix_states).
    The requests' prefixes extend its entries, and on return it holds
    their states and the root's and no others: what a next round, whose
    prefixes extend these, can carry on from.
    """
    x = e.values[None]
    states = _prefix_states([prefix for _, _, prefix, _ in requests], x, model, memo)
    memo.clear()
    memo.update(states)
    # each request's targets of one length, shortest first
    parts = [((len(prefix), length), j, rows, [prefix + targets[k] for k in rows])
             for j, (_, _, prefix, targets) in enumerate(requests)
             for length, rows in sorted(_grouped(map(len, targets)).items())]
    scores = [np.empty(len(targets)) for _, _, _, targets in requests]
    # index arrays, not lists: numpy converts a list on every gather
    sides = [(np.array(a), np.array(b)) for a, b, _, _ in requests]
    with np.errstate(divide="ignore", invalid="ignore"):
        for (p, _), bucket in _grouped(key for key, *_ in parts).items():
            entries = [parts[i][1:] for i in bucket]
            base, terms, where = _densities([order for *_, orders in entries for order in orders],
                                            p, x, model, states)
            delta = terms.sum(axis=2)
            at = 0
            for j, rows, _ in entries:
                pick = where[at:at + len(rows), None]
                at += len(rows)
                a, b = sides[j]
                scores[j][rows] = (mixture_log_ratio(base[a, pick], delta[a, pick])
                                   - mixture_log_ratio(base[b, pick], delta[b, pick]))
    return scores


def _checked_ordering(ordering: Sequence[Sequence[int]], e: Evidence) -> list[tuple[int, ...]]:
    """The groups of an ordering that partitions the observed coordinates of e.

    The concatenated groups are one order, checked by the rule every
    route shares: one _index_rows row (integers, in range, no index
    twice) whose features are all observed (_checked_observed). Only an
    empty group and an order that leaves an observed coordinate out are
    this function's own errors. The groups returned are rebuilt from the
    checked order.
    """
    try:
        groups = [tuple(g) for g in ordering]
    except TypeError as exc:
        raise InvalidPartitionError("ordering indices must be integers") from exc
    for k, g in enumerate(groups):
        if not g:
            raise InvalidPartitionError(f"ordering group {k} is empty")
    (flat,) = _index_rows([[i for g in groups for i in g]], e.n_features, "ordering")
    _checked_observed(flat, e, "ordering")
    if len(flat) != len(e.observed_indices):
        raise InvalidPartitionError(
            "ordering must partition the observed coordinates "
            f"{list(e.observed_indices)}, got {sorted(flat.tolist())}"
        )
    features = iter(flat.tolist())
    return [tuple(islice(features, len(g))) for g in groups]


def woe_chain(
    entailed,
    contrast,
    ordering: Sequence[Sequence[int]],
    evidence,
    model: GaussianClassModel,
) -> list[float]:
    """Per-attribute conditional WoE along an ordered partition.

    The ordering must partition the observed coordinates of the evidence.
    The scores sum to woe(entailed, contrast, evidence, model) regardless
    of the order; individual terms do depend on it. Infinite and
    undefined terms are as in woe_conditional_many, so an evidence
    beyond every density of A u B raises as in woe.
    """
    a, b = _checked_pair(entailed, contrast, model)
    e = _checked_evidence(evidence, model)
    return _defined(_chains([(list(a), list(b), _checked_ordering(ordering, e))], e.values[None],
                            model, {})[0])


def _prior_log_odds(a: list[int], b: list[int], priors: np.ndarray) -> float:
    pa = float(np.sum(priors[a]))
    pb = float(np.sum(priors[b]))
    if pa <= 0.0 or pb <= 0.0:
        raise DegeneratePriorError("a hypothesis set has zero prior mass")
    return math.log(pa) - math.log(pb)


def prior_log_odds(entailed, contrast, model: GaussianClassModel) -> float:
    """log P(Y in A) - log P(Y in B) from the model priors alone."""
    a, b = _checked_pair(entailed, contrast, model)
    return _prior_log_odds(list(a), list(b), model.priors)


def _bayes_joints(terms: np.ndarray) -> np.ndarray:
    """Every class's joint log density for _posterior_log_odds, from its terms on the last axis.

    The terms are summed as contiguous rows, so pairwise whatever their
    layout, as the Bayes side has always summed its gathered rows.
    """
    return np.ascontiguousarray(terms).sum(axis=-1)


def _posterior_log_odds(sides: list, joints: np.ndarray, priors: np.ndarray) -> np.ndarray:
    """log P(Y in A | e) - log P(Y in B | e) of every (a, b) of sides.

    joints[j] holds every class's joint log density of the evidence of
    sides[j] (_bayes_joints). The pairs whose A u B are as large are
    reduced together by one mixture_log_ratio call, each pair's row on
    its own.
    """
    out = np.empty(len(sides))
    for size, js in _grouped(len(a) + len(b) for a, b in sides).items():
        both = np.array([sides[j][0] + sides[j][1] for j in js])
        joint = np.log(priors[both]) + joints[np.array(js)[:, None], both]
        # A's and B's log shares of the mass of A u B, one row each: -inf for a side without mass
        in_a = np.arange(size) < np.array([len(sides[j][0]) for j in js])[:, None, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            shares = mixture_log_ratio(np.repeat(joint[:, None], 2, axis=1),
                                       np.where(in_a ^ np.array([[False], [True]]), 0.0, -np.inf))
        out[js] = shares[:, 0] - shares[:, 1]
    return out


def posterior_log_odds(entailed, contrast, evidence, model: GaussianClassModel) -> float:
    """log P(Y in A | e) - log P(Y in B | e), straight from Bayes rule.

    Each side is the log share of A u B's posterior mass held by A (or
    B), read off the per-class joint scores log P(c) + log P(e | c) with
    mixture_log_ratio: a delta of 0 on the side's classes and -inf on the
    other's. woe is not involved, so the decomposition identity below
    checks the mixture bookkeeping. Infinite, and raises, where woe is.
    """
    a, b, terms = _pair_terms(entailed, contrast, evidence, model)
    return _defined(float(_posterior_log_odds([(a, b)], _bayes_joints(terms)[None],
                                              model.priors)[0]))


def bayes_decomposition(
    entailed, contrast, evidence, model: GaussianClassModel
) -> tuple[float, float, float]:
    """(prior_log_odds, total_woe, posterior_log_odds) for A vs B given e.

    The three satisfy posterior = prior + woe; prior odds come from the
    model priors and posterior odds from an independent Bayes-rule path.
    Both evidence terms read one factorization of the observed order,
    and an evidence beyond every density of A u B raises as in woe.
    """
    a, b, terms = _pair_terms(entailed, contrast, evidence, model)
    total = _defined(_total_woe(a, b, terms.sum(axis=1), np.log(model.priors)))
    return (_prior_log_odds(a, b, model.priors), total,
            float(_posterior_log_odds([(a, b)], _bayes_joints(terms)[None], model.priors)[0]))


def information_value(feature: int, class_a: int, class_b: int,
                      model: GaussianClassModel) -> float:
    """Information Value of one feature for separating two classes.

        IV = integral of log[p_a(x)/p_b(x)] (p_a(x) - p_b(x)) dx

    over the feature's marginal densities. This is the symmetrized KL
    divergence (J-divergence), so it is nonnegative, and zero exactly when
    the two marginals coincide. For normal marginals it has the closed form

        IV = ((var_a + d^2) / var_b + (var_b + d^2) / var_a) / 2 - 1

    with d the difference of the two means.
    """
    a = model.check_label(class_a)
    ((i,),) = _index_rows([[feature]], model.n_features, "feature")
    b = model.check_label(class_b)
    rows = model.covariances[[a, b], i]
    mu_a, mu_b = model.means[[a, b], i].tolist()
    var_a, var_b = (rows if model.mode == DIAGONAL else rows[:, i]).tolist()
    for label, var in ((class_a, var_a), (class_b, var_b)):
        if var <= 0.0:
            raise DegenerateDensityError(
                f"marginal variance of feature {feature} under class {label} is not positive"
            )
    d2 = (mu_a - mu_b) ** 2
    return 0.5 * ((var_a + d2) / var_b + (var_b + d2) / var_a) - 1.0
