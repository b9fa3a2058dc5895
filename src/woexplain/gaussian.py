"""Class-conditional Gaussian density models.

One Gaussian per class, diagonal or full covariance, plus class priors.
This is the likelihood model behind every weight-of-evidence computation.
Every per-class log density takes one route per covariance mode
(_densities), which returns the sequential conditional log densities
along prefix-then-target coordinate orders, so any conditional
log P(x_target | x_prefix, Y = c) is a sum of terms. A diagonal
covariance gives each term directly. A full covariance is read from a
stack state (_Stack): the model's covariances and residuals x - mu at
the root, the empty prefix, conditioned pivot by pivot on a prefix by a
Schur-complement update (_condition) that leaves the covariance and
residual of the other coordinates given the prefix. A target block of a
state is factored (Cholesky, _block_terms) for its terms; from the root
that is the covariance permuted into the order. Conditioning a state
further extends it, so a prefix that grows group by group is never
refactored. The route takes a stack of input rows, and a state holds
one column per row: any order is read at any row in one call, and a
single input is the one-row case. An input's terms along a full order,
whose sums are the per-class joints J, have one reader (_order_terms):
the order at each row of a stack, from the root, with no public
re-check. explain, validate, the one-call routes of core, best_contrast
and posterior all read J there. Composite hypotheses Y in C are
prior-weighted mixtures combined by mixture_log_ratio, which makes
chained conditional scores telescope exactly.

All probability arithmetic happens in log space.
"""

from __future__ import annotations

import json
import operator
import sys
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (
    DegenerateDensityError,
    InsufficientDataError,
    InvalidDataError,
    InvalidModelError,
    InvalidParameterError,
    InvalidPartitionError,
    MissingEvidenceError,
    NumericalConditioningError,
    UnknownLabelError,
)
from .types import Evidence, as_evidence

LOG_2PI = float(np.log(2.0 * np.pi))

# version 2 writes each full covariance as its lower triangle; version 1 is still read
MODEL_FORMAT_VERSION = 2

DIAGONAL = "diagonal"
FULL = "full"

# relative scale of the default ridge added to fitted covariances
DEFAULT_FLOOR_SCALE = 1e-6
# absolute fallback when the data has zero variance everywhere
DEGENERATE_FLOOR = 1e-12


def __getattr__(name: str):
    # The package never calls cho_factor; perfbench/tracing.py counts
    # factorizations through gaussian.cho_factor. scipy is imported when the
    # name is first read, and the name is then bound in the module dict,
    # where the tracer's rebinding looks for it. The name goes when that
    # tracer reads counters kept by the library instead of rebinding names.
    if name == "cho_factor":
        from scipy.linalg import cho_factor

        globals()[name] = cho_factor
        return cho_factor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _index_rows(rows, n: int, what: str) -> np.ndarray:
    """Check every row of an (M, m) stack of coordinate indices against n.

    Each entry must be an integer in 0..n-1 and no row may repeat one;
    the first offending entry in row-major order is the one named.
    Returns the stack as an intp array.
    """
    try:
        rows = np.asarray(rows)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidPartitionError(f"{what} indices must be integers") from exc
    if rows.ndim != 2 or rows.size and rows.dtype.kind not in "iu":
        raise InvalidPartitionError(f"{what} indices must be integers")
    bad = (rows < 0) | (rows >= n)
    if bad.any():
        raise InvalidPartitionError(f"{what} index {int(rows[bad][0])} outside 0..{n - 1}")
    ranked = np.sort(rows, axis=1)
    dup = ranked[:, 1:] == ranked[:, :-1]
    if dup.any():
        raise InvalidPartitionError(
            f"duplicate index in {what}: {rows[dup.any(axis=1).argmax()].tolist()}")
    return rows.astype(np.intp, copy=False)


def _grouped(keys) -> dict:
    """The positions of keys grouped by key: groups first seen first, positions in order."""
    groups: dict = {}
    for j, key in enumerate(keys):
        groups.setdefault(key, []).append(j)
    return groups


def _distinct(keys) -> tuple[list, np.ndarray]:
    """The distinct keys, first seen first, and each key's position among them (intp)."""
    slot: dict = {}
    where = np.array([slot.setdefault(key, len(slot)) for key in keys], dtype=np.intp)
    return list(slot), where


def _factor(covs: np.ndarray, error: type) -> np.ndarray:
    """np.linalg.cholesky of a class-major stack of covariances, (K, n, n) or (K, D, m, m).

    A failure raises error naming a class whose own matrix does not
    factor: of D stacked orders, the first failing order's first failing
    class (order axis outer, class axis inner), so what a read raises
    does not depend on what is stacked beside it; a (K, n, n) stack is
    one order. A batch fails exactly where one of its matrices does, so
    the search, which runs on this path only, always finds one.
    """
    try:
        return np.linalg.cholesky(covs)
    except np.linalg.LinAlgError as exc:
        stack = covs.reshape(len(covs), -1, *covs.shape[-2:])
        for d, c in np.ndindex(stack.shape[1::-1]):
            try:
                np.linalg.cholesky(stack[c, d])
            except np.linalg.LinAlgError:
                raise error(f"the covariance of class {c} is not positive definite") from exc


def _block_terms(covs: np.ndarray, dev: np.ndarray) -> np.ndarray:
    """Sequential conditional log densities of (K, M, m) residuals dev under (K, M, m, m) covs.

    Each covariance is factored as S = L L^T; with z = L^-1 dev the i-th
    term is -(log 2 pi + 2 log L_ii + z_i^2)/2. Each matrix is factored
    and solved on its own, so a block's terms do not depend on what is
    stacked with it. A covariance that fails to factor raises
    NumericalConditioningError naming the first failing order's first
    failing class (_factor).
    """
    chol = _factor(covs, NumericalConditioningError)
    # batched over classes; scipy's solve_triangular takes one matrix at scipy 1.10
    z = np.linalg.solve(chol, dev[..., None])[..., 0]
    log_var = 2.0 * np.log(np.diagonal(chol, axis1=-2, axis2=-1))
    with np.errstate(over="ignore"):
        return -0.5 * (LOG_2PI + log_var + z * z)


def _condition(aug: np.ndarray, base: np.ndarray, pivots: np.ndarray) -> np.ndarray:
    """Condition, in place, D stacked class Gaussians on their coordinates `pivots`, one at a time.

    aug is a (K, D, n+1, n+1) stack: entry [c, d] holds class c's
    covariance S in its leading n x n block and the residual r = x - mu
    in its last row (and column); pivots is a (D, j) index array. A pivot
    p of conditional variance s = S_pp and residual r_p = aug[c, d, n, p]
    has the term -(log 2 pi + log s + r_p (r_p / s))/2, the log density of
    x_p given the pivots before it, and is then eliminated from every
    entry of the augmented matrix by the Schur-complement update
    (Rasmussen & Williams, GPML, App. A.2)

        S_ab -= S_ap (S_bp / s),

    which takes the residual row with it. Every entry is updated from its
    own value and the pivot's row and column alone, so it is
    bit-identical whether a prefix is conditioned on in one call or group
    by group, and whatever else is stacked with it.

    base is a (K, D) array of log weights, to which the terms are added
    one pivot at a time, left to right, so a base carried group by group
    also equals one accumulated in one call; the new base is returned. A
    pivot that is not positive raises NumericalConditioningError naming
    the first class that has one.
    """
    at = np.arange(aug.shape[1])
    scale = np.empty(base.shape + pivots.shape[1:])
    resid = np.empty_like(scale)
    # a far input overflows r (r / s) to inf, as the squares in _block_terms do
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for i, p in enumerate(pivots.T):
            col = aug[:, at, :, p]  # (D, K, n+1): advanced indices lead
            scale[..., i] = aug[:, at, p, p]
            resid[..., i] = col[:, :, -1].T
            # einsum forms the plain products S_ap (S_bp / s), faster than broadcasting
            aug -= np.einsum("dka,dkb->kdab", col, col / scale[..., i].T[..., None])
        terms = -0.5 * (LOG_2PI + np.log(scale) + resid * (resid / scale))
    if not scale.min(initial=np.inf) > 0.0:
        bad = ~(scale > 0.0).all(axis=(1, 2))
        raise NumericalConditioningError(
            f"the covariance of class {int(bad.argmax())} is not positive definite")
    for i in range(terms.shape[-1]):
        base = base + terms[..., i]
    return base


# covariance entries (classes x orders x m x m) one stacked density call may gather
BATCH_ELEMENTS = 1 << 20


class _Stack(NamedTuple):
    """Prefixes conditioned on, in full mode, stacked: what the next prefixes extend.

    Column d of the (K, D) base holds each class's log P(c) plus the log
    density of one input row's prefix; aug[:, d] holds each class's
    covariance and residual x - mu conditioned on that prefix, as
    _condition keeps them, with the prefix's own rows and columns spent.
    A prefix's state (stack, d) holds it for every row of the input
    stack x, row r in column d + r.
    """

    base: np.ndarray
    aug: np.ndarray


def _root(x: np.ndarray, model: GaussianClassModel) -> _Stack:
    """The empty prefix of every row of x, an (R, n) stack, as an R-column _Stack: the model itself.

    Column r holds the model's covariances and the residual x_r - mu over
    all n features. A feature no order reads, whatever its value, stays
    in its own residual entries: no update of another entry reads them.
    """
    k, n = model.n_classes, model.n_features
    aug = np.zeros((k, len(x), n + 1, n + 1))
    aug[:, :, :n, :n] = model.covariances[:, None]
    aug[:, :, n, :n] = aug[:, :, :n, n] = x - model.means[:, None]
    return _Stack(np.repeat(np.log(model.priors)[:, None], len(x), axis=1), aug)


def _prefix_states(prefixes, x: np.ndarray, model: GaussianClassModel,
                   memo: dict) -> dict:
    """The (stack, column) of the empty prefix and of every distinct prefix, in full mode.

    Empty in diagonal mode. x is the (R, n) input stack, and a state
    holds its prefix for each of the R rows (_Stack). memo maps prefixes
    to their states; the empty prefix is memo's root, or a new one
    (_root). Only reads with a nonempty prefix need this: explain's
    rounds (core._stacked_woe) and class_conditional_log_density. A read
    of empty-prefix orders alone builds its root in _densities.
    A nonempty prefix extends the longest memo entry that begins it, or
    the root, by conditioning on its remaining coordinates in order
    (_condition); prefixes that add as many coordinates to one stack are
    conditioned in one call, and every nonempty prefix ends up in one new
    stack. Conditioning updates each entry from its own value and the
    pivot's alone, so a prefix carried group by group equals one
    conditioned in one call, bit for bit.
    """
    if model.mode != FULL:
        return {}
    root = memo.get(()) or (_root(x, model), 0)
    prefixes = [prefix for prefix in dict.fromkeys(prefixes) if prefix]
    if not prefixes:
        return {(): root}
    lengths = sorted({len(k) for k in memo}, reverse=True)
    done = [next((prefix[:n] for n in lengths if prefix[:n] in memo), ()) for prefix in prefixes]
    starts = [memo.get(k, root) for k in done]
    parts = []
    n_rows = len(x)
    for members in _grouped((len(prefix) - len(k), id(stack)) for prefix, k, (stack, _)
                            in zip(prefixes, done, starts)).values():
        stack = starts[members[0]][0]
        cols = [starts[i][1] + r for i in members for r in range(n_rows)]
        aug = stack.aug[:, cols]
        pivots = np.array([prefixes[i][len(done[i]):] for i in members])
        base = _condition(aug, stack.base[:, cols], np.repeat(pivots, n_rows, axis=0))
        parts.append((base, aug, [prefixes[i] for i in members]))
    if len(parts) == 1:
        (base, aug, order), = parts
    else:
        base, aug, order = (np.concatenate([part[0] for part in parts], axis=1),
                            np.concatenate([part[1] for part in parts], axis=1),
                            [prefix for part in parts for prefix in part[2]])
    stack = _Stack(base, aug)
    return {(): root, **{prefix: (stack, n_rows * d) for d, prefix in enumerate(order)}}


def _carried(orders: list, rows: np.ndarray, p: int, states: dict,
             model: GaussianClassModel) -> tuple[np.ndarray, np.ndarray]:
    """base (K, D) and target terms (K, D, t) of D prefix-then-target orders, prefixes p long.

    Order d is read at input row rows[d], from column rows[d] of its
    prefix's state. Every prefix has a state, and all are in one stack.
    Each target's block of its prefix's conditioned covariance and its
    residuals are gathered, in chunks of at most BATCH_ELEMENTS entries,
    and factored (_block_terms) one matrix at a time, so chunks never
    move a score.
    """
    stack = states[orders[0][:p]][0]
    cols = np.array([states[order[:p]][1] for order in orders], dtype=np.intp) + rows
    t = len(orders[0]) - p
    if not t:
        return stack.base[:, cols], np.zeros((model.n_classes, len(orders), 0))
    idx = np.array(orders, dtype=np.intp)[:, p:]
    step = max(1, BATCH_ELEMENTS // (model.n_classes * t * t))
    aug, n = stack.aug, model.n_features
    # concatenate keeps the chunks' memory layout, which fixes the last bit of a sum of terms
    return stack.base[:, cols], np.concatenate([
        _block_terms(aug[:, d[:, None, None], i[:, :, None], i[:, None, :]],
                     aug[:, d[:, None], n, i])
        for d, i in ((cols[lo:lo + step], idx[lo:lo + step])
                     for lo in range(0, len(orders), step))], axis=1)


def _densities(orders: list, p: int, x: np.ndarray, model: GaussianClassModel,
               states: dict, rows=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-class log densities of the distinct reads among prefix-then-target orders of one shape.

    x is an (R, n) stack of inputs and orders[i] a tuple of checked
    features read at row rows[i] of x; rows None reads every order at
    row 0, the one-input case. The orders share one length and prefix
    length p. Returns, over the D distinct (order, row) reads, first seen
    first, the (K, D) base with base[c, d] = log P(c) + log P(x_prefix | c),
    the (K, D, t) target terms, whose entry [c, d, i] is
    log P(x of target feature i | x_prefix and the target features
    before i, c), and each order's column. In full mode every read is
    from its prefix's state in states (_carried); the empty prefix's
    root is built where it is first read, from x (_root), and kept in
    states for the reads after. In diagonal mode each term is
    -(log 2 pi + log var + dev^2 / var)/2 of its own feature.
    """
    if rows is None:
        distinct, where = _distinct(orders)
        at = np.zeros(len(distinct), dtype=np.intp)
    else:
        reads, where = _distinct(zip(orders, rows))
        distinct = [order for order, _ in reads]
        at = np.array([row for _, row in reads], dtype=np.intp)
    if model.mode == FULL:
        if () not in states:
            states[()] = (_root(x, model), 0)
        return (*_carried(distinct, at, p, states, model), where)
    idx = np.array(distinct, dtype=np.intp)
    dev = x[at[:, None], idx] - model.means[:, idx]
    var = model.covariances[:, idx]
    with np.errstate(over="ignore"):
        terms = -0.5 * (LOG_2PI + np.log(var) + dev * dev / var)
    return np.log(model.priors)[:, None] + terms[:, :, :p].sum(axis=2), terms[:, :, p:], where


def _order_terms(order: tuple, x: np.ndarray, model: GaussianClassModel,
                 states: dict) -> np.ndarray:
    """Every class's log density terms along one checked order at each row of x: J's one reader.

    x is an (R, n) stack of inputs. Entry [c, r, i] of the (K, R, m)
    result is log P(x_r of feature order[i] | x_r of the features before
    it, c), so row [c, r] sums to J_c of input r over the order's
    features. The order is read at every row from the root in states
    (_densities), with no check: the caller has checked the order and
    the values it reads, and a feature outside the order is never read,
    whatever its value.
    """
    return _densities([order] * len(x), 0, x, model, states, range(len(x)))[1]


@dataclass(frozen=True)
class GaussianClassModel:
    """Per-class Gaussian densities with shared feature space.

    Attributes:
        means: (K, n) class means.
        covariances: (K, n, n) in full mode, (K, n) variances in diagonal mode.
        priors: (K,) class priors, positive, summing to 1.
        mode: "diagonal" or "full".
        feature_names: n distinct column names, used in files and reports.
    """

    means: np.ndarray
    covariances: np.ndarray
    priors: np.ndarray
    mode: str
    feature_names: tuple[str, ...]

    def __post_init__(self):
        if self.mode not in (DIAGONAL, FULL):
            raise InvalidModelError(f"unknown covariance mode {self.mode!r}")
        means = np.asarray(self.means, dtype=float)
        covs = np.asarray(self.covariances, dtype=float)
        priors = np.asarray(self.priors, dtype=float)
        if means.ndim != 2:
            raise InvalidModelError(f"means must be (K, n), got shape {means.shape}")
        k, n = means.shape
        if k < 1 or n < 1:
            raise InvalidModelError(f"need at least 1 class and 1 feature, got {k}x{n}")
        want = (k, n, n) if self.mode == FULL else (k, n)
        if covs.shape != want:
            raise InvalidModelError(
                f"covariances shape {covs.shape} does not match expected {want}"
            )
        if priors.shape != (k,):
            raise InvalidModelError(f"priors shape {priors.shape} does not match ({k},)")
        names = tuple(str(f) for f in self.feature_names)
        if len(names) != n:
            raise InvalidModelError(f"{len(names)} feature names for {n} features")
        if len(set(names)) != n:
            repeated = next(f for i, f in enumerate(names) if f in names[:i])
            raise InvalidModelError(f"feature name {repeated!r} is repeated")
        for arr in (means, covs, priors):
            arr.setflags(write=False)
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "covariances", covs)
        object.__setattr__(self, "priors", priors)
        object.__setattr__(self, "feature_names", names)

    @property
    def n_classes(self) -> int:
        return self.means.shape[0]

    @property
    def n_features(self) -> int:
        return self.means.shape[1]

    def validate(self) -> "GaussianClassModel":
        """Check numeric invariants; raise InvalidModelError on any violation.

        Priors must be positive and sum to 1 within 1e-12; every variance
        must be positive; full covariances must be symmetric and admit a
        Cholesky factorization.
        """
        for name, arr in (("means", self.means), ("covariances", self.covariances),
                          ("priors", self.priors)):
            if not np.all(np.isfinite(arr)):
                raise InvalidModelError(f"non-finite entries in {name}")
        if np.any(self.priors <= 0.0):
            bad = int(np.flatnonzero(self.priors <= 0.0)[0])
            raise InvalidModelError(f"prior of class {bad} is not positive")
        total = float(self.priors.sum())
        if abs(total - 1.0) > 1e-12:
            raise InvalidModelError(f"priors sum to {total!r}, expected 1 within 1e-12")
        if self.mode == DIAGONAL:
            if np.any(self.covariances <= 0.0):
                c, i = map(int, np.argwhere(self.covariances <= 0.0)[0])
                raise InvalidModelError(f"variance of feature {i} in class {c} is not positive")
        else:
            covs = self.covariances
            # per class: every |cov - cov.T| entry within 1e-10 (1 + max |cov|)
            skew = np.abs(covs - covs.transpose(0, 2, 1)).max(axis=(1, 2))
            asymmetric = skew > 1e-10 * (1.0 + np.abs(covs).max(axis=(1, 2)))
            if asymmetric.any():
                c = int(np.argmax(asymmetric))
                raise InvalidModelError(f"covariance of class {c} is not symmetric")
            _factor(covs, InvalidModelError)
        return self

    def check_label(self, label: int) -> int:
        try:
            label = operator.index(label)
        except TypeError:
            raise UnknownLabelError(f"label {label!r} is not an integer") from None
        if not 0 <= label < self.n_classes:
            raise UnknownLabelError(f"label {label} outside model range 0..{self.n_classes - 1}")
        return label

    def class_conditional_log_density(
        self,
        label: int,
        target: Sequence[int],
        x_target: Sequence[float],
        prefix: Sequence[int] = (),
        x_prefix: Sequence[float] = (),
    ) -> float:
        """log P(X_target = x_target | X_prefix = x_prefix, Y = label).

        The sum of the class's target terms after its prefix terms, read
        from the route woe_conditional reads (_densities): a one-class
        mixture is its delta alone, so woe_conditional([c], [d], ...) is
        this for c minus this for d, bit for bit. In diagonal mode the
        prefix has no effect. An empty target yields log 1 = 0. The
        values are placed at their features of an n-vector, checked as
        Evidence: a non-finite value raises InvalidDataError naming its
        feature, and the other features are never read. Past about 1e154
        standard deviations the squared distance overflows and the density
        is -inf, silently; where the terms are undefined
        DegenerateDensityError is raised.
        """
        c = self.check_label(label)
        t_idx, p_idx = tuple(target), tuple(prefix)
        x_t = np.asarray(x_target, dtype=float).reshape(-1)
        if x_t.size != len(t_idx):
            raise InvalidDataError(f"{x_t.size} target values for {len(t_idx)} target indices")
        x_p = np.asarray(x_prefix, dtype=float).reshape(-1)
        if x_p.size != len(p_idx):
            raise InvalidDataError(f"{x_p.size} prefix values for {len(p_idx)} prefix indices")
        (order,) = _index_rows([p_idx + t_idx], self.n_features, "order")
        x = np.zeros(self.n_features)
        x[order] = np.concatenate([x_p, x_t])
        observed = np.zeros(self.n_features, dtype=bool)
        observed[order] = True
        x = Evidence(x, observed).values[None]
        order = tuple(order.tolist())
        p = len(p_idx)
        _, terms, _ = _densities([order], p, x, self, _prefix_states([order[:p]], x, self, {}))
        return float(_defined(terms.sum(axis=2)[c, 0]))


def mixture_log_ratio(base: np.ndarray, delta: np.ndarray) -> "float | np.ndarray":
    """lse(base + delta) - lse(base) over the last axis, one hypothesis's classes.

    base holds each member class's unnormalized log weight: its log prior
    plus the log density of the evidence already conditioned on. delta
    holds the log density of the new evidence given that. The result is
    the log density of the new evidence under the weighted class mixture.
    A single class is no mixture: its delta comes back as is. Leading
    axes hold independent mixtures; a 1-D input gives a float.

    A mixture whose classes hold mass in base but none in base + delta
    gives the new evidence log 0 = -inf: the maximum over base + delta
    starts at the lowest finite float, so such a row's shifted
    exponentials sum to 0 rather than to the NaN of exp(-inf - -inf).
    The log of 0 raises numpy's "divide" flag, which callers silence
    once per kernel call with np.errstate. A mixture with no mass in
    base has undefined weights and stays NaN. Where base + delta has a
    finite entry the maximum, and so every bit of the result, is
    unchanged.

    Rows are made C-contiguous first: numpy sums a contiguous row
    pairwise but the rows of a Fortran-ordered array (a gathered
    x[:, idx]) sequentially, and from 8 classes on the two can differ in
    the last bit.
    """
    if base.shape[-1] == 1:
        out = delta[..., 0]
    else:
        new = np.ascontiguousarray(base + delta)
        base = np.ascontiguousarray(base)
        top_new = new.max(axis=-1, keepdims=True, initial=-sys.float_info.max)
        top_old = base.max(axis=-1, keepdims=True)
        out = (top_new - top_old
               + np.log(np.exp(new - top_new).sum(axis=-1, keepdims=True))
               - np.log(np.exp(base - top_old).sum(axis=-1, keepdims=True)))[..., 0]
    return float(out) if out.ndim == 0 else out


# why a score can be undefined, said once for every route that raises on one
_UNDEFINED = ("the input has no finite joint log density under any class of either "
              "hypothesis, or its conditioning part has none under any class of one; "
              "it lies too far from every class mean")


def _defined(scores):
    """scores, each of which must be defined: a NaN raises DegenerateDensityError.

    A score is undefined where no class of either hypothesis gives the
    evidence it scores a finite log density, or no class of a hypothesis
    of two or more classes gives the evidence it is conditioned on one.
    """
    if np.isnan(scores).any():
        raise DegenerateDensityError(_UNDEFINED)
    return scores


def _checked_evidence(e, model: GaussianClassModel) -> Evidence:
    """e as Evidence with one entry per model feature."""
    ev = as_evidence(e)
    if ev.n_features != model.n_features:
        raise MissingEvidenceError(
            f"evidence has {ev.n_features} features, model expects {model.n_features}"
        )
    return ev


def posterior(model: GaussianClassModel, evidence: "Evidence | Sequence[float]") -> np.ndarray:
    """P(Y = c | x) for every class, via log-space Bayes rule.

    Requires a fully observed input. Stable for inputs far from every
    class mean because the joint scores are shifted by their maximum
    before exponentiation; an input beyond about 1e154 standard deviations,
    where every class's joint log density is -inf, raises
    DegenerateDensityError.
    """
    e = _checked_evidence(evidence, model)
    if not e.fully_observed:
        missing = int(np.flatnonzero(~e.observed_mask)[0])
        raise MissingEvidenceError(f"posterior needs all features, feature {missing} unobserved")
    terms = _order_terms(e.observed_indices, e.values[None], model, {})[:, 0]
    return _posterior(model.priors, terms.sum(axis=1))


def _posterior(priors: np.ndarray, joint: np.ndarray) -> np.ndarray:
    """P(Y = c | x) from every class's joint log density of x.

    Raises DegenerateDensityError when no class gives x a finite joint
    log density (the squared standardized distance overflows), since no
    class is then favored.
    """
    scores = np.log(priors) + joint
    top = scores.max()
    if not top > -np.inf:
        raise DegenerateDensityError(
            f"the input has no finite joint log density to normalize (the largest "
            f"over classes is {top}); it lies too far from every class mean"
        )
    probs = np.exp(scores - top)
    return probs / probs.sum()


def predicted_class(model: GaussianClassModel, evidence: "Evidence | Sequence[float]") -> int:
    """Posterior argmax; ties break toward the smaller label."""
    return int(np.argmax(posterior(model, evidence)))


def fit(
    data: np.ndarray,
    labels: Sequence[int],
    mode: str = FULL,
    variance_floor: float | None = None,
    feature_names: Sequence[str] | None = None,
) -> GaussianClassModel:
    """Fit one Gaussian per class by maximum likelihood.

    Labels must be dense integers 0..K-1 with every class present at
    least twice. Covariances use the maximum-likelihood normalizer
    (divide by the class count) plus a ridge: variance_floor times the
    identity in full mode, an elementwise floor in diagonal mode. When
    variance_floor is None it defaults to 1e-6 times the mean marginal
    variance of the data, falling back to 1e-12 if that is zero.

    Priors are the empirical class frequencies.
    """
    x = np.asarray(data, dtype=float)
    if x.ndim != 2:
        raise InvalidDataError(f"data must be a 2-D array, got shape {x.shape}")
    n_rows, n_feat = x.shape
    if n_feat < 1:
        raise InvalidDataError("data must have at least one feature column")
    if not np.all(np.isfinite(x)):
        r, c = map(int, np.argwhere(~np.isfinite(x))[0])
        raise InvalidDataError(f"non-finite value at row {r}, feature {c}")
    y = np.asarray(labels)
    if y.ndim != 1 or y.shape[0] != n_rows:
        raise InvalidDataError(f"labels shape {y.shape} does not match {n_rows} data rows")
    if not np.issubdtype(y.dtype, np.integer):
        y = np.asarray(y, dtype=float)
        if not np.all(np.isfinite(y)) or np.any(y != np.floor(y)):
            raise InvalidDataError("labels must be integers")
    y = y.astype(int)
    if np.any(y < 0):
        raise InvalidDataError(f"negative label {int(y.min())}; labels must be 0..K-1")

    n_classes = int(y.max()) + 1
    counts = np.bincount(y, minlength=n_classes)
    if n_classes < 2:
        raise InsufficientDataError("labels contain a single class; need at least two")
    thin = np.flatnonzero(counts < 2)
    if thin.size:
        raise InsufficientDataError(
            f"class {int(thin[0])} has {int(counts[thin[0]])} samples; need at least 2 per class"
        )

    if variance_floor is None:
        scale = float(np.var(x, axis=0).mean())
        floor = DEFAULT_FLOOR_SCALE * scale if scale > 0.0 else DEGENERATE_FLOOR
    else:
        try:
            floor = float(variance_floor)
        except (TypeError, ValueError, OverflowError):
            floor = np.nan
        if not np.isfinite(floor) or floor <= 0.0:
            raise InvalidParameterError(
                f"variance floor must be positive, got {variance_floor!r}")

    if mode not in (DIAGONAL, FULL):
        raise InvalidParameterError(f"mode must be {DIAGONAL!r} or {FULL!r}, got {mode!r}")

    means = np.empty((n_classes, n_feat))
    covs = np.empty((n_classes, n_feat, n_feat) if mode == FULL else (n_classes, n_feat))
    for c in range(n_classes):
        xc = x[y == c]
        mu = xc.mean(axis=0)
        dev = xc - mu
        means[c] = mu
        if mode == FULL:
            covs[c] = dev.T @ dev / xc.shape[0] + floor * np.eye(n_feat)
        else:
            covs[c] = np.maximum((dev * dev).mean(axis=0), floor)

    if feature_names is None:
        feature_names = tuple(f"x{i}" for i in range(n_feat))
    return GaussianClassModel(
        means=means,
        covariances=covs,
        priors=counts / n_rows,
        mode=mode,
        feature_names=tuple(feature_names),
    ).validate()


def model_to_dict(model: GaussianClassModel) -> dict:
    """Serializable form of a model; field order is fixed for stable files.

    A full covariance is written as its lower triangle: row i of "cov"
    holds the i + 1 entries up to the diagonal.
    """
    classes = []
    for c in range(model.n_classes):
        entry = {
            "label": c,
            "prior": float(model.priors[c]),
            "mean": model.means[c].tolist(),
        }
        if model.mode == FULL:
            entry["cov"] = [row[:i + 1] for i, row in enumerate(model.covariances[c].tolist())]
        else:
            entry["var"] = model.covariances[c].tolist()
        classes.append(entry)
    return {
        "version": MODEL_FORMAT_VERSION,
        "mode": model.mode,
        "feature_names": list(model.feature_names),
        "classes": classes,
    }


def _triangles(entries: list, n: int) -> np.ndarray:
    """The (K, n, n) stack of the lower-triangle covariances of version 2."""
    for e in entries:
        cov = e["cov"]
        if not (isinstance(cov, list) and len(cov) == n
                and all(isinstance(row, list) and len(row) == i + 1 for i, row in enumerate(cov))):
            raise InvalidModelError(
                f"class {e['label']} cov must be a lower triangle: {n} lists, "
                "list i holding i + 1 numbers")
    flat = np.array(list(chain.from_iterable(chain.from_iterable(e["cov"] for e in entries))),
                    dtype=float).reshape(len(entries), -1)
    rows, cols = np.tril_indices(n)
    covs = np.empty((len(entries), n, n))
    covs[:, rows, cols] = flat
    covs[:, cols, rows] = flat
    return covs


def model_from_dict(doc: dict) -> GaussianClassModel:
    """Rebuild a model from its serialized form, then validate it.

    Reads model format 2, whose full covariances are lower triangles,
    and format 1, whose full covariances are whole matrices.
    """
    if not isinstance(doc, dict):
        raise InvalidModelError("model document must be a JSON object")
    version = doc.get("version")
    if type(version) is not int or version not in (1, MODEL_FORMAT_VERSION):
        raise InvalidModelError(
            f"unsupported model version {version!r}, expected 1 or {MODEL_FORMAT_VERSION}"
        )
    mode = doc.get("mode")
    if mode not in (DIAGONAL, FULL):
        raise InvalidModelError(f"unknown covariance mode {mode!r}")
    names = doc.get("feature_names")
    if not isinstance(names, list) or not names:
        raise InvalidModelError("feature_names must be a nonempty list")
    entries = doc.get("classes")
    if not isinstance(entries, list) or not entries:
        raise InvalidModelError("classes must be a nonempty list")
    labels = [e.get("label") if isinstance(e, dict) else None for e in entries]
    # a JSON integer only: a bool is an int to Python, and a float would be truncated
    if not all(isinstance(label, int) and not isinstance(label, bool) for label in labels):
        raise InvalidModelError("every class entry needs an integer label")
    entries = sorted(entries, key=lambda e: e["label"])
    labels = sorted(labels)
    if labels != list(range(len(entries))):
        raise InvalidModelError(f"class labels must be exactly 0..{len(entries) - 1}, got {labels}")
    key = "cov" if mode == FULL else "var"
    try:
        # float() and np.array would also read "0.5", "1e0" and true as numbers; a level
        # that is not a list adds no item here, and the shape checks below refuse it
        for field, depth in (("prior", 0), ("mean", 1), (key, 2 if mode == FULL else 1)):
            for e in entries:
                items = [e[field]]
                for _ in range(depth):
                    items = chain.from_iterable(v for v in items if isinstance(v, list))
                bad = set(map(type, items)) - {int, float}
                if bad:
                    raise InvalidModelError(
                        f"class {e['label']} {field} must hold JSON numbers only, got "
                        + ", ".join(sorted(t.__name__ for t in bad)))
        priors = np.array([float(e["prior"]) for e in entries])
        means = np.array([e["mean"] for e in entries], dtype=float)
        if mode == FULL and version == 2:
            covs = _triangles(entries, len(names))
        else:
            covs = np.array([e[key] for e in entries], dtype=float)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidModelError(f"malformed class entry: {exc}") from exc
    if means.ndim != 2 or means.shape[1] != len(names):
        raise InvalidModelError("class means do not match feature_names in length")
    return GaussianClassModel(
        means=means,
        covariances=covs,
        priors=priors,
        mode=mode,
        feature_names=tuple(str(n) for n in names),
    ).validate()


def save_model(model: GaussianClassModel, path: "str | Path") -> None:
    """Write a model as JSON. Identical models produce identical bytes."""
    text = json.dumps(model_to_dict(model), indent=2) + "\n"
    Path(path).write_text(text, encoding="utf-8")


def load_model(path: "str | Path") -> GaussianClassModel:
    text = Path(path).read_text(encoding="utf-8")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidModelError(f"model file is not valid JSON: {exc}") from exc
    return model_from_dict(doc)
