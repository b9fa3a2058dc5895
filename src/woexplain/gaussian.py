"""Class-conditional Gaussian density models.

One Gaussian per class, diagonal or full covariance, plus class priors.
This is the likelihood model behind every weight-of-evidence computation.
Its one density primitive, log_density_terms, factors each class
covariance permuted into a coordinate order once (Cholesky) and returns
every sequential conditional log density along that order, so any
conditional log P(x_target | x_prefix, Y = c) is a sum of terms. Composite
hypotheses Y in C are prior-weighted mixtures combined by
mixture_log_ratio, which makes chained conditional scores telescope
exactly.

All probability arithmetic happens in log space.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np
# unused here; perfbench/tracing.py counts factorizations through gaussian.cho_factor
from scipy.linalg import cho_factor  # noqa: F401

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
from .types import Evidence, HypothesisSet, as_evidence, as_hypothesis

LOG_2PI = float(np.log(2.0 * np.pi))

MODEL_FORMAT_VERSION = 1

DIAGONAL = "diagonal"
FULL = "full"

# relative scale of the default ridge added to fitted covariances
DEFAULT_FLOOR_SCALE = 1e-6
# absolute fallback when the data has zero variance everywhere
DEGENERATE_FLOOR = 1e-12


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


def _factor(covs: np.ndarray, error: type) -> np.ndarray:
    """np.linalg.cholesky of a class-major stack of covariances.

    A failure raises error naming the first class whose own matrices do
    not factor; a batch fails exactly where one of its matrices does, so
    the search, which runs on this path only, always finds one.
    """
    try:
        return np.linalg.cholesky(covs)
    except np.linalg.LinAlgError as exc:
        for c, cov in enumerate(covs):
            try:
                np.linalg.cholesky(cov)
            except np.linalg.LinAlgError:
                raise error(f"the covariance of class {c} is not positive definite") from exc


@dataclass(frozen=True)
class GaussianClassModel:
    """Per-class Gaussian densities with shared feature space.

    Attributes:
        means: (K, n) class means.
        covariances: (K, n, n) in full mode, (K, n) variances in diagonal mode.
        priors: (K,) class priors, positive, summing to 1.
        mode: "diagonal" or "full".
        feature_names: n column names, used in files and reports.
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
            for c in range(self.n_classes):
                cov = self.covariances[c]
                if not np.allclose(cov, cov.T, rtol=0.0, atol=1e-10 * (1.0 + np.abs(cov).max())):
                    raise InvalidModelError(f"covariance of class {c} is not symmetric")
            _factor(self.covariances, InvalidModelError)
        return self

    def check_label(self, label: int) -> int:
        try:
            label = operator.index(label)
        except TypeError:
            raise UnknownLabelError(f"label {label!r} is not an integer") from None
        if not 0 <= label < self.n_classes:
            raise UnknownLabelError(f"label {label} outside model range 0..{self.n_classes - 1}")
        return label

    def marginal_moments(self, label: int, feature: int) -> tuple[float, float]:
        """Mean and variance of one feature under one class."""
        c = self.check_label(label)
        ((i,),) = _index_rows([[feature]], self.n_features, "feature")
        var = self.covariances[c, i] if self.mode == DIAGONAL else self.covariances[c, i, i]
        return float(self.means[c, i]), float(var)

    def log_density_terms(self, order: Sequence[int], values: Sequence[float]) -> np.ndarray:
        """Sequential conditional log densities of every class along `order`.

        A stack of M equal-length orders, an (M, m) integer array with
        values of the same shape, gives a (K, M, m) array whose entry
        [c, j, i] is log P(X_{o_i} = v_i | X_{o_1..o_{i-1}} = v_1..v_{i-1},
        Y = c) along order j, so the prefix sums of [c, j] are the joint
        log densities of every prefix of that order. The covariances,
        permuted into the orders, are factored as S = L L^T in one batch
        over classes and orders; with z = L^-1 (v - mu) the i-th term is
        -(log 2 pi + 2 log L_ii + z_i^2)/2 (Rasmussen & Williams, GPML,
        App. A). Diagonal mode is the case L = diag(sqrt(var)).

        A single order, any other index sequence with its values, is
        scored as a one-order stack and gives that order's (K, m) row.
        Row [:, j] of a stack equals order j's result alone, bit for bit.

        Past about 1e154 standard deviations the squared distance
        overflows and the term is -inf, silently: the density is 0 there.
        A covariance that fails to factor raises NumericalConditioningError
        naming the first such class.
        """
        single = not (isinstance(order, np.ndarray) and order.ndim == 2)
        idx = _index_rows([order] if single else order, self.n_features, "order")
        v = np.asarray(values, dtype=float)
        if single:
            v = v.reshape(1, -1)
        if v.shape != idx.shape:
            raise InvalidDataError(f"{v.size} values for {idx.size} ordered indices")
        dev = v - self.means[:, idx]
        # np.linalg sets its own error state, so this one covers the squares only
        with np.errstate(over="ignore"):
            if self.mode == DIAGONAL:
                var = self.covariances[:, idx]
                terms = -0.5 * (LOG_2PI + np.log(var) + dev * dev / var)
            else:
                covs = self.covariances[:, idx[..., :, None], idx[..., None, :]]
                chol = _factor(covs, NumericalConditioningError)
                # batched over classes; scipy's solve_triangular takes one matrix at scipy 1.10
                z = np.linalg.solve(chol, dev[..., None])[..., 0]
                log_var = 2.0 * np.log(np.diagonal(chol, axis1=-2, axis2=-1))
                terms = -0.5 * (LOG_2PI + log_var + z * z)
        return terms[:, 0] if single else terms

    def class_conditional_log_density(
        self,
        label: int,
        target: Sequence[int],
        x_target: Sequence[float],
        prefix: Sequence[int] = (),
        x_prefix: Sequence[float] = (),
    ) -> float:
        """log P(X_target = x_target | X_prefix = x_prefix, Y = label).

        The sum of the target's log_density_terms along prefix then
        target. In diagonal mode the prefix has no effect. An empty target
        yields log 1 = 0.
        """
        return set_conditional_log_likelihood(
            self, self.check_label(label), target, x_target, prefix, x_prefix
        )


def mixture_log_ratio(base: np.ndarray, delta: np.ndarray) -> "float | np.ndarray":
    """lse(base + delta) - lse(base) over the last axis, one hypothesis's classes.

    base holds each member class's unnormalized log weight: its log prior
    plus the log density of the evidence already conditioned on. delta
    holds the log density of the new evidence given that. The result is
    the log density of the new evidence under the weighted class mixture.
    A single class is no mixture: its delta comes back as is. Leading
    axes hold independent mixtures; a 1-D input gives a float.

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
        top_new = new.max(axis=-1, keepdims=True)
        top_old = base.max(axis=-1, keepdims=True)
        out = (top_new - top_old
               + np.log(np.exp(new - top_new).sum(axis=-1, keepdims=True))
               - np.log(np.exp(base - top_old).sum(axis=-1, keepdims=True)))[..., 0]
    return float(out) if out.ndim == 0 else out


def set_conditional_log_likelihood(
    model: GaussianClassModel,
    hypothesis: "HypothesisSet | int | Iterable[int]",
    target: Sequence[int],
    x_target: Sequence[float],
    prefix: Sequence[int] = (),
    x_prefix: Sequence[float] = (),
) -> float:
    """log P(X_target = x_target | X_prefix = x_prefix, Y in C).

    The composite hypothesis is a mixture of its member classes with
    weights w_c proportional to P(c) P(x_prefix | c), renormalized over C:
    mixture_log_ratio with base b_c = log P(c) + log P(x_prefix | c) and
    delta the conditional target log density. This form makes chained
    scores telescope.
    """
    h = list(as_hypothesis(hypothesis).check_against(model.n_classes))
    t_idx, p_idx = tuple(target), tuple(prefix)
    x_t = np.asarray(x_target, dtype=float).reshape(-1)
    if x_t.size != len(t_idx):
        raise InvalidDataError(f"{x_t.size} target values for {len(t_idx)} target indices")
    x_p = np.asarray(x_prefix, dtype=float).reshape(-1)
    if x_p.size != len(p_idx):
        raise InvalidDataError(f"{x_p.size} prefix values for {len(p_idx)} prefix indices")
    terms = model.log_density_terms(p_idx + t_idx, np.concatenate([x_p, x_t]))
    base = np.log(model.priors) + terms[:, :len(p_idx)].sum(axis=1)
    delta = terms[:, len(p_idx):].sum(axis=1)
    return mixture_log_ratio(base[h], delta[h])


def posterior(model: GaussianClassModel, evidence: "Evidence | Sequence[float]") -> np.ndarray:
    """P(Y = c | x) for every class, via log-space Bayes rule.

    Requires a fully observed input. Stable for inputs far from every
    class mean because the joint scores are shifted by their maximum
    before exponentiation; an input beyond about 1e154 standard deviations,
    where every class's joint log density is -inf, raises
    DegenerateDensityError.
    """
    e = as_evidence(evidence)
    if e.n_features != model.n_features:
        raise InvalidDataError(
            f"evidence has {e.n_features} features, model expects {model.n_features}"
        )
    if not e.fully_observed:
        missing = int(np.flatnonzero(~e.observed_mask)[0])
        raise MissingEvidenceError(f"posterior needs all features, feature {missing} unobserved")
    return _posterior(model.priors, model.log_density_terms(range(model.n_features), e.values))


def _posterior(priors: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """P(Y = c | x) from the (K, n) full-order log_density_terms of x.

    Raises DegenerateDensityError when no class gives x a finite joint
    log density (the squared standardized distance overflows), since no
    class is then favored.
    """
    scores = np.log(priors) + terms.sum(axis=1)
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
        floor = float(variance_floor)
        if not np.isfinite(floor) or floor <= 0.0:
            raise InvalidParameterError(f"variance floor must be positive, got {floor!r}")

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
    """Serializable form of a model; field order is fixed for stable files."""
    classes = []
    for c in range(model.n_classes):
        entry = {
            "label": c,
            "prior": float(model.priors[c]),
            "mean": [float(v) for v in model.means[c]],
        }
        if model.mode == FULL:
            entry["cov"] = [[float(v) for v in row] for row in model.covariances[c]]
        else:
            entry["var"] = [float(v) for v in model.covariances[c]]
        classes.append(entry)
    return {
        "version": MODEL_FORMAT_VERSION,
        "mode": model.mode,
        "feature_names": list(model.feature_names),
        "classes": classes,
    }


def model_from_dict(doc: dict) -> GaussianClassModel:
    """Rebuild a model from its serialized form, then validate it."""
    if not isinstance(doc, dict):
        raise InvalidModelError("model document must be a JSON object")
    version = doc.get("version")
    if version != MODEL_FORMAT_VERSION:
        raise InvalidModelError(
            f"unsupported model version {version!r}, expected {MODEL_FORMAT_VERSION}"
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
    try:
        entries = sorted(entries, key=lambda e: int(e["label"]))
        labels = [int(e["label"]) for e in entries]
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidModelError("every class entry needs an integer label") from exc
    if labels != list(range(len(entries))):
        raise InvalidModelError(f"class labels must be exactly 0..{len(entries) - 1}, got {labels}")
    key = "cov" if mode == FULL else "var"
    try:
        priors = np.array([float(e["prior"]) for e in entries])
        means = np.array([[float(v) for v in e["mean"]] for e in entries], dtype=float)
        covs = np.array([e[key] for e in entries], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
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
