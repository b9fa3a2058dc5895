"""Core value types: hypothesis sets, evidence vectors, and feature partitions.

All three are immutable and normalize their contents on construction, so
downstream code can rely on sorted, validated tuples and read-only arrays.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    InvalidDataError,
    InvalidHypothesisError,
    InvalidPartitionError,
    UnknownLabelError,
)


@dataclass(frozen=True)
class HypothesisSet:
    """A nonempty set of class labels treated as a single hypothesis Y in C.

    Labels are stored sorted and deduplication is an error: a duplicate
    almost always means a caller bug, not an intent.
    """

    classes: tuple[int, ...]

    def __post_init__(self):
        try:
            labels = tuple(sorted(operator.index(c) for c in self.classes))
        except TypeError as exc:
            raise InvalidHypothesisError(
                f"class labels must be integers, got {self.classes!r}"
            ) from exc
        if not labels:
            raise InvalidHypothesisError("hypothesis set must be nonempty")
        if len(set(labels)) != len(labels):
            raise InvalidHypothesisError(f"duplicate class labels: {list(labels)}")
        if labels[0] < 0:
            raise UnknownLabelError(f"negative class label: {labels[0]}")
        object.__setattr__(self, "classes", labels)

    def __len__(self) -> int:
        return len(self.classes)

    def __iter__(self) -> Iterator[int]:
        return iter(self.classes)

    def __contains__(self, label: int) -> bool:
        return label in self.classes

    def isdisjoint(self, other: "HypothesisSet") -> bool:
        return set(self.classes).isdisjoint(other.classes)

    def issubset(self, other: "HypothesisSet") -> bool:
        return set(self.classes).issubset(other.classes)

    def difference(self, other: "HypothesisSet") -> "HypothesisSet":
        """Labels in self but not in other. Raises if the result is empty."""
        return HypothesisSet(tuple(c for c in self.classes if c not in other))

    def check_against(self, n_classes: int) -> "HypothesisSet":
        """Raise UnknownLabelError unless every label is in 0..n_classes-1."""
        if self.classes[-1] >= n_classes:
            raise UnknownLabelError(
                f"label {self.classes[-1]} outside model range 0..{n_classes - 1}"
            )
        return self


def as_hypothesis(h: "HypothesisSet | int | Iterable[int]") -> HypothesisSet:
    """Coerce a label, or an iterable of labels, into a HypothesisSet."""
    if isinstance(h, HypothesisSet):
        return h
    if isinstance(h, (int, np.integer)):
        return HypothesisSet((h,))
    return HypothesisSet(h)


@dataclass(frozen=True)
class Evidence:
    """An observed input vector, possibly with unobserved coordinates.

    values holds a float for every feature; observed_mask marks which
    entries actually carry evidence. Unobserved entries may hold anything
    (including NaN) and are never read.
    """

    values: np.ndarray
    observed_mask: np.ndarray | None = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1:
            raise InvalidDataError(f"evidence must be a 1-D vector, got shape {values.shape}")
        if values.size == 0:
            raise InvalidDataError("evidence vector must have at least one feature")
        if self.observed_mask is None:
            mask = np.ones(values.size, dtype=bool)
        else:
            mask = np.asarray(self.observed_mask, dtype=bool)
            if mask.shape != values.shape:
                raise InvalidDataError(
                    f"observed_mask shape {mask.shape} does not match values shape {values.shape}"
                )
        if not np.all(np.isfinite(values[mask])):
            bad = int(np.flatnonzero(~np.isfinite(values) & mask)[0])
            raise InvalidDataError(f"non-finite value at observed feature {bad}")
        values = values.copy()
        mask = mask.copy()
        values.setflags(write=False)
        mask.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "observed_mask", mask)

    @property
    def n_features(self) -> int:
        return int(self.values.size)

    @property
    def observed_indices(self) -> tuple[int, ...]:
        return tuple(int(i) for i in np.flatnonzero(self.observed_mask))

    @property
    def fully_observed(self) -> bool:
        return bool(self.observed_mask.all())


def as_evidence(e: "Evidence | Sequence[float] | np.ndarray") -> Evidence:
    """Coerce an array-like into fully observed Evidence."""
    if isinstance(e, Evidence):
        return e
    return Evidence(np.asarray(e, dtype=float))


@dataclass(frozen=True)
class AttributePartition:
    """Disjoint feature groups covering indices 0..n-1 exactly once.

    Groups are index tuples, stored sorted within each group; group order
    itself is meaningful and preserved. Optional names run parallel to
    groups. Errors label a group by repr(name) when there are names and
    by its position otherwise; a feature repeated within a group or
    across groups is named where it first repeats, in the given order.
    """

    groups: tuple[tuple[int, ...], ...]
    names: tuple[str, ...] | None = None

    def __post_init__(self):
        groups = tuple(self.groups)
        names = None if self.names is None else tuple(str(n) for n in self.names)
        if names is not None and len(names) != len(groups):
            raise InvalidPartitionError(f"{len(names)} names for {len(groups)} groups")
        labels = [str(k) for k in range(len(groups))] if names is None else list(map(repr, names))
        if not groups:
            raise InvalidPartitionError("partition must have at least one group")
        owner: dict[int, int] = {}
        norm = []
        for k, group in enumerate(groups):
            try:
                idx = [operator.index(i) for i in group]
            except (TypeError, ValueError) as exc:
                raise InvalidPartitionError(
                    f"group {labels[k]} has non-integer indices") from exc
            if not idx:
                raise InvalidPartitionError(f"group {labels[k]} is empty")
            if min(idx) < 0:
                raise InvalidPartitionError(f"group {labels[k]} has negative index {min(idx)}")
            for i in idx:
                if i in owner:
                    if owner[i] == k:
                        raise InvalidPartitionError(f"group {labels[k]} lists feature {i} twice")
                    raise InvalidPartitionError(f"feature {i} appears in both group "
                                                f"{labels[owner[i]]} and group {labels[k]}")
                owner[i] = k
            norm.append(tuple(sorted(idx)))
        missing = next((i for i in range(len(owner)) if i not in owner), None)
        if missing is not None:
            raise InvalidPartitionError(f"feature {missing} is not covered by any group")
        object.__setattr__(self, "groups", tuple(norm))
        object.__setattr__(self, "names", names)

    @property
    def n_features(self) -> int:
        return sum(len(g) for g in self.groups)

    def __len__(self) -> int:
        return len(self.groups)
