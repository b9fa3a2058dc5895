"""Value-type normalization and validation rules."""

import numpy as np
import pytest

from woexplain import (
    AttributePartition,
    Evidence,
    HypothesisSet,
    as_evidence,
    as_hypothesis,
)
from woexplain.errors import (
    InvalidDataError,
    InvalidHypothesisError,
    InvalidPartitionError,
    UnknownLabelError,
)


class TestHypothesisSet:
    def test_labels_are_sorted(self):
        assert HypothesisSet((3, 1, 2)).classes == (1, 2, 3)

    def test_set_operations(self):
        a, b = HypothesisSet((0, 2, 4)), HypothesisSet((2, 4))
        assert b.issubset(a)
        assert not a.isdisjoint(b)
        assert a.difference(b) == HypothesisSet((0,))
        assert 2 in a and 1 not in a
        assert len(a) == 3 and list(a) == [0, 2, 4]

    def test_coercion(self):
        assert as_hypothesis(3) == HypothesisSet((3,))
        assert as_hypothesis([2, 0]) == HypothesisSet((0, 2))
        original = HypothesisSet((1,))
        assert as_hypothesis(original) is original

    def test_range_check(self):
        assert HypothesisSet((0, 2)).check_against(3) == HypothesisSet((0, 2))
        with pytest.raises(UnknownLabelError):
            HypothesisSet((0, 3)).check_against(3)

    def test_rejects_bad_labels(self):
        with pytest.raises(InvalidHypothesisError):
            HypothesisSet(())
        with pytest.raises(InvalidHypothesisError):
            HypothesisSet((1, 1))
        with pytest.raises(UnknownLabelError):
            HypothesisSet((-1, 0))
        with pytest.raises(InvalidHypothesisError):
            HypothesisSet(("a",))
        with pytest.raises(InvalidHypothesisError):
            HypothesisSet((0,)).difference(HypothesisSet((0,)))


class TestEvidence:
    def test_defaults_to_fully_observed(self):
        e = Evidence(np.array([1.0, 2.0]))
        assert e.fully_observed
        assert e.observed_indices == (0, 1)
        assert e.n_features == 2

    def test_unobserved_entries_may_be_anything(self):
        e = Evidence(
            np.array([1.0, np.nan, 3.0]),
            observed_mask=np.array([True, False, True]),
        )
        assert e.observed_indices == (0, 2)
        assert not e.fully_observed

    def test_arrays_are_read_only_copies(self):
        values = np.array([1.0, 2.0])
        e = Evidence(values)
        values[0] = 99.0
        assert e.values[0] == 1.0
        with pytest.raises(ValueError):
            e.values[0] = 5.0

    def test_rejects_bad_shapes_and_values(self):
        with pytest.raises(InvalidDataError):
            Evidence(np.zeros((2, 2)))
        with pytest.raises(InvalidDataError):
            Evidence(np.array([]))
        with pytest.raises(InvalidDataError):
            Evidence(np.array([np.inf, 1.0]))
        with pytest.raises(InvalidDataError):
            Evidence(np.array([1.0, 2.0]), observed_mask=np.array([True]))

    def test_coercion(self):
        e = as_evidence([1, 2, 3])
        assert e.values.dtype == float
        original = Evidence(np.array([0.5]))
        assert as_evidence(original) is original


class TestAttributePartition:
    def test_groups_sorted_within_order_preserved(self):
        p = AttributePartition(((2, 0), (1, 3)))
        assert p.groups == ((0, 2), (1, 3))
        assert p.n_features == 4
        assert len(p) == 2

    def test_names_run_parallel(self):
        p = AttributePartition(((0,), (1,)), names=("left", "right"))
        assert p.names == ("left", "right")

    def test_rejects_bad_structure(self):
        with pytest.raises(InvalidPartitionError):
            AttributePartition(())
        with pytest.raises(InvalidPartitionError):
            AttributePartition(((0,), ()))
        with pytest.raises(InvalidPartitionError):
            AttributePartition(((0, 1), (1, 2)))
        with pytest.raises(InvalidPartitionError):
            AttributePartition(((0,), (2,)))
        with pytest.raises(InvalidPartitionError):
            AttributePartition(((-1, 0),))
        with pytest.raises(InvalidPartitionError):
            AttributePartition(((0,), (1,)), names=("only one",))

    def test_repeated_features_name_their_groups(self):
        """A feature listed twice in one group is told apart from one in two groups; a group
        is labelled by repr(name) when the partition has names, by position otherwise."""
        for groups, names, message in [
            (((0, 0), (1,)), None, "group 0 lists feature 0 twice"),
            (((1,), (0, 2, 0)), ("a", "b"), "group 'b' lists feature 0 twice"),
            (((0, 1), (2, 1)), None, "feature 1 appears in both group 0 and group 1"),
            (((0, 1), (2, 1)), ("a", "b"), "feature 1 appears in both group 'a' and group 'b'"),
        ]:
            with pytest.raises(InvalidPartitionError) as caught:
                AttributePartition(groups, names)
            assert str(caught.value) == message
