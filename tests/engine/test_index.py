"""Tests for composite hash indexes."""

import pytest

from repro.engine.index import HashIndex


@pytest.fixture
def index():
    idx = HashIndex(["country", "city"])
    idx.add(0, {"country": "UK", "city": "EDI"})
    idx.add(1, {"country": "UK", "city": "EDI"})
    idx.add(2, {"country": "US", "city": "NYC"})
    return idx


class TestHashIndex:
    def test_requires_attributes(self):
        with pytest.raises(ValueError):
            HashIndex([])

    def test_lookup(self, index):
        assert index.lookup("UK", "EDI") == {0, 1}
        assert index.lookup("US", "NYC") == {2}
        assert index.lookup("FR", "PAR") == set()

    def test_lookup_arity_checked(self, index):
        with pytest.raises(ValueError):
            index.lookup("UK")

    def test_remove(self, index):
        index.remove(0, {"country": "UK", "city": "EDI"})
        assert index.lookup("UK", "EDI") == {1}

    def test_remove_last_drops_bucket(self, index):
        index.remove(2, {"country": "US", "city": "NYC"})
        assert ("US", "NYC") not in index.keys()

    def test_remove_missing_is_noop(self, index):
        index.remove(42, {"country": "ZZ", "city": "ZZ"})
        assert len(index) == 2

    def test_update_moves_between_buckets(self, index):
        index.update(0, {"country": "UK", "city": "EDI"}, {"country": "UK", "city": "GLA"})
        assert index.lookup("UK", "EDI") == {1}
        assert index.lookup("UK", "GLA") == {0}

    def test_update_same_key_is_noop(self, index):
        index.update(0, {"country": "UK", "city": "EDI"}, {"country": "UK", "city": "EDI"})
        assert index.lookup("UK", "EDI") == {0, 1}

    def test_groups_and_len(self, index):
        groups = dict(index.groups())
        assert groups[("UK", "EDI")] == {0, 1}
        assert len(index) == 2

    def test_rebuild(self, index):
        index.rebuild([(5, {"country": "NL", "city": "AMS"})])
        assert index.lookup("NL", "AMS") == {5}
        assert len(index) == 1

    def test_null_values_are_indexable(self):
        idx = HashIndex(["a"])
        idx.add(0, {"a": None})
        assert idx.lookup(None) == {0}

    def test_copy_is_independent(self, index):
        clone = index.copy()
        assert clone.attributes == index.attributes
        assert dict(clone.groups()) == dict(index.groups())
        clone.add(3, {"country": "UK", "city": "EDI"})
        index.remove(2, {"country": "US", "city": "NYC"})
        assert index.lookup("UK", "EDI") == {0, 1}
        assert clone.lookup("US", "NYC") == {2}
