"""Tests for the placement data structure."""

import pickle

import numpy as np
import pytest

from repro.exceptions import PlacementError
from repro.placement.plan import Placement


def _by_index(mapping):
    """``mapping`` built from indices, in its order, over id tuples in
    another order that also name a VM and a host it does not use."""
    vm_ids = ("spare",) + tuple(reversed(list(mapping)))
    host_ids = ("idle",) + tuple(sorted(set(mapping.values()), reverse=True))
    return Placement.from_indices(
        vm_ids,
        host_ids,
        [vm_ids.index(vm) for vm in mapping],
        [host_ids.index(host) for host in mapping.values()],
    )


CONSTRUCTORS = [
    pytest.param(Placement, id="mapping"),
    pytest.param(_by_index, id="indices"),
]


class TestPlacement:
    def test_lookup_and_membership(self):
        placement = Placement({"a": "h1", "b": "h1", "c": "h2"})
        assert placement.host_of("a") == "h1"
        assert "a" in placement
        assert len(placement) == 3

    def test_vms_on_host(self):
        placement = Placement({"a": "h1", "b": "h1", "c": "h2"})
        assert set(placement.vms_on("h1")) == {"a", "b"}
        assert placement.vms_on("h9") == ()

    def test_hosts_used_and_active_count(self):
        placement = Placement({"a": "h1", "b": "h1", "c": "h2"})
        assert placement.hosts_used == {"h1", "h2"}
        assert placement.active_host_count == 2

    def test_unplaced_vm_raises(self):
        placement = Placement({"a": "h1"})
        with pytest.raises(PlacementError):
            placement.host_of("z")

    def test_migrations_from(self):
        before = Placement({"a": "h1", "b": "h1", "c": "h2"})
        after = Placement({"a": "h2", "b": "h1", "d": "h3"})
        # a moved, b stayed, c disappeared, d is new.
        assert after.migrations_from(before) == {"a"}

    def test_migrations_from_empty(self):
        after = Placement({"a": "h1"})
        assert after.migrations_from(Placement.empty()) == frozenset()

    def test_empty_ids_rejected(self):
        with pytest.raises(PlacementError):
            Placement({"": "h1"})
        with pytest.raises(PlacementError):
            Placement({"a": ""})

    def test_assignment_snapshot_is_independent(self):
        source = {"a": "h1"}
        placement = Placement(source)
        source["b"] = "h2"
        assert "b" not in placement


class TestIndexRepresentation:
    MAPPINGS = [
        {},
        {"a": "h1"},
        {"c": "h2", "a": "h1", "b": "h1"},
        {f"vm{i}": f"h{i % 3}" for i in range(10, 0, -1)},
    ]

    @pytest.mark.parametrize("mapping", MAPPINGS)
    def test_index_built_answers_like_dict_built(self, mapping):
        packed = Placement(mapping)
        indexed = _by_index(mapping)
        assert packed == indexed and indexed == packed
        assert list(indexed.assignment.items()) == list(mapping.items())
        assert list(indexed) == list(packed) == list(mapping)
        assert len(indexed) == len(packed) == len(mapping)
        for vm, host in mapping.items():
            assert vm in indexed
            assert indexed.host_of(vm) == packed.host_of(vm) == host
        assert "spare" not in indexed
        for host in set(mapping.values()) | {"idle", "h9"}:
            assert indexed.vms_on(host) == packed.vms_on(host)
        assert indexed.hosts_used == packed.hosts_used
        assert indexed.active_host_count == packed.active_host_count
        assert indexed.migrations_from(packed) == frozenset()
        assert packed.migrations_from(indexed) == frozenset()
        # Equal tuples that are not the same objects.
        assert indexed.migrations_from(_by_index(mapping)) == frozenset()

    def test_vms_on_keeps_assignment_order(self):
        mapping = {"c": "h1", "a": "h2", "b": "h1"}
        assert _by_index(mapping).vms_on("h1") == ("c", "b")
        assert Placement(mapping).vms_on("h1") == ("c", "b")

    def test_packing_keeps_the_mapping_order(self):
        placement = Placement({"b": "h2", "a": "h1", "c": "h2"})
        assert placement.vm_ids == ("b", "a", "c")
        assert placement.host_ids == ("h2", "h1")
        assert placement.rows.tolist() == [0, 1, 2]
        assert placement.hosts.tolist() == [0, 1, 0]

    def test_indices_in_caller_order(self):
        placement = _by_index({"b": "h2", "a": "h1", "z": "h3"})
        vm_index, host_index = {"a": 0, "b": 1}, {"h1": 5, "h2": 6}
        memo = {}
        vm_rows, host_rows = placement.indices(vm_index, host_index, memo)
        assert vm_rows.tolist() == [1, 0, -1]
        assert host_rows.tolist() == [6, 5, -1]
        # Another placement over the same tuples adds no lookup.
        n_lookups = len(memo)
        other = Placement.from_indices(
            placement.vm_ids,
            placement.host_ids,
            [placement.vm_ids.index("a")],
            [placement.host_ids.index("h2")],
        )
        vm_rows, host_rows = other.indices(vm_index, host_index, memo)
        assert (vm_rows.tolist(), host_rows.tolist()) == ([0], [6])
        assert len(memo) == n_lookups

    @pytest.mark.parametrize("make_before", CONSTRUCTORS)
    @pytest.mark.parametrize("make_after", CONSTRUCTORS)
    def test_migrations_from_across_tuples(
        self, make_before, make_after
    ):
        before = make_before({"a": "h1", "b": "h1", "c": "h2", "e": "h5"})
        after = make_after({"a": "h2", "b": "h1", "d": "h3", "e": "h4"})
        # a moved, b stayed, c disappeared, d is new, e moved to a host
        # the earlier placement does not name.
        assert after.migrations_from(before) == {"a", "e"}
        assert before.migrations_from(after) == {"a", "e"}

    def test_migrations_from_on_shared_tuples(self):
        vm_ids = ("a", "b", "c", "d")
        host_ids = ("h1", "h2", "h3")
        before = Placement.from_indices(vm_ids, host_ids, [0, 1, 2], [0, 0, 1])
        after = Placement.from_indices(vm_ids, host_ids, [3, 1, 0], [2, 0, 1])
        assert after.migrations_from(before) == {"a"}
        assert after.migrations_from(Placement.empty()) == frozenset()

    def test_pickle_keeps_shared_tuples_and_drops_the_mapping(self):
        vm_ids = ("a", "b")
        host_ids = ("h1", "h2")
        placements = [
            Placement.from_indices(vm_ids, host_ids, [0, 1], [0, 1]),
            Placement.from_indices(vm_ids, host_ids, [1, 0], [0, 0]),
        ]
        placements[0].assignment  # built, then not pickled
        back = pickle.loads(pickle.dumps(placements))
        assert back[0]._mapping is None
        assert back == placements
        assert back[0].vm_ids is back[1].vm_ids
        assert back[0].host_ids is back[1].host_ids

    def test_read_only(self):
        placement = Placement({"a": "h1"})
        with pytest.raises(TypeError):
            placement.assignment["a"] = "h2"
        with pytest.raises(AttributeError):
            placement.rows = np.array([0])

    def test_index_arrays_must_pair_up(self):
        with pytest.raises(PlacementError):
            Placement.from_indices(("a", "b"), ("h1",), [0, 1], [0])
