"""Unit tests for the consistent-hash ring (shard placement layer)."""

import pytest

from repro.cluster.hashing import DEFAULT_REPLICAS, HashRing

KEYS = [f"('chain-bundle', 'wormhole', {i})" for i in range(400)]


def test_deterministic_across_instances_and_insertion_order():
    """Placement depends only on the member set, never process state."""
    a = HashRing([0, 1, 2, 3])
    b = HashRing([3, 1, 0, 2])  # different insertion order
    assert a.nodes == b.nodes
    for key in KEYS:
        assert a.node_for(key) == b.node_for(key)


def test_every_node_owns_a_share():
    """64 vnodes/node spread 400 keys over all 4 members."""
    ring = HashRing(range(4))
    assert len(ring._ring) == 4 * DEFAULT_REPLICAS
    owners = {ring.node_for(key) for key in KEYS}
    assert owners == {0, 1, 2, 3}


def test_vnode_count_follows_membership():
    """Every member holds exactly ``DEFAULT_REPLICAS`` ring positions,
    through joins and leaves alike."""
    ring = HashRing()
    for node in range(5):
        ring.add(node)
        assert len(ring._ring) == len(ring) * DEFAULT_REPLICAS
    ring.remove(3)
    assert len(ring._ring) == 4 * DEFAULT_REPLICAS
    assert 3 not in set(ring._owners)


def test_removal_remaps_only_the_removed_nodes_keys():
    """The consistent-hashing contract: ~1/N of keys move, and every
    key that moves belonged to the removed node."""
    full = HashRing(range(4))
    before = {key: full.node_for(key) for key in KEYS}
    reduced = HashRing(range(4))
    reduced.remove(2)
    for key in KEYS:
        after = reduced.node_for(key)
        if before[key] != 2:
            assert after == before[key], key  # untouched keys stay put
        else:
            assert after != 2
    moved = sum(1 for key in KEYS if before[key] == 2)
    # Node 2 owned a real share (roughly 1/4; loose bounds for hash noise).
    assert 0.1 * len(KEYS) < moved < 0.45 * len(KEYS)


def test_exclude_is_a_fallback_not_a_remap():
    """Excluding a down node picks its ring successor without touching
    any other key's placement — and without mutating the ring."""
    ring = HashRing(range(4))
    for key in KEYS[:50]:
        home = ring.node_for(key)
        fallback = ring.node_for(key, exclude={home})
        assert fallback != home
        assert fallback in ring.nodes
        # Matches actually removing the node (same successor walk)...
        reduced = HashRing(set(range(4)) - {home})
        assert fallback == reduced.node_for(key)
        # ...and the ring itself is unchanged: home is restored.
        assert ring.node_for(key) == home


def test_all_excluded_raises():
    ring = HashRing(range(2))
    with pytest.raises(ValueError, match="no eligible nodes"):
        ring.node_for("k", exclude={0, 1})
    with pytest.raises(ValueError, match="no eligible nodes"):
        HashRing().node_for("k")


def test_membership_operations_are_idempotent():
    ring = HashRing()
    ring.add(0)
    ring.add(0)
    assert len(ring) == 1 and 0 in ring
    ring.remove(0)
    ring.remove(0)
    assert len(ring) == 0 and 0 not in ring
