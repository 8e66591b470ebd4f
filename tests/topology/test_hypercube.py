"""Tests for the Hypercube and Subcube abstractions."""

import copy
import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import TopologyError
from repro.topology.hypercube import Hypercube, Subcube, subcube_tables

dims = st.integers(min_value=0, max_value=8)


class TestHypercubeBasics:
    def test_node_count(self):
        assert Hypercube(0).num_nodes == 1
        assert Hypercube(3).num_nodes == 8
        assert Hypercube(10).num_nodes == 1024

    def test_with_nodes(self):
        assert Hypercube.with_nodes(16).dimension == 4
        with pytest.raises(TopologyError):
            Hypercube.with_nodes(12)
        with pytest.raises(TopologyError):
            Hypercube.with_nodes(0)

    def test_negative_dimension_rejected(self):
        with pytest.raises(TopologyError):
            Hypercube(-1)

    def test_one_shared_cube_per_dimension(self):
        cube = Hypercube(5)
        assert Hypercube(5) is cube and Hypercube(np.int64(5)) is cube
        assert Hypercube.with_nodes(32) is cube
        assert pickle.loads(pickle.dumps(cube)) is cube
        assert copy.deepcopy(cube) is cube and copy.copy(cube) is cube
        assert pickle.loads(pickle.dumps(Subcube(cube, (0, 2), 1))).parent is cube

    def test_link_count(self):
        assert Hypercube(0).num_links == 0
        assert Hypercube(3).num_links == 12  # 3 * 2^2
        assert Hypercube(4).num_links == 32

    def test_contains(self):
        cube = Hypercube(3)
        assert cube.contains(0)
        assert cube.contains(7)
        assert not cube.contains(8)
        assert not cube.contains(-1)


class TestNeighbors:
    def test_neighbors_of_zero(self):
        assert Hypercube(3).neighbors(0) == [1, 2, 4]

    def test_neighbor_across_dim(self):
        cube = Hypercube(4)
        assert cube.neighbor(0b0101, 1) == 0b0111
        assert cube.neighbor(0b0101, 3) == 0b1101

    def test_bad_dim_rejected(self):
        with pytest.raises(TopologyError):
            Hypercube(3).neighbor(0, 3)

    def test_bad_node_rejected(self):
        with pytest.raises(TopologyError):
            Hypercube(3).neighbors(8)

    @given(dims.filter(lambda d: d >= 1), st.data())
    def test_neighbor_relation_symmetric(self, d, data):
        cube = Hypercube(d)
        node = data.draw(st.integers(min_value=0, max_value=cube.num_nodes - 1))
        for nb in cube.neighbors(node):
            assert cube.are_neighbors(node, nb)
            assert cube.are_neighbors(nb, node)
            assert node in cube.neighbors(nb)

    @given(dims, st.data())
    def test_distance_equals_popcount(self, d, data):
        cube = Hypercube(d)
        a = data.draw(st.integers(min_value=0, max_value=cube.num_nodes - 1))
        b = data.draw(st.integers(min_value=0, max_value=cube.num_nodes - 1))
        assert cube.distance(a, b) == bin(a ^ b).count("1")

    def test_inlined_link_check_and_route_keep_their_answers_and_errors(self):
        """``are_neighbors`` and ``route_hops`` are written as bit loops
        (they are the cold path of every first-touched link and route):
        same answers as the reference helpers, same errors out of range."""
        from repro.topology.routing import ecube_hops
        from repro.util.bits import hamming_distance

        cube = Hypercube(4)
        for a in cube.nodes():
            for b in cube.nodes():
                assert cube.are_neighbors(a, b) == (hamming_distance(a, b) == 1)
                assert cube.route_hops(a, b) == ecube_hops(a, b)
        for bad in (-1, 16):
            for call in (cube.are_neighbors, cube.route_hops):
                with pytest.raises(TopologyError, match="outside 16-node"):
                    call(bad, 3)
                with pytest.raises(TopologyError, match="outside 16-node"):
                    call(3, bad)

    def test_link_dimension(self):
        cube = Hypercube(4)
        assert cube.link_dimension(0b0000, 0b0100) == 2
        with pytest.raises(TopologyError):
            cube.link_dimension(0, 3)  # distance 2


class TestSubcube:
    def test_members_of_full_split(self):
        cube = Hypercube(3)
        subs = cube.split([2])
        assert len(subs) == 2
        assert list(subs[0].members()) == [0, 1, 2, 3]
        assert list(subs[1].members()) == [4, 5, 6, 7]

    def test_split_partitions_nodes(self):
        cube = Hypercube(4)
        subs = cube.split([1, 3])
        all_members = sorted(m for s in subs for m in s.members())
        assert all_members == list(range(16))

    def test_split_duplicate_dim_rejected(self):
        with pytest.raises(TopologyError):
            Hypercube(3).split([1, 1])

    def test_split_bad_dim_rejected(self):
        with pytest.raises(TopologyError):
            Hypercube(3).split([3])

    def test_member_index_roundtrip(self):
        cube = Hypercube(4)
        sub = Subcube(cube, (1, 3), 0b0101)
        for idx in range(sub.num_nodes):
            node = sub.member(idx)
            assert sub.index_of(node) == idx
            assert sub.contains(node)

    def test_anchor_normalized(self):
        cube = Hypercube(4)
        s1 = Subcube(cube, (0, 1), 0b0011)  # free bits set in anchor
        s2 = Subcube(cube, (0, 1), 0b0000)
        assert s1.anchor == s2.anchor == 0

    def test_non_member_rejected(self):
        cube = Hypercube(4)
        sub = Subcube(cube, (0, 1), 0b0100)
        with pytest.raises(TopologyError):
            sub.index_of(0b1000)

    def test_member_out_of_range(self):
        sub = Subcube(Hypercube(3), (0,), 0)
        with pytest.raises(TopologyError):
            sub.member(2)

    def test_duplicate_free_dim_rejected(self):
        with pytest.raises(TopologyError):
            Subcube(Hypercube(3), (1, 1), 0)

    @given(st.integers(min_value=1, max_value=6), st.data())
    def test_subcube_is_itself_a_cube(self, d, data):
        """Any two members differing in one free bit are cube neighbours."""
        cube = Hypercube(d)
        k = data.draw(st.integers(min_value=1, max_value=d))
        free = tuple(sorted(data.draw(
            st.sets(st.integers(min_value=0, max_value=d - 1), min_size=k, max_size=k)
        )))
        sub = Subcube(cube, free, 0)
        for idx in range(sub.num_nodes):
            for b in range(len(free)):
                other = sub.member(idx ^ (1 << b))
                assert cube.are_neighbors(sub.member(idx), other)


def _maps_by_definition(members, free_dims):
    """``subcube_tables``' maps by the definition, one member at a time."""
    sub = [sum(((node >> dim) & 1) << k for k, dim in enumerate(free_dims))
           for node in members]
    cr_of_sub = [sub.index(s) for s in range(len(members))]
    partners = [[cr_of_sub[s ^ (1 << k)] for s in sub] for k in range(len(free_dims))]
    return sub, cr_of_sub, partners


class TestSubcubeTables:
    @pytest.mark.parametrize(
        "members, free_dims",
        [
            ((5,), ()),
            ((8, 9), (0,)),
            ((9, 8), (0,)),
            # a Gray-code ordered line and its members in another order
            ((16, 17, 19, 18), (0, 1)),
            ((18, 16, 19, 17), (1, 0)),
            ((32 + 0, 32 + 4, 32 + 64, 32 + 68, 32 + 1, 32 + 5, 32 + 65, 32 + 69), (0, 2, 6)),
        ],
    )
    def test_maps_equal_the_definition(self, members, free_dims):
        sub, cr_of_sub, partners, everyone, node_ids, sub_key = subcube_tables(
            members, free_dims
        )
        want = _maps_by_definition(members, free_dims)
        assert (sub.tolist(), cr_of_sub.tolist(), partners.tolist()) == want
        assert everyone.tolist() == list(range(len(members)))
        assert node_ids.tolist() == list(members) and sub_key == tuple(want[0])
        for table in (sub, cr_of_sub, partners, everyone, node_ids):
            assert not table.flags.writeable

    def test_parallel_lines_share_their_maps(self):
        a = subcube_tables((0, 1, 3, 2), (0, 1))
        b = subcube_tables((12, 13, 15, 14), (0, 1))
        assert all(x is y for x, y in zip(a[:4], b[:4]))
        assert b[4].tolist() == [12, 13, 15, 14]

    @pytest.mark.parametrize(
        "members, free_dims",
        [
            ((), ()),
            ((0, 1, 2), (0, 1)),  # not 2^d members
            ((0, 3), (0,)),  # 3 leaves the subcube
            ((0, 1, 1, 0), (0, 1)),  # two members on one index
            ((0, 1, 2, 3), (0, 0)),  # a dimension twice
        ],
    )
    def test_not_the_subcube(self, members, free_dims):
        assert subcube_tables(members, free_dims) is None
