"""Unit tests for k-ary n-cubes (Section 1.3.4)."""

import pytest

from repro.network.graph import NetworkError
from repro.network.mesh import KAryNCube, dimension_order_path


class TestCoordinates:
    def test_roundtrip(self):
        cube = KAryNCube(k=4, n=3)
        for node in range(cube.num_nodes):
            assert cube.node(cube.coords(node)) == node

    def test_node_of_coords(self):
        cube = KAryNCube(k=3, n=2)
        assert cube.node((0, 0)) == 0
        assert cube.node((0, 1)) == 1
        assert cube.node((1, 0)) == 3
        assert cube.node((2, 2)) == 8

    def test_bad_coords(self):
        cube = KAryNCube(k=3, n=2)
        with pytest.raises(NetworkError):
            cube.node((3, 0))
        with pytest.raises(NetworkError):
            cube.node((0, 0, 0))
        with pytest.raises(NetworkError):
            cube.coords(9)

    def test_bad_params(self):
        with pytest.raises(NetworkError):
            KAryNCube(k=1, n=2)
        with pytest.raises(NetworkError):
            KAryNCube(k=3, n=0)


class TestTopology:
    def test_mesh_edge_count(self):
        """A k x k mesh has 2*2*k*(k-1) directed edges."""
        mesh = KAryNCube(k=4, n=2, wrap=False)
        assert mesh.network.num_edges == 2 * 2 * 4 * 3

    def test_torus_edge_count(self):
        """A k-ary n-cube (k > 2) has 2*n*k^n directed edges."""
        torus = KAryNCube(k=4, n=2, wrap=True)
        assert torus.network.num_edges == 2 * 2 * 16

    def test_k2_torus_avoids_duplicate_wrap(self):
        """At k = 2 the wrap link coincides with the +1 link."""
        torus = KAryNCube(k=2, n=3, wrap=True)
        # Exactly the 3-dimensional hypercube: 8 * 3 = 24 directed edges.
        assert torus.network.num_edges == 24

    def test_mesh_corner_degree(self):
        mesh = KAryNCube(k=3, n=2, wrap=False)
        corner = mesh.node((0, 0))
        assert mesh.network.out_degree(corner) == 2

    def test_torus_uniform_degree(self):
        torus = KAryNCube(k=4, n=2, wrap=True)
        for v in torus.network.nodes():
            assert torus.network.out_degree(v) == 4


class TestDimensionOrderRouting:
    def test_path_endpoints(self):
        cube = KAryNCube(k=4, n=2, wrap=False)
        src, dst = cube.node((0, 0)), cube.node((3, 2))
        nodes = dimension_order_path(cube, src, dst)
        assert nodes[0] == src and nodes[-1] == dst

    def test_mesh_path_length_is_manhattan(self):
        cube = KAryNCube(k=5, n=2, wrap=False)
        src, dst = cube.node((1, 1)), cube.node((4, 3))
        nodes = dimension_order_path(cube, src, dst)
        assert len(nodes) - 1 == 3 + 2

    def test_dimension_order_is_monotone(self):
        cube = KAryNCube(k=4, n=3, wrap=False)
        src, dst = cube.node((3, 0, 2)), cube.node((0, 3, 0))
        nodes = dimension_order_path(cube, src, dst)
        coords = [cube.coords(v) for v in nodes]
        # Once dimension d+1 starts changing, dimension d is final.
        last_active = -1
        for a, b in zip(coords[:-1], coords[1:]):
            changed = [d for d in range(3) if a[d] != b[d]]
            assert len(changed) == 1
            assert changed[0] >= last_active
            last_active = changed[0]

    def test_torus_takes_short_way_around(self):
        cube = KAryNCube(k=8, n=1, wrap=True)
        nodes = dimension_order_path(cube, cube.node((0,)), cube.node((6,)))
        assert len(nodes) - 1 == 2  # 0 -> 7 -> 6, not six steps forward

    def test_path_edges_exist(self):
        cube = KAryNCube(k=4, n=2, wrap=True)
        nodes = dimension_order_path(cube, 0, cube.num_nodes - 1)
        for u, v in zip(nodes[:-1], nodes[1:]):
            assert cube.network.edge_between(u, v) is not None

    def test_trivial_path(self):
        cube = KAryNCube(k=3, n=2, wrap=False)
        assert dimension_order_path(cube, 4, 4) == [4]


class TestDirectionTables:
    @pytest.mark.parametrize(
        "k,n,wrap",
        [(4, 2, False), (3, 3, False), (4, 2, True), (2, 2, True)],
    )
    def test_tables_agree_with_the_scalar_accessors(self, k, n, wrap):
        cube = KAryNCube(k=k, n=n, wrap=wrap)
        coords, dir_edge, dir_node = cube.direction_tables()
        assert dir_edge.shape == dir_node.shape == (cube.num_nodes, 2 * n + 1)
        assert (dir_edge[:, -1] == -1).all() and (dir_node[:, -1] == -1).all()
        links = 0
        for v in range(cube.num_nodes):
            assert tuple(coords[v]) == cube.coords(v)
            for d in range(2 * n):
                e, u = int(dir_edge[v, d]), int(dir_node[v, d])
                assert (e < 0) == (u < 0)
                if e < 0:
                    continue
                links += 1
                assert cube.network.edge_between(v, u) == e
                step = [0] * n
                step[d // 2] = -1 if d % 2 else 1
                assert cube.coords(u) == tuple(
                    (c + s) % k for c, s in zip(cube.coords(v), step)
                )
        assert links == cube.network.num_edges

    def test_built_once_per_cube(self):
        cube = KAryNCube(k=3, n=2, wrap=False)
        assert cube.direction_tables() is cube.direction_tables()
        assert KAryNCube(k=3, n=2, wrap=False) == cube  # not part of equality

    def test_failed_build_caches_nothing(self):
        cube = KAryNCube(k=3, n=2, wrap=False)
        cube.network = KAryNCube(k=2, n=2, wrap=False).network
        for _ in range(2):  # raised on every call, not only the first
            with pytest.raises(NetworkError, match="mesh is missing the edge"):
                cube.direction_tables()
