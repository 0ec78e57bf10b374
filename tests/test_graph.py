import tracemalloc

import numpy as np
import pytest

from conftest import desk_instances, export_by_lines
from resolvdim import graph as gr
from resolvdim import vectorspace as vs
from resolvdim.errors import BadParameters, InstanceTooLarge, OutOfRange
from resolvdim.exchange import coordinate_avoiding_set
from resolvdim.graph import ComponentGraph
from resolvdim.resolving import canonical_metric_basis


def test_adjacency_examples(g22, g32):
    assert not g22.adjacent(1, 2)       # e1 vs e2, disjoint skeletons
    assert g22.adjacent(1, 3)           # e1 vs e1+e2
    assert g32.adjacent(2, 1)           # 2e1 vs e1, same skeleton
    assert not g22.adjacent(1, 1)


def test_adjacency_range_check(g22):
    with pytest.raises(OutOfRange):
        g22.adjacent(0, 1)
    with pytest.raises(OutOfRange):
        g22.distance(1, 4)


def test_distance_examples(g23):
    assert g23.distance(5, 5) == 0
    assert g23.distance(1, 2) == 2      # e1 to e2 via e1+e2
    assert g23.distance(1, 7) == 1      # full-skeleton vertex meets everything
    oracle = gr.bfs_distances(g23, 1)
    assert oracle[2] == 2 and oracle[7] == 1


def test_order_size_examples(g22, g23, g32):
    assert gr.order_formula(2, 2) == 3 and gr.size_formula(2, 2) == 2
    assert gr.order_formula(2, 3) == 7 and gr.size_formula(2, 3) == 15
    assert gr.order_formula(3, 2) == 8 and gr.size_formula(3, 2) == 24
    assert gr.size_bruteforce(g22) == 2
    assert gr.size_bruteforce(g23) == 15
    assert gr.size_bruteforce(g32) == 24
    assert gr.size_bruteforce(ComponentGraph(2, 1)) == 0


def test_size_formula_wide_values():
    # exact big-integer arithmetic, no overflow at any size
    assert gr.size_formula(16, 8) == (16 ** 16 - 16 ** 8 + 1 - 31 ** 8) // 2


def test_formula_preconditions():
    with pytest.raises(BadParameters):
        gr.order_formula(1, 2)
    with pytest.raises(BadParameters):
        gr.size_formula(2, 0)


def test_completeness_iff_dimension_one():
    assert gr.is_complete(ComponentGraph(5, 1))
    assert gr.is_complete(ComponentGraph(3, 1))
    assert not gr.is_complete(ComponentGraph(2, 2))


def test_vertex_cap():
    with pytest.raises(InstanceTooLarge):
        ComponentGraph(2, 20)
    g = ComponentGraph(2, 17, vertex_cap=1 << 18)
    assert g.vertex_count == 2 ** 17 - 1


@pytest.mark.parametrize("q,n", desk_instances(200))
def test_distance_matches_bfs_everywhere(q, n):
    g = ComponentGraph(q, n)
    for u in g.vertex_ids():
        oracle = gr.bfs_distances(g, u)
        for v in g.vertex_ids():
            assert g.distance(u, v) == oracle[v], (q, n, u, v)


@pytest.mark.parametrize("q,n", desk_instances(200))
def test_connected_with_small_diameter(q, n):
    g = ComponentGraph(q, n)
    oracle = gr.bfs_distances(g, 1)
    reachable = [d for d in oracle[1:] if d >= 0]
    assert len(reachable) == g.vertex_count
    assert max(reachable) <= 2


@pytest.mark.parametrize("q,n", [(2, 3), (3, 2), (4, 2), (5, 2)])
def test_adjacency_symmetric_irreflexive(q, n):
    g = ComponentGraph(q, n)
    for u in g.vertex_ids():
        assert not g.adjacent(u, u)
        for v in g.vertex_ids():
            assert g.adjacent(u, v) == g.adjacent(v, u)


def test_dot_export(g22):
    assert gr.to_dot(g22) == (
        'graph gv {\n'
        '  1 [label="e1"];\n'
        '  2 [label="e2"];\n'
        '  3 [label="e1+e2"];\n'
        '  1 -- 3;\n'
        '  2 -- 3;\n'
        '}\n'
    )


def test_edge_list_export(g22, g32):
    assert gr.to_edge_list(g22) == "1 3\n2 3\n"
    lines = gr.to_edge_list(g32).strip().split("\n")
    assert len(lines) == 24
    assert lines == sorted(lines)
    for line in lines:
        u, v = map(int, line.split())
        assert u < v


def test_edge_list_sorted_as_strings():
    # lexicographic string order: "1 11" sorts before "1 3"
    g = ComponentGraph(2, 4)
    lines = gr.to_edge_list(g).strip().split("\n")
    assert lines == sorted(lines)
    assert lines.index("1 11") < lines.index("1 3")


@pytest.mark.parametrize("q, n", [(2, 1), (2, 2), (2, 4), (3, 3), (4, 3), (7, 2),
                                  (2, 10)])
def test_exports_match_line_by_line_reference(q, n):
    # ids of 1 to 4 digits, so string and numeric order part ways
    g = ComponentGraph(q, n)
    assert (gr.to_dot(g), gr.to_edge_list(g)) == export_by_lines(g)


@pytest.mark.parametrize("q, n", [*((2, n) for n in range(1, 7)),
                                  *((3, n) for n in range(1, 5)),
                                  (4, 3), (5, 2), (16, 2), (27, 2)])
def test_skeleton_array_matches_decoded_vectors(q, n):
    # the reference that the broadcast and distance-block tests build on
    g = ComponentGraph(q, n)
    sk = g.skeleton_array()
    assert sk.dtype == np.min_scalar_type((1 << n) - 1)
    assert sk.tolist() == [vs.skeleton(vs.decode(v, q, n)) for v in g.vertex_ids()]
    assert g.skeleton_array() is sk
    with pytest.raises(ValueError):
        sk[0] = 0


@pytest.mark.parametrize("q, n", [(2, 12), (3, 3), (7, 2)])
def test_adjacency_matrix_matches_broadcast(q, n):
    g = ComponentGraph(q, n)
    masks = g.skeleton_array()
    broadcast = (masks[:, None] & masks[None, :]) != 0
    np.fill_diagonal(broadcast, False)
    adj = g.adjacency_matrix()
    assert adj.dtype == bool
    assert np.array_equal(adj, broadcast)


@pytest.mark.parametrize("q, n, w", [(2, 1, []), (2, 3, [5, 1]), (3, 2, [8, 1, 4]),
                                     (2, 13, [1, 8191, 4096]), (2, 17, [65536, 65537])])
def test_distance_block_matches_distance(q, n, w):
    # the N x k block of columns that the single-set checks key; (2,13)
    # is above the matrix cap, and at (2,17) e17 and e1+e17 meet only at
    # bit 16, which a mask cut to 16 bits loses
    g = ComponentGraph(q, n, vertex_cap=1 << 17)
    block = g.distance_columns().column(np.asarray(w, dtype=np.intp) - 1)
    assert block.dtype == np.int16
    assert block.tolist() == [[g.distance(v, x) for x in w] for v in g.vertex_ids()]


def test_distance_block_peak_memory_is_the_block():
    # the (8,4) canonical basis: N = 4095, k = 4080, a 33 MB int16 block
    # (uint8 masks); the (2,12) coordinate-avoiding set: k = 2,047, uint16
    # masks.  The masks are ANDed into the block itself; a bool block of
    # their meets beside it peaked at 1.5 times the block at (8,4).
    for q, n, w in ((8, 4, canonical_metric_basis(8, 4)),
                    (2, 12, coordinate_avoiding_set(2, 12))):
        cols = ComponentGraph(q, n).distance_columns()
        tracemalloc.start()
        try:
            block = cols.column(np.asarray(w, dtype=np.intp) - 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert block.shape == (4095, len(w))
        assert peak <= block.nbytes + 2 ** 20, (q, n, peak / block.nbytes)


@pytest.mark.parametrize("q, n", desk_instances(1023))
def test_packed_adjacency_matches_packed_matrix(q, n):
    # the twin partition's row source: any index array of vertices,
    # repeats and any order, gives those rows of the packed matrix
    g = ComponentGraph(q, n)
    packed = np.packbits(g.adjacency_matrix(), axis=1)
    picks = np.array([g.vertex_count - 1, 0, g.vertex_count // 2, 0])
    for rows in (np.arange(g.vertex_count), picks):
        block = g._packed_adjacency_rows(rows)
        assert block.dtype == np.uint8
        assert np.array_equal(block, packed[rows])


def test_packed_adjacency_refuses_what_the_matrix_refuses():
    # the twin partition holds O(N) memory, yet it is refused past the
    # matrix cap with the dense views: dim's walk frames would not be
    for q, n, count in ((2, 13, 8191), (27, 3, 19682)):
        g = ComponentGraph(q, n)
        for view in (g.twin_classes, g.adjacency_matrix):
            with pytest.raises(InstanceTooLarge,
                               match=f"dense adjacency needs N <= 4096, got {count}"):
                view()


@pytest.mark.parametrize("q, n", desk_instances(1023))
def test_skeleton_columns_match_the_distance_matrix(q, n):
    g = ComponentGraph(q, n)
    dist = g.distance_matrix()
    cols = g.distance_columns()
    assert cols.shape == dist.shape
    # the landmark bound reads it: 0 at N = 1, 1 at n = 1, else 2
    assert cols.largest == int(dist.max())
    for c in range(g.vertex_count):
        col = cols.column(c)
        assert col.dtype == np.int16
        assert np.array_equal(col, dist[:, c]), c
    # an index array gives the N x B block, repeats and any order included
    picks = np.array([g.vertex_count - 1, 0, g.vertex_count // 2, 0])
    block = cols.column(picks)
    assert block.dtype == np.int16
    assert np.array_equal(block, dist[:, picks])
