from __future__ import annotations

import itertools
import random

import pytest

from sepdraw.cmap import (
    EDGE,
    CombinatorialMap,
    MapBuilder,
    crossing_pairs_of_map,
    extract_rotation_system,
    from_two_page,
    is_connected,
    parse_cmap,
    serialize_cmap,
    validate_map,
    validate_witness,
)
from sepdraw.enumeration import triangle_map
from sepdraw.errors import InputError
from sepdraw.generators import all_edges, random_two_page
from sepdraw.rotation import convex, crossing_pairs
from sepdraw.routing import find_witness

from oracles import reference_is_connected


def two_page_convex(n, witnesses=False):
    m, ws = from_two_page(
        range(1, n + 1), all_edges(n), ["upper"] * (n * (n - 1) // 2),
        witnesses=witnesses,
    )
    return m, ws


class TestTriangle:
    def test_valid_with_two_faces(self):
        m = triangle_map()
        assert validate_map(m) == []
        assert len(m.faces) == 2
        assert len(m.vkind) == 3 and len(m.scurve) == 3


class TestIsConnected:
    def test_matches_search_on_two_page_subgraphs(self):
        """Random edge subsets of K3-K8 drawn on two pages, with and
        without witness arcs: 278 maps, 29 of them disconnected."""
        rng = random.Random(168)
        disconnected = 0
        for _ in range(150):
            n = rng.randint(3, 8)
            edges = [e for e in all_edges(n) if rng.random() < 0.3]
            if not edges:
                continue
            touched = sorted({x for e in edges for x in e})
            order = rng.sample(touched, len(touched))
            pages = [rng.choice(("upper", "lower")) for _ in edges]
            for witnesses in (False, True):
                m, _ = from_two_page(order, edges, pages, witnesses)
                want = reference_is_connected(m)
                assert is_connected(m) == want, (order, edges, pages)
                disconnected += not want
        assert disconnected >= 10


class TestConvexK4Map:
    def test_counts_match_euler(self):
        m, _ = two_page_convex(4)
        assert validate_map(m) == []
        assert len(m.vkind) == 5 and len(m.scurve) == 8
        assert len(m.faces) == 5

    def test_crossings(self):
        m, _ = two_page_convex(4)
        assert crossing_pairs_of_map(m) == {((1, 3), (2, 4))}


class TestExtractRotationSystem:
    def test_one_page_drawing_is_convex(self):
        for n in (3, 4, 5, 6):
            m, _ = two_page_convex(n)
            assert extract_rotation_system(m) == convex(n)

    def test_witness_arcs_do_not_contribute(self):
        m, _ = two_page_convex(5, witnesses=True)
        assert extract_rotation_system(m) == convex(5)

    def test_non_complete_graph_rejected(self):
        m, _ = from_two_page([1, 2, 3], [(1, 2), (2, 3)], ["upper", "upper"])
        with pytest.raises(InputError):
            extract_rotation_system(m)

    def test_realize_round_trip(self, tables):
        from sepdraw.enumeration import realize

        rs = convex(5)
        assert extract_rotation_system(realize(tables, rs)) == rs


class TestTwoPage:
    def test_single_edge_witness_valid(self):
        m, ws = from_two_page([1, 2], [(1, 2)], ["upper"])
        assert validate_map(m) == []
        assert crossing_pairs_of_map(m) == set()
        assert validate_witness(m, (1, 2))

    def test_k5_alternating_pages_all_witnesses_pass(self):
        edges = all_edges(5)
        pages = [
            "upper" if (b - a) % 2 == 0 else "lower" for a, b in edges
        ]
        m, ws = from_two_page(range(1, 6), edges, pages)
        assert validate_map(m) == []
        assert ws.complete_for(m)
        for e in edges:
            assert validate_witness(m, e)

    def test_crossings_follow_interleave_rule(self, tables):
        rng = random.Random(11)
        for n in (4, 5, 6, 8):
            m, _, order, pages = random_two_page(n, rng)
            pos = {lab: i for i, lab in enumerate(order)}
            expect = set()
            edges = all_edges(n)
            for (e, pe), (f, pf) in itertools.combinations(
                zip(edges, pages), 2
            ):
                if pe != pf or set(e) & set(f):
                    continue
                a1, b1 = sorted((pos[e[0]], pos[e[1]]))
                a2, b2 = sorted((pos[f[0]], pos[f[1]]))
                if a1 < a2 < b1 < b2 or a2 < a1 < b2 < b1:
                    expect.add(tuple(sorted((e, f))))
            assert crossing_pairs_of_map(m) == expect
            # the Gioan/Kyncl consistency check: map crossings equal the
            # rotation-system crossings
            rs = extract_rotation_system(m)
            assert crossing_pairs(tables, rs) == frozenset(expect)

    def test_input_validation(self):
        with pytest.raises(InputError):
            from_two_page([1, 1, 2], [(1, 2)], ["upper"])
        with pytest.raises(InputError):
            from_two_page([1, 2], [(1, 2), (2, 1)], ["upper", "upper"])
        with pytest.raises(InputError):
            from_two_page([1, 2], [(1, 3)], ["upper"])
        with pytest.raises(InputError):
            from_two_page([1, 2, 3], [(1, 2)], ["upper"])  # 3 isolated
        with pytest.raises(InputError):
            from_two_page([1, 2], [(1, 2)], ["sideways"])


class TestValidation:
    def test_detects_double_crossing_pair(self):
        # two edge curves sharing two cross vertices (hand-built)
        text = """
cmap v1
real 4
vertex 0 real 1 : 0
vertex 1 real 2 : 5
vertex 2 real 3 : 6
vertex 3 real 4 : 11
vertex 4 cross : 1 7 2 8
vertex 5 cross : 3 9 4 10
segment 0 1 curve 0 idx 0
segment 2 3 curve 0 idx 1
segment 4 5 curve 0 idx 2
segment 6 7 curve 1 idx 0
segment 8 9 curve 1 idx 1
segment 10 11 curve 1 idx 2
curve 0 edge 1-2
curve 1 edge 3-4
"""
        m = parse_cmap(text)
        bad = validate_map(m)
        assert any("share 2 points" in v for v in bad)

    def test_isolated_real_vertex_flagged(self):
        b = MapBuilder()
        b.new_vertex("real", 1)
        v2 = b.new_vertex("real", 2)
        v3 = b.new_vertex("real", 3)
        cid = b.new_curve(EDGE, 2, 3)
        s = b.new_segment(cid)
        b.csegs[cid] = [s]
        b.set_rotation(v2, (2 * s,))
        b.set_rotation(v3, (2 * s + 1,))
        bad = validate_map(b.freeze())
        assert any("isolated" in v for v in bad)

    def test_every_enumerated_map_is_valid(self, enum5):
        for n in (3, 4, 5):
            for rep in enum5[n]:
                assert validate_map(rep.map) == []


class TestFromMap:
    @staticmethod
    def renumber_segments(m, rng):
        """The same map with its segments in a shuffled order."""
        perm = list(range(len(m.scurve)))
        rng.shuffle(perm)
        scurve = [0] * len(perm)
        sidx = [0] * len(perm)
        for s, t in enumerate(perm):
            scurve[t] = m.scurve[s]
            sidx[t] = m.sidx[s]
        vdarts = [
            [2 * perm[d >> 1] + (d & 1) for d in darts] for darts in m.vdarts
        ]
        return CombinatorialMap(
            m.vkind, m.vlabel, vdarts, scurve, sidx, m.curves
        )

    def test_chains_match_curve_segments(self, enum5):
        rng = random.Random(8)
        maps = [r.map for r in enum5[5]]
        maps += [two_page_convex(6, witnesses=True)[0]]
        maps += [random_two_page(7, rng)[0] for _ in range(3)]
        for m in maps:
            for mm in (m, self.renumber_segments(m, rng)):
                b = MapBuilder.from_map(mm)
                assert b.csegs == [
                    mm.curve_segments(cid) for cid in range(len(mm.curves))
                ]
                assert serialize_cmap(b.freeze()) == serialize_cmap(m)


class TestCmapFormat:
    def test_round_trip_byte_exact(self):
        rng = random.Random(2)
        m, _, _, _ = random_two_page(5, rng)
        text = serialize_cmap(m)
        m2 = parse_cmap(text)
        assert m2 == m
        assert serialize_cmap(m2) == text

    def test_round_trip_preserves_curve_direction(self):
        # generators route curves from higher to lower labels too; the
        # endpoint order in the curve line encodes the chain direction
        from sepdraw.generators import random_planar_map

        rng = random.Random(8)
        m = random_planar_map(6, rng)
        m2 = parse_cmap(serialize_cmap(m))
        assert m2 == m
        assert validate_map(m2) == []

    def test_parse_errors(self):
        with pytest.raises(InputError):
            parse_cmap("not a map")
        with pytest.raises(InputError):
            parse_cmap("cmap v2\n")
        with pytest.raises(InputError):
            parse_cmap("cmap v1\nvertex 0 real 1 : 0\n")  # dart unknown
        good = serialize_cmap(triangle_map())
        with pytest.raises(InputError):
            parse_cmap(good.replace("idx 0", "idx 5", 1))

    def test_real_header_must_count_the_real_vertices(self):
        # the header used to be read and ignored
        good = serialize_cmap(two_page_convex(3)[0])
        assert "real 3\n" in good and parse_cmap(good) == two_page_convex(3)[0]
        with pytest.raises(InputError, match="'real 7' but 3 real vertex lines"):
            parse_cmap(good.replace("real 3\n", "real 7\n", 1))

    @pytest.mark.parametrize("where", ["other_vertex", "same_vertex"])
    def test_dart_listed_twice_is_rejected(self, where):
        # a dart in two rotations used to make parse_cmap loop forever
        m, _, _, _ = random_two_page(5, random.Random(73))
        lines = serialize_cmap(m).splitlines()
        i = next(k for k, line in enumerate(lines) if "cross :" in line)
        j = i if where == "same_vertex" else i + 1
        dart = lines[i].split(":")[1].split()[0]
        lines[j] = lines[j].replace(":", f": {dart}", 1)
        with pytest.raises(InputError, match="listed twice"):
            parse_cmap("\n".join(lines) + "\n")


# Three edges drawn so that pieces of all three close into a cycle with
# vertex 1 inside and vertex 2 outside: edge (1,2) crosses both other
# edges, (3,4) and (5,6) cross each other, and the corners of 1 and 2
# end up on different faces.  Every curve is barred for a witness of
# (1,2), so none exists.
CAGED_EDGE_MAP = """
cmap v1
real 6
vertex 0 real 1 : 0
vertex 1 real 2 : 5
vertex 2 real 3 : 6
vertex 3 real 4 : 11
vertex 4 real 5 : 12
vertex 5 real 6 : 17
vertex 6 cross : 7 2 8 1
vertex 7 cross : 3 14 4 13
vertex 8 cross : 9 16 10 15
segment 0 1 curve 0 idx 0
segment 2 3 curve 0 idx 1
segment 4 5 curve 0 idx 2
segment 6 7 curve 1 idx 0
segment 8 9 curve 1 idx 1
segment 10 11 curve 1 idx 2
segment 12 13 curve 2 idx 0
segment 14 15 curve 2 idx 1
segment 16 17 curve 2 idx 2
curve 0 edge 1-2
curve 1 edge 3-4
curve 2 edge 5-6
"""


class TestFindWitness:
    def test_uncrossed_edge_hugging_witness(self):
        m = triangle_map()
        for e in [(1, 2), (1, 3), (2, 3)]:
            found = find_witness(m, e)
            assert found is not None
            m2, cid = found
            assert validate_map(m2) == []
            assert validate_witness(m2, e)

    def test_two_page_every_edge_has_a_witness(self):
        rng = random.Random(43)
        m, _, _, _ = random_two_page(5, rng)
        bare = parse_cmap(
            serialize_cmap(m)
        )  # keep witnesses; search adds another arc
        for e in all_edges(5):
            assert find_witness(bare, e) is not None

    def test_caged_edge_has_none(self):
        from sepdraw.routing import find_witness as fw

        m = parse_cmap(CAGED_EDGE_MAP)
        assert validate_map(m) == []
        assert len(m.faces) == 2
        assert fw(m, (1, 2)) is None
        # the edge whose endpoints both see the outer face keeps a witness
        assert fw(m, (5, 6)) is not None


def _witness_side_coloring(m, wid):
    """2-color faces by parity across the closed curve (edge + witness);
    returns the coloring or fails the consistency assertion."""
    e = m.curves[wid].edge()
    eid = next(
        cid
        for cid, c in enumerate(m.curves)
        if c.kind == EDGE and c.edge() == e
    )
    loop_segs = {
        s for s, c in enumerate(m.scurve) if c in (wid, eid)
    }
    nf = len(m.faces)
    color = [None] * nf
    color[0] = 0
    stack = [0]
    fo = m.face_of
    while stack:
        f = stack.pop()
        for d in m.faces[f]:
            s = d >> 1
            g = fo[d ^ 1]
            want = color[f] ^ (1 if s in loop_segs else 0)
            if color[g] is None:
                color[g] = want
                stack.append(g)
            else:
                assert color[g] == want, "inconsistent side coloring"
    return color


class TestWitnessSeparation:
    def test_two_page_witness_separates(self):
        rng = random.Random(7)
        m, ws, _, _ = random_two_page(6, rng)
        for e, wid in sorted(ws.by_edge.items()):
            color = _witness_side_coloring(m, wid)
            # side of each vertex = color of any incident corner
            side = {}
            for lab, vid in sorted(m.real_by_label.items()):
                cols = {color[m.face_of_gap(g)] for g in m.vdarts[vid]}
                if lab in e:
                    continue
                assert len(cols) == 1, "vertex off the curve sees one side"
                side[lab] = cols.pop()
            for cid, c in enumerate(m.curves):
                if c.kind != EDGE or c.edge() == e:
                    continue
                u, v = c.edge()
                if u in e or v in e or side[u] != side[v]:
                    continue
                for s in m.curve_segments(cid):
                    assert color[m.face_of[2 * s]] == side[u]
                    assert color[m.face_of[2 * s + 1]] == side[u]
