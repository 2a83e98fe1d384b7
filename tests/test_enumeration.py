from __future__ import annotations

import random
from importlib import resources

import pytest

from oracles import reference_extend_by_vertex
from sepdraw.cmap import (
    crossing_pairs_of_map,
    drawn_rotation,
    extract_rotation_system,
    serialize_cmap,
    validate_map,
)
from sepdraw.enumeration import (
    _leaf_rows,
    _star_routes,
    build_tables,
    check_tables,
    enumerate_good_drawings,
    extend_by_vertex,
    parse_tables,
    path_k2_map,
    realize,
    serialize_tables,
    triangle_map,
)
from sepdraw.errors import InputError, NotRealizableError
from sepdraw.rotation import (
    K4_NO_CROSSING,
    K4_UNREALIZABLE,
    RealizabilityTables,
    _roll_min,
    convex,
    crossing_pairs,
    is_realizable,
    k5_index_of,
    k5_system,
    mirror,
    relabel,
)


class TestSeedMaps:
    """The K2 and K3 maps every enumeration and realization starts from;
    their dart numbering fixes the order of every later drawing."""

    def test_triangle_map(self):
        assert serialize_cmap(triangle_map()) == (
            "cmap v1\nreal 3\n"
            "vertex 0 real 1 : 0 2\n"
            "vertex 1 real 2 : 1 4\n"
            "vertex 2 real 3 : 3 5\n"
            "segment 0 1 curve 0 idx 0\n"
            "segment 2 3 curve 1 idx 0\n"
            "segment 4 5 curve 2 idx 0\n"
            "curve 0 edge 1-2\ncurve 1 edge 1-3\ncurve 2 edge 2-3\n"
        )

    def test_path_k2_map(self):
        assert serialize_cmap(path_k2_map()) == (
            "cmap v1\nreal 2\n"
            "vertex 0 real 1 : 0\n"
            "vertex 1 real 2 : 1\n"
            "segment 0 1 curve 0 idx 0\n"
            "curve 0 edge 1-2\n"
        )


class TestEnumeration:
    def test_k3_unique(self, enum5):
        assert len(enum5[3]) == 1

    def test_k4_two_orbits(self, enum5):
        assert len(enum5[4]) == 2
        assert sorted(
            len(crossing_pairs_of_map(r.map)) for r in enum5[4]
        ) == [0, 1]

    def test_k5_orbit_count_is_stable(self, enum5):
        # recorded count; cross-validated by the five-tuple closure at n=6
        assert len(enum5[5]) == 5

    def test_out_of_range_rejected(self):
        with pytest.raises(InputError):
            enumerate_good_drawings(2)
        with pytest.raises(InputError):
            enumerate_good_drawings(8)
        with pytest.raises(InputError):
            enumerate_good_drawings(7)  # needs extended=True

    def test_maps_match_their_rotation_systems(self, enum5):
        for n in (3, 4, 5):
            for rep in enum5[n]:
                assert extract_rotation_system(rep.map) == rep.rs
                assert validate_map(rep.map) == []

    def test_uncrossed_edge_exists(self, enum5):
        for n in (3, 4, 5):
            for rep in enum5[n]:
                crossed = {e for p in crossing_pairs_of_map(rep.map) for e in p}
                assert len(crossed) < n * (n - 1) // 2

    def test_stored_rows_are_the_map_rows(self, enum5, enum6):
        """``serialize_crs`` prints linear rows, so a representative keeps
        the rows its map is read with, not only their cyclic orders."""
        for reps in (*enum5.values(), enum6):
            for rep in reps:
                assert rep.rs.rows == extract_rotation_system(rep.map).rows

    def test_extend_by_vertex_matches_reference(self, enum5):
        """Every representative of levels 3-5, extended by the next
        vertex: the same drawings in the same order as the recursion that
        draws every star edge through ``with_route``, and each leaf's rows
        read off its last route equal those of its drawing."""
        leaves = 0
        for n in (3, 4, 5):
            for rep in enum5[n]:
                ref = list(reference_extend_by_vertex(rep.map, n + 1))
                assert list(extend_by_vertex(rep.map, n + 1)) == ref
                star = list(_star_routes(rep.map, n + 1))
                assert len(star) == len(ref)
                # extend_by_vertex draws each leaf's last route, so ext
                # is the drawing of (cur, t, route)
                for (cur, t, route), ext in zip(star, ref):
                    rows = [
                        _roll_min(drawn_rotation(cur, v))
                        for v in range(1, n + 2)
                    ]
                    assert _leaf_rows(cur, rows, n + 1, t, route) == (
                        extract_rotation_system(ext).normalized
                    )
                leaves += len(ref)
        assert leaves == 1893

    def test_oracle_agreement(self, tables, enum5):
        for n in (4, 5):
            for rep in enum5[n]:
                assert crossing_pairs(tables, rep.rs) == frozenset(
                    crossing_pairs_of_map(rep.map)
                )


class TestTables:
    def test_k4_fully_classified(self, tables):
        assert len(tables.k4) == 16
        codes = set(tables.k4)
        assert codes <= {K4_UNREALIZABLE, K4_NO_CROSSING, 0, 1, 2}

    def test_k5_closed_under_relabeling(self, tables, enum5):
        rng = random.Random(6)
        for rep in enum5[5]:
            for _ in range(10):
                perm = list(range(1, 6))
                rng.shuffle(perm)
                rs2 = relabel(rep.rs, perm)
                if rng.random() < 0.5:
                    rs2 = mirror(rs2)
                assert k5_index_of(rs2) in tables.k5

    def test_k5_proper_subset(self, tables):
        assert 0 < len(tables.k5) < 6**5

    def test_membership_invariant_under_group_action(self, tables):
        rng = random.Random(13)
        for idx in rng.sample(range(6**5), 40):
            rs = k5_system(idx)
            inside = idx in tables.k5
            perm = list(range(1, 6))
            rng.shuffle(perm)
            assert (k5_index_of(relabel(rs, perm)) in tables.k5) == inside
            assert (k5_index_of(mirror(rs)) in tables.k5) == inside

    def test_serialization_deterministic_and_round_trips(self, tables):
        t1 = serialize_tables(tables)
        t2 = serialize_tables(build_tables())
        assert t1 == t2
        assert parse_tables(t1) == tables

    def test_shipped_file_matches_rebuild(self, tables):
        text = (
            resources.files("sepdraw.data").joinpath("tables.tbl").read_text()
        )
        assert text == serialize_tables(tables)

    def test_shipped_table_is_consistent(self, tables):
        check_tables(tables)

    def test_empty_k5_rejected(self, tables):
        # every other check reads k5 members or realizable K5 systems
        empty = RealizabilityTables(k4=tables.k4, k5=frozenset())
        with pytest.raises(InputError, match="inconsistent tables: k5 lacks"):
            check_tables(empty)

    def test_parse_errors(self):
        with pytest.raises(InputError):
            parse_tables("bogus")
        with pytest.raises(InputError):
            parse_tables("tables v1\nk5 1\n3\nk4 0 none\n")

    @pytest.mark.parametrize(
        "line, bad",
        [
            # k4 index not an integer, out of range, missing
            ("k4 15 ", "k4 x unreal"),
            ("k4 15 ", "k4 16 unreal"),
            ("k4 15 ", "k4 -1 unreal"),
            ("k4 15 ", "k4"),
            ("k4 15 ", "k4 15"),
            ("k4 15 ", "k4 15 none extra"),
            # pair code outside 0..2, missing or not an integer
            ("k4 15 ", "k4 15 cross 3"),
            ("k4 15 ", "k4 15 cross -1"),
            ("k4 15 ", "k4 15 cross"),
            ("k4 15 ", "k4 15 cross one"),
            # k5 count or member bad or out of range
            ("k5 ", "k5 two"),
            ("k5 ", "k5"),
            (None, "7776"),
            (None, "-1"),
            (None, "1 2"),
            # truncated k5 block
            (None, None),
        ],
    )
    def test_parse_rejects_malformed_line(self, tables, line, bad):
        """One line of the shipped table replaced (the last one when
        ``line`` is None) or, when ``bad`` is None, removed."""
        lines = serialize_tables(tables).splitlines()
        i = len(lines) - 1
        if line is not None:
            i = next(i for i, ln in enumerate(lines) if ln.startswith(line))
        lines[i : i + 1] = [] if bad is None else [bad]
        with pytest.raises(InputError):
            parse_tables("\n".join(lines) + "\n")


class TestRealize:
    def test_convex_k5_has_five_crossings(self, tables):
        m = realize(tables, convex(5))
        assert len(crossing_pairs_of_map(m)) == 5
        assert validate_map(m) == []

    def test_triangle(self, tables):
        m = realize(tables, convex(3))
        assert len(m.scurve) == 3
        assert crossing_pairs_of_map(m) == set()

    def test_not_realizable_matches_membership(self, tables):
        non = min(set(range(6**5)) - set(tables.k5))
        rs = k5_system(non)
        assert not is_realizable(tables, rs)
        with pytest.raises(NotRealizableError):
            realize(tables, rs)

    def test_round_trip_on_sampled_k5_members(self, tables):
        rng = random.Random(21)
        for idx in rng.sample(sorted(tables.k5), 8):
            rs = k5_system(idx)
            m = realize(tables, rs)
            assert extract_rotation_system(m) == rs
            assert validate_map(m) == []

    def test_round_trip_on_relabeled_k6_orbits(self, tables, enum6):
        rng = random.Random(6)
        for rep in enum6:
            perm = list(range(1, 7))
            rng.shuffle(perm)
            rs = relabel(rep.rs, perm)
            m = realize(tables, rs)
            assert extract_rotation_system(m) == rs
            assert validate_map(m) == []

    def test_rejects_large_n(self, tables):
        with pytest.raises(InputError):
            realize(tables, convex(8))
