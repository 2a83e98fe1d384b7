from __future__ import annotations

import random

import pytest

import sepdraw.extension as ext
from sepdraw.cmap import (
    EDGE,
    INSERTED,
    MapBuilder,
    crossing_pairs_of_map,
    extract_rotation_system,
    from_two_page,
    validate_map,
)
from sepdraw.errors import InputError, WitnessError
from sepdraw.extension import (
    extend_to_complete_crossmin,
    extend_to_complete_separable,
    insert_min_crossings,
    insert_min_witness_crossings,
)
from sepdraw.generators import (
    all_edges,
    random_planar_map,
    random_two_page,
    random_two_page_minus,
)
from sepdraw.rotation import is_realizable
from sepdraw.routing import apply_route, iter_routes, min_cost_route

from oracles import exhaustive_min_route_cost


class TestInsertMinWitnessCrossings:
    def test_two_page_k4_minus_diagonal(self):
        edges = [(1, 2), (1, 4), (2, 3), (2, 4), (3, 4)]
        m, _ = from_two_page([1, 2, 3, 4], edges, ["upper"] * 5)
        res = insert_min_witness_crossings(m, 1, 3)
        assert validate_map(res.map) == []
        assert res.edge == (1, 3)

    def test_free_face_insertion_costs_zero(self):
        # path 1-2-3 drawn without crossings; the chord 1-3 fits in a face
        m, _ = from_two_page([1, 2, 3], [(1, 2), (2, 3)], ["upper"] * 2)
        res = insert_min_witness_crossings(m, 1, 3)
        assert res.witness_set_crossings == 0
        assert res.edge_crossings == 0
        assert validate_map(res.map) == []

    def test_requires_witnesses(self):
        m, _ = from_two_page(
            [1, 2, 3], [(1, 2), (2, 3)], ["upper"] * 2, witnesses=False
        )
        with pytest.raises(WitnessError):
            insert_min_witness_crossings(m, 1, 3)

    def test_rejects_existing_edge_and_loops(self):
        m, _ = from_two_page([1, 2, 3], [(1, 2), (2, 3)], ["upper"] * 2)
        with pytest.raises(InputError):
            insert_min_witness_crossings(m, 1, 2)
        with pytest.raises(InputError):
            insert_min_witness_crossings(m, 2, 2)


class TestInsertMinCrossings:
    def test_planar_tree_chord_is_free(self):
        m, _ = from_two_page(
            [1, 2, 3, 4], [(1, 2), (2, 3), (3, 4)], ["upper"] * 3,
            witnesses=False,
        )
        res = insert_min_crossings(m, 1, 4)
        assert res.edge_crossings == 0

    def test_planar_k4_minus_edge_completes_free(self):
        # crossing-free drawing of K4 minus {1,3}
        edges = [(1, 2), (1, 4), (2, 3), (2, 4), (3, 4)]
        pages = ["upper", "upper", "upper", "lower", "upper"]
        m, _ = from_two_page([1, 2, 3, 4], edges, pages, witnesses=False)
        assert crossing_pairs_of_map(m) == set()
        res = insert_min_crossings(m, 1, 3)
        assert res.edge_crossings == 0
        assert validate_map(res.map) == []

    def test_convex_k5_missing_diagonal_matches_oracle(self):
        edges = [e for e in all_edges(5) if e != (1, 3)]
        m, _ = from_two_page(
            [1, 2, 3, 4, 5], edges, ["upper"] * len(edges), witnesses=False
        )
        res = insert_min_crossings(m, 1, 3)
        oracle = exhaustive_min_route_cost(
            m, 1, 3, lambda c: 1 if m.curves[c].kind == EDGE else 0
        )
        assert res.edge_crossings == oracle


class TestRouterOptimality:
    def test_matches_exhaustive_enumeration_on_small_maps(self):
        rng = random.Random(41)
        checked = 0
        for n in (4, 5):
            for _ in range(8):
                m, _, _, _ = random_two_page(n, rng)
                if len(m.faces) > 12:
                    continue
                missing_u, missing_v = rng.sample(range(1, n + 1), 2)

                def cost(c):
                    return 1 if m.curves[c].kind == EDGE else 0

                got = min_cost_route(
                    m,
                    m.real_by_label[missing_u],
                    m.real_by_label[missing_v],
                    cost,
                )[1]
                want = exhaustive_min_route_cost(
                    m, missing_u, missing_v, cost
                )
                assert got == want
                checked += 1
        assert checked >= 8


class TestApplyRoute:
    def _face_route(self):
        m, _ = from_two_page([1, 2, 3], [(1, 2), (2, 3)], ["upper"] * 2)
        zero = {cid: 0 for cid in range(len(m.curves))}
        route = next(iter_routes(m, ("face", 0), m.real_by_label[1], zero))
        return m, route

    def test_face_start_attaches_the_placed_vertex(self):
        m, route = self._face_route()
        b = MapBuilder.from_map(m)
        b.new_vertex("real", 4)
        cid = apply_route(b, EDGE, 4, 1, route)
        out = b.freeze()
        assert out.curves[cid].edge() == (1, 4)
        assert len(out.vdarts[out.real_by_label[4]]) == 1
        assert validate_map(out) == []

    def test_face_start_rejects_a_vertex_with_darts(self):
        m, route = self._face_route()
        with pytest.raises(InputError):
            apply_route(MapBuilder.from_map(m), EDGE, 3, 1, route)


class TestExtendSeparable:
    def test_seeded_two_page_instances(self, tables):
        rng = random.Random(53)
        for n in (5, 6, 7):
            for _ in range(4):
                m, _, removed = random_two_page_minus(n, n, rng)
                res = extend_to_complete_separable(m)
                assert validate_map(res.map) == []
                for ins in res.insertions:
                    assert (
                        ext._check_simple_vs_original(
                            ins.map, ins.curve_id
                        )
                        is None
                    )
                rs = extract_rotation_system(res.map)
                assert is_realizable(tables, rs)
                got = {c.edge() for c in res.map.curves if c.kind == INSERTED}
                assert got == set(removed)

    def test_identity_on_complete_input(self):
        rng = random.Random(59)
        m, _, _, _ = random_two_page(5, rng)
        res = extend_to_complete_separable(m)
        assert res.map == m
        assert res.insertions == ()

    def test_potential_log_strictly_decreases(self, tables):
        rng = random.Random(61)
        for _ in range(6):
            m, _, _ = random_two_page_minus(7, 7, rng)
            res = extend_to_complete_separable(m)
            for a, b in zip(res.potential_log, res.potential_log[1:]):
                assert b < a


class TestExtendCrossmin:
    def test_planar_inputs_complete_to_simple(self, tables):
        rng = random.Random(67)
        for n in (4, 5, 6, 7, 8):
            m = random_planar_map(n, rng)
            assert crossing_pairs_of_map(m) == set()
            res = extend_to_complete_crossmin(m)
            assert validate_map(res.map) == []
            rs = extract_rotation_system(res.map)
            assert is_realizable(tables, rs)

    def test_identity_on_complete_input(self):
        rng = random.Random(71)
        m, _, _, _ = random_two_page(4, rng)
        res = extend_to_complete_crossmin(m)
        assert res.map == m


def _conflicted_pair_map():
    """Two inserted curves crossing twice (built deliberately through
    suboptimal routes), for exercising the exchange surgery."""
    m, _ = from_two_page(
        [1, 3, 2, 4], [(1, 2), (3, 4)], ["upper", "upper"], witnesses=False
    )
    budget = {cid: 1 for cid in range(len(m.curves))}
    route_a = next(
        r
        for r in iter_routes(
            m, m.real_by_label[1], m.real_by_label[4], budget
        )
        if len(r.crossings) >= 1
    )
    b = MapBuilder.from_map(m)
    apply_route(b, INSERTED, 1, 4, route_a)
    m2 = b.freeze()
    aid = len(m2.curves) - 1
    budget = {cid: 1 for cid in range(len(m2.curves))}
    budget[aid] = 2
    route_b = next(
        r
        for r in iter_routes(
            m2, m2.real_by_label[2], m2.real_by_label[3], budget
        )
        if [m2.scurve[s] for s, _ in r.crossings].count(aid) == 2
    )
    b = MapBuilder.from_map(m2)
    apply_route(b, INSERTED, 2, 3, route_b)
    return m2, b.freeze(), aid


class TestFixupSurgery:
    def test_exchange_removes_double_crossing(self):
        _, m3, _ = _conflicted_pair_map()
        assert ext._violating_pair(m3) is not None
        pot0 = ext._potential(m3, ext.SEPARABLE)
        c1, c2, x1, x2 = ext._violating_pair(m3)
        b = MapBuilder.from_map(m3)
        ext._exchange(b, c1, c2, x1, x2)
        m4 = b.freeze()
        assert validate_map(m4, strict=False) == []
        assert ext._violating_pair(m4) is None
        assert ext._potential(m4, ext.SEPARABLE) < pot0

    def test_exchange_handles_shared_endpoint(self):
        m2, _, aid = _conflicted_pair_map()
        budget = {cid: 1 for cid in range(len(m2.curves))}
        route_c = next(
            r
            for r in iter_routes(
                m2, m2.real_by_label[1], m2.real_by_label[3], budget
            )
            if [m2.scurve[s] for s, _ in r.crossings].count(aid) == 1
        )
        b = MapBuilder.from_map(m2)
        apply_route(b, INSERTED, 1, 3, route_c)
        m5 = b.freeze()
        viol = ext._violating_pair(m5)
        assert viol is not None
        pot0 = ext._potential(m5, ext.SEPARABLE)
        b = MapBuilder.from_map(m5)
        ext._exchange(b, *viol)
        m6 = b.freeze()
        assert validate_map(m6, strict=False) == []
        assert ext._violating_pair(m6) is None
        assert ext._potential(m6, ext.SEPARABLE) < pot0

    def test_exchange_with_loop_excision(self):
        base_edges = [(1, 4), (2, 5), (3, 6), (1, 3), (4, 6)]
        m0, _ = from_two_page(
            [1, 2, 3, 4, 5, 6], base_edges, ["upper"] * 5, witnesses=False
        )
        budget0 = {cid: 1 for cid in range(len(m0.curves))}
        hit = False
        for ra in iter_routes(
            m0, m0.real_by_label[2], m0.real_by_label[6], budget0
        ):
            if len(ra.crossings) < 2:
                continue
            b = MapBuilder.from_map(m0)
            apply_route(b, INSERTED, 2, 6, ra)
            m1 = b.freeze()
            aid = len(m1.curves) - 1
            budget = {cid: 1 for cid in range(len(m1.curves))}
            budget[aid] = 3
            for rb in iter_routes(
                m1, m1.real_by_label[1], m1.real_by_label[5], budget
            ):
                crossed = [m1.scurve[s] for s, _ in rb.crossings]
                if crossed.count(aid) != 3:
                    continue
                b = MapBuilder.from_map(m1)
                apply_route(b, INSERTED, 1, 5, rb)
                m2 = b.freeze()
                bb = MapBuilder.from_map(m2)
                c1, c2 = aid, len(m2.curves) - 1
                common1 = ext._common_points(bb, c1, c2)
                common2 = ext._common_points(bb, c2, c1)
                if common1 == common2 or common1 == common2[::-1]:
                    continue
                pot0 = ext._potential(m2, ext.SEPARABLE)
                b = MapBuilder.from_map(m2)
                ext._exchange(b, c1, c2, common1[0], common1[1])
                m3 = b.freeze()
                assert validate_map(m3, strict=False) == []
                assert ext._potential(m3, ext.SEPARABLE) < pot0
                hit = True
                break
            if hit:
                break
        assert hit, "no order-permuted triple crossing found"
