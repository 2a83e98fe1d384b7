from __future__ import annotations

import random
from collections import Counter

import pytest

import sepdraw.extension as ext
from sepdraw.cmap import (
    EDGE,
    INSERTED,
    WITNESS,
    CombinatorialMap,
    MapBuilder,
    crossing_pairs_of_map,
    drawn_edges,
    extract_rotation_system,
    from_two_page,
    serialize_cmap,
    validate_map,
)
from sepdraw.errors import InputError, SimplicityError, WitnessError
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
from sepdraw.routing import (
    apply_route,
    iter_routes,
    min_cost_route,
    with_route,
)

from oracles import (
    exhaustive_min_route_cost,
    reference_check_simple_vs_original,
    reference_shared_points,
    reference_validate_map,
    reference_violating_pair,
)


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


def _corrupted_maps():
    """Two structural corruptions of a separable K7 minus three edges,
    and its first missing edge: two darts swapped in vertex 0's rotation
    (the faces no longer satisfy Euler's formula), and one dart moved
    from vertex 0 to vertex 1."""
    m, _, removed = random_two_page_minus(7, 3, random.Random(3))
    rot = m.vdarts[0]

    def with_rotations(first, second):
        vdarts = (first, second) + m.vdarts[2:]
        return CombinatorialMap(
            m.vkind, m.vlabel, vdarts, m.scurve, m.sidx, m.curves
        )

    swapped = with_rotations((rot[1], rot[0]) + rot[2:], m.vdarts[1])
    moved = with_rotations(rot[1:], m.vdarts[1] + rot[:1])
    return (swapped, moved), sorted(removed)[0]


def _bad_witness_map():
    """A separable K7 minus three edges with one more witness arc, which
    crosses its own edge, and the drawing's first missing edge."""
    m, _, removed = random_two_page_minus(7, 3, random.Random(3))
    for eid, c in enumerate(m.curves):
        if c.kind != EDGE:
            continue
        budget = {cid: 0 for cid in range(len(m.curves))}
        budget[eid] = 1
        ends = m.real_by_label[c.u], m.real_by_label[c.v]
        route = next(
            (r for r in iter_routes(m, *ends, budget) if r.crossings), None
        )
        if route is not None:
            bad, _ = with_route(m, WITNESS, c.u, c.v, route)
            return bad, sorted(removed)[0]
    raise AssertionError("no witness route crosses its own edge")


def _extend_separable(m, u, v):
    return extend_to_complete_separable(m)


class TestInsertionEntryChecks:
    """Both insertion functions check ``validate_map(m, strict=False)``
    and raise :class:`InputError` naming its first violation; a bad
    witness arc fails the same way in ``extend_to_complete_separable``."""

    INSERT = (insert_min_witness_crossings, insert_min_crossings)

    @pytest.mark.parametrize("insert", INSERT)
    def test_structurally_broken_input(self, insert):
        bad_maps, (u, v) = _corrupted_maps()
        for bad in bad_maps:
            want = validate_map(bad, strict=False)
            assert want
            with pytest.raises(InputError) as exc:
                insert(bad, u, v)
            assert str(exc.value) == f"input map invalid: {want[0]}"

    @pytest.mark.parametrize("insert", INSERT + (_extend_separable,))
    def test_invalid_witness_arc(self, insert):
        m, (u, v) = _bad_witness_map()
        want = validate_map(m, strict=False)
        assert "crosses its own edge" in want[0]
        with pytest.raises(InputError) as exc:
            insert(m, u, v)
        assert str(exc.value) == f"input map invalid: {want[0]}"


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
                        reference_check_simple_vs_original(
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
    m2, _ = with_route(m, INSERTED, 1, 4, route_a)
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
    return m2, with_route(m2, INSERTED, 2, 3, route_b)[0], aid


@pytest.mark.usefixtures("checked_freeze")
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
        m5, _ = with_route(m2, INSERTED, 1, 3, route_c)
        viol = ext._violating_pair(m5)
        assert viol is not None
        pot0 = ext._potential(m5, ext.SEPARABLE)
        b = MapBuilder.from_map(m5)
        ext._exchange(b, *viol)
        m6 = b.freeze()
        assert validate_map(m6, strict=False) == []
        assert ext._violating_pair(m6) is None
        assert ext._potential(m6, ext.SEPARABLE) < pot0

    def test_exchange_with_loop_excision(self, monkeypatch):
        # the first exchange in the search whose fix-up excises a loop
        excised = []
        excise = ext._excise_one_loop

        def counting(b, cid):
            """Records whether each excision found a loop."""
            found = excise(b, cid)
            excised.append(found)
            return found

        monkeypatch.setattr(ext, "_excise_one_loop", counting)
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
            m1, _ = with_route(m0, INSERTED, 2, 6, ra)
            aid = len(m1.curves) - 1
            budget = {cid: 1 for cid in range(len(m1.curves))}
            budget[aid] = 3
            for rb in iter_routes(
                m1, m1.real_by_label[1], m1.real_by_label[5], budget
            ):
                crossed = [m1.scurve[s] for s, _ in rb.crossings]
                if crossed.count(aid) != 3:
                    continue
                m2, _ = with_route(m1, INSERTED, 1, 5, rb)
                bb = MapBuilder.from_map(m2)
                c1, c2 = aid, len(m2.curves) - 1
                common1 = ext._common_points(bb, c1, c2)
                common2 = ext._common_points(bb, c2, c1)
                if common1 == common2 or common1 == common2[::-1]:
                    continue
                pot0 = ext._potential(m2, ext.SEPARABLE)
                b = MapBuilder.from_map(m2)
                excised.clear()
                ext._exchange(b, c1, c2, common1[0], common1[1])
                if True not in excised:
                    continue
                m3 = b.freeze()
                assert validate_map(m3, strict=False) == []
                assert ext._potential(m3, ext.SEPARABLE) < pot0
                hit = True
                break
            if hit:
                break
        assert hit, "no exchange of an order-permuted triple crossing excises a loop"


def _looped_map_builder():
    """Edge 1-2 drawn with a self-loop: it crosses itself at x and runs
    round a loop through y, which edge 3-4 crosses from vertex 3 inside
    the loop; edge 2-4 closes the drawing outside.  Segments 0-3 are the
    edge 1-2 (1-x, x-y, y-x, x-2), 4-5 the edge 3-4 (3-y, y-4) and 6 the
    edge 2-4."""
    b = MapBuilder()
    v1, v2, v3, v4 = (b.new_vertex("real", lab) for lab in (1, 2, 3, 4))
    x, y = b.new_vertex("cross"), b.new_vertex("cross")
    for u, v, nseg in ((1, 2, 4), (3, 4, 2), (2, 4, 1)):
        cid = b.new_curve(EDGE, u, v)
        b.csegs[cid] = [b.new_segment(cid) for _ in range(nseg)]
    for vid, darts in (
        (v1, [0]),
        (x, [2, 6, 1, 5]),
        (y, [10, 3, 9, 4]),
        (v2, [7, 12]),
        (v3, [8]),
        (v4, [11, 13]),
    ):
        b.set_rotation(vid, darts)
    return b


@pytest.mark.usefixtures("checked_freeze")
class TestLoopExcision:
    def test_excises_loop_crossed_by_another_curve(self):
        b = _looped_map_builder()
        # the self-crossing at x is the drawing's only fault
        assert reference_validate_map(b.freeze(), strict=False) == [
            "cross vertex 4 lacks two alternating distinct curves: "
            "[0, 0, 0, 0]"
        ]
        assert b.curve_points(0) == [0, 4, 5, 4, 1]
        assert ext._excise_one_loop(b, 0)
        assert not ext._excise_one_loop(b, 0)
        m = b.freeze()
        assert reference_validate_map(m) == []
        assert serialize_cmap(m) == (
            "cmap v1\nreal 4\n"
            "vertex 0 real 1 : 0\n"
            "vertex 1 real 2 : 1 4\n"
            "vertex 2 real 3 : 2\n"
            "vertex 3 real 4 : 3 5\n"
            "segment 0 1 curve 0 idx 0\n"
            "segment 2 3 curve 1 idx 0\n"
            "segment 4 5 curve 2 idx 0\n"
            "curve 0 edge 1-2\ncurve 1 edge 3-4\ncurve 2 edge 2-4\n"
        )


# Crossmin inputs whose completion runs fix-up steps (3, 3, 5 and 7 when
# this test was written); criteria 9 and 10 of the acceptance suite run
# none.
FIXUP_KEYS = ("8:0", "10:23", "11:24", "11:34")


@pytest.mark.usefixtures("checked_freeze")
class TestFixupLoop:
    @pytest.mark.parametrize("key", FIXUP_KEYS)
    def test_completion_runs_fixup_steps(self, key):
        m = random_planar_map(int(key.split(":")[0]), random.Random(key))
        res = extend_to_complete_crossmin(m)
        log = res.potential_log
        assert len(log) > 1
        assert all(a > b for a, b in zip(log, log[1:]))
        assert validate_map(res.map) == [] == reference_validate_map(res.map)
        # replay the loop, comparing each pair found with the reference
        cur = res.insertions[-1].map
        steps = 0
        while True:
            shared = reference_shared_points(cur)
            assert {p: cur.shared_points(*p) for p in shared} == shared
            viol = ext._violating_pair(cur)
            assert viol == reference_violating_pair(cur), (key, steps)
            if viol is None:
                break
            b = MapBuilder.from_map(cur)
            ext._exchange(b, *viol)
            cur = b.freeze()
            steps += 1
        assert steps == len(log) - 1
        assert cur == res.map


# ---------------------------------------------------------------------------
# An insertion reads its counts and its simplicity verdict off its route:
# the new curve meets each curve once per crossed segment.  Every
# insertion below is compared with the meet counts of the map it made and
# with the all-pairs reference check.


def _witness_free_minus(n: int, rng: random.Random):
    """A 2-page drawing of K_n without witness arcs, minus 1..n random
    edges that leave no vertex isolated."""
    order = list(range(1, n + 1))
    rng.shuffle(order)
    edges = all_edges(n)
    while True:
        gone = set(rng.sample(edges, rng.randint(1, n)))
        kept = [e for e in edges if e not in gone]
        if {x for e in kept for x in e} == set(order):
            break
    pages = [rng.choice(("upper", "lower")) for _ in kept]
    return from_two_page(order, kept, pages, witnesses=False)[0]


# (input index, (inserted edge, edge it meets twice)) of each witness-free
# input of ``test_witness_free_crossmin`` whose completion an insertion
# refuses, recorded when the check read the new map's meet counts
REFUSED = (
    (33, ((1, 3), (1, 5))),
    (55, ((1, 4), (1, 6))),
    (60, ((1, 5), (3, 5))),
    (103, ((2, 7), (2, 5))),
    (104, ((1, 6), (1, 3))),
    (118, ((4, 7), (1, 4))),
    (134, ((3, 6), (1, 6))),
    (171, ((5, 6), (5, 9))),
    (173, ((7, 8), (6, 8))),
    (182, ((7, 9), (1, 9))),
    (183, ((3, 6), (2, 3))),
    (186, ((2, 4), (2, 8))),
    (192, ((1, 5), (5, 9))),
    (199, ((6, 8), (2, 8))),
)


@pytest.fixture
def insertions(monkeypatch):
    """Records every insertion as ``(map, curve_id, outcome)``: the map
    and curve id ``with_route`` made for it, and its result or the
    :class:`SimplicityError` it raised."""
    with_route, insert = ext.with_route, ext._insert
    made, log = [], []

    def routed(*args):
        """``with_route``, keeping what it made."""
        made.append(with_route(*args))
        return made[-1]

    def inserting(m, u, v, mode):
        """``_insert``, logging its outcome."""
        try:
            res = insert(m, u, v, mode)
        except SimplicityError as exc:
            log.append((*made[-1], exc))
            raise
        log.append((*made[-1], res))
        return res

    monkeypatch.setattr(ext, "with_route", routed)
    monkeypatch.setattr(ext, "_insert", inserting)
    return log


def _check_insertions(log) -> list:
    """Compares each insertion's counts with the new curve's meet counts
    by curve kind, and its verdict with the reference; returns the
    errors raised."""
    errors = []
    for out, cid, outcome in log:
        kinds = Counter()
        for (a, b), k in out.meets.items():
            if cid in (a, b) and a != b:
                kinds[out.curves[a + b - cid].kind] += k
        offender = reference_check_simple_vs_original(out, cid)
        if isinstance(outcome, SimplicityError):
            assert outcome.pair == (out.curves[cid].edge(), offender)
            errors.append(outcome)
            continue
        assert offender is None
        assert (
            outcome.witness_set_crossings,
            outcome.edge_crossings,
            outcome.inserted_crossings,
        ) == (kinds[EDGE] + kinds[WITNESS], kinds[EDGE], kinds[INSERTED])
    return errors


class TestRouteDerivedCheck:
    def test_separable(self, insertions):
        rng = random.Random(83)
        for n in range(5, 10):
            for _ in range(6):
                m = random_two_page_minus(n, n, rng)[0]
                extend_to_complete_separable(m)
        assert _check_insertions(insertions) == []
        crossing = [res for *_, res in insertions if res.witness_set_crossings]
        assert len(insertions) == 132 and len(crossing) == 78

    def test_planar_crossmin(self, insertions):
        rng = random.Random(84)
        maps = [
            random_planar_map(n, rng) for n in range(4, 10) for _ in range(6)
        ]
        maps += [
            random_planar_map(int(key.split(":")[0]), random.Random(key))
            for key in FIXUP_KEYS
        ]
        for m in maps:
            extend_to_complete_crossmin(m)
        assert _check_insertions(insertions) == []
        crossing = [res for *_, res in insertions if res.edge_crossings]
        assert len(insertions) == 458 and len(crossing) == 237

    def test_witness_free_crossmin(self, insertions):
        """2-page drawings without witness arcs, 40 per n: they need not
        be crossing-minimizing, so some insertions raise
        :class:`SimplicityError`."""
        rng = random.Random("84")
        refused = []
        for i in range(200):
            m = _witness_free_minus(5 + i // 40, rng)
            try:
                extend_to_complete_crossmin(m)
            except SimplicityError as exc:
                e, f = exc.pair
                assert str(exc) == (
                    f"inserting {e} with minimum crossings meets edge {f} "
                    f"twice; the input is not crossing-minimizing"
                )
                refused.append((i, exc.pair))
        assert tuple(refused) == REFUSED
        assert len(_check_insertions(insertions)) == len(REFUSED)
        assert len(insertions) == 824

    def test_routes_crossing_a_curve_twice(self, insertions, monkeypatch):
        """Routes the router does not pick: for each missing edge of
        2-page inputs, the first route the search finds that crosses one
        curve twice, through witness arcs only, and then through the edge
        curves that share no end with the new edge too."""
        allowed = []

        def searched(m, u_vid, v_vid, cost_of_curve):
            """The first route that crosses a curve of ``allowed`` twice,
            or None."""
            budget = dict.fromkeys(allowed, 2)
            for route in iter_routes(m, u_vid, v_vid, budget):
                hits = Counter(m.scurve[s] for s, _ in route.crossings)
                if max(hits.values(), default=0) > 1:
                    return route, 0
            return None

        monkeypatch.setattr(ext, "min_cost_route", searched)
        rng = random.Random(85)
        for n in (5, 6, 7):
            for _ in range(2):
                m = random_two_page_minus(n, n, rng)[0]
                curves = list(enumerate(m.curves))
                witnesses = [c for c, cu in curves if cu.kind == WITNESS]
                for e in sorted(set(all_edges(n)) - drawn_edges(m)):
                    apart = [c for c, cu in curves if cu.kind == EDGE
                             and not set(cu.edge()) & set(e)]
                    for chosen in (witnesses, witnesses + apart):
                        allowed[:] = chosen
                        try:
                            insert_min_crossings(m, *e)
                        except InputError:  # SimplicityError, or no route
                            pass
        assert len(_check_insertions(insertions)) == 9
        assert len(insertions) == 30
