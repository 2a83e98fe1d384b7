"""The lazy route search against the collecting one, and generator pins.

``routing.iter_routes`` yields each route where its depth-first search
finds it.  It must yield exactly the routes, in the same order, that the
search collected before yielding (``reference_iter_routes`` in
``tests/oracles.py``), and its first route must be the one that search
returned with ``first_only``.  The maps are the golden probe maps, 2-page
drawings of K4-K6 under the budgets of the witness search, every
insertion step of the enumeration up to K6, and small hand-built maps
queried from every vertex and face to every vertex, on which targets
have several corners on one face and routes pass through a face more
than once.  Each search cuts the crossing moves beneath which no route
lies (``routing._reachable``), so every comparison runs through the
cut, and the tests count the moves it cut.  The witness maps of the
three edges of the benchmark's seed-1 completion inputs that took
seconds before the cut are pinned, and the edges of non-separable K6
drawings that have no witness stay without one.

The seeded generators pick among crossing-free routes with ``rng.choice``,
so their outputs pin the route order too.

``routing.min_cost_route`` ranks faces in a second pass instead of
carrying face sequences in its labels, and stops once the target's key
is settled.  It must return the same ``(route, cost)`` as
``reference_min_cost_route``, which carries them and settles every face,
on every insertion of the golden completion corpus, on every ordered
pair of real labels of seeded 2-page and planar maps under four costs
per curve, and on small hand-built maps whose routes tie.  A count of
heap pops shows that the stop cuts the search short.

``routing.with_route`` splices a route into the arrays of a map that
``freeze`` made.  The ``checked_route`` fixture compares every call with
``reference_with_route``, the builder copy, a copy of ``apply_route``
and ``reference_freeze``: on searched and least-cost routes of seeded
maps, on routes that cross one curve twice, on every insertion of the
golden completions, on face starts, on shuffled copies that take the
builder path, and on the routes both paths refuse.  The K6 enumeration,
all splices, keeps its pinned orbits.
"""
from __future__ import annotations

import hashlib
import heapq
import itertools
import math
import random
import re
from pathlib import Path

import pytest

import sepdraw.enumeration as enumeration
import sepdraw.extension as extension
import sepdraw.routing as routing
from sepdraw.cmap import (
    EDGE,
    CombinatorialMap,
    Curve,
    MapBuilder,
    parse_cmap,
    serialize_cmap,
)
from sepdraw.errors import InputError, InternalInvariantError
from sepdraw.generators import (
    all_edges,
    random_planar_map,
    random_two_page,
    random_two_page_minus,
)
from sepdraw.routing import Route, iter_routes, min_cost_route

from oracles import (
    permuted_layout,
    reference_iter_routes,
    reference_min_cost_route,
)
from test_map_golden import _crossmin_inputs, _probe_maps, _separable_inputs
from test_validate_reference import _outcome

# sha256 of the serialized random_planar_map outputs for n = 2..12,
# seeds 0..19, then the random_two_page_minus maps and removed edges for
# n = 4..8, seeds 0..9, recorded when the route search still collected
# its routes before yielding
GENERATOR_DIGEST = (
    "c532a0db205fe4be4d179128bf2bce0224b3a16d8ce0b63a7b37f0aed0378a31"
)


def _check(m, source, target_vid, budget) -> int:
    """Compare both searches on one query; returns the number of routes."""
    got = _outcome(lambda: list(iter_routes(m, source, target_vid, budget)))
    want = _outcome(
        lambda: list(reference_iter_routes(m, source, target_vid, budget))
    )
    assert got == want, (source, target_vid, budget)
    first = _outcome(
        lambda: next(iter_routes(m, source, target_vid, budget), None)
    )
    want_first = _outcome(
        lambda: next(
            reference_iter_routes(
                m, source, target_vid, budget, first_only=True
            ),
            None,
        )
    )
    assert first == want_first, (source, target_vid, budget)
    return len(got[1]) if got[0] == "ok" else 0


def _count_cuts(monkeypatch) -> list:
    """Wraps ``routing._reachable``; the returned list gets one entry per
    crossing move the search cuts."""
    reachable = routing._reachable
    cuts = []

    def counting(*args):
        """``_reachable``, recording each move it cuts."""
        found = reachable(*args)
        if not found:
            cuts.append(None)
        return found

    monkeypatch.setattr(routing, "_reachable", counting)
    return cuts


def test_probe_maps():
    rng = random.Random(51)
    routes = 0
    for outcome in _probe_maps():
        if outcome[0] != "ok":
            continue
        m = outcome[1]
        u, v = rng.sample(m.real_labels(), 2)
        target = m.real_by_label[v]
        # crossing-free, then up to one crossing on three random curves
        some = rng.sample(range(len(m.curves)), min(3, len(m.curves)))
        for budget in ({}, dict.fromkeys(some, 1)):
            routes += _check(m, m.real_by_label[u], target, budget)
            routes += _check(m, ("face", rng.randrange(len(m.faces))),
                             target, budget)
    assert routes > 0


def test_two_page_witness_budgets(monkeypatch):
    """Every route search of ``find_witness`` on the drawn edges of 2-page
    K4-K6 drawings, and the same budget from a random face."""
    rng = random.Random(52)
    queries = []

    def checked(m, source, target_vid, budget):
        queries.append(_check(m, source, target_vid, budget))
        face = ("face", rng.randrange(len(m.faces)))
        queries.append(_check(m, face, target_vid, budget))
        return iter_routes(m, source, target_vid, budget)

    monkeypatch.setattr(routing, "iter_routes", checked)
    cuts = _count_cuts(monkeypatch)
    for n in (4, 5, 6):
        for _ in range(3):
            m = random_two_page(n, rng)[0]
            for e in sorted({c.edge() for c in m.curves if c.kind == EDGE}):
                routing.find_witness(m, e)
    assert len(queries) > 0 and sum(queries) > 0 and len(cuts) > 0


def test_witness_negatives(monkeypatch, enum6):
    """The edges of four non-separable K6 drawings (the golden test's)
    under the budgets of the witness search: 22 have no witness, and the
    cut, which ends those searches early, leaves them without one."""
    queries = []

    def checked(m, source, target_vid, budget):
        queries.append(_check(m, source, target_vid, budget))
        return iter_routes(m, source, target_vid, budget)

    monkeypatch.setattr(routing, "iter_routes", checked)
    cuts = _count_cuts(monkeypatch)
    found = [
        routing.find_witness(enum6[i].map, e)
        for i in (1, 37, 71, 82)
        for e in all_edges(6)
    ]
    assert found.count(None) == 22 and queries.count(0) == 22
    assert len(cuts) > 0


def test_enumeration_steps(monkeypatch):
    """Every route search of the enumerator up to K6, as it runs."""
    queries = []

    def checked(m, source, target_vid, budget):
        queries.append(_check(m, source, target_vid, budget))
        return iter_routes(m, source, target_vid, budget)

    monkeypatch.setattr(enumeration, "iter_routes", checked)
    cuts = _count_cuts(monkeypatch)
    enumeration.enumerate_good_drawings(6)
    assert len(queries) == 2624 and sum(queries) > 0
    # each query runs three searches: _check's whole one and the
    # enumerator's each cut 5710 moves (test_enumeration_cuts), and
    # _check's search for the first route cuts some more
    assert len(cuts) > 2 * 5710


def test_enumeration_cuts(monkeypatch):
    """One K6 enumeration cuts 5710 crossing moves and finds its 102
    orbits."""
    cuts = _count_cuts(monkeypatch)
    reps = enumeration.enumerate_good_drawings(6)
    assert len(cuts) == 5710 and len(reps) == 102


# sha256 of serialize_cmap of the witness map of each edge of the
# benchmark's seed-1 complete inputs that took seconds before the search
# cut dead branches, recorded when iter_routes still sorted a gap table
# on every face visit (as the weekly complete-scale job pins them)
SLOW_WITNESSES = {
    ("037-separable-8.cmap", (2, 7)):
        "e409040d10c38bae9c336c503341e53492447817a38c36660b5014406a1c08f7",
    ("046-separable-9.cmap", (4, 6)):
        "08f397886179fbeb4ab940c2c4702dc28bcf786ae9138b5b7f45f66bc4c769a4",
    ("047-separable-9.cmap", (2, 4)):
        "26585e17bad75cc7e5a211ebb53d44f60ce9af073c2c97603adf58c0bb0b67b5",
}


def test_slow_witness_edges(monkeypatch, tmp_path):
    """The three edges keep their pinned witness maps, and the search
    cuts moves on each."""
    monkeypatch.syspath_prepend(
        str(Path(__file__).resolve().parents[1] / "perfbench")
    )
    from workloads import build_inputs

    build_inputs("complete", 1, False, tmp_path)
    cuts = _count_cuts(monkeypatch)
    for (name, e), digest in SLOW_WITNESSES.items():
        m = parse_cmap((tmp_path / name).read_text())
        cuts.clear()
        found = routing.find_witness(m, e)
        assert found is not None, (name, e)
        text = serialize_cmap(found[0]).encode()
        assert hashlib.sha256(text).hexdigest() == digest, (name, e)
        assert len(cuts) > 0, (name, e)


def test_generator_outputs_pinned():
    h = hashlib.sha256()
    for n in range(2, 13):
        for s in range(20):
            m = random_planar_map(n, random.Random(f"{n}:{s}"))
            h.update(serialize_cmap(m).encode())
    for n in range(4, 9):
        for s in range(10):
            m, _, removed = random_two_page_minus(
                n, n, random.Random(f"{n}:{s}")
            )
            h.update(serialize_cmap(m).encode())
            h.update(repr(removed).encode())
    assert h.hexdigest() == GENERATOR_DIGEST


def _same_route(m, u_vid, v_vid, cost_of_curve):
    """Both least-cost searches on one query; returns the library's."""
    got = min_cost_route(m, u_vid, v_vid, cost_of_curve)
    want = reference_min_cost_route(m, u_vid, v_vid, cost_of_curve)
    assert got == want, (serialize_cmap(m), u_vid, v_vid)
    return got


def test_min_cost_route_golden_insertions(monkeypatch):
    """Every insertion of the golden completion corpus, as it runs."""
    routes = []

    def checked(m, u_vid, v_vid, cost_of_curve):
        routes.append(_same_route(m, u_vid, v_vid, cost_of_curve))
        return routes[-1]

    monkeypatch.setattr(extension, "min_cost_route", checked)
    for m in _separable_inputs():
        extension.extend_to_complete_separable(m)
    for m in _crossmin_inputs():
        try:
            extension.extend_to_complete_crossmin(m)
        except InputError:  # the input is not crossing-minimizing
            pass
    assert len(routes) >= 136


def _cost_lists(m, rng):
    """Costs per curve: all 1 (the separable mode's on these maps), all
    0, edges only (the crossmin mode's), and seeded weights from
    {0, 1, 2, 5}."""
    return [
        [1] * len(m.curves),
        [0] * len(m.curves),
        [int(c.kind == EDGE) for c in m.curves],
        [rng.choice((0, 1, 2, 5)) for _ in m.curves],
    ]


def test_min_cost_route_seeded_maps():
    """Every ordered pair of real labels, drawn edges included, of seeded
    planar and 2-page maps: the router stops once the target's key is
    settled, and must still pick the reference's route."""
    routes = 0
    for n in range(4, 13):
        for s in range(3):
            rng = random.Random(f"costs {n}:{s}")
            for m in (
                random_planar_map(n, random.Random(f"{n}:{s}")),
                random_two_page_minus(n, n, random.Random(f"{n}:{s}"))[0],
            ):
                vids = m.real_by_label.values()
                for costs in _cost_lists(m, rng):
                    for u, v in itertools.permutations(vids, 2):
                        found = _same_route(m, u, v, costs.__getitem__)
                        routes += found is not None
    assert routes == 3 * 2 * 4 * sum(n * (n - 1) for n in range(4, 13))


def test_min_cost_route_stops_at_the_target(monkeypatch):
    """On a separable K9 with missing edges, each route pops fewer heap
    entries, and so settles fewer faces, than the map has faces."""
    pops = []

    class CountingHeap:
        heappush = staticmethod(heapq.heappush)

        @staticmethod
        def heappop(heap):
            pops[-1] += 1
            return heapq.heappop(heap)

    monkeypatch.setattr(routing, "heapq", CountingHeap)
    m = random_two_page_minus(9, 3, random.Random("9:0"))[0]
    drawn = {c.edge() for c in m.curves if c.kind == EDGE}
    costs = [int(c.kind in extension._COST_KINDS["separable"])
             for c in m.curves]
    vid = m.real_by_label
    for u, v in itertools.combinations(m.real_labels(), 2):
        if (u, v) not in drawn:
            pops.append(0)
            assert min_cost_route(m, vid[u], vid[v], costs.__getitem__)
    assert len(pops) == 2 and max(pops) < len(m.faces)


def test_min_cost_route_rejects_negative_costs():
    m = random_planar_map(6, random.Random(3))
    costs = [1] * len(m.curves)
    costs[3] = -1
    with pytest.raises(InputError, match="^curve 3 has negative cost -1$"):
        min_cost_route(m, 0, 1, costs.__getitem__)


def _plane_map(points, edges) -> CombinatorialMap:
    """The crossing-free straight-line drawing of ``edges`` on the labelled
    ``points``: one segment per edge, each vertex's darts clockwise."""
    labels = sorted(points)
    around = {lab: [] for lab in labels}
    for s, (u, v) in enumerate(edges):
        for d, a, b in ((2 * s, u, v), (2 * s + 1, v, u)):
            (xa, ya), (xb, yb) = points[a], points[b]
            around[a].append((-math.atan2(yb - ya, xb - xa), d))
    return CombinatorialMap(
        ["real"] * len(labels),
        labels,
        [[d for _, d in sorted(around[lab])] for lab in labels],
        range(len(edges)),
        [0] * len(edges),
        [Curve(EDGE, u, v) for u, v in edges],
    )


# A triangle 1-2-3 with a pendant vertex inside (4) and one outside (5):
# the inner and outer face are joined by three parallel segments.
TRIANGLE = _plane_map(
    {1: (0, 0), 2: (4, 0), 3: (2, 4), 4: (2, 1), 5: (6, -2)},
    [(1, 2), (2, 3), (1, 3), (1, 4), (2, 5)],
)

# A path 1-2-7 inside the 4-cycle 1-3-7-4 and a pendant vertex 8 outside:
# vertex 2 has corners in two faces, both one crossing away from 8's face.
DIAMOND = _plane_map(
    {1: (0, 0), 2: (0, 2), 7: (0, 4), 3: (-2, 2), 4: (2, 2), 8: (-4, 2)},
    [(1, 2), (2, 7), (1, 3), (3, 7), (7, 4), (4, 1), (3, 8)],
)

# A wheel: hub 6, rim 1-5, and a pendant vertex in two of its triangles;
# its faces form a 5-cycle plus the outer face, so a route with more
# crossings can reach a face at the same cost first.
WHEEL = _plane_map(
    {
        **{i + 1: (math.cos(1.3 * i), math.sin(1.3 * i)) for i in range(5)},
        6: (0, 0), 7: (0.5, 0.4), 8: (-0.6, -0.2),
    },
    [(i, i % 5 + 1) for i in range(1, 6)]
    + [(6, i) for i in range(1, 6)]
    + [(1, 7), (3, 8)],
)


def test_min_cost_route_ties():
    """Routes on the hand-built maps under every cost per curve from a
    small range: parallel segments of equal and of unequal cost, two
    start faces at cost 0, both ends on one face, and faces reached at
    their least cost first along more steps."""
    assert [len(m.faces) for m in (TRIANGLE, DIAMOND, WHEEL)] == [2, 3, 6]
    routes = 0
    for m, top in ((TRIANGLE, 3), (DIAMOND, 2)):
        for costs in itertools.product(range(top), repeat=len(m.curves)):
            for u, v in itertools.permutations(range(len(m.vkind)), 2):
                routes += _same_route(m, u, v, costs.__getitem__) is not None
    assert routes == 3**5 * 20 + 2**7 * 30
    # between the wheel's pendants, under every cost of 0 or 1 per rim
    # and spoke curve
    vid = WHEEL.real_by_label
    for costs in itertools.product(range(2), repeat=10):
        for u, v in ((7, 8), (8, 7)):
            routes += _same_route(
                WHEEL, vid[u], vid[v], (costs + (0, 0)).__getitem__
            ) is not None
    assert routes == 3**5 * 20 + 2**7 * 30 + 2**10 * 2
    # pendant to pendant across the triangle: the cheapest segment, and
    # at equal cost the first dart of the inner face
    inner, outer = TRIANGLE.real_by_label[4], TRIANGLE.real_by_label[5]
    for costs, seg in (((1, 1, 1, 0, 0), 0), ((2, 1, 1, 0, 0), 1)):
        route, cost = min_cost_route(TRIANGLE, inner, outer, costs.__getitem__)
        assert cost == 1 and [d >> 1 for d in route.crossings] == [seg]
    # from the middle of the path: both start faces reach 8's face at cost
    # 1, and the smaller face id starts the route
    vid = DIAMOND.real_by_label
    middle, pendant = vid[2], vid[8]
    route, cost = min_cost_route(DIAMOND, middle, pendant, lambda c: 1)
    starts = {DIAMOND.face_of[g ^ 1] for g in DIAMOND.vdarts[middle]}
    assert cost == 1 and DIAMOND.face_of[route.start[1] ^ 1] == min(starts)
    # 3 and 4 share the outer face: no crossing
    route, cost = min_cost_route(DIAMOND, vid[3], vid[4], lambda c: 1)
    assert cost == 0 and route.crossings == ()


# A tree: the path 1-2-3 with the branch 2-4-5.  It has one face, on
# which vertex 2 has three corners and vertex 4 two, and every segment
# leads from that face back into it.
TREE = _plane_map(
    {1: (0, 0), 2: (2, 0), 3: (4, 0), 4: (2, 2), 5: (2, 4)},
    [(1, 2), (2, 3), (2, 4), (4, 5)],
)


def _faces_visited(m, route):
    """The faces a route passes through, in order, its start face first."""
    kind, start = route.start
    out = [start if kind == "face" else m.face_of[start ^ 1]]
    out += [m.face_of[d ^ 1] for d in route.crossings]
    return out


def test_iter_routes_corner_cases():
    """Queries whose routes end at the target's corners of the face they
    reach: every vertex of the hand-built maps as the target, from every
    vertex, itself included, and from every face, crossing-free and with
    budget 1 on every curve (on the wheel, on its rim and two spokes).
    The targets include vertices with two or three corners on one face
    (cut vertices and bridge ends), and sources share a face with the
    target; routes through the tree's one face cross back into it, so
    their pieces there must not interleave."""
    two = TREE.real_by_label[2]
    assert [TREE.face_of[g ^ 1] for g in TREE.vdarts[two]] == [0, 0, 0]
    routes = []
    for m, crossable in ((TREE, 4), (TRIANGLE, 5), (DIAMOND, 7), (WHEEL, 7)):
        vids = range(len(m.vkind))
        faces = [("face", fid) for fid in range(len(m.faces))]
        for budget in ({}, dict.fromkeys(range(crossable), 1)):
            for v in vids:
                for source in (*vids, *faces):
                    _check(m, source, v, budget)
                    for route in iter_routes(m, source, v, budget):
                        routes.append((m, source == v, route))
    assert len(routes) == 31124
    # a route from a vertex to itself, a route without crossings, and
    # one that enters a face it has passed through
    assert any(same for _, same, _ in routes)
    assert any(not route.crossings for _, _, route in routes)
    revisits = sum(
        len(set(seq)) < len(seq)
        for seq in (_faces_visited(m, r) for m, _, r in routes)
    )
    assert revisits == 27794


@pytest.mark.parametrize("bad", [2, -1])
def test_iter_routes_refuses_budgets_other_than_zero_and_one(bad):
    """A budget other than 0 or 1 names its curve, and the search raises
    before it yields a route, though routes exist under the other
    budgets."""
    one, two = TRIANGLE.real_by_label[1], TRIANGLE.real_by_label[2]
    budget = {0: 1, 3: bad}
    assert next(iter_routes(TRIANGLE, one, two, {0: 1}), None) is not None
    routes = iter_routes(TRIANGLE, one, two, budget)
    with pytest.raises(InputError, match=f"^curve 3 has budget {bad}, "
                                         f"not 0 or 1$"):
        next(routes)


def test_iter_routes_budget_keys_and_defaults():
    """A key past the last curve id is ignored, whatever its value, and
    ``{}`` bars every curve, as all-zero budgets do."""
    for m in (TREE, TRIANGLE, DIAMOND, WHEEL):
        ncurves = len(m.curves)
        for u, v in itertools.permutations(range(len(m.vkind)), 2):
            free = list(iter_routes(m, u, v, {}))
            assert free == list(
                iter_routes(m, u, v, dict.fromkeys(range(ncurves), 0))
            )
            assert all(not r.crossings for r in free)
            assert free == list(iter_routes(m, u, v, {ncurves: 2}))
            if m is not WHEEL:  # its all-once searches are long
                once = dict.fromkeys(range(ncurves), 1)
                assert list(iter_routes(m, u, v, once)) == list(
                    iter_routes(m, u, v, {**once, ncurves: 5})
                )
    # the triangle's pendants share no face, so only a crossing joins them
    inner, outer = TRIANGLE.real_by_label[4], TRIANGLE.real_by_label[5]
    assert list(iter_routes(TRIANGLE, inner, outer, {})) == []


# ---------------------------------------------------------------------------
# ``with_route`` splices a route into the arrays of a map laid out by
# ``freeze`` and takes the builder path on any other map.  The
# ``checked_route`` fixture compares every call with
# ``reference_with_route`` (copy, apply, compact), errors included.


def _seeded_maps():
    """A planar and a 2-page map for n = 5..9, two seeds each."""
    for n in range(5, 10):
        for s in range(2):
            rng = random.Random(f"{n}:{s}")
            yield random_planar_map(n, rng)
            yield random_two_page_minus(n, n, rng)[0]


def _splice_routes(m, rng):
    """For six sampled label pairs, the first four routes of the search
    with budget 1 on a sampled half of the curves, and the least-cost
    routes of both completion modes; yields ``(u, v, route)``."""
    curves = range(len(m.curves))
    budget = dict.fromkeys(rng.sample(curves, len(curves) // 2), 1)
    pairs = rng.sample(list(itertools.permutations(m.real_labels(), 2)), 6)
    for u, v in pairs:
        uv, vv = m.real_by_label[u], m.real_by_label[v]
        for route in itertools.islice(iter_routes(m, uv, vv, budget), 4):
            yield u, v, route
        for kinds in extension._COST_KINDS.values():
            costs = [int(c.kind in kinds) for c in m.curves]
            found = min_cost_route(m, uv, vv, costs.__getitem__)
            if found is not None:
                yield u, v, found[0]


def test_with_route_splices_seeded_routes(checked_route):
    """Searched and least-cost routes, many with several crossings, among
    them routes whose start or end gap is a dart of a segment they
    cross."""
    rng = random.Random(54)
    routes = crossing = on_crossed = 0
    for m in _seeded_maps():
        for u, v, route in _splice_routes(m, rng):
            routing.with_route(m, EDGE, u, v, route)
            crossed = {d >> 1 for d in route.crossings}
            routes += 1
            crossing += len(crossed) > 1
            on_crossed += bool(
                {route.start[1] >> 1, route.end_gap >> 1} & crossed
            )
    # the seeded generators route their maps through with_route too
    assert set(checked_route) == {"splice"} and len(checked_route) > routes
    assert routes >= 580 and crossing >= 250 and on_crossed >= 140


def test_with_route_splices_twice_crossed_and_chained_routes(checked_route):
    """Routes that cross one curve twice, spliced into seeded maps, and
    every insertion of the golden completion corpus, each but the first
    of a completion spliced into the map the one before it made.  The
    library search crosses a curve at most once, so the twice-crossing
    routes come from ``reference_iter_routes``."""
    rng = random.Random(58)
    twice = 0
    for m in _seeded_maps():
        curves = range(len(m.curves))
        budget = dict.fromkeys(rng.sample(curves, len(curves) // 2), 2)
        pairs = itertools.permutations(m.real_labels(), 2)
        for u, v in rng.sample(list(pairs), 6):
            found = reference_iter_routes(
                m, m.real_by_label[u], m.real_by_label[v], budget
            )
            for route in itertools.islice(found, 8):
                routing.with_route(m, EDGE, u, v, route)
                crossed = [m.scurve[d >> 1] for d in route.crossings]
                twice += len(set(crossed)) < len(crossed)
    assert twice == 69

    runs = [(extension.extend_to_complete_separable, m)
            for m in _separable_inputs()]
    runs += [(extension.extend_to_complete_crossmin, m)
             for m in _crossmin_inputs()]
    checked_route.clear()  # the generators' own insertions
    chained = 0
    for extend, m in runs:
        try:
            res = extend(m)
        except InputError:  # the input is not crossing-minimizing
            continue
        chained += max(len(res.insertions) - 1, 0)
    assert checked_route == ["splice"] * 136 and chained == 105


# sha256 of the (key, serialized map) pairs of the K6 orbits, recorded
# when the enumeration's root still had ``meets`` cached
ENUM6_DIGEST = (
    "0578d6dea812afe54405f59774a5b7c43de64018631d602444779823ddab6a7c"
)


def test_enumeration_k6_digest(monkeypatch):
    """The K6 enumeration splices every map it builds and keeps its
    pinned orbits."""
    splice = routing._splice
    calls = []

    def counting(*args):
        """``_splice``, counting its calls."""
        calls.append(None)
        return splice(*args)

    monkeypatch.setattr(routing, "_splice", counting)
    reps = enumeration.enumerate_good_drawings(6)
    assert len(calls) == 2670
    pairs = [(d.key, serialize_cmap(d.map)) for d in reps]
    assert hashlib.sha256(repr(pairs).encode()).hexdigest() == ENUM6_DIGEST


def test_with_route_builder_path_on_permuted_layouts(checked_route):
    """A shuffled copy of a frozen map holds the same drawing in a layout
    the splice does not read, so it takes the builder path."""
    rng = random.Random(55)
    routes = 0
    for m in _seeded_maps():
        m = permuted_layout(m, rng)
        checked_route.clear()
        for u, v, route in _splice_routes(m, rng):
            routing.with_route(m, EDGE, u, v, route)
            routes += 1
        assert checked_route == ["builder"] * len(checked_route)
    assert routes >= 550


def test_with_route_face_starts(checked_route):
    """Face-start routes: every star the enumerator draws from K4 to K5
    (the first edge of each from a face), and new labels below, between
    and above the drawn ones.  A drawn label is refused, one that has no
    dart too: both paths used to give that vertex the route's dart and
    leave a second, dartless vertex of the same label."""
    rng = random.Random(56)
    for rep in enumeration.enumerate_good_drawings(4):
        list(enumeration.extend_by_vertex(rep.map, 5))
    assert len(checked_route) >= 100 and set(checked_route) == {"splice"}
    maps = list(itertools.islice(_seeded_maps(), 6))
    checked_route.clear()  # the enumerator's and the generators' routes
    starts = refused = 0
    for m in maps:
        labels = m.real_labels()
        b = MapBuilder.from_map(m)
        b.new_vertex("real", labels[-1] + 3)  # a real vertex with no dart
        bare = b.freeze()
        shuffled = permuted_layout(bare, rng)
        budget = dict.fromkeys(range(len(bare.curves)), 1)
        for fid in rng.sample(range(len(bare.faces)), 3):
            v = rng.choice(labels)
            found = iter_routes(bare, ("face", fid), bare.real_by_label[v],
                                budget)
            for route in itertools.islice(found, 3):
                for u in (0, labels[-1] + 1, labels[-1] + 4):
                    routing.with_route(bare, EDGE, u, v, route)
                    starts += 1
                for mm in (bare, shuffled):
                    for u in (labels[0], labels[-1] + 3):
                        with pytest.raises(InputError, match=(
                            f"^route starts in a face but the map has "
                            f"vertex {u}$"
                        )):
                            routing.with_route(mm, EDGE, u, v, route)
                        refused += 1
    assert starts >= 45 and refused >= 60
    assert checked_route.count("splice") == starts


def _error_cases(m):
    """Routes ``with_route`` refuses on ``m``, each with ``(u, v)`` and
    the error: a face start at a drawn label, a segment crossed twice,
    and start and end gaps away from the vertices labelled u and v."""
    vid = m.real_by_label
    free = next(iter_routes(m, vid[1], vid[3], {}))
    face = next(iter_routes(m, ("face", 0), vid[3], {}))
    budget = dict.fromkeys(range(len(m.curves)), 1)
    crossing = next(
        r for r in iter_routes(m, vid[2], vid[5], budget) if r.crossings
    )
    twice = Route(crossing.start, crossing.crossings * 2, crossing.end_gap)
    s = crossing.crossings[0] >> 1
    return [
        ((2, 3), face, InputError,
         "route starts in a face but the map has vertex 2"),
        ((2, 5), twice, InternalInvariantError,
         f"route crosses dead segment {s}"),
        ((1, 4), free, InputError,
         f"route end gap {free.end_gap} is not at vertex 4"),
        ((2, 3), free, InputError,
         f"route start gap {free.start[1]} is not at vertex 2"),
    ]


def test_with_route_errors(checked_route):
    """The errors are the builder path's on both paths.  Before the gaps
    were checked, the two gap cases drew a curve to the wrong vertex:
    here curve 1-4 ended at vertex 3."""
    m = random_planar_map(6, random.Random(3))
    checked_route.clear()
    for mm in (m, permuted_layout(m, random.Random(57))):
        for (u, v), route, error, message in _error_cases(mm):
            with pytest.raises(error, match=f"^{re.escape(message)}$"):
                routing.with_route(mm, EDGE, u, v, route)
    # the face start is refused before either path
    assert checked_route == ["builder"] + ["splice"] * 3 + ["builder"] * 4
