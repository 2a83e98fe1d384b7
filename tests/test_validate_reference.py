"""The pruned map validators against the all-pairs reference.

``validate_map`` and ``validate_witness`` visit only curve pairs that
meet or draw the same edge.  They must return exactly what the all-pairs scans
in ``tests/oracles.py`` return (same messages, same order, same
exceptions) on four map sets: the edited and intermediate maps of the
golden test, the completions of its inputs, crossmin insertions before
their exchanges, and seeded maps whose witness arcs break the rules.
``validate_map`` is also compared on maps whose fields were edited
directly, and on a copy of every map laid out as ``freeze`` never lays
one out, so that both its whole-map passes and the loops that name
violations run on valid and invalid maps.
"""
from __future__ import annotations

import random
import re
from itertools import chain, islice

from sepdraw.cmap import (
    DRAWN_KINDS,
    EDGE,
    WITNESS,
    CombinatorialMap,
    Curve,
    validate_map,
    validate_witness,
)
from sepdraw.extension import (
    extend_to_complete_crossmin,
    extend_to_complete_separable,
)
from sepdraw.generators import all_edges, random_planar_map, random_two_page
from sepdraw.routing import iter_routes, min_cost_route, with_route

from oracles import (
    permuted_layout,
    reference_shared_points,
    reference_validate_map,
    reference_validate_witness,
)
from test_extension import FIXUP_KEYS
from test_map_golden import (
    _crossmin_inputs,
    _probe_maps,
    _separable_inputs,
    _witness_free,
)

# one pattern per message that validate_map can give
MESSAGE_KINDS = {
    "unknown dart": r"vertex \d+ lists unknown dart",
    "dart twice": r"dart \d+ appears at two vertices",
    "unattached darts": r"darts not attached to any vertex",
    "unknown curve": r"segment \d+ references unknown curve",
    "no segments": r"curve \d+ has no segments",
    "non-consecutive": r"curve \d+ has non-consecutive segment indices",
    "chain broken": r"curve \d+ chain broken between",
    "through real vertex": r"curve \d+ passes through a real vertex",
    "bad end": r"curve \d+ does not end at real vertex",
    "repeated label": r"real vertex \d+ repeats the label \d+ of real vertex",
    "isolated": r"real vertex \d+ is isolated",
    "not a curve end": r"dart \d+ at real vertex \d+ is not a curve end",
    "cross label": r"cross vertex \d+ carries label",
    "cross degree": r"cross vertex \d+ has degree",
    "not alternating": r"cross vertex \d+ lacks two alternating",
    "cross not consecutive": r"cross vertex \d+: curve \d+ segments not",
    "unknown kind": r"vertex \d+ has unknown kind",
    "euler": r"component at vertex \d+ violates the sphere Euler",
    "drawn twice": r"edge \(\d+, \d+\) drawn twice",
    "share": r"curves \(\d+, \d+\) and \(\d+, \d+\) share \d+ points",
    "no edge curve": r"witness for \(\d+, \d+\) has no underlying edge",
    "crosses own edge": r"witness for \(\d+, \d+\) crosses its own edge",
    "closed curve": r"closed curve of \(\d+, \d+\) meets edge",
}


def _outcome(fn):
    try:
        return "ok", fn()
    except Exception as exc:  # the exception is part of the answer
        return "raised", type(exc).__name__, str(exc)


def _with_curve(m, kind, e, rng):
    """``m`` plus one curve of ``kind`` for edge ``e``, routed at least
    cost under a random 0/1 cost per curve, so that it may cross any curve
    whose cost is 0, its own edge included."""
    costs = [rng.randrange(2) for _ in m.curves]
    route, _ = min_cost_route(
        m, m.real_by_label[e[0]], m.real_by_label[e[1]], costs.__getitem__
    )
    return with_route(m, kind, e[0], e[1], route)[0]


def _with_own_crossing_witness(m, e):
    """``m`` plus a witness arc for edge ``e`` that crosses ``e`` once and
    nothing else, or ``m`` itself when there is none."""
    eid = next(c for c, cu in enumerate(m.curves) if cu.edge() == e)
    routes = iter_routes(
        m, m.real_by_label[e[0]], m.real_by_label[e[1]], {eid: 1}
    )
    route = next((r for r in routes if r.crossings), None)
    if route is None:
        return m
    return with_route(m, WITNESS, e[0], e[1], route)[0]


def _with_adjacent_crossing_witness(m):
    """``m`` plus a second witness arc for some edge e that crosses an
    edge adjacent to e once and otherwise only witness arcs, so that its
    closed curve meets that edge twice and nothing else breaks; ``m``
    itself when no such arc turns up."""
    budget = {cid: 1 for cid, c in enumerate(m.curves) if c.kind == WITNESS}
    edges = sorted(c.edge() for c in m.curves if c.kind == EDGE)
    for fid, f in enumerate(m.curves):
        if f.kind != EDGE:
            continue
        for e in edges:
            if e == f.edge() or not {f.u, f.v} & set(e):
                continue
            routes = iter_routes(m, m.real_by_label[e[0]],
                                 m.real_by_label[e[1]], {**budget, fid: 1})
            route = next((r for r in islice(routes, 200)
                          if any(m.scurve[d >> 1] == fid for d in r.crossings)),
                         None)
            if route is not None:
                return with_route(m, WITNESS, e[0], e[1], route)[0]
    return m


def _witness_violating_maps():
    """Two-page drawings, some with a second copy of one edge, given a
    witness arc per edge along randomly costed least-cost routes; in
    some, one witness arc crosses its own edge instead.  Last, two
    2-page drawings whose only fault is one witness arc that crosses an
    edge adjacent to its own."""
    rng = random.Random(48)
    out = []
    for n in (4, 5, 6, 7):
        for k in range(10):
            m = _witness_free(n, rng)
            edges = all_edges(n)
            if rng.random() < 0.5:
                m = _with_curve(m, EDGE, rng.choice(edges), rng)
            crossing = rng.choice(edges) if k % 3 == 0 else None
            for e in edges:
                if e == crossing:
                    m = _with_own_crossing_witness(m, e)
                else:
                    m = _with_curve(m, WITNESS, e, rng)
            out.append(m)
    for n in (4, 5):
        m = random_two_page(n, rng)[0]
        out.append(_with_adjacent_crossing_witness(m))
        assert out[-1] is not m
    return out


def _map_sets():
    probes = [o[1] for o in _probe_maps() if o[0] == "ok"]
    completions = [extend_to_complete_separable(m).map
                   for m in _separable_inputs()]
    for m in _crossmin_inputs():
        found = _outcome(lambda: extend_to_complete_crossmin(m).map)
        if found[0] == "ok":
            completions.append(found[1])
    # crossmin insertions before the exchanges: inserted curves that
    # share two points, and no edge drawn twice
    unexchanged = [
        extend_to_complete_crossmin(
            random_planar_map(int(key.split(":")[0]), random.Random(key))
        ).insertions[-1].map
        for key in FIXUP_KEYS
    ]
    return {
        "probes": probes,
        "completions": completions,
        "unexchanged": unexchanged,
        "witness-violating": _witness_violating_maps(),
    }


def _answers(m, validate, witness):
    witnessed = sorted({c.edge() for c in m.curves if c.kind == WITNESS})
    return (
        _outcome(lambda: validate(m)),
        _outcome(lambda: validate(m, strict=False)),
        [_outcome(lambda: witness(m, e)) for e in witnessed],
    )


def _offenders(m, wid):
    """The edge curves that meet the closed curve of witness ``wid`` in
    more than one point, in the order ``validate_map`` lists edges: by
    each edge's first drawn curve, each edge standing for its last."""
    edge_curve_of = {}
    for cid, c in enumerate(m.curves):
        if c.kind in DRAWN_KINDS:
            edge_curve_of[c.edge()] = cid
    e = m.curves[wid].edge()
    eid = edge_curve_of[e]
    out = []
    for f, fid in edge_curve_of.items():
        if m.curves[fid].kind != EDGE or fid == eid:
            continue
        total = len(set(e) & set(f)) + sum(
            m.meets.get((min(x, fid), max(x, fid)), 0) for x in (eid, wid)
        )
        if total > 1:
            out.append(fid)
    return out


def _witness_cases(maps):
    """How many witnesses have two or more offending edges, and how many
    of those name a different first offender in curve-id order."""
    several = reordered = 0
    for m in maps:
        for wid, c in enumerate(m.curves):
            if c.kind == WITNESS:
                found = _offenders(m, wid)
                several += len(found) > 1
                reordered += len(found) > 1 and min(found) != found[0]
    return several, reordered


def _corrupted_maps():
    """Direct edits of one valid map's fields, for the structural messages
    that the other sets do not give; ``parse_cmap`` and ``freeze`` rule
    most of them out."""
    m = _witness_free(6, random.Random(49))
    fields = (m.vkind, m.vlabel, m.vdarts, m.scurve, m.sidx, m.curves)

    def edit(i, value):
        return CombinatorialMap(*fields[:i], value, *fields[i + 1:])

    vd, vk = list(m.vdarts), list(m.vkind)
    x, y = [v for v, k in enumerate(vk) if k == "cross"][:2]
    # two segments of a curve with three or more swap their indices
    long = next(c for c in range(len(m.curves)) if m.scurve.count(c) >= 3)
    s0, s1 = [s for s, c in enumerate(m.scurve) if c == long][:2]
    swapped = list(m.sidx)
    swapped[s0], swapped[s1] = swapped[s1], swapped[s0]
    moved = list(vd)
    moved[x], moved[y] = vd[x][1:], vd[y] + vd[x][:1]
    relabeled = list(m.vlabel)
    relabeled[1] = relabeled[0]
    labelled = list(m.vlabel)
    labelled[x] = 3
    return [
        edit(2, [vd[0] + (-1,)] + vd[1:]),
        edit(2, [vd[0] + vd[1][:1]] + vd[1:]),
        edit(2, [vd[0][1:]] + vd[1:]),
        edit(3, m.scurve[:-1] + (len(m.curves),)),
        edit(5, m.curves + (Curve(EDGE, 1, 2),)),
        edit(4, m.sidx[:-1] + (m.sidx[-1] + 1,)),
        edit(0, ["bogus"] + vk[1:]),
        edit(2, [(), vd[1] + vd[0]] + vd[2:]),
        edit(0, vk[:x] + ["real"] + vk[x + 1:]),
        edit(2, moved),
        edit(4, swapped),
        edit(1, relabeled),
        edit(1, labelled),
    ]


def _lone_fault_maps():
    """Edits of one valid map whose fault only one test sees among those
    that ``validate_map`` runs over a whole section before it names
    anything: a dart renamed to -1 or to a dart listed elsewhere, a real
    and a crossing vertex that trade kinds, two crossings merged into
    one of degree 8, a curve that crosses itself at a crossing vertex,
    and curves whose last segment skips an index, one crossing each.
    Last, a 2-page K6 whose real vertex 0 also lists a dart out of
    range, which ends no curve."""
    m = _witness_free(6, random.Random(57))
    fields = (m.vkind, m.vlabel, m.vdarts, m.scurve, m.sidx, m.curves)

    def edit(i, value):
        return CombinatorialMap(*fields[:i], value, *fields[i + 1:])

    vd, vk, nd = list(m.vdarts), list(m.vkind), m.n_darts
    x, y = [v for v, k in enumerate(vk) if k == "cross"][:2]
    renamed = list(vd)
    last = m.dvert[nd - 1]
    renamed[last] = tuple(-1 if d == nd - 1 else d for d in vd[last])
    out = [
        edit(2, renamed),
        edit(2, [vd[1][:1] + vd[0][1:]] + vd[1:]),
        edit(0, ["cross"] + vk[1:x] + ["real"] + vk[x + 1:]),
    ]
    keep = [v for v in range(len(vk)) if v != y]
    merged = vd[:x] + [vd[x] + vd[y]] + vd[x + 1:]
    out.append(CombinatorialMap([vk[v] for v in keep],
                                [m.vlabel[v] for v in keep],
                                [merged[v] for v in keep],
                                m.scurve, m.sidx, m.curves))
    # a curve's first two joints share one vertex, and the two curves
    # that crossed it there share the other
    cid = next(c for c in range(len(m.curves)) if m.scurve.count(c) >= 3)
    a = m.curve_segments(cid)
    x, y = m.dvert[2 * a[0] + 1], m.dvert[2 * a[1] + 1]
    b, c = ([d for d in vd[z] if m.scurve[d >> 1] != cid] for z in (x, y))
    looped = list(vd)
    looped[x] = (2 * a[0] + 1, 2 * a[1] + 1, 2 * a[1], 2 * a[2])
    looped[y] = (b[0], c[0], b[1], c[1])
    out.append(edit(2, looped))
    for cid in range(8):
        segs = m.curve_segments(cid)
        if len(segs) >= 2:
            sidx = list(m.sidx)
            sidx[segs[-1]] += 2
            out.append(edit(4, sidx))
    k6 = random_two_page(6, random.Random(1))[0]
    extra = (*k6.vdarts[0], k6.n_darts + 1)
    out.append(CombinatorialMap(k6.vkind, k6.vlabel, (extra, *k6.vdarts[1:]),
                                k6.scurve, k6.sidx, k6.curves))
    return out


def _disjoint_union(a, b):
    """The map with ``a`` and ``b`` side by side as two components; the
    labels of ``b`` shift past those of ``a``."""
    nseg, nc = len(a.scurve), len(a.curves)
    shift = max(x for x in a.vlabel if x is not None)
    return CombinatorialMap(
        a.vkind + b.vkind,
        a.vlabel + tuple(x if x is None else x + shift for x in b.vlabel),
        a.vdarts + tuple(tuple(d + 2 * nseg for d in ds) for ds in b.vdarts),
        a.scurve + tuple(c + nc for c in b.scurve),
        a.sidx + b.sidx,
        a.curves + tuple(Curve(c.kind, c.u + shift, c.v + shift)
                         for c in b.curves),
    )


def _fidelity_maps():
    """Edits whose messages depend on how the chains and the components
    are found: curves whose indices repeat or skip on their first
    segment, so that their ends are not the segments at their real
    vertices; segments naming unknown curves; and two-component maps in
    which a component with a reversed rotation fails the Euler formula,
    named by its union-find root."""
    m = _witness_free(6, random.Random(53))
    fields = (m.vkind, m.vlabel, m.vdarts, m.scurve, m.sidx, m.curves)

    def edit(i, value):
        return CombinatorialMap(*fields[:i], value, *fields[i + 1:])

    out = []
    for length in (3, 4):
        cid = next(c for c in range(len(m.curves))
                   if m.scurve.count(c) == length)
        for idx in (2, length + 1):  # repeated, then skipped
            sidx = list(m.sidx)
            sidx[m.curve_segments(cid)[0]] = idx
            out.append(edit(4, sidx))
    scurve = list(m.scurve)
    scurve[2], scurve[-2] = len(m.curves) + 3, -1
    out.append(edit(3, scurve))
    hub = next(v for v, k in enumerate(m.vkind) if k == "real")
    twisted = edit(2, m.vdarts[:hub] + (m.vdarts[hub][::-1],)
                   + m.vdarts[hub + 1:])
    small = _witness_free(3, random.Random(54))
    out += [_disjoint_union(small, twisted), _disjoint_union(twisted, small),
            _disjoint_union(twisted, twisted)]
    return out


def _messages(outcomes):
    """The violation messages of the outcomes that returned."""
    return [msg for o in outcomes if o[0] == "ok" for msg in o[1]]


def _kinds(messages):
    return {k for msg in messages for k, pat in MESSAGE_KINDS.items()
            if re.match(pat, msg)}


def test_pruned_validators_match_reference():
    sets = _map_sets()
    messages = []
    for name, maps in sets.items():
        assert maps, name
        for i, m in enumerate(maps):
            got = _answers(m, validate_map, validate_witness)
            want = _answers(m, reference_validate_map,
                            reference_validate_witness)
            assert got == want, (name, i)
            messages += _messages(want[:2])
    # the edited fields can break the maps' other queries, so only the
    # two validate_map modes are compared there, and on a shuffled copy of
    # every map
    edited = _corrupted_maps() + _fidelity_maps() + _lone_fault_maps()
    rng = random.Random(55)
    shuffled = [permuted_layout(m, rng)
                for m in [*chain.from_iterable(sets.values()), *edited]]
    for i, m in enumerate(edited + shuffled):
        for strict in (True, False):
            got = _outcome(lambda: validate_map(m, strict))
            assert got == _outcome(lambda: reference_validate_map(m, strict)), i
            messages += _messages([got])
    assert _kinds(messages) == set(MESSAGE_KINDS)
    verdicts = {validate_map(m) == [] for m in shuffled}
    assert verdicts == {True, False}
    assert _kinds(msg for m in shuffled for msg in validate_map(m)) == set(
        MESSAGE_KINDS
    )
    fidelity = [msg for m in _fidelity_maps() for msg in validate_map(m)]
    assert _kinds(fidelity) == {
        "non-consecutive", "not a curve end", "cross not consecutive",
        "unknown curve", "euler",
    }
    share = {
        "repeated edge" if pair[1] == pair[2] else "meeting pair"
        for pair in map(re.compile(r"curves (\(.*?\)) and (\(.*?\)) share").match,
                        messages)
        if pair
    }
    assert share == {"repeated edge", "meeting pair"}
    several, reordered = _witness_cases(sets["witness-violating"])
    assert several > 0 and reordered > 0


def test_shared_points_match_chain_intersection():
    """``shared_points`` against the chain intersection, on the valid
    golden probe maps (intermediate completions) and on 2-page drawings
    with their witness arcs; ``TestFixupLoop`` adds maps whose inserted
    curves meet twice.  It reads endpoint labels, so it holds on maps
    whose curves end at their labelled vertices, which ``validate_map``
    checks."""
    rng = random.Random(50)
    maps = [o[1] for o in _probe_maps() if o[0] == "ok"]
    maps = [m for m in maps if validate_map(m, strict=False) == []]
    maps += [random_two_page(n, rng)[0] for n in (4, 5, 6, 7, 8)]
    for i, m in enumerate(maps):
        want = reference_shared_points(m)
        assert {p: m.shared_points(*p) for p in want} == want, i
