"""Completion of drawings to the full complete graph.

Missing edges are inserted one at a time along least-cost dual routes:
against the witness set for separable inputs, against the drawn edges
for crossing-minimizing inputs.  Minimality makes each inserted edge
simple against the original drawing; conflicts between inserted edges
are then removed by a local fix-up loop that exchanges the pieces of two
offending curves between two consecutive common points and excises any
self-overlaps this creates.  The loop is governed by the lexicographic
potential (crossings of inserted edges with the cost set, total
crossings), which strictly decreases at every step.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .cmap import (
    EDGE,
    INSERTED,
    WITNESS,
    CombinatorialMap,
    MapBuilder,
    drawn_edges,
    is_connected,
    require_valid_map,
    validate_map,
    witness_set,
)
from .errors import (
    InputError,
    InternalInvariantError,
    SimplicityError,
    WitnessError,
)
from .rotation import edge_key
from .routing import min_cost_route, with_route

SEPARABLE = "separable"
CROSSMIN = "crossmin"
_COST_KINDS = {SEPARABLE: (EDGE, WITNESS), CROSSMIN: (EDGE,)}


@dataclass(frozen=True)
class InsertionResult:
    """Outcome of inserting one edge."""

    map: CombinatorialMap
    curve_id: int
    edge: tuple[int, int]
    witness_set_crossings: int
    edge_crossings: int
    inserted_crossings: int


@dataclass(frozen=True)
class ExtensionResult:
    map: CombinatorialMap
    insertions: tuple[InsertionResult, ...]
    potential_log: tuple[tuple[int, int], ...]


def _check_insertable(m: CombinatorialMap, u: int, v: int):
    e = edge_key(u, v)
    labels = set(m.real_labels())
    if u == v or u not in labels or v not in labels:
        raise InputError(f"cannot insert edge ({u},{v})")
    if e in drawn_edges(m):
        raise InputError(f"edge {e} is already drawn")
    if not is_connected(m):
        raise InputError("insertion requires a connected drawing")


def _insert(m: CombinatorialMap, u: int, v: int, mode: str) -> InsertionResult:
    """Insert edge {u,v} along a least-cost route of ``mode`` and check
    that it shares at most one point with every original edge.  The
    caller has checked the input."""
    e = edge_key(u, v)
    cost_kinds = _COST_KINDS[mode]

    def cost(cid):
        return 1 if m.curves[cid].kind in cost_kinds else 0

    found = min_cost_route(
        m, m.real_by_label[e[0]], m.real_by_label[e[1]], cost
    )
    if found is None:
        raise InputError("vertices unreachable in the drawing")
    route, _ = found
    out, new_cid = with_route(m, INSERTED, e[0], e[1], route)
    # curve ids are stable under freeze for pure insertions
    new = out.curves[new_cid]
    if new.kind != INSERTED or new.edge() != e:
        raise InternalInvariantError("inserted curve id not stable")
    # The new curve meets curve f once per crossed segment of f.  Two
    # distinct edges share at most one endpoint, and no edge curve draws
    # e, so only an edge curve it crosses can share two points with it.
    curves = m.curves
    hits = Counter(m.scurve[d >> 1] for d in route.crossings)
    crossed = Counter()
    offender = None
    for f in sorted(hits):
        c = curves[f]
        crossed[c.kind] += hits[f]
        if (
            offender is None
            and c.kind == EDGE
            and hits[f] + (c.u in e) + (c.v in e) > 1
        ):
            offender = c.edge()
    if offender is not None:
        if mode == SEPARABLE:
            raise InternalInvariantError(
                f"minimum-witness-crossing insertion of {e} meets edge "
                f"{offender} twice"
            )
        raise SimplicityError(
            f"inserting {e} with minimum crossings meets edge "
            f"{offender} twice; the input is not crossing-minimizing",
            pair=(e, offender),
        )
    return InsertionResult(
        map=out,
        curve_id=new_cid,
        edge=e,
        witness_set_crossings=crossed[EDGE] + crossed[WITNESS],
        edge_crossings=crossed[EDGE],
        inserted_crossings=crossed[INSERTED],
    )


def insert_min_witness_crossings(
    m: CombinatorialMap, u: int, v: int
) -> InsertionResult:
    """Insert edge {u,v} minimizing crossings with the witness set (each
    drawn edge together with its witness arc); crossings with previously
    inserted edges are free and recorded separately.

    The input must carry one witness per drawn edge (else
    :class:`WitnessError`) and pass ``validate_map(m, strict=False)``
    (else :class:`InputError`); the result is then guaranteed simple
    against the original edges, which is asserted.
    """
    if not witness_set(m).complete_for(m):
        raise WitnessError("every drawn edge needs a witness arc")
    require_valid_map(m, strict=False)
    _check_insertable(m, u, v)
    return _insert(m, u, v, SEPARABLE)


def insert_min_crossings(
    m: CombinatorialMap, u: int, v: int
) -> InsertionResult:
    """Insert edge {u,v} with the minimum number of crossings with the
    drawn edges.  The input must pass ``validate_map(m, strict=False)``
    (else :class:`InputError`).  Simplicity of the result against the
    original edges is reported via :class:`SimplicityError` (it is
    guaranteed only when the input drawing is crossing-minimizing)."""
    require_valid_map(m, strict=False)
    _check_insertable(m, u, v)
    return _insert(m, u, v, CROSSMIN)


# ---------------------------------------------------------------------------
# Fix-up surgery


def _reverse_segment(b: MapBuilder, s: int) -> int:
    cid = b.scurve[s]
    s2 = b.new_segment(cid)
    b.replace_dart(2 * s + 1, 2 * s2)
    b.replace_dart(2 * s, 2 * s2 + 1)
    b.kill_segment(s)
    return s2


def _merge_step(b: MapBuilder, cid: int, sa: int, sb: int, x: int) -> bool:
    """Merge segments ``sa`` and ``sb`` of curve ``cid`` (given in either
    order) into one segment, in place in its chain, if they follow each
    other along the chain through vertex ``x``; returns whether they did
    (and nothing changes otherwise)."""
    chain = b.csegs[cid]
    ia, ib = chain.index(sa), chain.index(sb)
    if ib < ia:
        (sa, ia), (sb, ib) = (sb, ib), (sa, ia)
    if ib != ia + 1 or b.dvert[2 * sa + 1] != x or b.dvert[2 * sb] != x:
        return False
    chain[ia : ib + 1] = [b.merge_segments(sa, 2 * sa + 1, sb, 2 * sb, cid)]
    return True


def _smooth(b: MapBuilder, x: int, dead=()):
    """Remove vertex ``x`` by merging the two darts there of each curve,
    skipping the segments in ``dead`` (strands being deleted).  Each curve
    left at ``x`` must pass straight through it."""
    by_curve: dict[int, list[int]] = {}
    for d in b.rot[x]:
        if (d >> 1) not in dead:
            by_curve.setdefault(b.scurve[d >> 1], []).append(d)
    for cid, darts in sorted(by_curve.items()):
        if len(darts) != 2 or not _merge_step(
            b, cid, darts[0] >> 1, darts[1] >> 1, x
        ):
            raise InternalInvariantError(
                f"curve {cid} does not pass straight through vertex {x}"
            )


def _excise_one_loop(b: MapBuilder, cid: int) -> bool:
    """Remove the first self-overlap loop of a curve; returns whether one
    was found."""
    pts = b.curve_points(cid)
    first: dict[int, int] = {}
    dup = None
    for idx, pt in enumerate(pts):
        if pt in first:
            dup = (first[pt], idx)
            break
        first[pt] = idx
    if dup is None:
        return False
    i, j = dup
    segs = list(b.csegs[cid])
    loop = segs[i:j]
    loopset = set(loop)
    for t in range(i + 1, j):
        _smooth(b, pts[t], loopset)
    for s in loop:
        b.remove_dart(2 * s)
        b.remove_dart(2 * s + 1)
        b.kill_segment(s)
    b.csegs[cid] = [s for s in b.csegs[cid] if s not in loopset]
    # the loop gone, the junction holds just this curve's two darts
    _smooth(b, pts[i])
    return True


def _common_points(b, c1: int, c2: int) -> list[int]:
    """Common points of two curves of a map or builder, ordered along c1
    (vertex ids; includes a shared real endpoint)."""
    pts2 = set(b.curve_points(c2))
    return [p for p in b.curve_points(c1) if p in pts2]


def _exchange(b: MapBuilder, c1: int, c2: int, x1: int, x2: int):
    """Swap the pieces of c1 and c2 between common points x1, x2 (chosen
    consecutive along c1), smooth the two junctions, and excise any
    self-overlaps created."""
    pts1 = b.curve_points(c1)
    pts2 = b.curve_points(c2)
    a, bp = pts1.index(x1), pts1.index(x2)
    if a > bp:
        raise InternalInvariantError("x1 must precede x2 along c1")
    p, q = pts2.index(x1), pts2.index(x2)
    s1 = list(b.csegs[c1])
    s2 = list(b.csegs[c2])
    head1, piece1, tail1 = s1[:a], s1[a:bp], s1[bp:]
    if p < q:
        head2, piece2, tail2 = s2[:p], s2[p:q], s2[q:]
        mid1 = piece2
        mid2 = piece1
    else:
        head2, piece2, tail2 = s2[:q], s2[q:p], s2[p:]
        mid1 = [_reverse_segment(b, s) for s in reversed(piece2)]
        mid2 = [_reverse_segment(b, s) for s in reversed(piece1)]
    new1 = head1 + mid1 + tail1
    new2 = head2 + mid2 + tail2
    for s in new1:
        b.scurve[s] = c1
    for s in new2:
        b.scurve[s] = c2
    b.csegs[c1] = new1
    b.csegs[c2] = new2
    for x in (x1, x2):
        if b.vkind[x] == "cross":
            _smooth(b, x)
    for cid in (c1, c2):
        while _excise_one_loop(b, cid):
            pass


# ---------------------------------------------------------------------------
# Full completion


def _potential(m: CombinatorialMap, mode: str) -> tuple[int, int]:
    cost_kinds = _COST_KINDS[mode]
    wc = 0
    for (a, b), k in m.meets.items():
        ka, kb = m.curves[a].kind, m.curves[b].kind
        if (ka == INSERTED and kb in cost_kinds) or (
            kb == INSERTED and ka in cost_kinds
        ):
            wc += k
    return wc, sum(m.meets.values())


def _violating_pair(m: CombinatorialMap):
    """First pair of inserted curves sharing at least two points, with
    the two common points consecutive along the first curve.  Inserted
    curves draw distinct edges, so two of them share two points only if
    they meet."""
    curves = m.curves
    pairs = [
        (a, b)
        for a, b in m.meets
        if a != b
        and curves[a].kind == INSERTED
        and curves[b].kind == INSERTED
        and m.shared_points(a, b) >= 2
    ]
    if not pairs:
        return None
    c1, c2 = min(pairs)
    common = _common_points(m, c1, c2)
    return c1, c2, common[0], common[1]


def _extend(m: CombinatorialMap, mode: str) -> ExtensionResult:
    labels = m.real_labels()
    n = len(labels)
    if labels != list(range(1, n + 1)):
        raise InputError(f"real vertex labels must be 1..n, got {labels}")
    require_valid_map(m)
    missing = sorted(
        {
            (u, v)
            for u in labels
            for v in labels
            if u < v
        }
        - drawn_edges(m)
    )
    if not missing:
        return ExtensionResult(map=m, insertions=(), potential_log=())
    # the labels are fine and the edges missing; an insertion keeps the
    # drawing's components, so one connectivity check covers all of them
    _check_insertable(m, *missing[0])
    insertions = []
    cur = m
    for u, v in missing:
        res = _insert(cur, u, v, mode)
        insertions.append(res)
        cur = res.map
    # fix-up loop
    log = [_potential(cur, mode)]
    while True:
        viol = _violating_pair(cur)
        if viol is None:
            break
        c1, c2, x1, x2 = viol
        b = MapBuilder.from_map(cur)
        _exchange(b, c1, c2, x1, x2)
        cur = b.freeze()
        pot = _potential(cur, mode)
        if not pot < log[-1]:
            raise InternalInvariantError(
                f"fix-up potential did not decrease: {log[-1]} -> {pot}"
            )
        log.append(pot)
        if len(log) > log[0][1] + 2:
            raise InternalInvariantError("fix-up loop exceeded its bound")
    bad = validate_map(cur, strict=True)
    if bad:
        if mode == CROSSMIN:
            raise SimplicityError(
                f"completion is not simple: {bad[0]}; the input drawing is "
                f"not crossing-minimizing"
            )
        raise InternalInvariantError(
            f"separable completion failed validation: {bad[0]}"
        )
    return ExtensionResult(
        map=cur, insertions=tuple(insertions), potential_log=tuple(log)
    )


def extend_to_complete_separable(m: CombinatorialMap) -> ExtensionResult:
    """Complete a separable drawing (with witness set) to the full
    complete graph; always succeeds on valid input."""
    if any(c.kind == EDGE for c in m.curves):
        ws = witness_set(m)
        if not ws.complete_for(m):
            raise WitnessError("every drawn edge needs a witness arc")
    return _extend(m, SEPARABLE)


def extend_to_complete_crossmin(m: CombinatorialMap) -> ExtensionResult:
    """Complete a drawing promised to be crossing-minimizing; raises
    :class:`SimplicityError` when the promise provably fails."""
    return _extend(m, CROSSMIN)
