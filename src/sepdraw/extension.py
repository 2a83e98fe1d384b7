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

from dataclasses import dataclass

from .cmap import (
    EDGE,
    INSERTED,
    WITNESS,
    CombinatorialMap,
    MapBuilder,
    is_connected,
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
from .routing import apply_route, min_cost_route

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


def _drawn_edges(m: CombinatorialMap):
    return {c.edge() for c in m.curves if c.kind in (EDGE, INSERTED)}


def _insert(m: CombinatorialMap, u: int, v: int, mode: str) -> InsertionResult:
    e = edge_key(u, v)
    labels = set(m.real_labels())
    if u == v or u not in labels or v not in labels:
        raise InputError(f"cannot insert edge ({u},{v})")
    if e in _drawn_edges(m):
        raise InputError(f"edge {e} is already drawn")
    if not is_connected(m):
        raise InputError("insertion requires a connected drawing")
    cost_kinds = _COST_KINDS[mode]

    def cost(cid):
        return 1 if m.curves[cid].kind in cost_kinds else 0

    found = min_cost_route(
        m, m.real_by_label[e[0]], m.real_by_label[e[1]], cost
    )
    if found is None:
        raise InputError("vertices unreachable in the drawing")
    route, _ = found
    b = MapBuilder.from_map(m)
    new_cid = apply_route(b, INSERTED, e[0], e[1], route)
    out = b.freeze()
    # curve ids are stable under freeze for pure insertions
    kinds = [wc.kind for wc in out.curves]
    if kinds[new_cid] != INSERTED or out.curves[new_cid].edge() != e:
        raise InternalInvariantError("inserted curve id not stable")
    wcx = sum(
        1
        for s, _ in route.crossings
        if m.curves[m.scurve[s]].kind in (EDGE, WITNESS)
    )
    ecx = sum(
        1 for s, _ in route.crossings if m.curves[m.scurve[s]].kind == EDGE
    )
    icx = sum(
        1
        for s, _ in route.crossings
        if m.curves[m.scurve[s]].kind == INSERTED
    )
    return InsertionResult(
        map=out,
        curve_id=new_cid,
        edge=e,
        witness_set_crossings=wcx,
        edge_crossings=ecx,
        inserted_crossings=icx,
    )


def _check_simple_vs_original(m: CombinatorialMap, cid: int):
    """The curve must share at most one point with every original edge."""
    target = m.curves[cid]
    meets = m.meets
    for fid, c in enumerate(m.curves):
        if c.kind != EDGE:
            continue
        shared = len(set(c.edge()) & set(target.edge()))
        if shared + meets.get((min(cid, fid), max(cid, fid)), 0) > 1:
            return c.edge()
    return None


def insert_min_witness_crossings(
    m: CombinatorialMap, u: int, v: int
) -> InsertionResult:
    """Insert edge {u,v} minimizing crossings with the witness set (each
    drawn edge together with its witness arc); crossings with previously
    inserted edges are free and recorded separately.

    The input must carry one valid witness per drawn edge; the result is
    then guaranteed simple against the original edges, which is asserted.
    """
    ws = witness_set(m)
    if not ws.complete_for(m):
        raise WitnessError("every drawn edge needs a witness arc")
    bad = [x for x in validate_map(m, strict=False) if "witness" in x or "closed curve" in x]
    if bad:
        raise WitnessError(f"invalid witness set: {bad[0]}")
    res = _insert(m, u, v, SEPARABLE)
    offender = _check_simple_vs_original(res.map, res.curve_id)
    if offender is not None:
        raise InternalInvariantError(
            f"minimum-witness-crossing insertion of {res.edge} meets edge "
            f"{offender} twice"
        )
    return res


def insert_min_crossings(
    m: CombinatorialMap, u: int, v: int
) -> InsertionResult:
    """Insert edge {u,v} with the minimum number of crossings with the
    drawn edges.  Simplicity of the result against the original edges is
    reported via :class:`SimplicityError` (it is guaranteed only when the
    input drawing is crossing-minimizing)."""
    res = _insert(m, u, v, CROSSMIN)
    offender = _check_simple_vs_original(res.map, res.curve_id)
    if offender is not None:
        raise SimplicityError(
            f"inserting {res.edge} with minimum crossings meets edge "
            f"{offender} twice; the input is not crossing-minimizing",
            pair=(res.edge, offender),
        )
    return res


# ---------------------------------------------------------------------------
# Fix-up surgery


def _chain_points(b: MapBuilder, cid: int) -> list[int]:
    segs = b.csegs[cid]
    pts = [b.dvert[2 * segs[0]]]
    pts += [b.dvert[2 * s + 1] for s in segs]
    return pts


def _reverse_segment(b: MapBuilder, s: int) -> int:
    cid = b.scurve[s]
    s2 = b.new_segment(cid)
    b.replace_dart(2 * s + 1, 2 * s2)
    b.replace_dart(2 * s, 2 * s2 + 1)
    b.kill_segment(s)
    return s2


def _smooth_passage(b: MapBuilder, y: int, dead: set[int]):
    """Remove vertex ``y`` by merging the passage whose segments are not
    in ``dead`` (the other strands there are being deleted)."""
    darts = [d for d in b.rotation_of(y) if (d >> 1) not in dead]
    if len(darts) != 2:
        raise InternalInvariantError(
            f"expected one surviving passage at vertex {y}, found "
            f"{len(darts)} darts"
        )
    da, db = darts
    sa, sb = da >> 1, db >> 1
    cid = b.scurve[sa]
    if b.scurve[sb] != cid:
        raise InternalInvariantError("surviving strands belong to two curves")
    chain = b.csegs[cid]
    ia, ib = chain.index(sa), chain.index(sb)
    if ib < ia:
        (da, db), (sa, sb), (ia, ib) = (db, da), (sb, sa), (ib, ia)
    if ib != ia + 1 or b.dvert[2 * sa + 1] != y or b.dvert[2 * sb] != y:
        raise InternalInvariantError("surviving passage is not a chain step")
    merged = b.merge_segments(sa, 2 * sa + 1, sb, 2 * sb, cid)
    chain[ia : ib + 1] = [merged]


def _excise_one_loop(b: MapBuilder, cid: int) -> bool:
    """Remove the first self-overlap loop of a curve; returns whether one
    was found."""
    pts = _chain_points(b, cid)
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
        _smooth_passage(b, pts[t], loopset)
    for s in loop:
        b.remove_dart(2 * s)
        b.remove_dart(2 * s + 1)
        b.kill_segment(s)
    chain = [s for s in b.csegs[cid] if s not in loopset]
    b.csegs[cid] = chain
    x = pts[i]
    _smooth_junction(b, cid, x)
    return True


def _smooth_junction(b: MapBuilder, cid: int, x: int):
    """Merge the two chain segments of ``cid`` meeting at the now
    passage-free vertex ``x``."""
    chain = b.csegs[cid]
    for k in range(len(chain) - 1):
        sa, sb = chain[k], chain[k + 1]
        if b.dvert[2 * sa + 1] == x and b.dvert[2 * sb] == x:
            merged = b.merge_segments(sa, 2 * sa + 1, sb, 2 * sb, cid)
            chain[k : k + 2] = [merged]
            return
    raise InternalInvariantError(f"junction vertex {x} not on curve {cid}")


def _common_points(b: MapBuilder, c1: int, c2: int) -> list[int]:
    """Common points of two curves, ordered along c1 (vertex ids;
    includes a shared real endpoint)."""
    pts1 = _chain_points(b, c1)
    pts2 = set(_chain_points(b, c2))
    return [p for p in pts1 if p in pts2]


def _exchange(b: MapBuilder, c1: int, c2: int, x1: int, x2: int):
    """Swap the pieces of c1 and c2 between common points x1, x2 (chosen
    consecutive along c1), smooth the two junctions, and excise any
    self-overlaps created."""
    pts1 = _chain_points(b, c1)
    pts2 = _chain_points(b, c2)
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
            _smooth_cross_junction(b, x)
    for cid in (c1, c2):
        while _excise_one_loop(b, cid):
            pass


def _smooth_cross_junction(b: MapBuilder, x: int):
    """At a former crossing that two curves now merely touch, separate
    the strands: merge each curve's two segments at ``x``."""
    darts = b.rotation_of(x)
    if len(darts) != 4:
        raise InternalInvariantError(f"junction {x} does not have 4 darts")
    by_curve: dict[int, list[int]] = {}
    for d in darts:
        by_curve.setdefault(b.scurve[d >> 1], []).append(d)
    if len(by_curve) != 2 or any(len(v) != 2 for v in by_curve.values()):
        raise InternalInvariantError(f"junction {x} is not a clean touch")
    for cid, (da, db) in sorted(by_curve.items()):
        sa, sb = da >> 1, db >> 1
        chain = b.csegs[cid]
        ia, ib = chain.index(sa), chain.index(sb)
        if ib < ia:
            sa, sb = sb, sa
            ia, ib = ib, ia
        if ib != ia + 1:
            raise InternalInvariantError(
                f"curve {cid} does not pass straight through junction {x}"
            )
        merged = b.merge_segments(sa, 2 * sa + 1, sb, 2 * sb, cid)
        chain[ia : ib + 1] = [merged]


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
    the two common points consecutive along the first curve."""
    ins = [c for c, cu in enumerate(m.curves) if cu.kind == INSERTED]
    b = MapBuilder.from_map(m)
    for i, c1 in enumerate(ins):
        for c2 in ins[i + 1 :]:
            common = _common_points(b, c1, c2)
            if len(common) >= 2:
                return c1, c2, common[0], common[1]
    return None


def _extend(m: CombinatorialMap, mode: str) -> ExtensionResult:
    labels = m.real_labels()
    n = len(labels)
    if labels != list(range(1, n + 1)):
        raise InputError(f"real vertex labels must be 1..n, got {labels}")
    bad = validate_map(m)
    if bad:
        raise InputError(f"input map invalid: {bad[0]}")
    missing = sorted(
        {
            (u, v)
            for u in labels
            for v in labels
            if u < v
        }
        - _drawn_edges(m)
    )
    if not missing:
        return ExtensionResult(map=m, insertions=(), potential_log=())
    insertions = []
    cur = m
    for u, v in missing:
        if mode == SEPARABLE:
            res = insert_min_witness_crossings(cur, u, v)
        else:
            res = insert_min_crossings(cur, u, v)
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
