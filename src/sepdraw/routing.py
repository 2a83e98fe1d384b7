"""Curve routing through the faces of a planarization.

A route describes a new curve from one real vertex to another: the gap
(corner) where it leaves the source, the ordered segments it crosses,
each given as its dart on the face the route leaves, and the gap where
it enters the target.  Two search modes are provided:

* lazy depth-first enumeration of all self-avoiding routes that cross
  each curve at most once and only the curves allowed (used by the
  small-drawing enumerator, the witness search, and the crossing-free
  steps of the seeded generators);
* deterministic least-cost search (used by the edge-insertion
  operations), which only needs face-loop-free routes because any
  optimal route can be shortcut into one.

Self-avoidance across repeated face visits is enforced by chord
tracking: the pieces a route cuts through one face must be pairwise
non-interleaving along that face's boundary cycle.
"""
from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter

from .cmap import (
    EDGE,
    INSERTED,
    WITNESS,
    CombinatorialMap,
    Curve,
    MapBuilder,
    _frozen_map,
    require_valid_map,
)
from .errors import InputError, InternalInvariantError
from .rotation import edge_key


@dataclass(frozen=True)
class Route:
    """A realizable curve insertion.  Each crossing is an entry dart
    ``d``: the curve crosses segment ``d >> 1`` from the face of ``d``
    into the face of ``d ^ 1``."""

    start: tuple  # ('gap', dart), or ('face', fid) for a dartless source
    crossings: tuple  # entry darts, in route order
    end_gap: int


def iter_routes(m: CombinatorialMap, source, target_vid: int, budget):
    """Yield routes from ``source`` to ``target_vid``, each where the
    depth-first search finds it.

    ``source`` is a real vertex id (all its gaps are tried) or
    ``('face', fid)`` for a source point inside a face (a dartless new
    vertex).  ``budget`` maps curve id -> 1 (a route may cross the curve
    once) or 0 (barred); missing ids default to 0, and keys that name no
    curve are ignored.  Any other budget of a curve raises
    :class:`InputError` naming the curve, before a route is yielded.  A
    caller that wants one route takes ``next(...)``, and the search stops
    there.

    A face's boundary cycle has coordinates 0..2L-1: the i-th dart of its
    walk sits at 2i, and the corner clockwise-after dart ``g`` just
    before ``g ^ 1``, at one more.  The coordinates of all darts are laid
    out once per call, and the target's corners are grouped by face,
    ascending by dart, so a visit reads its face's boundary and that
    face's corners, and sorts nothing.

    A crossing move is taken only if :func:`_reachable` finds a face
    with a target corner from the face it enters, through segments of
    curves still free to cross.  Every route beneath the move takes such
    a path (it ignores only the chord rule), so a move that fails the
    check has no route beneath it, and the cut changes neither the
    routes nor their order.
    """
    free = []
    for cid in range(len(m.curves)):
        allowed = budget.get(cid, 0)
        if allowed not in (0, 1):
            raise InputError(f"curve {cid} has budget {allowed}, not 0 or 1")
        free.append(allowed == 1)
    faces = m.faces
    face_of = m.face_of
    scurve = m.scurve
    corners: dict[int, list] = {}
    for g in sorted(m.vdarts[target_vid]):
        corners.setdefault(face_of[g ^ 1], []).append(g)
    coord = [0] * m.n_darts
    for orbit in faces:
        for p, d in enumerate(orbit):
            coord[d] = 2 * p
    chords: dict[int, list] = {}
    path: list[int] = []

    def dfs(fid, entry, start_anchor):
        orbit = faces[fid]
        size = 2 * len(orbit)
        mychords = chords.setdefault(fid, [])
        # The chords cut through this face so far, their ends as offsets
        # from the entry; the visit leaves them as it found them.  A new
        # chord (entry, x) holds offset y when 0 < y < (x - entry) % size,
        # and must hold both ends of each of them or neither.
        if mychords and entry is not None:
            ends = [((r - entry) % size, (s - entry) % size)
                    for r, s in mychords]
        else:
            ends = ()
        # terminal corners of the target on this face
        for g in corners.get(fid, ()):
            if ends:
                w = (coord[g ^ 1] + 1 - entry) % size
                if any((0 < a < w) != (0 < b < w) for a, b in ends):
                    continue
            yield Route(start_anchor, tuple(path), g)
        # crossing moves: a curve once crossed is no longer free
        for d in orbit:
            cid = scurve[d >> 1]
            if not free[cid]:
                continue
            if entry is not None:
                p = coord[d]
                if ends:
                    w = (p - entry) % size
                    if any((0 < a < w) != (0 < b < w) for a, b in ends):
                        continue
                mychords.append((entry, p))
            free[cid] = False
            nfid = face_of[d ^ 1]
            if _reachable(nfid, corners, faces, face_of, scurve, free):
                path.append(d)
                yield from dfs(nfid, coord[d ^ 1], start_anchor)
                path.pop()
            free[cid] = True
            if entry is not None:
                mychords.pop()

    if isinstance(source, tuple) and source[0] == "face":
        yield from dfs(source[1], None, ("face", source[1]))
    else:
        for g in m.vdarts[source]:
            yield from dfs(face_of[g ^ 1], coord[g ^ 1] + 1, ("gap", g))


def _reachable(fid, goals, faces, face_of, scurve, free):
    """Whether a face in ``goals`` is face ``fid`` or can be reached from
    it by crossing segments of curves marked in ``free`` (a list by curve
    id): the search of :func:`iter_routes` without its chord rule,
    crossing a free curve any number of times."""
    if fid in goals:
        return True
    seen = {fid}
    stack = [fid]
    while stack:
        for d in faces[stack.pop()]:
            if not free[scurve[d >> 1]]:
                continue
            nfid = face_of[d ^ 1]
            if nfid in seen:
                continue
            if nfid in goals:
                return True
            seen.add(nfid)
            stack.append(nfid)
    return False


def min_cost_route(
    m: CombinatorialMap, u_vid: int, v_vid: int, cost_of_curve
):
    """Deterministic least-cost route between two real vertices.

    Cost is summed per crossed segment via ``cost_of_curve(curve_id)``,
    which is called once per curve and so must be pure and must not be
    negative (else :class:`InputError` naming the curve).  Ties break by
    fewer crossings, then by the lexicographically smallest face-id
    sequence, then by start/end gap ids.  Returns ``(route, cost)`` or
    ``None`` when the vertices are unreachable (disconnected map).

    Phase 1 finds each face's least ``(cost, steps)`` key, and stops at
    the first key it pops above that of the first target face it settles.
    Phase 2 ranks the settled faces by their least face sequence without
    building one.  An arc is tight when it attains its head's key, so it
    climbs one level in steps, and a face's least sequence is that of its
    smallest-ranked tight predecessor plus the face itself.  Faces of one
    level therefore rank by (predecessor rank, face id), and the parent
    arc is the predecessor's first tight dart.

    The stop keeps every tie-break: an arc never lowers a key, so a face
    on the winning sequence, every tight predecessor of a settled face,
    and every target face that ties with the winner have keys no greater
    than the target's and are settled before the stop.  Ranks among the
    settled faces keep their relative order.
    """
    faces = m.faces
    face_of = m.face_of
    scurve = m.scurve
    weight = [cost_of_curve(c) for c in range(len(m.curves))]
    if weight and min(weight) < 0:
        cid = next(c for c, w in enumerate(weight) if w < 0)
        raise InputError(f"curve {cid} has negative cost {weight[cid]}")
    nfaces = len(faces)
    cost: list = [None] * nfaces
    steps = [0] * nfaces
    target = [False] * nfaces
    for g in m.vdarts[v_vid]:
        target[face_of[g ^ 1]] = True
    start_gap: dict[int, int] = {}
    for g in sorted(m.vdarts[u_vid]):
        start_gap.setdefault(face_of[g ^ 1], g)
    order = sorted(start_gap)
    heap = [(0, 0, fid) for fid in order]  # sorted, so a heap
    for fid in order:
        cost[fid] = 0
    done = [False] * nfaces
    stop = None  # the key of the first target face settled
    while heap:
        c, k, fid = heapq.heappop(heap)
        if stop is not None and (c > stop[0] or c == stop[0] and k > stop[1]):
            break
        if done[fid]:
            continue
        done[fid] = True
        if stop is None and target[fid]:
            stop = c, k
        k += 1
        for d in faces[fid]:
            nfid = face_of[d ^ 1]
            nc = c + weight[scurve[d >> 1]]
            old = cost[nfid]
            # the key (nc, k) against (old, steps[nfid]), without tuples
            if old is None or nc < old or (nc == old and k < steps[nfid]):
                cost[nfid] = nc
                steps[nfid] = k
                heapq.heappush(heap, (nc, k, nfid))
    # phase 2, breadth first from the start faces over the settled ones:
    # ``order`` lists each level by rank, and grows while it is walked
    parent: list = [None] * nfaces
    rank = [0] * nfaces
    for i, fid in enumerate(order):
        rank[fid] = i
        c, k = cost[fid], steps[fid] + 1
        claimed = []
        for d in sorted(faces[fid]):
            nfid = face_of[d ^ 1]
            if (
                done[nfid]
                and parent[nfid] is None
                and steps[nfid] == k
                and cost[nfid] == c + weight[scurve[d >> 1]]
            ):
                parent[nfid] = (fid, d)
                claimed.append(nfid)
        claimed.sort()
        order += claimed
    cand = [
        (cost[fid], steps[fid], rank[fid], g, fid)
        for g in sorted(m.vdarts[v_vid])
        if done[fid := face_of[g ^ 1]]
    ]
    if not cand:
        return None
    total, _, _, end_gap, fid = min(cand)
    crossings = []
    while parent[fid] is not None:
        fid, d = parent[fid]
        crossings.append(d)
    crossings.reverse()
    return Route(("gap", start_gap[fid]), tuple(crossings), end_gap), total


def apply_route(
    b: MapBuilder, kind: str, u_label: int, v_label: int, route: Route
) -> int:
    """Thread a new curve along a route through the builder's map.

    The route's crossings are darts of the builder's current segments
    (apply immediately after searching, before other mutations): each
    splits its segment at a new crossing vertex.  The curve is
    recorded in route direction: from ``u_label`` (the route source) to
    ``v_label``.  A ``('gap', dart)`` start leaves through that corner; a
    ``('face', fid)`` start leaves from the real vertex labelled
    ``u_label``, which the caller must already have placed in the builder
    without darts, and becomes its sole dart.
    Returns the new curve id.
    """
    cid = b.new_curve(kind, u_label, v_label)
    nseg = len(route.crossings) + 1
    segs = [b.new_segment(cid) for _ in range(nseg)]
    b.csegs[cid] = segs
    replaced: dict[int, int] = {}
    for k, side in enumerate(route.crossings):
        s = side >> 1
        if b.scurve[s] < 0:
            raise InternalInvariantError(f"route crosses dead segment {s}")
        x = b.new_vertex("cross")
        s1, s2, repl = b.split_segment(s, x)
        replaced.update(repl)
        new_in = 2 * segs[k] + 1
        new_out = 2 * segs[k + 1]
        toward_tail = 2 * s1 + 1
        toward_head = 2 * s2
        # chirality: the strand continuing toward the entry side's far end
        # precedes the outgoing new dart in clockwise order
        if side == 2 * s:
            rot = (toward_head, new_out, toward_tail, new_in)
        else:
            rot = (toward_tail, new_out, toward_head, new_in)
        b.set_rotation(x, rot)
    # endpoints
    d_start = 2 * segs[0]
    d_end = 2 * segs[-1] + 1
    if route.start[0] == "gap":
        g = route.start[1]
        d = replaced.get(g, g)
        _require_gap_at(b, d, "start", g, u_label)
        b.insert_dart_after(d, d_start)
    else:
        u_vid = b.vlabel.index(u_label)
        if b.rot[u_vid]:
            raise InputError(
                f"route starts in a face but vertex {u_label} has darts"
            )
        b.set_rotation(u_vid, (d_start,))
    ge = route.end_gap
    d = replaced.get(ge, ge)
    _require_gap_at(b, d, "end", ge, v_label)
    b.insert_dart_after(d, d_end)
    return cid


def _gap_error(which: str, g: int, label: int) -> InputError:
    return InputError(f"route {which} gap {g} is not at vertex {label}")


def _require_gap_at(b: MapBuilder, d: int, which: str, g: int, label: int):
    """Raise unless dart ``d``, the builder's dart for the route's gap
    ``g``, is at the real vertex labelled ``label``."""
    vid = b.dvert[d] if 0 <= d < len(b.dvert) else -1
    if vid < 0 or b.vkind[vid] != "real" or b.vlabel[vid] != label:
        raise _gap_error(which, g, label)


def with_route(
    m: CombinatorialMap, kind: str, u_label: int, v_label: int, route: Route
):
    """``m`` with a new curve threaded along ``route``, as
    :func:`apply_route` on ``MapBuilder.from_map(m)`` and a freeze give
    it; a route that starts in a face starts at a new real vertex labelled
    ``u_label``, which ``m`` must not have.  Returns ``(new_map,
    curve_id)``: every curve keeps its id and the new one is last.  ``m``
    must be valid, and the route's gaps must lie at the real vertices
    labelled ``u_label`` and ``v_label`` (else :class:`InputError`).

    A map laid out by ``freeze`` (every map the library makes) is not
    copied into a builder: the new map is spliced from its arrays.  Each
    crossing is a dart d of the map, and its segment s = d >> 1 splits in
    place, so old segment s becomes s plus the number of crossed segments
    below it, and the new curve's segments come last.  Two facts make
    that a splice:

    1. The dart map is increasing, so every old rotation, rolled to
       start at its smallest dart, keeps its roll, and a row with no dart
       at or beyond the first crossed segment stays as it is.
    2. ``freeze`` orders the crossing vertices by their smallest incident
       segment, and that is the incoming segment whose head is the
       crossing (its outgoing segment is the next one), so the order is
       that of each rolled row's first dart.  The new crossings merge
       into the crossing rows by first dart.

    Any other map (hand-built or shuffled) takes the builder path.
    """
    face_start = route.start[0] == "face"
    if face_start and u_label in m.real_by_label:
        raise InputError(
            f"route starts in a face but the map has vertex {u_label}"
        )
    if m._frozen:
        return _splice(m, kind, u_label, v_label, route)
    b = MapBuilder.from_map(m)
    if face_start:
        b.new_vertex("real", u_label)
    cid = apply_route(b, kind, u_label, v_label, route)
    return b.freeze(), cid


def _splice(m: CombinatorialMap, kind, u_label, v_label, route: Route):
    """:func:`with_route` on a map laid out by ``freeze``."""
    crossings = route.crossings
    seen = set()
    for d in crossings:
        s = d >> 1
        if s in seen:
            raise InternalInvariantError(f"route crosses dead segment {s}")
        seen.add(s)
    cut = sorted(seen)
    k = len(cut)
    nseg = len(m.scurve)
    base = nseg + k  # the new curve's first segment
    cid = len(m.curves)
    real = m.real_by_label
    nreal = len(real)
    first = itemgetter(0)
    vdarts = m.vdarts
    if k:
        # dart d of segment s goes to d + 2 * (crossed segments below s),
        # and 2 more for the head dart of a crossed segment
        lo = 2 * cut[0]
        dmap = list(range(lo))
        for j, s in enumerate(cut):
            shift = 2 * (j + 1)
            end = 2 * cut[j + 1] if j + 1 < k else 2 * nseg
            dmap += (2 * s + 2 * j, 2 * s + 2 * j + 3)
            dmap += range(2 * s + 2 + shift, end + shift)
        new = dmap.__getitem__
        # the crossing rows run by first dart, so from the first one at or
        # beyond lo on every row moves, four darts each; a row before it
        # with no dart at or beyond lo stays as it is
        split = bisect_left(vdarts, lo, nreal, key=first)
        rows = [
            r if not r or max(r) < lo else tuple(map(new, r))
            for r in vdarts[:split]
        ]
        moved = map(new, chain.from_iterable(vdarts[split:]))
        rows += zip(moved, moved, moved, moved)
    else:
        dmap = range(2 * nseg)
        rows = list(vdarts)
    face_start = route.start[0] != "gap"
    if not face_start:
        g = route.start[1]
        u_vid = real.get(u_label)
        if u_vid is None or g not in vdarts[u_vid]:
            raise _gap_error("start", g, u_label)
        _insert_after(rows, u_vid, dmap[g], 2 * base)
    ge = route.end_gap
    v_vid = real.get(v_label)
    if v_vid is None or ge not in vdarts[v_vid]:
        raise _gap_error("end", ge, v_label)
    _insert_after(rows, v_vid, dmap[ge], 2 * (base + k) + 1)
    # the new crossings as apply_route turns them, each rolled to start
    # at its smallest dart: the head of the first half of its segment
    added = []
    for i, side in enumerate(crossings):
        s = side >> 1
        head = 2 * (s + bisect_left(cut, s)) + 1
        new_in, new_out = 2 * (base + i) + 1, 2 * (base + i + 1)
        if side == 2 * s:
            added.append((head, new_in, head + 1, new_out))
        else:
            added.append((head, new_out, head + 1, new_in))
    for row in added:
        rows.insert(bisect_left(rows, row[0], nreal, key=first), row)
    vkind = m.vkind + ("cross",) * k
    vlabel = m.vlabel + (None,) * k
    if face_start:
        # among the real vertices by label, as freeze sorts them
        pos = bisect_right(vlabel, u_label, 0, nreal)
        rows.insert(pos, (2 * base,))
        vkind = ("real",) + vkind
        vlabel = vlabel[:pos] + (u_label,) + vlabel[pos:]
    # each crossed curve's run grows by its crossed segments, and the new
    # curve's run comes last
    scurve, sidx = [], []
    done = j = 0
    while j < k:
        c = m.scurve[cut[j]]
        end = bisect_right(m.scurve, c, cut[j])
        grown = bisect_left(cut, end, j) - j
        length = m.sidx[end - 1] + 1
        scurve += m.scurve[done:end]
        scurve += (c,) * grown
        sidx += m.sidx[done:end]
        sidx += range(length, length + grown)
        done = end
        j += grown
    scurve += m.scurve[done:]
    scurve += (cid,) * (k + 1)
    sidx += m.sidx[done:]
    sidx += range(k + 1)
    curves = m.curves + (Curve(kind, u_label, v_label),)
    return _frozen_map(vkind, vlabel, rows, scurve, sidx, curves), cid


def _insert_after(rows: list, vid: int, g: int, d: int):
    """Put dart ``d`` clockwise after dart ``g`` in ``rows[vid]``."""
    row = rows[vid]
    i = row.index(g) + 1
    rows[vid] = (*row[:i], d, *row[i:])


def apply_route_from_bare_vertex(
    b: MapBuilder, kind: str, u_vid: int, v_label: int, route: Route
) -> int:
    """:func:`apply_route` for a face-start route out of the dartless
    vertex ``u_vid``."""
    # No library code calls this.  It stays because perfbench/tracer.py
    # wraps it by name with getattr, and deleting it would break
    # ``perfbench/run.py --trace 1`` and ``--selfcheck``.
    return apply_route(b, kind, b.vlabel[u_vid], v_label, route)


# ---------------------------------------------------------------------------
# Witness search


def find_witness(m: CombinatorialMap, e):
    """Search for a witness arc for edge ``e`` by exhaustive routing.

    The arc may cross every curve at most once, may not cross the edge
    itself, any edge crossing it, or any edge sharing one of its
    endpoints.  Returns ``(new_map, witness_curve_id)`` or ``None``.
    Raises :class:`InputError` when the map fails :func:`validate_map`.
    """
    require_valid_map(m)
    e = edge_key(*e)
    eid = None
    for cid, c in enumerate(m.curves):
        if c.kind == EDGE and c.edge() == e:
            eid = cid
    if eid is None:
        raise InputError(f"no drawn edge {e}")
    crossers = set(m.meeting[eid])
    budget = {}
    for cid, c in enumerate(m.curves):
        barred = (
            cid == eid
            or cid in crossers
            or (c.kind in (EDGE, INSERTED) and set(c.edge()) & set(e))
        )
        budget[cid] = 0 if barred else 1
    u_vid = m.real_by_label[e[0]]
    v_vid = m.real_by_label[e[1]]
    route = next(iter_routes(m, u_vid, v_vid, budget), None)
    if route is None:
        return None
    return with_route(m, WITNESS, e[0], e[1], route)
