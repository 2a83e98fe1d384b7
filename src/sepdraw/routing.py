"""Curve routing through the faces of a planarization.

A route describes a new curve from one real vertex to another: the gap
(corner) where it leaves the source, the ordered segments it crosses
(with the side it approaches from), and the gap where it enters the
target.  Two search modes are provided:

* exhaustive depth-first enumeration of all self-avoiding routes under
  per-curve crossing budgets (used by the small-drawing enumerator, the
  witness search, and the brute-force router oracle);
* deterministic least-cost search (used by the edge-insertion
  operations), which only needs face-loop-free routes because any
  optimal route can be shortcut into one.

Self-avoidance across repeated face visits is enforced by chord
tracking: the pieces a route cuts through one face must be pairwise
non-interleaving along that face's boundary cycle.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass

from .cmap import EDGE, INSERTED, WITNESS, CombinatorialMap, MapBuilder
from .errors import InputError, InternalInvariantError


@dataclass(frozen=True)
class Route:
    """A realizable curve insertion."""

    start: tuple  # ('gap', dart), or ('face', fid) for a dartless source
    crossings: tuple  # ((segment, side_dart), ...)
    end_gap: int

    def crossed_curves(self, m: CombinatorialMap):
        return tuple(m.scurve[s] for s, _ in self.crossings)


def _boundary(m: CombinatorialMap, fid: int):
    """Boundary items of a face: maps for edge items and corner gaps onto
    coordinates 0..2L-1 around the cycle.

    The corner clockwise-after dart d sits just before d's edge item on
    the boundary walk.
    """
    orbit = m.faces[fid]
    edge_coord = {d: 2 * i for i, d in enumerate(orbit)}
    gap_coord = {(d ^ 1): 2 * i + 1 for i, d in enumerate(orbit)}
    return orbit, edge_coord, gap_coord


def _interleaves(p: int, q: int, r: int, s: int, size: int) -> bool:
    """Whether chords (p,q) and (r,s) interleave on a cycle of ``size``."""

    def inside(x):
        return (x - p) % size < (q - p) % size and x != p

    return inside(r) != inside(s)


def _chord_ok(chords, p, q, size):
    if p is None:
        return True
    return all(not _interleaves(p, q, r, s, size) for r, s in chords)


def iter_routes(
    m: CombinatorialMap,
    source,
    target_vid: int,
    budget,
    first_only: bool = False,
):
    """Yield routes from ``source`` to ``target_vid``.

    ``source`` is a real vertex id (all its gaps are tried) or
    ``('face', fid)`` for a source point inside a face (a dartless new
    vertex).  ``budget`` maps curve id -> max crossings (0 = barred);
    missing ids default to 0.
    """
    sigma = m.sigma
    face_of = m.face_of
    bcache: dict[int, tuple] = {}

    def boundary(fid):
        if fid not in bcache:
            bcache[fid] = _boundary(m, fid)
        return bcache[fid]

    remaining = dict(budget)
    chords: dict[int, list] = {}
    crossed_segs: set[int] = set()
    path: list[tuple[int, int]] = []
    results: list[Route] = []

    def dfs(fid, entry_coord, start_anchor):
        orbit, edge_coord, gap_coord = boundary(fid)
        size = 2 * len(orbit)
        mychords = chords.setdefault(fid, [])
        # terminal corners of the target on this face
        for g, gc in sorted(gap_coord.items()):
            if m.dvert[g] != target_vid:
                continue
            if not _chord_ok(mychords, entry_coord, gc, size):
                continue
            if entry_coord is not None:
                mychords.append((entry_coord, gc))
            results.append(Route(start_anchor, tuple(path), g))
            if entry_coord is not None:
                mychords.pop()
            if first_only:
                return True
        # crossing moves
        for d in orbit:
            s = d >> 1
            if s in crossed_segs:
                continue
            cid = m.scurve[s]
            if remaining.get(cid, 0) <= 0:
                continue
            p = edge_coord[d]
            if not _chord_ok(mychords, entry_coord, p, size):
                continue
            if entry_coord is not None:
                mychords.append((entry_coord, p))
            crossed_segs.add(s)
            remaining[cid] -= 1
            path.append((s, d))
            nfid = face_of[d ^ 1]
            _, nec, _ = boundary(nfid)
            stop = dfs(nfid, nec[d ^ 1], start_anchor)
            path.pop()
            remaining[cid] += 1
            crossed_segs.discard(s)
            if entry_coord is not None:
                mychords.pop()
            if stop:
                return True
        return False

    if isinstance(source, tuple) and source[0] == "face":
        if dfs(source[1], None, ("face", source[1])) and first_only:
            yield results[0]
            return
    else:
        for g in m.vdarts[source]:
            fid = m.face_of_gap(g)
            _, _, gap_coord = _boundary(m, fid)
            if dfs(fid, gap_coord[g], ("gap", g)) and first_only:
                yield results[0]
                return
    yield from results


def min_cost_route(
    m: CombinatorialMap, u_vid: int, v_vid: int, cost_of_curve
):
    """Deterministic least-cost route between two real vertices.

    Cost is summed per crossed segment via ``cost_of_curve(curve_id)``.
    Ties break by fewer crossings, then by the lexicographically smallest
    face-id sequence, then by start/end gap ids.  Returns
    ``(route, cost)`` or ``None`` when the vertices are unreachable
    (disconnected map).
    """
    face_of = m.face_of
    nstates = len(m.faces)
    best: dict[int, tuple] = {}
    parent: dict[int, tuple] = {}
    heap = []
    for g in sorted(m.vdarts[u_vid]):
        fid = m.face_of_gap(g)
        label = (0, 0, (fid,), g)
        if fid not in best or label < best[fid]:
            best[fid] = label
            parent[fid] = None
            heapq.heappush(heap, (label, fid))
    done = set()
    while heap:
        label, fid = heapq.heappop(heap)
        if fid in done or best.get(fid) != label:
            continue
        done.add(fid)
        if len(done) == nstates:
            break
        cost, nsteps, faceseq, g0 = label
        for d in sorted(m.faces[fid]):
            s = d >> 1
            w = cost_of_curve(m.scurve[s])
            if w is None:
                continue
            nfid = face_of[d ^ 1]
            nlabel = (cost + w, nsteps + 1, faceseq + (nfid,), g0)
            if nfid not in best or nlabel < best[nfid]:
                best[nfid] = nlabel
                parent[nfid] = (fid, s, d)
                heapq.heappush(heap, (nlabel, nfid))
    # choose the best target gap
    cand = []
    for g in sorted(m.vdarts[v_vid]):
        fid = m.face_of_gap(g)
        if fid in best:
            cand.append((best[fid], g, fid))
    if not cand:
        return None
    label, end_gap, fid = min(cand)
    crossings = []
    cur = fid
    while parent[cur] is not None:
        pfid, s, d = parent[cur]
        crossings.append((s, d))
        cur = pfid
    crossings.reverse()
    route = Route(("gap", label[3]), tuple(crossings), end_gap)
    return route, label[0]


def apply_route(
    b: MapBuilder, kind: str, u_label: int, v_label: int, route: Route
) -> int:
    """Thread a new curve along a route through the builder's map.

    The route must reference the builder's current segment ids (apply
    immediately after searching, before other mutations).  The curve is
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
    for k, (s, side) in enumerate(route.crossings):
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
        g = replaced.get(g, g)
        b.insert_dart_after(g, d_start)
    else:
        u_vid = b.vlabel.index(u_label)
        if u_vid in b.dvert:
            raise InputError(
                f"route starts in a face but vertex {u_label} has darts"
            )
        b.attach_sole_dart(u_vid, d_start)
    ge = route.end_gap
    ge = replaced.get(ge, ge)
    b.insert_dart_after(ge, d_end)
    return cid


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
    """
    from .rotation import edge_key

    e = edge_key(*e)
    eid = None
    for cid, c in enumerate(m.curves):
        if c.kind == EDGE and c.edge() == e:
            eid = cid
    if eid is None:
        raise InputError(f"no drawn edge {e}")
    crossers = {a if b == eid else b for a, b in m.meets if eid in (a, b)}
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
    for route in iter_routes(m, u_vid, v_vid, budget, first_only=True):
        b = MapBuilder.from_map(m)
        cid = apply_route(b, WITNESS, e[0], e[1], route)
        return b.freeze(), cid
    return None
