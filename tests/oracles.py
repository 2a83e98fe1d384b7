"""Independent brute-force oracles used to freeze expected values.

The geometric oracle reads rotation systems and crossing pairs straight
off point coordinates (straight-line drawings), with no shared code with
the table-driven pipeline under test.
"""
from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from itertools import combinations, permutations

from sepdraw.cmap import (
    DRAWN_KINDS,
    EDGE,
    INSERTED,
    WITNESS,
    CombinatorialMap,
    Curve,
    MapBuilder,
)
from sepdraw.errors import (
    InputError,
    InternalInvariantError,
    RealizabilityError,
)
from sepdraw.routing import (
    Route,
    iter_routes,
    with_route,
)
from sepdraw.rotation import (
    K4_UNREALIZABLE,
    PAIR_BY_CODE,
    RotationSystem,
    _DIGIT,
    _checked_edge,
    _require_realizable,
    edge_key,
    is_realizable_touching,
    k4_index,
    k5_system,
    pair_key,
)


def rotation_system_from_points(pts: dict[int, tuple[float, float]]):
    """Clockwise rotations (descending angle) of a straight-line drawing."""
    n = len(pts)
    assert sorted(pts) == list(range(1, n + 1))
    rows = []
    for v in range(1, n + 1):
        x0, y0 = pts[v]
        others = []
        for w in range(1, n + 1):
            if w == v:
                continue
            ang = math.atan2(pts[w][1] - y0, pts[w][0] - x0)
            others.append((-ang, w))
        others.sort()
        rows.append(tuple(w for _, w in others))
    return RotationSystem(n, rows)


def _cyclic_sequence(row, members) -> list[int]:
    """``members`` in the order they occur in the cyclic ``row``, read
    from ``members[0]`` on."""
    i = row.index(members[0])
    return [x for x in row[i:] + row[:i] if x in members]


def reference_k4_index(rs: RotationSystem, quad) -> int:
    """The documented k4 index of a sorted quad, read off the rotations:
    bit i is set when the other three vertices a < b < c do not occur in
    the order a, b, c around ``quad[i]``.  They do when their positions
    pa, pb, pc in the rotation are in increasing order up to a cyclic
    shift."""
    idx = 0
    for bit, v in enumerate(quad):
        a, b, c = (x for x in quad if x != v)
        pos = rs.rotation(v).index
        pa, pb, pc = pos(a), pos(b), pos(c)
        if not (pa < pb < pc or pb < pc < pa or pc < pa < pb):
            idx |= 1 << bit
    return idx


def reference_pair_crossing(tables, rs: RotationSystem, e, f) -> bool:
    """Whether two independent edges, given as label pairs in 1..n,
    cross: ``tables.k4`` at the reference index of their sorted quad,
    whose pair code names the crossing pair.  An unrealizable quad
    raises :class:`RealizabilityError`."""
    quad = tuple(sorted((*e, *f)))
    entry = tables.k4[reference_k4_index(rs, quad)]
    if entry == K4_UNREALIZABLE:
        raise RealizabilityError(
            f"4-vertex subsystem on {quad} is not realizable", quad
        )
    if entry < 0:
        return False
    local = tuple(sorted(quad.index(x) + 1 for x in e))
    return local in PAIR_BY_CODE[entry]


def reference_crossings_of_edge(tables, rs: RotationSystem, e):
    """The edges crossing ``e``, one :func:`reference_pair_crossing`
    per independent edge."""
    rest = [x for x in range(1, rs.n + 1) if x not in e]
    return frozenset(
        f
        for f in combinations(rest, 2)
        if reference_pair_crossing(tables, rs, e, f)
    )


def reference_k5_index(rs: RotationSystem, quint) -> int:
    """The documented k5 index of a sorted quintuple, read off the
    rotations: digit i (base 6, least significant first) is the place of
    the order in which the last three of the other four vertices follow
    the first one around ``quint[i]``, among the permutations of those
    three in lexicographic order."""
    idx = 0
    for i, v in enumerate(quint):
        others = [x for x in quint if x != v]
        seq = tuple(_cyclic_sequence(rs.rotation(v), others)[1:])
        idx += list(permutations(others[1:])).index(seq) * 6**i
    return idx


def _offset_rows(rs: RotationSystem, x: int) -> list:
    """Per label u != x, the offsets in the rotation of u counted from x:
    entry y of row u is the number of steps from x on to y (rows 0 and x
    are None; entries 0 and u of row u are unused)."""
    rows = [None] * (rs.n + 1)
    for u in range(1, rs.n + 1):
        if u != x:
            row = rs.rotation(u)
            start = row.index(x)
            off = [0] * (rs.n + 1)
            for k, y in enumerate(row[start:] + row[:start]):
                off[y] = k
            rows[u] = off
    return rows


def reference_is_realizable(tables, rs: RotationSystem) -> bool:
    """Kynčl's 5-tuple criterion as a plain membership sweep: every
    sorted 5-tuple (a, b, c, d, e) in ``tables.k5``, in sorted order (at
    n = 4, the K4 itself realizable under ``tables.k4``).

    Digit i of the k5 index is three comparisons in offset rows of the
    form the library's quad sweep reads, built here by
    :func:`_offset_rows`; the index kernels are checked against
    :func:`reference_k5_index` in tier-1.  This is the sweep the library
    ran before it read only the 5-tuples with a suspect crossing
    pattern."""
    n = rs.n
    if n <= 3:
        return True
    if n == 4:
        entry = tables.k4[reference_k4_index(rs, (1, 2, 3, 4))]
        return entry != K4_UNREALIZABLE
    member = bytearray(6**5)
    for idx in tables.k5:
        member[idx] = 1
    D0, D1, D2, D3, D4 = _DIGIT
    by_anchor = [None] + [_offset_rows(rs, x) for x in range(1, n - 2)]
    for a in range(1, n - 3):
        rows = by_anchor[a]
        for b in range(a + 1, n - 2):
            A = by_anchor[b][a]
            B = rows[b]
            for c in range(b + 1, n - 1):
                C = rows[c]
                Ac, Bc, Cb = A[c], B[c], C[b]
                for d in range(c + 1, n):
                    D = rows[d]
                    Ad, Bd, Cd, Db, Dc = A[d], B[d], C[d], D[b], D[c]
                    ka = 4 * (Ac < Ad)
                    kb = 4 * (Bc < Bd)
                    kc = 4 * (Cb < Cd)
                    kd = 4 * (Db < Dc)
                    for e in range(d + 1, n + 1):
                        E = rows[e]
                        Ae, Be, Ce, De = A[e], B[e], C[e], D[e]
                        Eb, Ec, Ed = E[b], E[c], E[d]
                        if not member[
                            D0[ka + 2 * (Ac < Ae) + (Ad < Ae)]
                            + D1[kb + 2 * (Bc < Be) + (Bd < Be)]
                            + D2[kc + 2 * (Cb < Ce) + (Cd < Ce)]
                            + D3[kd + 2 * (Db < De) + (Dc < De)]
                            + D4[4 * (Eb < Ec) + 2 * (Eb < Ed) + (Ec < Ed)]
                        ]:
                            return False
    return True


def labeled_encoding(rs: RotationSystem) -> bytes:
    """Byte encoding of a labeled system: its rows rolled to start at
    their minimum, so it tells labelings apart but not linearizations."""
    return b"".join(bytes(r) for r in rs.normalized)


def reference_canonical_key(rs: RotationSystem) -> bytes:
    """``rotation.canonical_key`` as it was before it relabeled once per
    anchor: the minimum over the 2n(n-1) labelings that give label 1 to
    a vertex v and labels 2..n to v's rotation from one of its starts,
    with a ``bytes.maketrans`` table built for each start."""
    n = rs.n
    if n == 1:
        return bytes([1])
    if n > 255:
        raise InputError(
            f"canonical keys hold labels up to 255; the system has n={n}"
        )
    m = n - 1
    size = m * m
    labels = bytes(range(1, n + 1))
    best = None
    for rows in (rs.rows, tuple(r[::-1] for r in rs.rows)):
        for v in range(1, n + 1):
            rot = rows[v - 1]
            head = bytes([v])
            around = bytes(rot) * 2
            # rows 2..n for start 0: each neighbour's rotation read from
            # v, twice over; start s reads this from row s on
            flat = []
            for w in rot:
                row = rows[w - 1]
                i = row.index(v)
                flat += row[i:] + row[:i]
            block = bytes(flat) * 2
            for s in range(m):
                # byte x of the table is the label that start s gives x
                table = bytes.maketrans(head + around[s : s + m], labels)
                cut = s * m
                cand = block[cut : cut + size].translate(table)
                if best is None or cand < best:
                    best = cand
    return bytes([n, *range(2, n + 1)]) + best


def _orient(a, b, c) -> float:
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def segments_cross(p1, p2, q1, q2) -> bool:
    """Proper interior crossing of two segments in general position."""
    d1 = _orient(q1, q2, p1)
    d2 = _orient(q1, q2, p2)
    d3 = _orient(p1, p2, q1)
    d4 = _orient(p1, p2, q2)
    return (d1 * d2 < 0) and (d3 * d4 < 0)


def crossing_pairs_from_points(pts) -> frozenset:
    n = len(pts)
    out = set()
    edges = list(combinations(range(1, n + 1), 2))
    for e, f in combinations(edges, 2):
        if set(e) & set(f):
            continue
        if segments_cross(pts[e[0]], pts[e[1]], pts[f[0]], pts[f[1]]):
            out.add(pair_key(edge_key(*e), edge_key(*f)))
    return frozenset(out)


def convex_points(n: int) -> dict[int, tuple[float, float]]:
    """n points on a circle labeled clockwise."""
    return {
        i + 1: (math.sin(2 * math.pi * i / n), math.cos(2 * math.pi * i / n))
        for i in range(n)
    }


def random_points(n: int, rng) -> dict[int, tuple[float, float]]:
    """Random points in general position (resampled until safely so)."""
    while True:
        pts = {i: (rng.uniform(-1, 1), rng.uniform(-1, 1)) for i in range(1, n + 1)}
        ok = True
        for a, b, c in combinations(range(1, n + 1), 3):
            if abs(_orient(pts[a], pts[b], pts[c])) < 1e-6:
                ok = False
                break
        if ok:
            return pts


def exhaustive_min_route_cost(m, u_label: int, v_label: int, cost_of_curve):
    """Brute-force minimum insertion cost: all loop-free face paths.

    Independent of the production router; exponential, for small maps.
    """
    face_of = m.face_of
    start_faces = {m.face_of_gap(g) for g in m.vdarts[m.real_by_label[u_label]]}
    end_faces = {m.face_of_gap(g) for g in m.vdarts[m.real_by_label[v_label]]}
    best = [None]

    def dfs(fid, cost, visited):
        if best[0] is not None and cost >= best[0]:
            return
        if fid in end_faces:
            best[0] = cost if best[0] is None else min(best[0], cost)
        for d in m.faces[fid]:
            s = d >> 1
            w = cost_of_curve(m.scurve[s])
            nfid = face_of[d ^ 1]
            if nfid in visited:
                continue
            dfs(nfid, cost + w, visited | {nfid})

    for fid in sorted(start_faces):
        dfs(fid, 0, frozenset({fid}))
    return best[0]


def reference_min_cost_route(
    m: CombinatorialMap, u_vid: int, v_vid: int, cost_of_curve
):
    """``routing.min_cost_route`` as it was when each Dijkstra label
    carried its whole face-id sequence: labels ``(cost, steps, faces,
    start gap)`` compare lexicographically, so ties break by fewer
    crossings, then by the smallest face-id sequence, then by start/end
    gap ids.  Returns ``(route, cost)`` or ``None``."""
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
            nfid = face_of[d ^ 1]
            nlabel = (cost + w, nsteps + 1, faceseq + (nfid,), g0)
            if nfid not in best or nlabel < best[nfid]:
                best[nfid] = nlabel
                parent[nfid] = (fid, s, d)
                heapq.heappush(heap, (nlabel, nfid))
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


# ---------------------------------------------------------------------------
# Reference route enumeration: ``routing.iter_routes`` as it was when it
# collected every route of the depth-first search before yielding and cut
# the search short with ``first_only``, kept verbatim so the lazy version
# can be compared with it route for route.  Its boundary table (a gap
# table per face, sorted on every visit) and chord test are the ones the
# library used then, copied here so that the reference shares no search
# code with the search it checks.


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


def reference_iter_routes(
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


# ---------------------------------------------------------------------------
# Reference map validation: the all-pairs scans that ``cmap.validate_map``
# and ``cmap.validate_witness`` ran before they were restricted to meeting
# curve pairs, kept verbatim so the pruned versions can be compared with
# them message for message.  The one addition is the rule that real vertex
# labels are distinct, named at the later vertex.  The all-pairs check of
# an inserted curve against the original edges is what the verdict an
# insertion reads off its route is compared with.


def reference_is_connected(m: CombinatorialMap) -> bool:
    """Whether the planarization of ``m`` is connected: a depth-first
    search from vertex 0 along the segments."""
    n = len(m.vkind)
    if n <= 1:
        return True
    adj = {i: set() for i in range(n)}
    dv = m.dvert
    for s in range(len(m.scurve)):
        a, b = dv[2 * s], dv[2 * s + 1]
        adj[a].add(b)
        adj[b].add(a)
    seen = {0}
    stack = [0]
    while stack:
        for nb in adj[stack.pop()]:
            if nb not in seen:
                seen.add(nb)
                stack.append(nb)
    return len(seen) == n


def reference_validate_map(m: CombinatorialMap, strict: bool = True) -> list[str]:
    """All-pairs reference for ``cmap.validate_map``: the same violation
    list, scanning every pair of drawn curves and every witness against
    every edge."""
    v = []
    nseg = len(m.scurve)
    nd = 2 * nseg

    # dart bookkeeping
    owned = [-1] * nd
    for vid, darts in enumerate(m.vdarts):
        for d in darts:
            if not 0 <= d < nd:
                v.append(f"vertex {vid} lists unknown dart {d}")
                continue
            if owned[d] != -1:
                v.append(f"dart {d} appears at two vertices")
            owned[d] = vid
    missing = [d for d in range(nd) if owned[d] == -1]
    if missing:
        v.append(f"darts not attached to any vertex: {missing}")
        return v

    # curve chains
    by_curve: dict[int, list[int]] = {c: [] for c in range(len(m.curves))}
    for s, c in enumerate(m.scurve):
        if not 0 <= c < len(m.curves):
            v.append(f"segment {s} references unknown curve {c}")
            return v
        by_curve[c].append(s)
    for cid, segs in by_curve.items():
        cur = m.curves[cid]
        if not segs:
            v.append(f"curve {cid} has no segments")
            continue
        segs.sort(key=lambda s: m.sidx[s])
        if [m.sidx[s] for s in segs] != list(range(len(segs))):
            v.append(f"curve {cid} has non-consecutive segment indices")
            continue
        for a, b in zip(segs, segs[1:]):
            mid1, mid2 = owned[2 * a + 1], owned[2 * b]
            if mid1 != mid2:
                v.append(f"curve {cid} chain broken between {a} and {b}")
            elif m.vkind[mid1] != "cross":
                v.append(f"curve {cid} passes through a real vertex {mid1}")
        t, h = owned[2 * segs[0]], owned[2 * segs[-1] + 1]
        for endv, want in ((t, cur.u), (h, cur.v)):
            if m.vkind[endv] != "real" or m.vlabel[endv] != want:
                v.append(
                    f"curve {cid} does not end at real vertex {want}"
                )

    # vertices
    first_of_label = {}
    for vid, darts in enumerate(m.vdarts):
        if m.vkind[vid] == "real":
            lab = m.vlabel[vid]
            if lab in first_of_label:
                v.append(
                    f"real vertex {vid} repeats the label {lab} of real "
                    f"vertex {first_of_label[lab]}"
                )
            else:
                first_of_label[lab] = vid
            if not darts:
                v.append(f"real vertex {vid} is isolated (unsupported)")
            for d in darts:
                # a dart out of range (named above) ends no curve
                is_end = False
                if 0 <= d < nd:
                    segs = by_curve[m.scurve[d >> 1]]
                    is_end = d in (2 * segs[0], 2 * segs[-1] + 1)
                if not is_end:
                    v.append(
                        f"dart {d} at real vertex {vid} is not a curve end"
                    )
        elif m.vkind[vid] == "cross":
            if m.vlabel[vid] is not None:
                v.append(f"cross vertex {vid} carries label {m.vlabel[vid]}")
            if len(darts) != 4:
                v.append(f"cross vertex {vid} has degree {len(darts)} != 4")
                continue
            cs = [m.scurve[d >> 1] for d in darts]
            if cs[0] != cs[2] or cs[1] != cs[3] or cs[0] == cs[1]:
                v.append(
                    f"cross vertex {vid} lacks two alternating distinct "
                    f"curves: {cs}"
                )
                continue
            for da, db in ((darts[0], darts[2]), (darts[1], darts[3])):
                ia, ib = m.sidx[da >> 1], m.sidx[db >> 1]
                if abs(ia - ib) != 1:
                    v.append(
                        f"cross vertex {vid}: curve {m.scurve[da >> 1]} "
                        f"segments not consecutive ({ia},{ib})"
                    )
        else:
            v.append(f"vertex {vid} has unknown kind {m.vkind[vid]}")

    if v:
        return v

    # Euler formula per connected component (sphere pieces)
    comp = list(range(len(m.vkind)))

    def find(x):
        while comp[x] != x:
            comp[x] = comp[comp[x]]
            x = comp[x]
        return x

    for s in range(nseg):
        a, b = find(owned[2 * s]), find(owned[2 * s + 1])
        if a != b:
            comp[a] = b
    faces_per = {}
    for orbit in m.faces:
        faces_per.setdefault(find(owned[orbit[0]]), 0)
        faces_per[find(owned[orbit[0]])] += 1
    verts_per: dict[int, int] = {}
    segs_per: dict[int, int] = {}
    for vid in range(len(m.vkind)):
        verts_per[find(vid)] = verts_per.get(find(vid), 0) + 1
    for s in range(nseg):
        r = find(owned[2 * s])
        segs_per[r] = segs_per.get(r, 0) + 1
    for root, nv in verts_per.items():
        ne = segs_per.get(root, 0)
        nf = faces_per.get(root, 0)
        if nv - ne + nf != 2:
            v.append(
                f"component at vertex {root} violates the sphere Euler "
                f"formula: V={nv} E={ne} F={nf}"
            )

    # simplicity between drawn curves
    meet = m.meets
    drawn = [
        cid
        for cid, c in enumerate(m.curves)
        if c.kind in DRAWN_KINDS
    ]
    seen_edges = {}
    for cid in drawn:
        e = m.curves[cid].edge()
        if e in seen_edges:
            v.append(f"edge {e} drawn twice (curves {seen_edges[e]},{cid})")
        seen_edges[e] = cid
    for i, a in enumerate(drawn):
        for b in drawn[i + 1 :]:
            if not strict and (
                m.curves[a].kind == INSERTED or m.curves[b].kind == INSERTED
            ):
                continue
            shared = len(set(m.curves[a].edge()) & set(m.curves[b].edge()))
            total = shared + meet.get((a, b), 0)
            if total > 1:
                v.append(
                    f"curves {m.curves[a].edge()} and {m.curves[b].edge()} "
                    f"share {total} points"
                )

    # witness invariants (against original drawn edges)
    for cid, c in enumerate(m.curves):
        if c.kind != WITNESS:
            continue
        err = _reference_witness_violation(m, cid, seen_edges)
        if err:
            v.append(err)
    return v


def _reference_witness_violation(m, wid, edge_curve_of) -> str | None:
    w = m.curves[wid]
    e = w.edge()
    eid = edge_curve_of.get(e)
    if eid is None or m.curves[eid].kind != EDGE:
        return f"witness for {e} has no underlying edge curve"
    meet = m.meets
    if meet.get((min(wid, eid), max(wid, eid)), 0) > 0:
        return f"witness for {e} crosses its own edge"
    for f, fid in edge_curve_of.items():
        if m.curves[fid].kind != EDGE or fid == eid:
            continue
        shared = len(set(e) & set(f))
        total = (
            shared
            + meet.get((min(eid, fid), max(eid, fid)), 0)
            + meet.get((min(wid, fid), max(wid, fid)), 0)
        )
        if total > 1:
            return (
                f"closed curve of {e} meets edge {f} in {total} points"
            )
    return None


def reference_validate_witness(m: CombinatorialMap, e) -> bool:
    """Whether the stored witness arc for edge ``e`` is valid."""
    e = edge_key(*e)
    edge_curve_of = {
        c.edge(): cid for cid, c in enumerate(m.curves) if c.kind == EDGE
    }
    for cid, c in enumerate(m.curves):
        if c.kind == WITNESS and c.edge() == e:
            return _reference_witness_violation(m, cid, edge_curve_of) is None
    return False


def reference_check_simple_vs_original(m: CombinatorialMap, cid: int):
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


def permuted_layout(m: CombinatorialMap, rng) -> CombinatorialMap:
    """``m`` with its vertex ids and its segment ids shuffled and its
    darts renamed to match, a layout that ``freeze`` never gives; a dart
    out of range keeps its number."""
    nv, nseg = len(m.vkind), len(m.scurve)
    vorder = rng.sample(range(nv), nv)
    sorder = rng.sample(range(nseg), nseg)
    seg = {s: i for i, s in enumerate(sorder)}

    def dart(d):
        return 2 * seg[d >> 1] + (d & 1) if 0 <= d < 2 * nseg else d

    return CombinatorialMap(
        [m.vkind[v] for v in vorder],
        [m.vlabel[v] for v in vorder],
        [tuple(map(dart, m.vdarts[v])) for v in vorder],
        [m.scurve[s] for s in sorder],
        [m.sidx[s] for s in sorder],
        m.curves,
    )


def reference_faces(m: CombinatorialMap):
    """``(faces, face_of)`` as :attr:`CombinatorialMap.faces` and
    :attr:`CombinatorialMap.face_of` give them: the orbits of sigma o
    alpha, each from its smallest dart, in order of that dart, and each
    dart's orbit number.  Walks its own table of clockwise successors,
    read off ``m.vdarts``, with a dict for the darts seen."""
    sigma = {}
    for darts in m.vdarts:
        for i, d in enumerate(darts):
            sigma[d] = darts[(i + 1) % len(darts)]
    faces: list[tuple[int, ...]] = []
    face_of: dict[int, int] = {}
    for start in sorted(sigma):
        if start in face_of:
            continue
        orbit = []
        d = start
        while d not in face_of:
            face_of[d] = len(faces)
            orbit.append(d)
            d = sigma[d ^ 1]
        assert d == start, f"the walk from dart {start} ends in a loop at {d}"
        faces.append(tuple(orbit))
    return tuple(faces), tuple(face_of[d] for d in range(m.n_darts))


def reference_shared_points(m: CombinatorialMap) -> dict[tuple[int, int], int]:
    """Points shared by every pair of distinct curves ``(a, b)``, ``a <
    b``: the size of the intersection of their vertex chains, which reads
    neither ``meets`` nor the curves' endpoint labels."""
    pts = [set(m.curve_points(cid)) for cid in range(len(m.curves))]
    return {
        (a, b): len(pts[a] & pts[b])
        for a, b in combinations(range(len(pts)), 2)
    }


# ---------------------------------------------------------------------------
# Reference compaction: ``MapBuilder.freeze`` as it was when it numbered
# segments through a dict and listed the live darts of every vertex in a
# pass over all darts, reading each rotation from the smallest of them,
# kept so the version that maps the builder's dart lists through one list
# can be compared with it.


def reference_freeze(b: MapBuilder) -> CombinatorialMap:
    """Compact builder ``b`` to an immutable map with canonical ids."""
    seg_order = []
    for segs in b.csegs:
        seg_order.extend(segs)
    smapid = {s: i for i, s in enumerate(seg_order)}

    def newdart(d):
        return 2 * smapid[d >> 1] + (d & 1)

    # live darts per vertex in one pass, smallest first
    at = [[] for _ in b.vkind]
    for d, v in enumerate(b.dvert):
        if v >= 0 and b.scurve[d >> 1] >= 0:
            at[v].append(d)

    # Vertices: real sorted by label, then crossings by incident segments.
    real = [(b.vlabel[v], v) for v, k in enumerate(b.vkind) if k == "real"]
    real.sort()
    cross = []
    for v, k in enumerate(b.vkind):
        if k != "real":
            incid = sorted(smapid[d >> 1] for d in at[v] if (d >> 1) in smapid)
            if incid:
                cross.append((tuple(incid), v))
    cross.sort()
    vorder = [v for _, v in real] + [v for _, v in cross]

    vdarts = []
    for v in vorder:
        if not at[v]:
            vdarts.append(())
            continue
        r = b.rot[v]
        k = r.index(at[v][0])
        rot = [newdart(d) for d in r[k:] + r[:k]]
        k = rot.index(min(rot))
        vdarts.append(tuple(rot[k:] + rot[:k]))

    scurve = []
    sidx = []
    for cid, segs in enumerate(b.csegs):
        for i, s in enumerate(segs):
            assert smapid[s] == len(scurve)
            scurve.append(cid)
            sidx.append(i)
    curves = tuple(Curve(c.kind, c.u, c.v) for c in b.curves)
    return CombinatorialMap(
        [b.vkind[v] for v in vorder],
        [b.vlabel[v] for v in vorder],
        vdarts,
        scurve,
        sidx,
        curves,
    )


def reference_with_route(m: CombinatorialMap, kind, u_label, v_label, route):
    """``routing.with_route`` as it was before it spliced routes into the
    arrays of a frozen map: the whole map copied into a builder, the
    route applied there by ``_reference_apply_route`` and every array
    compacted again.  A route that starts in a face needs a label the
    map does not have.  Returns ``(map, curve_id)``."""
    if route.start[0] == "face" and u_label in m.real_by_label:
        raise InputError(
            f"route starts in a face but the map has vertex {u_label}"
        )
    b = MapBuilder.from_map(m)
    if route.start[0] == "face":
        b.new_vertex("real", u_label)
    cid = _reference_apply_route(b, kind, u_label, v_label, route)
    return reference_freeze(b), cid


# ``routing.apply_route`` and its gap checks as they were when every
# insertion copied the map into a builder, kept verbatim so that on the
# builder path the reference shares no route application with the
# ``with_route`` it checks.


def _reference_apply_route(
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
        d = replaced.get(g, g)
        _reference_require_gap_at(b, d, "start", g, u_label)
        b.insert_dart_after(d, d_start)
    else:
        u_vid = b.vlabel.index(u_label)
        if b.rot[u_vid]:
            raise _reference_face_start_error(u_label)
        b.set_rotation(u_vid, (d_start,))
    ge = route.end_gap
    d = replaced.get(ge, ge)
    _reference_require_gap_at(b, d, "end", ge, v_label)
    b.insert_dart_after(d, d_end)
    return cid


def _reference_face_start_error(label: int) -> InputError:
    return InputError(f"route starts in a face but vertex {label} has darts")


def _reference_gap_error(which: str, g: int, label: int) -> InputError:
    return InputError(f"route {which} gap {g} is not at vertex {label}")


def _reference_require_gap_at(
    b: MapBuilder, d: int, which: str, g: int, label: int
):
    """Raise unless dart ``d``, the builder's dart for the route's gap
    ``g``, is at the real vertex labelled ``label``."""
    vid = b.dvert[d] if 0 <= d < len(b.dvert) else -1
    if vid < 0 or b.vkind[vid] != "real" or b.vlabel[vid] != label:
        raise _reference_gap_error(which, g, label)


# ---------------------------------------------------------------------------
# Reference vertex extension: ``enumeration.extend_by_vertex`` as it was
# when its own recursion drew every star edge, the last one included,
# through ``with_route``, kept so the version that walks the star routes
# of ``enumeration._star_routes`` can be compared with it.


def reference_extend_by_vertex(
    m: CombinatorialMap, new_label: int, prune=None
):
    """Yield every drawing obtained from ``m`` by adding a vertex joined
    to all present vertices.

    ``prune(partial_map, done_targets)`` may reject partial insertions.
    """
    targets = m.real_labels()

    def rec(cur: CombinatorialMap, k: int):
        if k == len(targets):
            yield cur
            return
        t = targets[k]
        ends = (new_label, t)
        budget = {
            cid: 0 if c.u in ends or c.v in ends else 1
            for cid, c in enumerate(cur.curves)
        }
        if k == 0:
            sources = [("face", fid) for fid in range(len(cur.faces))]
        else:
            sources = [cur.real_by_label[new_label]]
        for source in sources:
            for route in iter_routes(cur, source, cur.real_by_label[t], budget):
                nxt, _ = with_route(cur, EDGE, new_label, t, route)
                if prune is not None and not prune(nxt, targets[: k + 1]):
                    continue
                yield from rec(nxt, k + 1)

    yield from rec(m, 0)


# ---------------------------------------------------------------------------
# Reference fix-up pair search: ``extension._violating_pair`` as it was
# when it built a ``MapBuilder`` and compared curve chains point by point,
# kept verbatim so the version reading ``meets`` can be compared with it.


def _reference_chain_points(b: MapBuilder, cid: int) -> list[int]:
    segs = b.csegs[cid]
    pts = [b.dvert[2 * segs[0]]]
    pts += [b.dvert[2 * s + 1] for s in segs]
    return pts


def _reference_common_points(b: MapBuilder, c1: int, c2: int) -> list[int]:
    """Common points of two curves, ordered along c1 (vertex ids;
    includes a shared real endpoint)."""
    pts1 = _reference_chain_points(b, c1)
    pts2 = set(_reference_chain_points(b, c2))
    return [p for p in pts1 if p in pts2]


def reference_violating_pair(m: CombinatorialMap):
    """First pair of inserted curves sharing at least two points, with
    the two common points consecutive along the first curve."""
    ins = [c for c, cu in enumerate(m.curves) if cu.kind == INSERTED]
    if len(ins) < 2:
        return None
    b = MapBuilder.from_map(m)
    for i, c1 in enumerate(ins):
        for c2 in ins[i + 1 :]:
            common = _reference_common_points(b, c1, c2)
            if len(common) >= 2:
                return c1, c2, common[0], common[1]
    return None


# ---------------------------------------------------------------------------
# Per-pair references for the triangle-side, g-convexity and crossing-free
# queries: each pair of edges is one ``reference_pair_crossing`` call, with
# no crossing masks and no reader shared across pairs.


def reference_same_triangle_side(tables, rs, T, u: int, v: int) -> bool:
    """Whether u and v lie on the same side of the triangle on T."""
    T = tuple(sorted(set(T)))
    if len(T) != 3:
        raise InputError(f"expected a vertex triple, got {T}")
    if u == v:
        raise InputError("u and v must differ")
    if u in T or v in T:
        raise InputError("u and v must not lie on the triangle")
    for x in (u, v) + T:
        if not 1 <= x <= rs.n:
            raise InputError(f"vertex {x} out of range 1..{rs.n}")
    count = 0
    for a, b in itertools.combinations(T, 2):
        if reference_pair_crossing(tables, rs, (u, v), (a, b)):
            count += 1
    return count % 2 == 0


def reference_triangle_sides(tables, rs, T):
    """Bipartition of the vertices off triangle T by side (one part may be
    empty)."""
    T = tuple(sorted(set(T)))
    others = [x for x in range(1, rs.n + 1) if x not in T]
    if not others:
        return frozenset(), frozenset()
    anchor = others[0]
    side_a, side_b = [anchor], []
    for x in others[1:]:
        if reference_same_triangle_side(tables, rs, T, anchor, x):
            side_a.append(x)
        else:
            side_b.append(x)
    return frozenset(side_a), frozenset(side_b)


def reference_is_g_convex(tables, rs) -> bool:
    """Whether every vertex triple has a side whose induced subdrawing
    stays inside it (no induced edge crosses the triangle)."""
    if rs.n <= 3:
        return True
    for T in itertools.combinations(range(1, rs.n + 1), 3):
        t_edges = list(itertools.combinations(T, 2))
        side_a, side_b = reference_triangle_sides(tables, rs, T)
        ok = False
        for cls in (side_a, side_b):
            members = tuple(sorted(cls)) + T
            good = True
            for x, y in itertools.combinations(members, 2):
                if x in T and y in T:
                    continue
                for te in t_edges:
                    if x in te or y in te:
                        continue
                    if reference_pair_crossing(tables, rs, (x, y), te):
                        good = False
                        break
                if not good:
                    break
            if good:
                ok = True
                break
        if not ok:
            return False
    return True


def reference_verify_crossing_free(tables, rs, edges) -> bool:
    """Whether no two of the given edges cross (adjacent pairs never do),
    once every edge is checked as the library checks it."""
    edges = [_checked_edge(rs, e) for e in edges]
    for e, f in itertools.combinations(edges, 2):
        if set(e) & set(f):
            continue
        if reference_pair_crossing(tables, rs, e, f):
            return False
    return True


# ---------------------------------------------------------------------------
# Eager flip candidates: every candidate of an edge listed at once, each
# flipped system built in full by ``RotationSystem(n, rows)``, which
# validates every row and inherits nothing from the system it came from.


@dataclass(frozen=True)
class ReferenceCandidate:
    """A candidate repositioning with its flipped system already built:
    ``new_rs`` is ``reference_reposition(rs, *move)``."""

    edge: tuple[int, int]
    swept: frozenset[int]
    move: tuple[int, int, int]
    new_rs: RotationSystem


def reference_reposition(rs: RotationSystem, v: int, w: int, t: int) -> RotationSystem:
    """Move w forward by t slots in the ccw rotation of v, and v forward
    by t slots in the cw rotation of w."""
    n = rs.n
    ccw_v = list(reversed(rs.rows[v - 1]))
    j = ccw_v.index(w)
    del ccw_v[j]
    ccw_v.insert((j + t) % (n - 2), w)
    cw_w = list(rs.rows[w - 1])
    j = cw_w.index(v)
    del cw_w[j]
    cw_w.insert((j + t) % (n - 2), v)
    rows = list(rs.rows)
    rows[v - 1] = tuple(reversed(ccw_v))
    rows[w - 1] = tuple(cw_w)
    return RotationSystem(n, rows)


def _reference_scan(rs: RotationSystem, v: int, w: int):
    """Parity scan along the ccw rotation of v and the cw rotation of w,
    both starting right after the other endpoint.  Emits (t, swept) at
    every return of the odd-parity counter to zero."""
    n = rs.n
    row_v = rs.rows[v - 1]
    row_w = rs.rows[w - 1]
    iv = row_v.index(w)
    iw = row_w.index(v)
    # ccw successor of position i in a cw-stored row is position i-1
    a_seq = [row_v[(iv - 1 - k) % (n - 1)] for k in range(n - 2)]
    b_seq = [row_w[(iw + 1 + k) % (n - 1)] for k in range(n - 2)]
    odd: set[int] = set()
    out = []
    for t in range(1, n - 1):
        for x in (a_seq[t - 1], b_seq[t - 1]):
            if x in odd:
                odd.discard(x)
            else:
                odd.add(x)
        if not odd:
            out.append((t, frozenset(a_seq[:t])))
    return out


def reference_flip_candidates(rs: RotationSystem, e) -> list[ReferenceCandidate]:
    """All candidate repositionings of ``e`` found by the parity scan run
    from both endpoints, ordered nearest-first.

    The full sweep across all other vertices leaves the rotation system
    unchanged (the edge is redrawn around the back); it is reported only
    when no proper repositioning exists, where it is the candidate that
    certifies uncrossed edges.
    """
    v, w = _checked_edge(rs, e)
    if rs.n < 3:
        return []
    found = []
    for t, swept in _reference_scan(rs, v, w):
        found.append((t, 0, swept, v, w))
    for t, swept in _reference_scan(rs, w, v):
        found.append((t, 1, swept, w, v))
    found.sort(key=lambda c: (c[0], c[1]))
    full = frozenset(x for x in range(1, rs.n + 1) if x not in (v, w))
    proper = [c for c in found if c[2] != full]
    chosen = proper if proper else found[:1]
    return [
        ReferenceCandidate(
            edge=(v, w), swept=swept, move=(a, b, t),
            new_rs=reference_reposition(rs, a, b, t),
        )
        for t, _, swept, a, b in chosen
    ]


def reference_is_valid_flip(tables, e, cand, old_cross) -> bool:
    """Whether ``cand.new_rs`` is realizable and ``e`` crosses none of
    ``old_cross`` in it, given that ``cand.rs`` is realizable: flip
    validation by rechecking the flipped system.

    A flip changes only the rotations of v and w, and in them the other
    endpoint moves only past members of the swept set S.  So an edge
    crossing ``e`` with no endpoint in S still crosses it (rejected at
    once), and only the 5-tuples {v,w,a,b,c} with {a,b,c} meeting S are
    rechecked (``is_realizable_touching``).  Once they pass, every quad
    {v,w,c,d} of the flipped system is realizable, and the old crossing
    edges are looked up in it (:func:`reference_pair_crossing`)."""
    if any(cand.swept.isdisjoint(f) for f in old_cross):
        return False
    new_rs = cand.new_rs
    if not is_realizable_touching(tables, new_rs, e, swept=cand.swept):
        return False
    return not any(
        reference_pair_crossing(tables, new_rs, e, f) for f in old_cross
    )


def reference_certificate_json(tables, rs) -> dict | None:
    """``certificate_json`` of :func:`is_separable` on a separable ``rs``,
    or None when some edge has no separator evidence, by the eager path:
    per edge, every candidate of :func:`reference_flip_candidates` listed
    at once, and the first that passes :func:`reference_is_valid_flip`
    taken.  Each entry is written from that candidate's own flipped
    system, which inherits nothing from ``rs``, and the old crossings of
    each edge come from :func:`reference_crossings_of_edge`."""
    _require_realizable(tables, rs)
    out = {}
    for e in rs.edges():
        v, w = e
        old_cross = reference_crossings_of_edge(tables, rs, e)
        if not old_cross:
            out[f"{v},{w}"] = "uncrossed"
            continue
        for cand in reference_flip_candidates(rs, e):
            if reference_is_valid_flip(tables, e, cand, old_cross):
                out[f"{v},{w}"] = {
                    "swept": sorted(cand.swept),
                    "new_rotations": {
                        str(x): list(cand.new_rs.rotation(x)) for x in e
                    },
                }
                break
        else:
            return None
    return out


def k4_consistent_unrealizable_k5(tables) -> list[RotationSystem]:
    """The labeled K5 systems outside ``tables.k5`` whose five
    4-subsystems are all realizable under ``tables.k4``: unrealizable,
    yet no single crossing query on them fails."""
    quads = list(combinations(range(1, 6), 4))
    systems = []
    for idx in range(6**5):
        rs = k5_system(idx)
        if idx not in tables.k5 and all(
            tables.k4[k4_index(rs, q)] != K4_UNREALIZABLE for q in quads
        ):
            systems.append(rs)
    return systems
