"""Independent brute-force oracles used to freeze expected values.

The geometric oracle reads rotation systems and crossing pairs straight
off point coordinates (straight-line drawings), with no shared code with
the table-driven pipeline under test.
"""
from __future__ import annotations

import math
from itertools import combinations, permutations

from sepdraw.rotation import RotationSystem, edge_key, pair_key


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
    the order a, b, c around ``quad[i]``."""
    idx = 0
    for bit, v in enumerate(quad):
        others = [x for x in quad if x != v]
        if _cyclic_sequence(rs.rotation(v), others) != others:
            idx |= 1 << bit
    return idx


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
