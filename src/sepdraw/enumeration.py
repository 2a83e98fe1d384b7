"""Exhaustive enumeration of good drawings of small complete graphs.

Drawings are generated by inserting one vertex at a time into every face
of every known drawing and routing its star through the planarization:
a new edge may cross each old edge at most once and never an edge
incident to one of its own endpoints (so the new star is crossing-free
within itself).  Deduplication is up to relabeling and reflection via
canonical keys.

The enumerator is the package's ground truth: the 4-vertex crossing
table and the realizable 5-vertex set are read off its drawings, and it
doubles as a constrained search to realize a given small rotation
system as an explicit map.
"""
from __future__ import annotations

import io
from dataclasses import dataclass
from importlib import resources

from .cmap import (
    EDGE,
    CombinatorialMap,
    MapBuilder,
    crossing_pairs_of_map,
    extract_rotation_system,
)
from .errors import InputError, InternalInvariantError, NotRealizableError
from .rotation import (
    K4_NO_CROSSING,
    K4_UNREALIZABLE,
    PAIR_BY_CODE,
    RealizabilityTables,
    RotationSystem,
    canonical_key,
    k4_index_of,
    k5_index_of,
    labeled_encoding,
    mirror,
    relabel,
    subrotation,
)
from .routing import apply_route, iter_routes

import itertools


@dataclass(frozen=True)
class EnumeratedDrawing:
    """One representative drawing per weak-isomorphism orbit."""

    map: CombinatorialMap
    rs: RotationSystem
    key: bytes


def triangle_map() -> CombinatorialMap:
    """The unique (up to reflection) drawing of K3."""
    b = MapBuilder()
    vids = {lab: b.new_vertex("real", lab) for lab in (1, 2, 3)}
    darts = {}
    for u, v in ((1, 2), (1, 3), (2, 3)):
        cid = b.new_curve(EDGE, u, v)
        s = b.new_segment(cid)
        b.csegs[cid] = [s]
        b.dvert[2 * s] = vids[u]
        b.dvert[2 * s + 1] = vids[v]
        darts[(u, v)] = 2 * s
        darts[(v, u)] = 2 * s + 1
    b.set_rotation(vids[1], (darts[(1, 2)], darts[(1, 3)]))
    b.set_rotation(vids[2], (darts[(2, 3)], darts[(2, 1)]))
    b.set_rotation(vids[3], (darts[(3, 1)], darts[(3, 2)]))
    return b.freeze()


def path_k2_map() -> CombinatorialMap:
    b = MapBuilder()
    v1 = b.new_vertex("real", 1)
    v2 = b.new_vertex("real", 2)
    cid = b.new_curve(EDGE, 1, 2)
    s = b.new_segment(cid)
    b.csegs[cid] = [s]
    b.attach_sole_dart(v1, 2 * s)
    b.attach_sole_dart(v2, 2 * s + 1)
    return b.freeze()


def extend_by_vertex(m: CombinatorialMap, new_label: int, prune=None):
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
        budget = {}
        for cid, c in enumerate(cur.curves):
            incident = new_label in c.edge() or t in c.edge()
            budget[cid] = 0 if incident else 1
        if k == 0:
            sources = [("face", fid) for fid in range(len(cur.faces))]
        else:
            sources = [cur.real_by_label[new_label]]
        for source in sources:
            for route in iter_routes(cur, source, cur.real_by_label[t], budget):
                b = MapBuilder.from_map(cur)
                if k == 0:
                    b.new_vertex("real", new_label)
                apply_route(b, EDGE, new_label, t, route)
                nxt = b.freeze()
                if prune is not None and not prune(nxt, targets[: k + 1]):
                    continue
                yield from rec(nxt, k + 1)

    yield from rec(m, 0)


def enumerate_good_drawings(
    n: int, extended: bool = False
) -> tuple[EnumeratedDrawing, ...]:
    """All good drawings of K_n up to relabeling and reflection.

    ``n`` = 7 must be requested explicitly via ``extended`` (the run takes
    far longer than the n <= 6 levels and is excluded from routine use).
    """
    if not 3 <= n <= 7:
        raise InputError("enumeration supports 3 <= n <= 7")
    if n == 7 and not extended:
        raise InputError("n=7 requires extended=True")
    reps = [_as_enumerated(triangle_map())]
    for k in range(4, n + 1):
        seen_labeled: set[bytes] = set()
        seen_keys: set[bytes] = set()
        new_reps = []
        for rep in reps:
            for ext in extend_by_vertex(rep.map, k):
                rs = extract_rotation_system(ext)
                enc = labeled_encoding(rs)
                if enc in seen_labeled:
                    continue
                seen_labeled.add(enc)
                key = canonical_key(rs)
                if key in seen_keys:
                    continue
                seen_keys.add(key)
                new_reps.append(EnumeratedDrawing(ext, rs, key))
        new_reps.sort(key=lambda d: d.key)
        reps = new_reps
    return tuple(reps)


def _as_enumerated(m: CombinatorialMap) -> EnumeratedDrawing:
    rs = extract_rotation_system(m)
    return EnumeratedDrawing(m, rs, canonical_key(rs))


# ---------------------------------------------------------------------------
# Table derivation


def build_tables() -> RealizabilityTables:
    """Derive the 4-vertex crossing table and the realizable 5-vertex set
    from the enumerated drawings.  Deterministic byte-for-byte."""
    k4 = [K4_UNREALIZABLE] * 16
    for rep in enumerate_good_drawings(4):
        cross = crossing_pairs_of_map(rep.map)
        if len(cross) > 1:
            raise InternalInvariantError(
                f"a K4 drawing with {len(cross)} crossings"
            )
        pair = next(iter(cross)) if cross else None
        for pi in itertools.permutations(range(1, 5)):
            perm = {i + 1: p for i, p in enumerate(pi)}
            for mirrored in (False, True):
                rs2 = relabel(
                    mirror(rep.rs) if mirrored else rep.rs, perm
                )
                idx = k4_index_of(rs2)
                if pair is None:
                    val = K4_NO_CROSSING
                else:
                    (a, b), (c, d) = pair
                    ea = tuple(sorted((perm[a], perm[b])))
                    eb = tuple(sorted((perm[c], perm[d])))
                    val = PAIR_BY_CODE.index(
                        (ea, eb) if ea < eb else (eb, ea)
                    )
                if k4[idx] not in (K4_UNREALIZABLE, val):
                    raise InternalInvariantError(
                        f"conflicting k4 classification at index {idx}"
                    )
                k4[idx] = val
    k5 = set()
    for rep in enumerate_good_drawings(5):
        for pi in itertools.permutations(range(1, 6)):
            perm = {i + 1: p for i, p in enumerate(pi)}
            for mirrored in (False, True):
                rs2 = relabel(
                    mirror(rep.rs) if mirrored else rep.rs, perm
                )
                k5.add(k5_index_of(rs2))
    return RealizabilityTables(k4=tuple(k4), k5=frozenset(k5))


def serialize_tables(tables: RealizabilityTables) -> str:
    out = io.StringIO()
    out.write("tables v1\n")
    for idx, val in enumerate(tables.k4):
        if val == K4_UNREALIZABLE:
            out.write(f"k4 {idx} unreal\n")
        elif val == K4_NO_CROSSING:
            out.write(f"k4 {idx} none\n")
        else:
            out.write(f"k4 {idx} cross {val}\n")
    k5 = sorted(tables.k5)
    out.write(f"k5 {len(k5)}\n")
    for idx in k5:
        out.write(f"{idx}\n")
    return out.getvalue()


def _table_field(toks, i: int, bound: int, line: str) -> int:
    """Token ``i`` of a tables line as an integer in 0..bound-1."""
    try:
        val = int(toks[i])
    except (IndexError, ValueError):
        raise InputError(f"bad tables line: {line!r}") from None
    if not 0 <= val < bound:
        raise InputError(f"value out of range in tables line: {line!r}")
    return val


def parse_tables(text: str) -> RealizabilityTables:
    """Parse the text written by :func:`serialize_tables`.  Every
    malformed line (bad or out-of-range index, pair code outside 0..2,
    truncated ``k5`` block) is an :class:`InputError`."""
    lines = [
        ln.strip()
        for ln in text.splitlines()
        if ln.strip() and not ln.startswith("#")
    ]
    if not lines or lines[0] != "tables v1":
        raise InputError("missing 'tables v1' header")
    k4 = [None] * 16
    k5 = set()
    k5_count = None
    i = 1
    while i < len(lines):
        line = lines[i]
        toks = line.split()
        if toks[0] == "k4":
            idx = _table_field(toks, 1, len(k4), line)
            if toks[2:] == ["unreal"]:
                k4[idx] = K4_UNREALIZABLE
            elif toks[2:] == ["none"]:
                k4[idx] = K4_NO_CROSSING
            elif len(toks) == 4 and toks[2] == "cross":
                k4[idx] = _table_field(toks, 3, len(PAIR_BY_CODE), line)
            else:
                raise InputError(f"bad k4 entry: {line}")
        elif toks[0] == "k5" and len(toks) == 2:
            k5_count = _table_field(toks, 1, 6**5 + 1, line)
            block = lines[i + 1 : i + 1 + k5_count]
            if len(block) < k5_count:
                raise InputError(
                    f"k5 block truncated: {len(block)} of {k5_count} lines"
                )
            for entry in block:
                k5.add(_table_field([entry], 0, 6**5, entry))
            i += k5_count
        else:
            raise InputError(f"unexpected tables line: {line}")
        i += 1
    if any(v is None for v in k4):
        raise InputError("k4 table incomplete")
    if k5_count != len(k5):
        raise InputError("k5 count mismatch")
    return RealizabilityTables(k4=tuple(k4), k5=frozenset(k5))


_DEFAULT_TABLES = None


def default_tables() -> RealizabilityTables:
    """The tables shipped with the package (built on first use if the
    data file is absent, e.g. in a source checkout before generation)."""
    global _DEFAULT_TABLES
    if _DEFAULT_TABLES is None:
        try:
            text = (
                resources.files("sepdraw.data")
                .joinpath("tables.tbl")
                .read_text()
            )
            _DEFAULT_TABLES = parse_tables(text)
        except (FileNotFoundError, ModuleNotFoundError):
            _DEFAULT_TABLES = build_tables()
    return _DEFAULT_TABLES


# ---------------------------------------------------------------------------
# Constrained realization


def realize(
    tables: RealizabilityTables, rs: RotationSystem
) -> CombinatorialMap:
    """An explicit drawing (map) with the given rotation system.

    Replays the insertion search constrained to match ``rs``; raises
    :class:`NotRealizableError` when the search exhausts, which happens
    exactly for non-realizable systems.
    """
    if rs.n > 7:
        raise InputError("realization supported for n <= 7 only")
    if rs.n == 1:
        raise InputError("cannot build a map with an isolated vertex")
    if rs.n == 2:
        return path_k2_map()
    cur = triangle_map()
    for k in range(4, rs.n + 1):
        target_sub = subrotation(rs, range(1, k + 1))

        def prune(mp, done, k=k, target_sub=target_sub):
            done_set = set(done)
            zr = _map_rotation(mp, k)
            want_z = tuple(
                x for x in target_sub.rotation(k) if x in done_set
            )
            if not _cyclic_eq(zr, want_z):
                return False
            t = done[-1]
            return _cyclic_eq(_map_rotation(mp, t), target_sub.rotation(t))

        found = None
        for ext in extend_by_vertex(cur, k, prune=prune):
            found = ext
            break
        if found is None:
            raise NotRealizableError(
                f"no drawing extends to the requested system at {k} vertices"
            )
        cur = found
    out = extract_rotation_system(cur)
    if out != rs:
        raise InternalInvariantError("realization does not match input")
    return cur


def _map_rotation(m: CombinatorialMap, label: int) -> tuple[int, ...]:
    vid = m.real_by_label[label]
    out = []
    for d in m.vdarts[vid]:
        c = m.curves[m.scurve[d >> 1]]
        out.append(c.u if c.v == label else c.v)
    return tuple(out)


def _cyclic_eq(a: tuple, b: tuple) -> bool:
    if len(a) != len(b):
        return False
    if not a:
        return True
    if len(a) == 1:
        return a == b
    try:
        i = b.index(a[0])
    except ValueError:
        return False
    return b[i:] + b[:i] == a
