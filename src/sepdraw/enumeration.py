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
    crossing_pairs_of_map,
    drawn_rotation,
    extract_rotation_system,
    from_two_page,
)
from .errors import InputError, InternalInvariantError, NotRealizableError
from .rotation import (
    K4_NO_CROSSING,
    K4_UNREALIZABLE,
    PAIR_BY_CODE,
    RealizabilityTables,
    RotationSystem,
    _flipped,
    _roll_min,
    canonical_key,
    convex,
    crossing_masks,
    edge_index,
    is_realizable,
    k4_index,
    k4_index_of,
    k4_system,
    k5_index_of,
    k5_system,
    mirror,
    relabel,
    relabel_pair_code,
    subrotation,
)
from .routing import iter_routes, with_route
from .separability import _candidates, _fault

import itertools


@dataclass(frozen=True)
class EnumeratedDrawing:
    """One representative drawing per weak-isomorphism orbit."""

    map: CombinatorialMap
    rs: RotationSystem
    key: bytes


def triangle_map() -> CombinatorialMap:
    """The unique (up to reflection) drawing of K3."""
    return from_two_page(
        (1, 2, 3), ((1, 2), (1, 3), (2, 3)), ("upper",) * 3, witnesses=False
    )[0]


def path_k2_map() -> CombinatorialMap:
    """The drawing of K2."""
    return from_two_page((1, 2), ((1, 2),), ("upper",), witnesses=False)[0]


def extend_by_vertex(m: CombinatorialMap, new_label: int, prune=None):
    """Yield every drawing obtained from ``m`` by adding a vertex joined
    to all present vertices.

    ``prune(partial_map, done_targets)`` may reject partial insertions.
    """
    targets = m.real_labels()
    for cur, t, route in _star_routes(m, new_label, prune):
        ext, _ = with_route(cur, EDGE, new_label, t, route)
        if prune is None or prune(ext, targets):
            yield ext


def _star_routes(m: CombinatorialMap, new_label: int, prune=None):
    """Yield ``(cur, t, route)`` for every way to draw the star of a new
    vertex ``new_label`` into ``m``, in the order of
    :func:`extend_by_vertex`: ``cur`` has every star edge drawn but the
    last, ``new_label``-``t``, and ``route`` draws that one in ``cur``.
    Each earlier edge is drawn by :func:`with_route` and filtered by
    ``prune``; drawing the last is left to the caller."""
    targets = m.real_labels()
    last = len(targets) - 1

    def rec(cur: CombinatorialMap, k: int):
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
                if k == last:
                    yield cur, t, route
                    continue
                nxt, _ = with_route(cur, EDGE, new_label, t, route)
                if prune is not None and not prune(nxt, targets[: k + 1]):
                    continue
                yield from rec(nxt, k + 1)

    yield from rec(m, 0)


def _leaf_rows(cur: CombinatorialMap, rows, new_label: int, t: int, route):
    """Normalized rows of the drawing ``cur`` with the edge
    ``new_label``-``t`` drawn along ``route``, a route of
    :func:`_star_routes` out of a gap at ``new_label``.

    ``rows`` holds the normalized drawn rotations of ``cur`` for labels
    1..new_label.  The new edge leaves ``new_label`` clockwise after the
    dart ``route.start[1]`` and enters ``t`` clockwise after
    ``route.end_gap``; both darts lie on edges at their own vertex
    (which the route may not cross), and every curve of an enumerated
    drawing is an edge, so only two rows change: each gains the other
    end right after the neighbour across its dart."""
    out = list(rows)
    ends = ((new_label, t, route.start[1]), (t, new_label, route.end_gap))
    for v, w, g in ends:
        c = cur.curves[cur.scurve[g >> 1]]
        row = rows[v - 1]
        i = row.index(c.u if c.v == v else c.v) + 1
        out[v - 1] = _roll_min(row[:i] + (w,) + row[i:])
    return tuple(out)


def enumerate_good_drawings(
    n: int, extended: bool = False
) -> tuple[EnumeratedDrawing, ...]:
    """All good drawings of K_n up to relabeling and reflection.

    ``n`` = 7 must be requested explicitly via ``extended`` (the run takes
    far longer than the n <= 6 levels and is excluded from routine use).

    A leaf of :func:`_star_routes` is deduplicated on the rotation system
    :func:`_leaf_rows` reads off its last route, and its map is built
    only when it starts a new orbit.
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
            base = None
            for cur, t, route in _star_routes(rep.map, k):
                if cur is not base:
                    # consecutive leaves share their last partial drawing
                    base = cur
                    rows = [
                        _roll_min(drawn_rotation(cur, v))
                        for v in range(1, k + 1)
                    ]
                leaf = _leaf_rows(cur, rows, k, t, route)
                enc = b"".join(map(bytes, leaf))
                if enc in seen_labeled:
                    continue
                seen_labeled.add(enc)
                rs = RotationSystem.__new__(RotationSystem)
                rs._set(k, leaf)
                key = canonical_key(rs)
                if key in seen_keys:
                    continue
                seen_keys.add(key)
                ext, _ = with_route(cur, EDGE, k, t, route)
                # serialize_crs prints the stored rows, so they are read
                # off the map rather than taken from the leaf rows
                new_reps.append(
                    EnumeratedDrawing(ext, extract_rotation_system(ext), key)
                )
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
                    val = relabel_pair_code(PAIR_BY_CODE.index(pair), perm)
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


def check_tables(tables: RealizabilityTables) -> None:
    """Raise :class:`InputError` unless ``tables`` is internally
    consistent: every realizable labeled 5-vertex system has only
    realizable 4-vertex subsystems, the k5 set is closed under
    relabeling and mirroring, the k4 table maps to itself under
    relabeling (with its pair codes relabeled) and mirroring, the two
    flip-validation rules of :mod:`sepdraw.separability` hold, and the
    convex K5 is in ``k5`` (so ``k5`` is not empty).
    Closure is checked on the generators (1 2) and (1 2 ... k) of S_k
    and on ``mirror``; a finite set closed under generators is closed
    under the group they generate."""
    quads = list(itertools.combinations(range(1, 6), 4))
    swap = {1: 2, 2: 1, 3: 3, 4: 4, 5: 5}
    cycle = {1: 2, 2: 3, 3: 4, 4: 5, 5: 1}
    for idx in sorted(tables.k5):
        rs = k5_system(idx)
        for quad in quads:
            if tables.k4[k4_index(rs, quad)] == K4_UNREALIZABLE:
                raise InputError(
                    f"inconsistent tables: k5 entry {idx} has an "
                    f"unrealizable 4-vertex subsystem on {quad}"
                )
        for name, image in (
            ("(1 2)", relabel(rs, swap)),
            ("(1 2 3 4 5)", relabel(rs, cycle)),
            ("mirror", mirror(rs)),
        ):
            j = k5_index_of(image)
            if j not in tables.k5:
                raise InputError(
                    f"inconsistent tables: k5 entry {idx} maps to {j} "
                    f"under {name}, which is absent"
                )
    swap = {1: 2, 2: 1, 3: 3, 4: 4}
    cycle = {1: 2, 2: 3, 3: 4, 4: 1}
    identity = {x: x for x in range(1, 5)}
    for idx, entry in enumerate(tables.k4):
        rs = k4_system(idx)
        for name, image, perm in (
            ("(1 2)", relabel(rs, swap), swap),
            ("(1 2 3 4)", relabel(rs, cycle), cycle),
            ("mirror", mirror(rs), identity),
        ):
            j = k4_index_of(image)
            want = relabel_pair_code(entry, perm)
            if tables.k4[j] != want:
                raise InputError(
                    f"inconsistent tables: k4 entry {idx} maps to entry "
                    f"{j} under {name}, which holds {tables.k4[j]}, not "
                    f"{want}"
                )
    _check_flip_rules(tables)
    convex5 = k5_index_of(convex(5))
    if convex5 not in tables.k5:
        raise InputError(
            f"inconsistent tables: k5 lacks entry {convex5}, the convex K5"
        )


def _check_flip_rules(tables: RealizabilityTables) -> None:
    """Raise :class:`InputError` unless rules (a) and (b) of
    :mod:`sepdraw.separability` decide every candidate flip of every
    edge of every realizable labeled K4 and K5 as the tables do: the
    flip is valid iff the flipped system is realizable and the edge
    crosses none of its old crossing edges.

    On a larger system, the flip restricted to a quad or 5-tuple through
    the edge that it changes is one of these candidates, so the rules
    hold there too.  Assumes the checks before it in
    :func:`check_tables`: the crossing masks of a realizable K5 then
    read only realizable quads."""
    systems = [
        (k4_system(idx), f"k4 entry {idx}")
        for idx, entry in enumerate(tables.k4)
        if entry != K4_UNREALIZABLE
    ]
    systems += [(k5_system(idx), f"k5 entry {idx}") for idx in sorted(tables.k5)]
    for rs, name in systems:
        masks = crossing_masks(tables, rs)
        index = edge_index(rs.n)
        for v, w in rs.edges():
            i = index.index[v][w]
            scan = _candidates(rs, v, w, index.star)
            for seq, a, b, t, cut, touched in scan:
                fault = _fault(index, (v, w), cut, touched, masks)
                new = _flipped(rs, a, b, t)
                realizable = is_realizable(tables, new)
                valid = realizable and not (
                    crossing_masks(tables, new)[i] & masks[i]
                )
                if (fault is None) == valid:
                    continue
                if len(fault or ()) == 5 or (not realizable and rs.n == 5):
                    rule = "(b), realizability"
                else:
                    rule = "(a), crossings"
                raise InputError(
                    f"inconsistent tables: flipping edge {(v, w)} of {name} "
                    f"across {sorted(seq[:t])} breaks flip rule {rule}: "
                    f"the rules call it {'valid' if fault is None else 'invalid'}, "
                    f"the tables {'valid' if valid else 'invalid'}"
                )


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

        # each row lists distinct labels, so two rows agree up to
        # rotation exactly when their _roll_min forms are equal
        def prune(mp, done, k=k, target_sub=target_sub):
            done_set = set(done)
            want_z = tuple(
                x for x in target_sub.rotation(k) if x in done_set
            )
            if _roll_min(drawn_rotation(mp, k)) != _roll_min(want_z):
                return False
            t = done[-1]
            return _roll_min(drawn_rotation(mp, t)) == _roll_min(
                target_sub.rotation(t)
            )

        found = next(extend_by_vertex(cur, k, prune=prune), None)
        if found is None:
            raise NotRealizableError(
                f"no drawing extends to the requested system at {k} vertices"
            )
        cur = found
    out = extract_rotation_system(cur)
    if out != rs:
        raise InternalInvariantError("realization does not match input")
    return cur

