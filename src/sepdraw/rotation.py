"""Rotation systems of complete graphs and table-driven crossing queries.

A rotation system stores, for each vertex of K_n, the clockwise cyclic
order of its incident edges (as the sorted-adjacent-vertex convention:
a sequence of the other vertex labels).  All crossing questions for
complete graphs reduce to lookups in two machine-derived tables: the
16-entry table for 4-vertex systems (which pair of independent edges
crosses, if any) and the set of realizable labeled 5-vertex systems.
Both tables are produced by the exhaustive small-drawing enumerator, so
no orientation or sign convention is hand-coded anywhere in this module.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import AdjacentEdgesError, InputError, RealizabilityError

Edge = tuple[int, int]

# Crossing-pair codes for labeled 4-vertex systems: the three ways to split
# {1,2,3,4} into two independent edges.
PAIR_BY_CODE = (
    ((1, 2), (3, 4)),
    ((1, 3), (2, 4)),
    ((1, 4), (2, 3)),
)
K4_UNREALIZABLE = -2
K4_NO_CROSSING = -1

# Rank of a 3-element ordering by relative size pattern, used to index the
# 6 cyclic orders a vertex of a 5-vertex system can have.
_RANK3 = {p: r for r, p in enumerate(itertools.permutations((0, 1, 2)))}


def _rank_by_comparisons() -> tuple[int, ...]:
    """``_RANK3`` re-keyed for :func:`k5_index`: entry
    ``4*(r0 < r1) + 2*(r0 < r2) + (r1 < r2)`` is the rank of the order
    that sorts three distinct values r0, r1, r2.  The two keys no order
    produces (cyclic comparison patterns) hold -1."""
    table = [-1] * 8
    for order, rank in _RANK3.items():
        r = [0, 0, 0]
        for place, i in enumerate(order):
            r[i] = place
        table[4 * (r[0] < r[1]) + 2 * (r[0] < r[2]) + (r[1] < r[2])] = rank
    return tuple(table)


_RANK_BY_CMP = _rank_by_comparisons()


def edge_key(u: int, v: int) -> Edge:
    if u == v:
        raise InputError(f"degenerate edge ({u},{v})")
    return (u, v) if u < v else (v, u)


def pair_key(e: Edge, f: Edge):
    return (e, f) if e <= f else (f, e)


class RotationSystem:
    """Immutable rotation system on vertex labels 1..n.

    Rotations are stored as linear sequences with an arbitrary anchor;
    equality and hashing compare cyclic orders, not linearizations.
    Answers that depend on a tables object (the realizability verdict and
    the crossing sets) are memoized per system together with that object.
    """

    __slots__ = ("n", "rows", "_norm", "_pos", "_realizable", "_crossings")

    def __init__(self, n: int, rows):
        if n < 1:
            raise InputError("vertex count must be >= 1")
        rows = tuple(tuple(r) for r in rows)
        if len(rows) != n:
            raise InputError(f"expected {n} rotations, got {len(rows)}")
        full = frozenset(range(1, n + 1))
        for v, row in enumerate(rows, start=1):
            if frozenset(row) != full - {v} or len(row) != n - 1:
                raise InputError(
                    f"rotation of vertex {v} is not a permutation of the "
                    f"other {n - 1} labels: {row}"
                )
        self.n = n
        self.rows = rows
        self._norm = None
        self._pos = None
        self._realizable = None
        self._crossings = None

    def rotation(self, v: int) -> tuple[int, ...]:
        if not 1 <= v <= self.n:
            raise InputError(f"vertex {v} out of range 1..{self.n}")
        return self.rows[v - 1]

    @property
    def normalized(self) -> tuple[tuple[int, ...], ...]:
        """Rows with each cyclic order rotated to start at its minimum."""
        if self._norm is None:
            self._norm = tuple(_roll_min(row) for row in self.rows)
        return self._norm

    @property
    def positions(self) -> tuple[list[int], ...]:
        """Per vertex, a list indexed by label: ``positions[v-1][x]`` is
        the index of x in the stored linearization of v's rotation.
        Entries 0 and v are unused.  Shared and cached: do not mutate."""
        if self._pos is None:
            pos = []
            for row in self.rows:
                p = [0] * (self.n + 1)
                for i, x in enumerate(row):
                    p[x] = i
                pos.append(p)
            self._pos = tuple(pos)
        return self._pos

    def edges(self):
        return [
            (u, v)
            for u in range(1, self.n + 1)
            for v in range(u + 1, self.n + 1)
        ]

    def __eq__(self, other):
        return (
            isinstance(other, RotationSystem)
            and self.n == other.n
            and self.normalized == other.normalized
        )

    def __hash__(self):
        return hash((self.n, self.normalized))

    def __repr__(self):
        return f"RotationSystem(n={self.n}, rows={self.rows!r})"


def _roll_min(row: tuple[int, ...]) -> tuple[int, ...]:
    if not row:
        return row
    i = row.index(min(row))
    return row[i:] + row[:i]


def convex(n: int) -> RotationSystem:
    """Rotation system of n points in convex position labeled clockwise."""
    return RotationSystem(
        n,
        [
            tuple((v - 1 + k) % n + 1 for k in range(1, n))
            for v in range(1, n + 1)
        ],
    )


def relabel(rs: RotationSystem, perm) -> RotationSystem:
    """Apply a permutation of labels. ``perm`` maps old label -> new label
    (a dict, or a sequence where perm[old-1] == new)."""
    if not isinstance(perm, dict):
        perm = {i + 1: p for i, p in enumerate(perm)}
    if sorted(perm) != list(range(1, rs.n + 1)) or sorted(
        perm.values()
    ) != list(range(1, rs.n + 1)):
        raise InputError(f"not a permutation of 1..{rs.n}: {perm}")
    rows = [()] * rs.n
    for v in range(1, rs.n + 1):
        rows[perm[v] - 1] = tuple(perm[x] for x in rs.rows[v - 1])
    return RotationSystem(rs.n, rows)


def mirror(rs: RotationSystem) -> RotationSystem:
    """Reverse every rotation (reflection of the drawing)."""
    return RotationSystem(rs.n, [tuple(reversed(r)) for r in rs.rows])


def subrotation(rs: RotationSystem, subset) -> RotationSystem:
    """Induced rotation system on a vertex subset, relabeled
    order-preservingly to 1..|subset|."""
    sub = sorted(set(subset))
    if not sub:
        raise InputError("vertex subset must be non-empty")
    if sub[0] < 1 or sub[-1] > rs.n:
        raise InputError(f"subset {sub} contains labels outside 1..{rs.n}")
    new = {x: i + 1 for i, x in enumerate(sub)}
    keep = set(sub)
    rows = [
        tuple(new[x] for x in rs.rows[v - 1] if x in keep) for v in sub
    ]
    return RotationSystem(len(sub), rows)


# ---------------------------------------------------------------------------
# Realizability tables


@dataclass(frozen=True)
class RealizabilityTables:
    """Crossing table for labeled 4-vertex systems plus the realizable set
    of labeled 5-vertex systems.

    ``k4`` has 16 entries indexed by :func:`k4_index`; each is
    ``K4_UNREALIZABLE``, ``K4_NO_CROSSING`` or a pair code 0..2 selecting
    an entry of ``PAIR_BY_CODE``.  ``k5`` holds indices per
    :func:`k5_index` of all realizable labeled 5-vertex systems.
    """

    k4: tuple[int, ...]
    k5: frozenset[int]

    def __post_init__(self):
        if len(self.k4) != 16:
            raise InputError("k4 table must have exactly 16 entries")


def _cyclic_ascending(pos: list[int], a: int, b: int, c: int, L: int) -> bool:
    pa, pb, pc = pos[a], pos[b], pos[c]
    return (pb - pa) % L < (pc - pa) % L


def k4_index(rs: RotationSystem, quad: tuple[int, int, int, int]) -> int:
    """Index of the induced labeled 4-vertex system of a sorted quad."""
    L = rs.n - 1
    pos = rs.positions
    idx = 0
    for bit, v in enumerate(quad):
        a, b, c = (x for x in quad if x != v)
        if not _cyclic_ascending(pos[v - 1], a, b, c, L):
            idx |= 1 << bit
    return idx


def k4_index_of(rs4: RotationSystem) -> int:
    """Index of a labeled 4-vertex system."""
    if rs4.n != 4:
        raise InputError("expected a 4-vertex rotation system")
    return k4_index(rs4, (1, 2, 3, 4))


def k5_index(rs: RotationSystem, quint: tuple[int, ...]) -> int:
    """Index of the induced labeled 5-vertex system of a sorted quintuple.

    Digit i (base 6, least significant first) describes vertex quint[i]:
    the rank, per ``_RANK3``, of the order in which the last three of its
    four neighbours in the quintuple follow the first one in its rotation.
    Each digit is read from three comparisons of cyclic offsets, without
    building tuples or sorting.
    """
    L = rs.n - 1
    pos = rs.positions
    rank = _RANK_BY_CMP
    a, b, c, d, e = quint
    p = pos[a - 1]
    q = p[b]
    x, y, z = (p[c] - q) % L, (p[d] - q) % L, (p[e] - q) % L
    idx = rank[4 * (x < y) + 2 * (x < z) + (y < z)]
    p = pos[b - 1]
    q = p[a]
    x, y, z = (p[c] - q) % L, (p[d] - q) % L, (p[e] - q) % L
    idx += 6 * rank[4 * (x < y) + 2 * (x < z) + (y < z)]
    p = pos[c - 1]
    q = p[a]
    x, y, z = (p[b] - q) % L, (p[d] - q) % L, (p[e] - q) % L
    idx += 36 * rank[4 * (x < y) + 2 * (x < z) + (y < z)]
    p = pos[d - 1]
    q = p[a]
    x, y, z = (p[b] - q) % L, (p[c] - q) % L, (p[e] - q) % L
    idx += 216 * rank[4 * (x < y) + 2 * (x < z) + (y < z)]
    p = pos[e - 1]
    q = p[a]
    x, y, z = (p[b] - q) % L, (p[c] - q) % L, (p[d] - q) % L
    return idx + 1296 * rank[4 * (x < y) + 2 * (x < z) + (y < z)]


def k5_index_of(rs5: RotationSystem) -> int:
    if rs5.n != 5:
        raise InputError("expected a 5-vertex rotation system")
    return k5_index(rs5, (1, 2, 3, 4, 5))


def k5_system(index: int) -> RotationSystem:
    """Inverse of :func:`k5_index_of`."""
    if not 0 <= index < 6**5:
        raise InputError(f"k5 index out of range: {index}")
    rows = []
    for v in range(1, 6):
        others = [x for x in range(1, 6) if x != v]
        rank, index = index % 6, index // 6
        rest = list(itertools.permutations(others[1:]))[rank]
        rows.append((others[0],) + rest)
    return RotationSystem(5, rows)


def pair_crossing(
    tables: RealizabilityTables, rs: RotationSystem, e, f
) -> bool:
    """Whether two independent edges cross, per the 4-vertex table."""
    e = edge_key(*e)
    f = edge_key(*f)
    if set(e) & set(f):
        raise AdjacentEdgesError(
            f"edges {e} and {f} share an endpoint; adjacent edges never cross"
        )
    quad = tuple(sorted(e + f))
    entry = tables.k4[k4_index(rs, quad)]
    if entry == K4_UNREALIZABLE:
        raise RealizabilityError(
            f"4-vertex subsystem on {quad} is not realizable", quad
        )
    if entry == K4_NO_CROSSING:
        return False
    local = {x: i + 1 for i, x in enumerate(quad)}
    le = tuple(sorted((local[e[0]], local[e[1]])))
    pa, pb = PAIR_BY_CODE[entry]
    return le in (pa, pb)


def crossings_of_edge(
    tables: RealizabilityTables, rs: RotationSystem, e
) -> frozenset[Edge]:
    """All edges crossing ``e``."""
    e = edge_key(*e)
    out = []
    rest = [x for x in range(1, rs.n + 1) if x not in e]
    for c, d in itertools.combinations(rest, 2):
        if pair_crossing(tables, rs, e, (c, d)):
            out.append((c, d))
    return frozenset(out)


@dataclass(frozen=True)
class CrossingPairSet:
    """Unordered pairs of independent edges that cross."""

    pairs: frozenset[tuple[Edge, Edge]]

    def __contains__(self, pair):
        e, f = pair
        return pair_key(edge_key(*e), edge_key(*f)) in self.pairs

    def __len__(self):
        return len(self.pairs)

    def edges_crossing(self, e) -> frozenset[Edge]:
        e = edge_key(*e)
        return frozenset(
            f if g == e else g for g, f in self.pairs if e in (g, f)
        )

    def is_uncrossed(self, e) -> bool:
        e = edge_key(*e)
        return all(e not in p for p in self.pairs)


def crossing_pairs(
    tables: RealizabilityTables, rs: RotationSystem
) -> CrossingPairSet:
    """The crossing pairs determined by the rotation system."""
    pairs = []
    for quad in itertools.combinations(range(1, rs.n + 1), 4):
        entry = tables.k4[k4_index(rs, quad)]
        if entry == K4_UNREALIZABLE:
            raise RealizabilityError(
                f"4-vertex subsystem on {quad} is not realizable", quad
            )
        if entry == K4_NO_CROSSING:
            continue
        pa, pb = PAIR_BY_CODE[entry]
        ea = edge_key(quad[pa[0] - 1], quad[pa[1] - 1])
        eb = edge_key(quad[pb[0] - 1], quad[pb[1] - 1])
        pairs.append(pair_key(ea, eb))
    return CrossingPairSet(frozenset(pairs))


def crossing_sets(
    tables: RealizabilityTables, rs: RotationSystem
) -> dict[Edge, frozenset[Edge]]:
    """The edges crossing each edge, from one :func:`crossing_pairs`
    sweep; memoized on ``rs`` per tables object."""
    memo = rs._crossings
    if memo is None or memo[0] is not tables:
        sets: dict[Edge, set[Edge]] = {e: set() for e in rs.edges()}
        for e, f in crossing_pairs(tables, rs).pairs:
            sets[e].add(f)
            sets[f].add(e)
        memo = rs._crossings = (
            tables,
            {e: frozenset(s) for e, s in sets.items()},
        )
    return memo[1]


def is_realizable(tables: RealizabilityTables, rs: RotationSystem) -> bool:
    """Realizability via the 5-vertex criterion (table lookups for n <= 4).

    The verdict is memoized on ``rs`` per tables object; see
    :func:`known_realizable`.
    """
    memo = rs._realizable
    if memo is None or memo[0] is not tables:
        if rs.n <= 3:
            verdict = True
        elif rs.n == 4:
            verdict = tables.k4[k4_index(rs, (1, 2, 3, 4))] != K4_UNREALIZABLE
        else:
            verdict = all(
                k5_index(rs, quint) in tables.k5
                for quint in itertools.combinations(range(1, rs.n + 1), 5)
            )
        memo = rs._realizable = (tables, verdict)
    return memo[1]


def known_realizable(tables: RealizabilityTables, rs: RotationSystem) -> bool:
    """Whether :func:`is_realizable` has already found ``rs`` realizable
    under ``tables``.  Never computes anything."""
    memo = rs._realizable
    return memo is not None and memo[0] is tables and memo[1]


def is_realizable_touching(
    tables: RealizabilityTables, rs: RotationSystem, e, swept=None
) -> bool:
    """Realizability recheck of ``rs`` after edge ``e`` = {v,w} was
    repositioned.

    Only the rotations of v and w changed, so only the 5-tuples containing
    both endpoints are checked.  By Kynčl's 5-tuple criterion (a system is
    realizable iff all its 5-vertex subsystems are), that decides
    realizability when the system before the move was realizable.

    ``swept``, the set S that e moved across, narrows the check further on
    the same assumption: in the rotations of v and w the other endpoint
    moved only past members of S, so a 5-tuple {v,w,a,b,c} with {a,b,c}
    disjoint from S keeps its table entry, and only the 5-tuples meeting S
    are checked.
    """
    v, w = edge_key(*e)
    if rs.n <= 3:
        return True
    if rs.n == 4:
        return tables.k4[k4_index(rs, (1, 2, 3, 4))] != K4_UNREALIZABLE
    rest = [x for x in range(1, rs.n + 1) if x != v and x != w]
    for triple in itertools.combinations(rest, 3):
        if swept is not None and swept.isdisjoint(triple):
            continue
        quint = tuple(sorted((v, w) + triple))
        if k5_index(rs, quint) not in tables.k5:
            return False
    return True


# ---------------------------------------------------------------------------
# Triangle sides and generalized convexity


def same_triangle_side(
    tables: RealizabilityTables, rs: RotationSystem, T, u: int, v: int
) -> bool:
    """Whether u and v lie on the same side of the triangle on T.

    Decided by the parity of crossings between edge {u,v} and the three
    triangle edges: a simple arc switches sides once per crossing with the
    closed triangle curve.
    """
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
        if pair_crossing(tables, rs, (u, v), (a, b)):
            count += 1
    return count % 2 == 0


def triangle_sides(
    tables: RealizabilityTables, rs: RotationSystem, T
) -> tuple[frozenset[int], frozenset[int]]:
    """Bipartition of the vertices off triangle T by side (one part may be
    empty)."""
    T = tuple(sorted(set(T)))
    others = [x for x in range(1, rs.n + 1) if x not in T]
    if not others:
        return frozenset(), frozenset()
    anchor = others[0]
    side_a, side_b = [anchor], []
    for x in others[1:]:
        if same_triangle_side(tables, rs, T, anchor, x):
            side_a.append(x)
        else:
            side_b.append(x)
    return frozenset(side_a), frozenset(side_b)


def is_g_convex(tables: RealizabilityTables, rs: RotationSystem) -> bool:
    """Whether every vertex triple has a side whose induced subdrawing
    stays inside it (no induced edge crosses the triangle)."""
    if rs.n <= 3:
        return True
    for T in itertools.combinations(range(1, rs.n + 1), 3):
        t_edges = list(itertools.combinations(T, 2))
        side_a, side_b = triangle_sides(tables, rs, T)
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
                    if pair_crossing(tables, rs, (x, y), te):
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


# ---------------------------------------------------------------------------
# Canonical forms


def _encoding_matrix(rs: RotationSystem) -> np.ndarray:
    return np.array(rs.rows, dtype=np.uint8)


def _orbit_encodings(rs: RotationSystem) -> np.ndarray:
    """All normalized labeled encodings of the orbit of ``rs`` under
    relabeling and mirroring, one flat row per group element."""
    n = rs.n
    m = n - 1
    perms = np.array(
        list(itertools.permutations(range(1, n + 1))), dtype=np.uint8
    )
    order = np.argsort(perms, axis=1)
    base = _encoding_matrix(rs)
    variants = [base, base[:, ::-1]] if m > 1 else [base]
    outs = []
    for mat in variants:
        relabeled = perms[:, mat - 1]  # [P, n, m], entries mapped
        rows = relabeled[np.arange(len(perms))[:, None], order]
        am = np.argmin(rows, axis=2)
        take = (am[..., None] + np.arange(m)) % m
        normed = np.take_along_axis(rows, take, axis=2)
        outs.append(normed.reshape(len(perms), n * m))
    return np.concatenate(outs, axis=0)


def labeled_encoding(rs: RotationSystem) -> bytes:
    """Byte encoding of this labeled system (normalized linearization)."""
    return b"".join(bytes(r) for r in rs.normalized)


def canonical_key(rs: RotationSystem) -> bytes:
    """Minimal encoding over all relabelings, mirrorings and cyclic
    re-linearizations; equal keys identify the same orbit.

    The encoding of a labeled system lists the rotations of vertices
    1..n, each rolled to start at its minimum, so row 1 is a permutation
    of 2..n and is at least (2, ..., n).  A labeling reaches that bound
    exactly when it gives label 1 to some vertex v and labels 2..n to
    v's rotation in order, read from one of its n-1 starts.  The orbit
    minimum is therefore the minimum over these 2n(n-1) labelings (both
    orientations), not over all 2·n! of :func:`_orbit_encodings`.  Every
    other row then starts at 1, the new label of v, so each candidate is
    the rotations of v's neighbours read from v, relabeled.
    """
    n = rs.n
    if n == 1:
        return bytes([1])
    m = n - 1
    best = None
    for rows in (rs.rows, tuple(r[::-1] for r in rs.rows)):
        for v in range(1, n + 1):
            rot = rows[v - 1]
            # rows 2..n for start 0: each neighbour's rotation read from
            # v; start s rolls this by s rows
            flat = []
            for w in rot:
                row = rows[w - 1]
                i = row.index(v)
                flat += row[i:] + row[:i]
            for s in range(m):
                lab = [0] * (n + 1)
                lab[v] = 1
                for i, x in enumerate(rot[s:] + rot[:s], start=2):
                    lab[x] = i
                cut = s * m
                cand = list(map(lab.__getitem__, flat[cut:] + flat[:cut]))
                if best is None or cand < best:
                    best = cand
    return bytes([n, *range(2, n + 1), *best])


# ---------------------------------------------------------------------------
# Text format: one record is a line ``n=<k>`` followed by k rotation lines
# ``<v>: <l1> <l2> ...``; records are separated by blank lines and ``#``
# starts a comment line.


def parse_crs(text: str) -> list[RotationSystem]:
    records: list[RotationSystem] = []
    cur_n = None
    cur_rows: dict[int, tuple[int, ...]] = {}

    def flush():
        nonlocal cur_n, cur_rows
        if cur_n is None:
            return
        expected = range(1, cur_n + 1)
        if len(cur_rows) != cur_n or not all(v in expected for v in cur_rows):
            # ``n`` may be huge: list at most a few absent labels
            absent = (v for v in expected if v not in cur_rows)
            raise InputError(
                f"record with n={cur_n} is missing rotations for vertices "
                f"{list(itertools.islice(absent, 20))}"
            )
        records.append(
            RotationSystem(cur_n, [cur_rows[v] for v in range(1, cur_n + 1)])
        )
        cur_n = None
        cur_rows = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line.startswith("#"):
            continue
        if not line:
            flush()
            continue
        if line.startswith("n"):
            head = line.replace(" ", "")
            if not head.startswith("n="):
                raise InputError(f"line {lineno}: expected 'n=<k>'")
            flush()
            try:
                cur_n = int(head[2:])
            except ValueError:
                raise InputError(f"line {lineno}: bad vertex count") from None
            if cur_n < 1:
                raise InputError(f"line {lineno}: vertex count must be >= 1")
            continue
        if ":" not in line:
            raise InputError(f"line {lineno}: expected '<v>: <rotation>'")
        if cur_n is None:
            raise InputError(f"line {lineno}: rotation before 'n=<k>'")
        head, _, tail = line.partition(":")
        try:
            v = int(head)
            row = tuple(int(t) for t in tail.split())
        except ValueError:
            raise InputError(f"line {lineno}: bad integer") from None
        if v in cur_rows:
            raise InputError(f"line {lineno}: duplicate rotation for {v}")
        cur_rows[v] = row
    flush()
    if not records:
        raise InputError("no rotation-system records found")
    return records


def serialize_crs(records) -> str:
    if isinstance(records, RotationSystem):
        records = [records]
    chunks = []
    for rs in records:
        lines = [f"n={rs.n}"]
        lines += [
            f"{v}: " + " ".join(str(x) for x in rs.rows[v - 1])
            for v in range(1, rs.n + 1)
        ]
        chunks.append("\n".join(lines))
    return "\n\n".join(chunks) + "\n"
