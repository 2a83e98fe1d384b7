"""Rotation systems of complete graphs and table-driven crossing queries.

A rotation system stores, for each vertex of K_n, the clockwise cyclic
order of its incident edges (as the sorted-adjacent-vertex convention:
a sequence of the other vertex labels).  All crossing questions for
complete graphs reduce to lookups in two machine-derived tables: the
16-entry table for 4-vertex systems (which pair of independent edges
crosses, if any) and the set of realizable labeled 5-vertex systems.
Both tables are produced by the exhaustive small-drawing enumerator, so
no orientation or sign convention is hand-coded anywhere in this module.

Crossings are memoized as one integer bitmask per edge
(:func:`crossing_masks`, indexed by :func:`edge_index`), in one memo per
system together with the realizability verdict, which
:func:`subrotation` hands down to induced subsystems of a realizable
system.  Every crossing query reads those masks: the first query on a
system pays for one sweep over all its quads, later ones read bits, and
on a system with an unrealizable quad every query raises the sweep's
:class:`RealizabilityError`.  The sweep builds the offset rows it reads
(:func:`_rows_from`) once each and drops them when it returns.

The same sweep decides realizability (:func:`is_realizable`).  Once
every quad is realizable, whether a 5-tuple is in ``k5`` depends, for
the shipped tables, only on the k4 entries of its five quads: the 36
*suspect patterns* those entries take on the labeled K5 systems outside
``k5`` (all with five crossings) are taken by no realizable one.  The
tables derive their suspect patterns on first use
(:attr:`RealizabilityTables.suspects`), and the sweep looks up in
``k5`` only the 5-tuples that have one, found bit-parallel from masks
of the quads per triple.  So the answer is the 5-tuple criterion's for
any tables whose ``k5`` members have only realizable quads, closed
under relabeling or not, with no loop over all 5-tuples.
"""
from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from functools import cached_property

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
# ``_RANK_BY_CMP`` scaled by the weight 6**i of digit i of a k5 index
_DIGIT = tuple(tuple(r * 6**i for r in _RANK_BY_CMP) for i in range(5))


def edge_key(u: int, v: int) -> Edge:
    if u == v:
        raise InputError(f"degenerate edge ({u},{v})")
    return (u, v) if u < v else (v, u)


def _checked_edge(rs: RotationSystem, e) -> Edge:
    """``edge_key(*e)``, rejecting endpoints outside 1..n."""
    v, w = edge_key(*e)
    if v < 1 or w > rs.n:
        raise InputError(f"edge {(v, w)} has an endpoint outside 1..{rs.n}")
    return v, w


def pair_key(e: Edge, f: Edge):
    return (e, f) if e <= f else (f, e)


class RotationSystem:
    """Immutable rotation system on vertex labels 1..n.

    Rotations are stored as linear sequences with an arbitrary anchor;
    equality and hashing compare cyclic orders, not linearizations.
    The answers of one sweep with a tables object are memoized per
    system in one slot, ``(tables, masks, verdict)``: the crossing masks
    (None when the sweep raised) and the realizability verdict.
    """

    __slots__ = ("n", "rows", "_norm", "_memo")

    def __init__(self, n: int, rows):
        if n < 1:
            raise InputError("vertex count must be >= 1")
        rows = tuple(tuple(r) for r in rows)
        if len(rows) != n:
            raise InputError(f"expected {n} rotations, got {len(rows)}")
        full = frozenset(range(1, n + 1))
        for v, row in enumerate(rows, start=1):
            _check_rotation(n, v, row, full)
        self._set(n, rows)

    def _set(self, n, rows):
        self.n = n
        self.rows = rows
        self._norm = None
        self._memo = None

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

    def edges(self):
        return list(edge_index(self.n).edges)

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


def _check_rotation(n: int, v: int, row: tuple, full: frozenset) -> None:
    """Raise :class:`InputError` unless ``row`` is a permutation of the
    labels in ``full`` (1..n) other than v."""
    if frozenset(row) != full - {v} or len(row) != n - 1:
        raise InputError(
            f"rotation of vertex {v} is not a permutation of the "
            f"other {n - 1} labels: {row}"
        )


def _roll_min(row) -> tuple[int, ...]:
    """``row`` as a tuple rolled to start at its smallest entry."""
    i = row.index(min(row)) if row else 0
    return (*row[i:], *row[:i])


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
    order-preservingly to 1..|subset|; ``rs`` itself, with its memo,
    when the subset is every vertex (a system is immutable).

    A memo of ``rs`` with a realizable verdict carries over, for the
    same tables object: every 5-subsystem of the induced system is one
    of ``rs``, so by Kynčl's 5-tuple criterion the induced system is
    realizable too, and its crossing masks are those of ``rs``
    restricted to the subset and re-indexed (:func:`_restricted_masks`).
    A memo with an unrealizable verdict does not carry over: a subsystem
    of an unrealizable system may be realizable."""
    sub = sorted(set(subset))
    if not sub:
        raise InputError("vertex subset must be non-empty")
    if sub[0] < 1 or sub[-1] > rs.n:
        raise InputError(f"subset {sub} contains labels outside 1..{rs.n}")
    if len(sub) == rs.n:
        return rs
    new = {x: i + 1 for i, x in enumerate(sub)}
    keep = set(sub)
    rows = [
        tuple(new[x] for x in rs.rows[v - 1] if x in keep) for v in sub
    ]
    out = RotationSystem(len(sub), rows)
    if rs._memo is not None and rs._memo[2]:
        tables, masks, _ = rs._memo
        out._memo = (tables, _restricted_masks(masks, rs.n, sub), True)
    return out


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

    ``k4`` is read in sorted quad order only.  The k4 entries of the
    five sorted quads of a 5-tuple are its *pattern*.
    :func:`is_realizable` reads ``k5`` only for the 5-tuples whose
    pattern is one of ``suspects``, derived on first use (about 6 ms);
    the shipped tables have 36, each with five crossings.
    """

    k4: tuple[int, ...]
    k5: frozenset[int]

    def __post_init__(self):
        if len(self.k4) != 16:
            raise InputError("k4 table must have exactly 16 entries")

    @cached_property
    def suspects(self) -> frozenset[tuple[int, ...]]:
        """The suspect patterns: for each labeled 5-vertex system outside
        ``k5`` whose five quads are all realizable under ``k4``, the k4
        entries of its quads in sorted order, (1, 2, 3, 4) first and
        (2, 3, 4, 5) last.  A 5-tuple of a system whose quads are all
        realizable and whose pattern is not suspect is in ``k5``.

        A digit of :func:`k5_index` fixes one rotation, so each bit of
        the k4 index of a quad is read off one digit; the quad (1, 2, 3,
        4), which the digit of vertex 5 does not touch, prunes first."""
        # 1555 is 11111 in base 6
        uniform = [k5_system(r * 1555) for r in range(6)]
        quads = list(itertools.combinations(range(1, 6), 4))
        # term[q][x - 1][r]: the bit vertex x with digit r sets in the k4
        # index of quad q (0 when x is not on q)
        term = [
            [
                [k4_index(u, q) & 1 << q.index(x) for u in uniform]
                if x in q
                else [0] * 6
                for x in range(1, 6)
            ]
            for q in quads
        ]
        k4, k5 = self.k4, self.k5
        first, rest = term[0], term[1:]
        found = set()
        for r1, r2, r3, r4 in itertools.product(range(6), repeat=4):
            e0 = k4[first[0][r1] + first[1][r2] + first[2][r3] + first[3][r4]]
            if e0 == K4_UNREALIZABLE:
                continue
            base = r1 + 6 * r2 + 36 * r3 + 216 * r4
            part = [t[0][r1] + t[1][r2] + t[2][r3] + t[3][r4] for t in rest]
            for r5 in range(6):
                if base + 1296 * r5 in k5:
                    continue
                pattern = (e0,) + tuple(
                    k4[s + t[4][r5]] for s, t in zip(part, rest)
                )
                if K4_UNREALIZABLE not in pattern:
                    found.add(pattern)
        return frozenset(found)

    @cached_property
    def suspects_cross(self) -> bool:
        """Whether every quad of every suspect pattern crosses."""
        return all(K4_NO_CROSSING not in p for p in self.suspects)

    @cached_property
    def suspect_tree(self) -> tuple:
        """``suspects`` as a tree: each level a tuple of (entry, subtree)
        pairs in increasing entry order, one level per quad, and each
        leaf the tuple of last entries."""

        def grow(patterns, level):
            if level == 4:
                return tuple(sorted(p[4] for p in patterns))
            groups = {}
            for p in patterns:
                groups.setdefault(p[level], []).append(p)
            return tuple(
                (key, grow(group, level + 1))
                for key, group in sorted(groups.items())
            )

        return grow(self.suspects, 0)


def relabel_pair_code(entry: int, perm) -> int:
    """A k4 entry after relabeling the quad by ``perm`` (old label ->
    new label): pair codes name the image pair, the other entries are
    unchanged."""
    if entry < 0:
        return entry
    (a, b), (c, d) = PAIR_BY_CODE[entry]
    ea = edge_key(perm[a], perm[b])
    eb = edge_key(perm[c], perm[d])
    return PAIR_BY_CODE.index(pair_key(ea, eb))


def _anchored(rs: RotationSystem, u: int, x: int) -> list[int]:
    """Cyclic offsets in the rotation of u counted from x, indexed by
    label: entry y is the number of steps from x on to y (entries 0 and
    u are unused).  Comparing two entries compares cyclic order after x,
    with no modulo."""
    row = rs.rows[u - 1]
    i = row.index(x)
    off = [0] * (rs.n + 1)
    for k, y in enumerate(row[i:] + row[:i]):
        off[y] = k
    return off


def _rows_from(rs: RotationSystem, x: int) -> list:
    """Offset rows counted from x, indexed by label: entry u is
    ``_anchored(rs, u, x)`` for every u != x (entries 0 and x are None).
    Built anew on each call."""
    rows = [None] * (rs.n + 1)
    for u in range(1, rs.n + 1):
        if u != x:
            rows[u] = _anchored(rs, u, x)
    return rows


def _flipped_rotations(
    rs: RotationSystem, a: int, b: int, t: int
) -> tuple[list[int], list[int]]:
    """The rotations of a and b, as new lists, after b moves forward by
    t slots in the ccw rotation of a, and a forward by t slots in the cw
    rotation of b.  They are permutations by construction."""
    m = rs.n - 2
    row_a = list(rs.rows[a - 1])
    i = row_a.index(b)
    del row_a[i]
    # b was ccw slot m - i of a's rotation; it lands on ccw slot
    # (m - i + t) % m of the m + 1, which is cw slot m minus that
    row_a.insert(m - (t - i) % m, b)
    row_b = list(rs.rows[b - 1])
    j = row_b.index(a)
    del row_b[j]
    row_b.insert((j + t) % m, a)
    return row_a, row_b


def _flipped(rs: RotationSystem, a: int, b: int, t: int) -> RotationSystem:
    """``rs`` with the rotations of a and b replaced by
    :func:`_flipped_rotations`; nothing is revalidated, and no memo of
    ``rs`` is handed on."""
    rows = list(rs.rows)
    rows[a - 1], rows[b - 1] = map(tuple, _flipped_rotations(rs, a, b, t))
    new = RotationSystem.__new__(RotationSystem)
    new._set(rs.n, tuple(rows))
    return new


def k4_index(rs: RotationSystem, quad: tuple[int, int, int, int]) -> int:
    """Index of the induced labeled 4-vertex system of a sorted quad (a
    quad in another order is read as relabeled to 1..4 in that order):
    bit i is set when the other three vertices a, b, c, in quad order,
    do not occur in the order a, b, c around ``quad[i]``.

    The reference kernel, one lookup per call: :func:`k4_index_of`,
    ``check_tables`` and the derivation of the suspect patterns use it.
    The crossing sweep reads offset rows built once per call instead."""
    idx = 0
    for bit, v in enumerate(quad):
        a, b, c = (x for x in quad if x != v)
        off = _anchored(rs, v, a)
        idx |= (off[b] > off[c]) << bit
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
    A quintuple in another order is read as relabeled to 1..5 in that
    order.

    The reference kernel, one lookup per call: :func:`k5_index_of`,
    ``check_tables``, the derivation of the suspect patterns, the suspect
    5-tuples of :func:`is_realizable` and the flip recheck
    :func:`is_realizable_touching` use it.  A digit reads four positions
    in one rotation, as offsets mod n - 1 from the first neighbour's.
    """
    m = rs.n - 1
    idx = 0
    for i, v in enumerate(quint):
        a, b, c, d = (x for x in quint if x != v)
        pos = rs.rows[v - 1].index
        p = pos(a)
        x, y, z = (pos(b) - p) % m, (pos(c) - p) % m, (pos(d) - p) % m
        idx += _DIGIT[i][4 * (x < y) + 2 * (x < z) + (y < z)]
    return idx


def k5_index_of(rs5: RotationSystem) -> int:
    if rs5.n != 5:
        raise InputError("expected a 5-vertex rotation system")
    return k5_index(rs5, (1, 2, 3, 4, 5))


def k4_system(index: int) -> RotationSystem:
    """Inverse of :func:`k4_index_of`."""
    if not 0 <= index < 16:
        raise InputError(f"k4 index out of range: {index}")
    rows = []
    for v in range(1, 5):
        a, b, c = (x for x in range(1, 5) if x != v)
        rows.append((a, c, b) if index >> (v - 1) & 1 else (a, b, c))
    return RotationSystem(4, rows)


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


def _independent_bits(rs: RotationSystem, e, edges) -> tuple[int, int]:
    """The :func:`edge_index` position of ``e`` and the mask of
    ``edges``, once each edge is checked: a label outside 1..n or a
    degenerate edge raises :class:`InputError`, and one of ``edges``
    that shares an endpoint with ``e`` raises
    :class:`AdjacentEdgesError`, at the first such edge in order."""
    v, w = _checked_edge(rs, e)
    index = edge_index(rs.n).index
    bits = 0
    for f in edges:
        c, d = _checked_edge(rs, f)
        if c == v or c == w or d == v or d == w:
            raise AdjacentEdgesError(
                f"edges {(v, w)} and {(c, d)} share an endpoint; adjacent "
                "edges never cross"
            )
        bits |= 1 << index[c][d]
    return index[v][w], bits


def pair_crossing(
    tables: RealizabilityTables, rs: RotationSystem, e, f
) -> bool:
    """Whether two independent edges cross: :func:`crosses_any` of one."""
    return crosses_any(tables, rs, e, (f,))


def crossings_of_edge(
    tables: RealizabilityTables, rs: RotationSystem, e
) -> frozenset[Edge]:
    """All edges crossing ``e``: its :func:`crossing_masks` entry."""
    v, w = _checked_edge(rs, e)
    index = edge_index(rs.n)
    mask = crossing_masks(tables, rs)[index.index[v][w]]
    return frozenset(_edges_of(mask, index.edges))


def crosses_any(
    tables: RealizabilityTables, rs: RotationSystem, e, edges
) -> bool:
    """Whether ``e`` crosses any of ``edges``, each of which is checked
    first: its :func:`crossing_masks` entry against their bits."""
    i, bits = _independent_bits(rs, e, edges)
    return bool(crossing_masks(tables, rs)[i] & bits)


@dataclass(frozen=True)
class EdgeIndex:
    """The edges of K_n in lexicographic order, the order of
    :meth:`RotationSystem.edges`: bit i of a crossing mask stands for
    ``edges[i]``.  ``index[u][v]`` is the index of {u, v} for u != v, in
    either order, and ``star[x]`` the mask of the edges at x (row and
    entry 0 are unused)."""

    edges: tuple[Edge, ...]
    index: tuple[tuple[int, ...], ...]
    star: tuple[int, ...]


@functools.lru_cache(maxsize=64)
def edge_index(n: int) -> EdgeIndex:
    """The :class:`EdgeIndex` of K_n, kept for the 64 sizes used last
    (each holds O(n²) entries)."""
    edges = tuple(itertools.combinations(range(1, n + 1), 2))
    index = [[-1] * (n + 1) for _ in range(n + 1)]
    star = [0] * (n + 1)
    for i, (u, v) in enumerate(edges):
        index[u][v] = index[v][u] = i
        star[u] |= 1 << i
        star[v] |= 1 << i
    return EdgeIndex(edges, tuple(map(tuple, index)), tuple(star))


# bytes.translate table turning the digits of ``bin`` into false/true bytes
_DIGIT_FLAGS = bytes.maketrans(b"01", b"\x00\x01")


def _edges_of(mask: int, edges):
    """The members of ``edges`` whose bits are set in ``mask``, in order."""
    return itertools.compress(
        edges, bin(mask)[:1:-1].encode().translate(_DIGIT_FLAGS)
    )


def _mask_of(bits, width: int) -> int:
    """The mask with the given bit indices set, all below ``width``."""
    if not bits:
        return 0
    digits = bytearray(b"0") * width
    for i in bits:
        digits[width - 1 - i] = 49  # ord("1")
    return int(digits, 2)


def _crossing_sweep(
    tables: RealizabilityTables, rs: RotationSystem
) -> tuple[list[int], bool]:
    """Per edge, in :func:`edge_index` order, the mask of the edges that
    cross it, and whether ``rs`` is realizable: one sweep over the sorted
    quads (a, b, c, d), in two passes.

    The first pass reads each quad from the offset rows
    :func:`_rows_from` counts from a, and a's rotation counted from b,
    so each bit of :func:`k4_index` is one comparison.  The rows of each
    anchor are built on first ask, once per sweep, and dropped when the
    pass leaves the anchor or the sweep returns.  A crossing pair
    sets its two bits directly.  It raises on the first unrealizable
    quad in sorted order, and it also records, per sorted triple
    (a, b, c), the d > c by the k4 entry of (a, b, c, d).  The second
    pass reads those records (:func:`_suspects_in_k5`)."""
    n = rs.n
    k4 = tables.k4
    index = edge_index(n).index
    bit = [1 << i for i in range(max(n + 1, n * (n - 1) // 2))]
    masks = [0] * (n * (n - 1) // 2)
    # per edge {a, b} and c > b: for the quads (a, b, c, d), the masks of
    # the d with pair code 0, 1 and 2, their union, and the d with no
    # crossing, so that a k4 entry 0..2 or -1 picks its own mask
    by_entry = [None] * len(masks)
    full = (1 << n + 1) - 1
    # the offset rows counted from each b > a, built when the pass first
    # reaches b
    later = {}
    for a in range(1, n - 2):
        rows = later.pop(a, None) or _rows_from(rs, a)
        Ia = index[a]
        for b in range(a + 1, n - 1):
            if b not in later:
                later[b] = _rows_from(rs, b)
            A = later[b][a]
            B = rows[b]
            Ib = index[b]
            ab = Ia[b]
            by_entry[ab] = by_c = [None] * n
            for c in range(b + 1, n):
                C = rows[c]
                Ac, Bc, Cb = A[c], B[c], C[b]
                Ic = index[c]
                ac, bc = Ia[c], Ib[c]
                m0 = m1 = m2 = 0
                for d in range(c + 1, n + 1):
                    D = rows[d]
                    entry = k4[
                        (Ac > A[d]) + 2 * (Bc > B[d]) + 4 * (Cb > C[d])
                        + 8 * (D[b] > D[c])
                    ]
                    if entry < 0:
                        if entry == K4_UNREALIZABLE:
                            quad = (a, b, c, d)
                            raise RealizabilityError(
                                f"4-vertex subsystem on {quad} is not "
                                "realizable",
                                quad,
                            )
                        continue
                    # the crossing pair of PAIR_BY_CODE on the quad
                    if entry == 0:
                        i, j = ab, Ic[d]
                        m0 |= bit[d]
                    elif entry == 1:
                        i, j = ac, Ib[d]
                        m1 |= bit[d]
                    else:
                        i, j = Ia[d], bc
                        m2 |= bit[d]
                    masks[i] |= bit[j]
                    masks[j] |= bit[i]
                crossed = m0 | m1 | m2
                # the d > c that cross none
                none = full >> (c + 1) << (c + 1) ^ crossed
                by_c[c] = (m0, m1, m2, crossed, none)
    return masks, _suspects_in_k5(tables, rs, by_entry)


def _suspects_in_k5(
    tables: RealizabilityTables, rs: RotationSystem, by_entry
) -> bool:
    """Whether every sorted 5-tuple (a, b, c, d, e) of ``rs`` whose
    pattern is suspect (``tables.suspects``) is in ``tables.k5``, given
    the first pass's ``by_entry`` records, so every quad is realizable.

    For each quad (a, b, c, d) with d < n, the e > d of each pattern are
    found by ANDing the masks of the triples (a, b, c), (a, b, d),
    (a, c, d) and (b, c, d), level by level of ``tables.suspect_tree``.
    When no suspect pattern has an uncrossed quad, a quad whose four
    triples share no e with all four quads crossing is skipped at once.
    Each e found is looked up in ``k5`` by :func:`k5_index`."""
    n = rs.n
    tree = tables.suspect_tree
    k5 = tables.k5
    all_cross = tables.suspects_cross
    index = edge_index(n).index
    below_n = (1 << n) - 1
    for a in range(1, n - 3):
        Ia = index[a]
        for b in range(a + 1, n - 2):
            ab = by_entry[Ia[b]]
            Ib = index[b]
            for c in range(b + 1, n - 1):
                abc = ab[c]
                if all_cross and not abc[3]:
                    continue
                ac = by_entry[Ia[c]]
                bc = by_entry[Ib[c]]
                for p0, sub in tree:
                    ds = abc[p0] & below_n
                    if not ds:
                        continue
                    firsts = [(abc[p1], s1) for p1, s1 in sub if abc[p1]]
                    if not firsts:
                        continue
                    while ds:
                        low = ds & -ds
                        ds ^= low
                        d = low.bit_length() - 1
                        abd, acd, bcd = ab[d], ac[d], bc[d]
                        if all_cross and not (
                            abc[3] & abd[3] & acd[3] & bcd[3]
                        ):
                            continue
                        for m1, s1 in firsts:
                            for p2, s2 in s1:
                                m2 = m1 & abd[p2]
                                if not m2:
                                    continue
                                for p3, s3 in s2:
                                    m3 = m2 & acd[p3]
                                    if not m3:
                                        continue
                                    for p4 in s3:
                                        hits = m3 & bcd[p4]
                                        while hits:
                                            low = hits & -hits
                                            hits ^= low
                                            quint = (
                                                a, b, c, d,
                                                low.bit_length() - 1,
                                            )
                                            if k5_index(rs, quint) not in k5:
                                                return False
    return True


def crossing_masks(
    tables: RealizabilityTables, rs: RotationSystem
) -> tuple[int, ...]:
    """Per edge, in :func:`edge_index` order, the mask of the edges that
    cross it, from one :func:`_crossing_sweep`.

    The masks and the verdict of the sweep are memoized on ``rs`` per
    tables object, and handed down by :func:`subrotation` when the
    verdict is True.  A sweep that raises memoizes nothing here, so on
    a memo without masks this sweeps again and raises again."""
    memo = rs._memo
    if memo is None or memo[0] is not tables or memo[1] is None:
        masks, realizable = _crossing_sweep(tables, rs)
        memo = rs._memo = (tables, tuple(masks), realizable)
    return memo[1]


def crossing_pairs(
    tables: RealizabilityTables, rs: RotationSystem
) -> frozenset[tuple[Edge, Edge]]:
    """The unordered pairs of independent edges that cross, each in
    :func:`pair_key` order, read off :func:`crossing_masks` (so it
    raises on the first unrealizable quad in sorted order)."""
    edges = edge_index(rs.n).edges
    return frozenset(
        (e, f)
        for e, mask in zip(edges, crossing_masks(tables, rs))
        for f in _edges_of(mask, edges)
        if e < f
    )


def _restricted_masks(masks, n: int, sub) -> tuple[int, ...]:
    """The crossing masks of the subsystem of an n-vertex system induced
    on the sorted labels ``sub``, from the system's ``masks``.

    Relabeling order-preservingly keeps the edge order, and it keeps the
    order in which each quad is read, so each pair of sub-edges gets the
    table entry it has in the system.  A sub-edge's mask is therefore
    its edge's mask with only the bits of sub-edges kept and packed
    together: the binary digits at those bits, gathered in one C call."""
    index = edge_index(n).index
    kept = [index[a][b] for a, b in itertools.combinations(sub, 2)]
    if len(sub) < 4:
        return (0,) * len(kept)
    width = len(masks)
    among = _mask_of(kept, width)
    # bit i is digit width - 1 - i of the zero-padded binary string
    gather = operator.itemgetter(*[width - 1 - i for i in reversed(kept)])
    out = []
    for i in kept:
        mask = masks[i] & among
        out.append(
            int("".join(gather(f"{mask:0{width}b}")), 2) if mask else 0
        )
    return tuple(out)


def is_realizable(tables: RealizabilityTables, rs: RotationSystem) -> bool:
    """Realizability via Kynčl's 5-tuple criterion: every quad realizable
    and every 5-tuple with a suspect pattern in ``k5``, from the same
    :func:`_crossing_sweep` as :func:`crossing_masks`.  This equals
    "every 5-tuple in ``k5``" for any tables whose ``k5`` members have
    only realizable quads, which :func:`sepdraw.enumeration.check_tables`
    checks; on other tables an unrealizable quad answers False.

    The verdict is memoized on ``rs`` per tables object, with the masks,
    and a True one is inherited by :func:`subrotation`.  A sweep that
    raises is memoized as a False verdict with no masks.
    """
    memo = rs._memo
    if memo is None or memo[0] is not tables:
        try:
            crossing_masks(tables, rs)
        except RealizabilityError:
            rs._memo = (tables, None, False)
        memo = rs._memo
    return memo[2]


def is_realizable_touching(
    tables: RealizabilityTables, rs: RotationSystem, e, swept=None
) -> bool:
    """Realizability recheck of ``rs`` after edge ``e`` = {v,w} was
    repositioned: the reference check.  Flip validation in
    :mod:`sepdraw.separability` decides the same question from the
    crossing masks of the system before the flip, and does not call
    this; the tests compare the two.

    Only the rotations of v and w changed, so only the 5-tuples containing
    both endpoints are checked.  By Kynčl's 5-tuple criterion (a system is
    realizable iff all its 5-vertex subsystems are), that decides
    realizability when the system before the move was realizable.

    ``swept``, the set S that e moved across, narrows the check further on
    the same assumption: in the rotations of v and w the other endpoint
    moved only past members of S, so a 5-tuple {v,w,a,b,c} with {a,b,c}
    disjoint from S keeps its table entry, and only the 5-tuples meeting S
    are checked.

    ``swept`` may be any container; only ``x in swept`` is asked.  Each
    5-tuple is read in sorted order by :func:`k5_index` and looked up in
    ``tables.k5``, as the criterion states it, sharing no offset rows
    with the sweeps of :func:`is_realizable`.
    """
    v, w = _checked_edge(rs, e)
    if rs.n <= 4:
        return is_realizable(tables, rs)
    rest = [x for x in range(1, rs.n + 1) if x != v and x != w]
    return all(
        k5_index(rs, tuple(sorted((v, w) + t))) in tables.k5
        for t in itertools.combinations(rest, 3)
        if swept is None or any(x in swept for x in t)
    )


# ---------------------------------------------------------------------------
# Triangle sides and generalized convexity


def same_triangle_side(
    tables: RealizabilityTables, rs: RotationSystem, T, u: int, v: int
) -> bool:
    """Whether u and v lie on the same side of the triangle on T.

    Decided by the parity of crossings between edge {u,v} and the three
    triangle edges, read off :func:`crossing_masks`: a simple arc
    switches sides once per crossing with the closed triangle curve.
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
    i, bits = _independent_bits(rs, (u, v), itertools.combinations(T, 2))
    return (crossing_masks(tables, rs)[i] & bits).bit_count() % 2 == 0


def _triangle_sides(masks, index: EdgeIndex, T) -> tuple[list, list]:
    """The vertices off the sorted triangle T by side, in label order,
    the side of the smallest of them (the anchor) first, read off the
    crossing ``masks`` of T's three edges.

    x is on the anchor's side iff bit {anchor, x} of the XOR of the
    three masks is 0: edge {anchor, x} crosses an even number of T's
    edges (the parity rule of :func:`same_triangle_side`)."""
    a, b, c = T
    ix = index.index
    odd = masks[ix[a][b]] ^ masks[ix[a][c]] ^ masks[ix[b][c]]
    others = [x for x in range(1, len(ix)) if x != a and x != b and x != c]
    if not others:
        return [], []
    anchor, *rest = others
    row = ix[anchor]
    sides = ([anchor], [])
    for x in rest:
        sides[odd >> row[x] & 1].append(x)
    return sides


def is_g_convex(tables: RealizabilityTables, rs: RotationSystem) -> bool:
    """Whether every vertex triple has a side whose induced subdrawing
    stays inside it (no induced edge crosses the triangle).

    Raises :class:`RealizabilityError` on an unrealizable system.  A
    side of triangle T is ruled out iff some edge crossing one of T's
    edges has no endpoint on the other side (such an edge is independent
    of the triangle edge it crosses, so at most one of its endpoints is
    on T): the OR of T's three crossing masks meets the complement of
    the OR of the other side's stars.  Both read the memoized masks.

    This is closed-side convexity, the convexity of Arroyo, McQuillan,
    Richter and Salazar (*Convex drawings of the complete graph:
    topology meets geometry*, Ars Math. Contemp. 2022): the chosen side
    holds every edge between two of its points, T's vertices included.
    Whether it equals the generalized convexity of Bergold et al. (SoCG
    2024), which the source paper's claim 3 is about, is an open
    question."""
    n = rs.n
    if n <= 3:
        return True
    _require_realizable(tables, rs)
    masks = crossing_masks(tables, rs)
    index = edge_index(n)
    ix, star = index.index, index.star
    for T in itertools.combinations(range(1, n + 1), 3):
        a, b, c = T
        crossing = masks[ix[a][b]] | masks[ix[a][c]] | masks[ix[b][c]]
        # per side, the edges with an endpoint on it: a crossing edge
        # outside those of one side rules out the other
        touching = []
        for side in _triangle_sides(masks, index, T):
            bits = 0
            for x in side:
                bits |= star[x]
            touching.append(bits)
        if crossing & ~touching[0] and crossing & ~touching[1]:
            return False
    return True


def _require_realizable(tables: RealizabilityTables, rs: RotationSystem):
    """Raise :class:`RealizabilityError` unless :func:`is_realizable`
    (memoized on ``rs``) holds."""
    if not is_realizable(tables, rs):
        raise RealizabilityError("rotation system is not realizable")


# ---------------------------------------------------------------------------
# Canonical forms


@functools.lru_cache(maxsize=64)
def _key_shifts(n: int) -> tuple[bytes, ...]:
    """For each start s of a rotation of K_n, the ``bytes.translate``
    table from the labels start 0 gives to those start s gives: label 1
    stays, and label j + 2 becomes (j - s) mod (n - 1) + 2."""
    m = n - 1
    shifts = []
    for s in range(m):
        table = bytearray(range(256))
        for j in range(m):
            table[j + 2] = (j - s) % m + 2
        shifts.append(bytes(table))
    return tuple(shifts)


def canonical_key(rs: RotationSystem) -> bytes:
    """Minimal encoding over all relabelings, mirrorings and cyclic
    re-linearizations; equal keys identify the same orbit.

    The encoding of a labeled system lists the rotations of vertices
    1..n, each rolled to start at its minimum, so row 1 is a permutation
    of 2..n and is at least (2, ..., n).  A labeling reaches that bound
    exactly when it gives label 1 to some vertex v and labels 2..n to
    v's rotation in order, read from one of its n-1 starts.  The orbit
    minimum is therefore the minimum over these 2n(n-1) labelings (both
    orientations), not over all 2·n! relabelings and mirrorings.  Every
    other row then starts at 1, the new label of v, so each candidate is
    the rotations of v's neighbours read from v, relabeled.  Those rows
    are relabeled once per v and orientation, as start 0 labels them,
    and each start reads its candidate off them through a cyclic shift
    of the labels 2..n (:func:`_key_shifts`).

    Labels are bytes, so the key exists only for n <= 255; a larger
    system raises :class:`InputError`.
    """
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
    shifts = _key_shifts(n)
    best = None
    for rows in (rs.rows, tuple(r[::-1] for r in rs.rows)):
        for v in range(1, n + 1):
            rot = rows[v - 1]
            # rows 2..n for start 0: each neighbour's rotation read from
            # v, twice over and relabeled as start 0 labels them; start s
            # reads this from row s on, shifting every label but 1
            flat = []
            for w in rot:
                row = rows[w - 1]
                i = row.index(v)
                flat += row[i:] + row[:i]
            table = bytes.maketrans(bytes([v, *rot]), labels)
            block = bytes(flat).translate(table) * 2
            for s, shift in enumerate(shifts):
                cut = s * m
                cand = block[cut : cut + size].translate(shift)
                if best is None or cand < best:
                    best = cand
    return bytes([n, *range(2, n + 1)]) + best


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
