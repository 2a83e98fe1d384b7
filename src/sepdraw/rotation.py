"""Rotation systems of complete graphs and table-driven crossing queries.

A rotation system stores, for each vertex of K_n, the clockwise cyclic
order of its incident edges (as the sorted-adjacent-vertex convention:
a sequence of the other vertex labels).  All crossing questions for
complete graphs reduce to lookups in two machine-derived tables: the
16-entry table for 4-vertex systems (which pair of independent edges
crosses, if any) and the set of realizable labeled 5-vertex systems.
Both tables are produced by the exhaustive small-drawing enumerator, so
no orientation or sign convention is hand-coded anywhere in this module.

Only this module builds the offset rows the sweeps read: :func:`_rows_from`
memoizes them per system and anchor.  Crossings are memoized as one
integer bitmask per edge (:func:`crossing_masks`, indexed by
:func:`edge_index`), which :func:`subrotation` hands down to induced
subsystems.  Every crossing query reads those masks: the first query on
a system pays for one sweep over all its quads, later ones read bits,
and on a system with an unrealizable quad every query raises the
sweep's :class:`RealizabilityError`.
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
    Answers that depend on a tables object (the realizability verdict and
    the crossing masks) are memoized per system together with that object.
    The offset rows counted from each vertex asked are memoized too (see
    :func:`_rows_from`).
    """

    __slots__ = ("n", "rows", "_norm", "_realizable", "_crossings", "_rows")

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
        self._realizable = None
        self._crossings = None
        self._rows = {}

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


def _check_rotation(n: int, v: int, row: tuple, full: frozenset) -> None:
    """Raise :class:`InputError` unless ``row`` is a permutation of the
    labels in ``full`` (1..n) other than v."""
    if frozenset(row) != full - {v} or len(row) != n - 1:
        raise InputError(
            f"rotation of vertex {v} is not a permutation of the "
            f"other {n - 1} labels: {row}"
        )


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
    order-preservingly to 1..|subset|; ``rs`` itself, with its memos,
    when the subset is every vertex (a system is immutable).

    A realizable verdict memoized on ``rs`` carries over, for the same
    tables object: every 5-subsystem of the induced system is one of
    ``rs``, so by Kynčl's 5-tuple criterion the induced system is
    realizable too.  An unrealizable verdict does not carry over: a
    subsystem of an unrealizable system may be realizable.

    Crossing masks memoized on ``rs`` carry over too, restricted to the
    subset and re-indexed (:func:`_restricted_masks`)."""
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
    if rs._realizable is not None and rs._realizable[1]:
        out._realizable = rs._realizable
    if rs._crossings is not None:
        tables, masks = rs._crossings
        out._crossings = (tables, _restricted_masks(masks, rs.n, sub))
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

    ``k4`` is read in sorted quad order only.
    The edge query :func:`is_realizable_touching` reads a 5-tuple with
    the queried edge {v, w}, v < w, first and the other vertices after
    it in increasing order: (v, w, a, b, c).  That reading is a
    relabeling of the sorted tuple, fixed by where v and w fall among
    the sorted vertices.  ``k5_reads`` holds ``k5`` per placement,
    derived on first use, so the reading is exact for any tables,
    closed under relabeling or not.  A placement is keyed by ``4*i + j``
    for i of the other vertices below v and j below w; key 0 is the
    sorted reading itself.
    """

    k4: tuple[int, ...]
    k5: frozenset[int]

    def __post_init__(self):
        if len(self.k4) != 16:
            raise InputError("k4 table must have exactly 16 entries")

    @cached_property
    def k5_reads(self) -> tuple[bytes | None, ...]:
        """Per placement key, a membership row of length 6**5: byte
        :func:`k5_index` of the (v, w, a, b, c) reading is 1 iff the
        quintuple is in ``k5``.  Keys no placement has hold None.

        A digit describes one rotation, so a reading maps each vertex's
        digit by itself; the maps are read off the six systems whose
        digits are all equal."""
        # 1555 is 11111 in base 6
        uniform = [k5_system(t * 1555) for t in range(6)]
        digits = [[idx // 6**i % 6 for i in range(5)] for idx in self.k5]
        out = [None] * 16
        for key, order in _reading_orders(5).items():
            reads = [k5_index(rs5, order) for rs5 in uniform]
            # per sorted position, its digit's term in the reading index
            term = [None] * 5
            for k, x in enumerate(order):
                term[x - 1] = [r // 6**k % 6 * 6**k for r in reads]
            row = bytearray(6**5)
            for ds in digits:
                row[sum(map(list.__getitem__, term, ds))] = 1
            out[key] = bytes(row)
        return tuple(out)


def _reading_orders(k: int) -> dict[int, tuple[int, ...]]:
    """Placement key -> the sorted positions 1..k of a k-tuple in the
    order it is read: v at position i, w at position j, then the rest."""
    orders = {}
    for i, j in itertools.combinations(range(1, k + 1), 2):
        rest = tuple(x for x in range(1, k + 1) if x != i and x != j)
        orders[4 * (i - 1) + j - 2] = (i, j) + rest
    return orders


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

    Memoized on ``rs`` per x, built on first ask and never evicted.  The
    lists are shared with the memo, so callers only read them."""
    rows = rs._rows.get(x)
    if rows is None:
        rows = [None] * (rs.n + 1)
        for u in range(1, rs.n + 1):
            if u != x:
                rows[u] = _anchored(rs, u, x)
        rs._rows[x] = rows
    return rows


def _flipped_rotations(
    rs: RotationSystem, a: int, b: int, t: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The rotations of a and b after b moves forward by t slots in the
    ccw rotation of a, and a forward by t slots in the cw rotation of b.
    They are permutations by construction."""
    n = rs.n
    ccw_a = list(reversed(rs.rows[a - 1]))
    j = ccw_a.index(b)
    del ccw_a[j]
    ccw_a.insert((j + t) % (n - 2), b)
    cw_b = list(rs.rows[b - 1])
    j = cw_b.index(a)
    del cw_b[j]
    cw_b.insert((j + t) % (n - 2), a)
    return tuple(reversed(ccw_a)), tuple(cw_b)


def _flipped(rs: RotationSystem, a: int, b: int, t: int) -> RotationSystem:
    """``rs`` with the rotations of a and b replaced by
    :func:`_flipped_rotations`; nothing is revalidated, and no memo of
    ``rs`` is handed on."""
    rows = list(rs.rows)
    rows[a - 1], rows[b - 1] = _flipped_rotations(rs, a, b, t)
    new = RotationSystem.__new__(RotationSystem)
    new._set(rs.n, tuple(rows))
    return new


def k4_index(rs: RotationSystem, quad: tuple[int, int, int, int]) -> int:
    """Index of the induced labeled 4-vertex system of a sorted quad (a
    quad in another order is read as relabeled to 1..4 in that order):
    bit i is set when the other three vertices a, b, c, in quad order,
    do not occur in the order a, b, c around ``quad[i]``.

    The reference kernel, one lookup per call: :func:`k4_index_of`,
    ``check_tables`` and :func:`is_realizable` at n = 4 use it.  The
    crossing sweep reads offset rows built once per call instead."""
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
    ``check_tables`` and the derivation of ``k5_reads`` use it.  The
    realizability sweeps read offset rows built once per call instead.
    """
    idx = 0
    for i, v in enumerate(quint):
        a, b, c, d = (x for x in quint if x != v)
        off = _anchored(rs, v, a)
        x, y, z = off[b], off[c], off[d]
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
    """The edges of K_n in :meth:`RotationSystem.edges` order: bit i of a
    crossing mask stands for ``edges[i]``.  ``index[u][v]`` is the index
    of {u, v} for u != v, in either order, and ``star[x]`` the mask of
    the edges at x (row and entry 0 are unused)."""

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
) -> list[int]:
    """Per edge, in :func:`edge_index` order, the mask of the edges that
    cross it: one sweep over the sorted quads (a, b, c, d).

    Each quad reads the offset rows :func:`_rows_from` counts from a,
    and a's rotation counted from b, so each bit of :func:`k4_index` is
    one comparison.  A crossing pair sets its two bits directly.  Raises
    on the first unrealizable quad in sorted order."""
    n = rs.n
    k4 = tables.k4
    index = edge_index(n).index
    bit = [1 << i for i in range(n * (n - 1) // 2)]
    masks = [0] * len(bit)
    for a in range(1, n - 2):
        rows = _rows_from(rs, a)
        Ia = index[a]
        for b in range(a + 1, n - 1):
            A = _rows_from(rs, b)[a]
            B = rows[b]
            Ib = index[b]
            ab = Ia[b]
            for c in range(b + 1, n):
                C = rows[c]
                Ac, Bc, Cb = A[c], B[c], C[b]
                Ic = index[c]
                ac, bc = Ia[c], Ib[c]
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
                    elif entry == 1:
                        i, j = ac, Ib[d]
                    else:
                        i, j = Ia[d], bc
                    masks[i] |= bit[j]
                    masks[j] |= bit[i]
    return masks


def crossing_masks(
    tables: RealizabilityTables, rs: RotationSystem
) -> tuple[int, ...]:
    """Per edge, in :func:`edge_index` order, the mask of the edges that
    cross it, from one :func:`_crossing_sweep`.

    Memoized on ``rs`` per tables object, and handed down by
    :func:`subrotation`.  A sweep that raises memoizes nothing."""
    memo = rs._crossings
    if memo is None or memo[0] is not tables:
        memo = rs._crossings = (tables, tuple(_crossing_sweep(tables, rs)))
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


def crossing_sets(
    tables: RealizabilityTables, rs: RotationSystem
) -> dict[Edge, frozenset[Edge]]:
    """The edges crossing each edge, read off :func:`crossing_masks` (the
    masks are memoized; each call builds a new dict)."""
    edges = edge_index(rs.n).edges
    return {
        e: frozenset(_edges_of(mask, edges))
        for e, mask in zip(edges, crossing_masks(tables, rs))
    }


def is_realizable(tables: RealizabilityTables, rs: RotationSystem) -> bool:
    """Realizability via the 5-vertex criterion (table lookups for n <= 4).

    The verdict is memoized on ``rs`` per tables object, and a True one
    is inherited by :func:`subrotation`.
    """
    memo = rs._realizable
    if memo is None or memo[0] is not tables:
        if rs.n <= 3:
            verdict = True
        elif rs.n == 4:
            verdict = tables.k4[k4_index(rs, (1, 2, 3, 4))] != K4_UNREALIZABLE
        else:
            verdict = _all_quints_realizable(tables, rs)
        memo = rs._realizable = (tables, verdict)
    return memo[1]


def _all_quints_realizable(tables: RealizabilityTables, rs) -> bool:
    """Every sorted quintuple (a, b, c, d, e) in ``k5``, in sorted order,
    reading offset rows as :func:`_crossing_sweep` does; digit i of
    :func:`k5_index` is three comparisons."""
    n = rs.n
    member = tables.k5_reads[0]
    D0, D1, D2, D3, D4 = _DIGIT
    for a in range(1, n - 3):
        rows = _rows_from(rs, a)
        for b in range(a + 1, n - 2):
            A = _rows_from(rs, b)[a]
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

    Only the triples a < b < c that meet S are enumerated.  Each 5-tuple
    is read as (v, w, a, b, c), from v's rotation counted from w and the
    others counted from v, against ``tables.k5_reads``.  The rows counted
    from v are :func:`_rows_from`'s.
    """
    v, w = _checked_edge(rs, e)
    n = rs.n
    if n <= 4:
        return is_realizable(tables, rs)
    reads = tables.k5_reads
    D0, D1, D2, D3, D4 = _DIGIT
    rows = _rows_from(rs, v)
    V = _anchored(rs, v, w)
    W = rows[w]
    rest = [x for x in range(1, n + 1) if x != v and x != w]
    # placement weight: a vertex below v moves both v and w up one place
    place = [5 if x < v else 1 if x < w else 0 for x in range(n + 1)]
    hit = [swept is None or x in swept for x in range(n + 1)]
    # later[i]: the members of S after rest[i]
    r = len(rest)
    later, tail = [None] * r, []
    for i in range(r - 1, -1, -1):
        later[i] = tail
        if hit[rest[i]]:
            tail = [rest[i]] + tail
    for ia in range(r - 2):
        a = rest[ia]
        A = rows[a]
        Va, Wa, Aw, pa = V[a], W[a], A[w], place[a]
        for ib in range(ia + 1, r - 1):
            b = rest[ib]
            cs = rest[ib + 1 :] if hit[a] or hit[b] else later[ib]
            if not cs:
                continue
            B = rows[b]
            Vb, Wb, Ab, Bw, Ba = V[b], W[b], A[b], B[w], B[a]
            kv = 4 * (Va < Vb)
            kw = 4 * (Wa < Wb)
            ka = 4 * (Aw < Ab)
            kb = 4 * (Bw < Ba)
            pab = pa + place[b]
            for c in cs:
                C = rows[c]
                Vc, Wc, Ac, Bc = V[c], W[c], A[c], B[c]
                Cw, Ca, Cb = C[w], C[a], C[b]
                if not reads[pab + place[c]][
                    D0[kv + 2 * (Va < Vc) + (Vb < Vc)]
                    + D1[kw + 2 * (Wa < Wc) + (Wb < Wc)]
                    + D2[ka + 2 * (Aw < Ac) + (Ab < Ac)]
                    + D3[kb + 2 * (Bw < Bc) + (Ba < Bc)]
                    + D4[4 * (Cw < Ca) + 2 * (Cw < Cb) + (Ca < Cb)]
                ]:
                    return False
    return True


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


def _triangle_side_of(cross, n: int, T) -> list[int]:
    """Per label 1..n, the side of the sorted triangle T it lies on: 2 on
    T, 0 on the side of the smallest other vertex (the anchor), 1 on the
    other side.  ``cross`` is :func:`crossing_sets`.

    x is on the anchor's side iff edge {anchor, x} lies in an even
    number of the crossing sets of T's three edges (the parity rule of
    :func:`same_triangle_side`)."""
    a, b, c = T
    X = (cross[(a, b)], cross[(a, c)], cross[(b, c)])
    side = [2] * (n + 1)
    anchor = None
    for x in range(1, n + 1):
        if x == a or x == b or x == c:
            continue
        if anchor is None:
            anchor = x
            side[x] = 0
        else:
            e = (anchor, x)
            side[x] = ((e in X[0]) + (e in X[1]) + (e in X[2])) & 1
    return side


def triangle_sides(
    tables: RealizabilityTables, rs: RotationSystem, T
) -> tuple[frozenset[int], frozenset[int]]:
    """Bipartition of the vertices off triangle T by side (one part may be
    empty), the part holding the smallest such vertex first.

    Reads :func:`crossing_sets`, so it raises
    :class:`RealizabilityError` on the first unrealizable quad of ``rs``
    in sorted order."""
    T = tuple(sorted(set(T)))
    if len(T) != 3:
        raise InputError(f"expected a vertex triple, got {T}")
    for x in T:
        if not 1 <= x <= rs.n:
            raise InputError(f"vertex {x} out of range 1..{rs.n}")
    side = _triangle_side_of(crossing_sets(tables, rs), rs.n, T)
    parts = ([], [], [])
    for x in range(1, rs.n + 1):
        parts[side[x]].append(x)
    return frozenset(parts[0]), frozenset(parts[1])


def is_g_convex(tables: RealizabilityTables, rs: RotationSystem) -> bool:
    """Whether every vertex triple has a side whose induced subdrawing
    stays inside it (no induced edge crosses the triangle).

    Raises :class:`RealizabilityError` on an unrealizable system.  A
    side of triangle T is good iff no edge crossing one of T's edges
    has both endpoints in that side and T; such an edge is independent
    of the triangle edge it crosses, so at most one of its endpoints is
    on T.  Each triple reads the three crossing sets of T's edges from
    one :func:`crossing_sets` call, read off the memoized masks."""
    n = rs.n
    if n <= 3:
        return True
    _require_realizable(tables, rs)
    cross = crossing_sets(tables, rs)
    for T in itertools.combinations(range(1, n + 1), 3):
        side = _triangle_side_of(cross, n, T)
        a, b, c = T
        # bit s set once side s is ruled out
        bad = 0
        for t in ((a, b), (a, c), (b, c)):
            for x, y in cross[t]:
                s, r = side[x], side[y]
                if s == 2:
                    s = r
                elif r != 2 and r != s:
                    continue
                bad |= 1 << s
            if bad == 3:
                return False
    return True


def _require_realizable(tables: RealizabilityTables, rs: RotationSystem):
    """Raise :class:`RealizabilityError` unless :func:`is_realizable`
    (memoized on ``rs``) holds."""
    if not is_realizable(tables, rs):
        raise RealizabilityError("rotation system is not realizable")


# ---------------------------------------------------------------------------
# Canonical forms


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
    orientations), not over all 2·n! relabelings and mirrorings.  Every
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
