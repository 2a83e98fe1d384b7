"""Separator-edge testing and separability recognition for rotation
systems of complete graphs.

An edge is a separator edge when it can be closed to a simple curve
meeting every other edge at most once.  On the rotation-system level
this is equivalent to: the edge is uncrossed, or it can be flipped
(repositioned across a common swept vertex set in the two endpoint
rotations, staying realizable) so that old and new edge cross disjoint
edge sets.  Candidate repositionings come from a linear parity scan of
the two endpoint rotations.  They are generated lazily, nearest first,
and :func:`is_separator_edge` stops at the first valid one.

Every entry point requires a realizable system and raises
:class:`RealizabilityError` otherwise, from the verdict memoized on the
system (or inherited from the system it was induced from, see
:func:`subrotation`).  Every candidate is then decided from the
crossing masks of the system before the flip (:func:`crossing_masks`)
and from two masks of its swept set, which the parity scan carries, so
no flipped system is built or read to validate it.  None is built to
certify it either: a :class:`Flip` records the move, builds its
flipped system only when a caller reads ``new_rs``, and
:func:`certificate_json` reads the two rotations the move changes
(:func:`flip_json`).  Write e = {v, w}, S for the swept set and R for
the other vertices outside S.

- Rule (a), crossings.  In the rotations of v and w the other endpoint
  moves past exactly the members of S.  So the flip changes the 4-vertex
  subsystem {v, w, c, d} only when one of c, d is in S, and then, by
  the entries of the k4 table, it turns a crossing of e and {c, d}
  into none.  Hence the old and new crossing sets of e are disjoint iff
  every edge crossing e has exactly one endpoint in S.
- Rule (b), realizability.  Given (a), the flipped system is
  unrealizable iff for some vertex x and edge {b, c} with b, c both on
  the other side from x (both in R if x is in S, both in S if x is in
  R), {b, c} crosses both {x, v} and {x, w}, and {b, w} crosses
  {c, v} or {b, v} crosses {c, w}.  By Kynčl's 5-tuple criterion only
  the 5-tuples {v, w, a, b, c} meeting both S and R matter, as the
  others are unchanged; on one of those the flip is a parity candidate
  of that K5 that meets (a), and over all realizable labeled K5 systems
  the flips that leave ``k5`` are exactly those with the pattern.

Both rules are facts about the table contents, so
:func:`sepdraw.enumeration.check_tables` verifies them on every
realizable labeled K4 and K5, for every edge and candidate.  The
realizability recheck of the flipped system they replace,
:func:`is_realizable_touching`, stays as the reference the tests
compare them with.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .rotation import (
    EdgeIndex,
    RealizabilityTables,
    RotationSystem,
    _checked_edge,
    _flipped,
    _flipped_rotations,
    _require_realizable,
    crossing_masks,
    edge_index,
    edge_key,
)


@dataclass(frozen=True)
class FlipCandidate:
    """A repositioning emitted by the parity scan (realizability not yet
    checked).  ``swept`` is the vertex set the edge moves across, as seen
    from the scan direction that produced it, and ``move`` is the
    ``(a, b, t)`` of the ``_flipped`` call that builds the flipped system
    from ``rs``.

    The flipped system ``new_rs`` is built on first access: validation
    and certificates do not read it."""

    edge: tuple[int, int]
    swept: frozenset[int]
    rs: RotationSystem = field(repr=False)
    move: tuple[int, int, int] = field(repr=False)

    @cached_property
    def new_rs(self) -> RotationSystem:
        return _flipped(self.rs, *self.move)


class Flip(FlipCandidate):
    """A validated flip: ``new_rs`` is realizable and the flipped edge
    crosses an edge set disjoint from the original's."""


@dataclass(frozen=True)
class SeparatorEvidence:
    """Why one edge is a separator edge: uncrossed, or via a flip."""

    edge: tuple[int, int]
    uncrossed: bool
    flip: Flip | None


@dataclass(frozen=True)
class SeparatorCertificate:
    """Per-edge evidence for all certified edges."""

    entries: tuple[SeparatorEvidence, ...]


@dataclass(frozen=True)
class SeparabilityResult:
    separable: bool
    certificate: SeparatorCertificate
    failed_edge: tuple[int, int] | None


def _candidates(rs: RotationSystem, v: int, w: int, star):
    """Yield the candidate repositionings of the edge {v, w}, v < w,
    nearest first, each as (seq, a, b, t, cut, touched): the move is
    ``_flipped(rs, a, b, t)``, the swept set S is ``seq[:t]``, and
    ``cut`` and ``touched`` are the XOR and the OR of ``star`` (the
    :class:`EdgeIndex` stars) over S, that is the masks of the edges
    with exactly one and with at least one endpoint in S.

    Two parity scans run side by side: direction 0 along the ccw
    rotation of v and the cw rotation of w, direction 1 along the ccw
    rotation of w and the cw rotation of v, each starting right after
    the other endpoint.  At step t a scan adds one vertex to its swept
    prefix and yields when its odd-parity counter returns to zero,
    direction 0 before direction 1.  Both counters return to zero at
    t = n - 2, the full sweep across all other vertices, which leaves
    the rotation system unchanged (the edge is redrawn around the back);
    it is yielded, from direction 0, only when no proper repositioning
    exists, where it is the candidate that certifies uncrossed edges."""
    n = rs.n
    if n < 3:
        return
    row_v = rs.rows[v - 1]
    row_w = rs.rows[w - 1]
    iv = row_v.index(w)
    iw = row_w.index(v)
    # each rotation read cw from right after the other endpoint
    cw_v = row_v[iv + 1 :] + row_v[:iv]
    cw_w = row_w[iw + 1 :] + row_w[:iw]
    ccw_v = cw_v[::-1]
    ccw_w = cw_w[::-1]
    scans = ((ccw_v, cw_w, v, w), (ccw_w, cw_v, w, v))
    # per direction, the bits of the labels seen an odd number of times
    odd = [0, 0]
    cut = [0, 0]
    touched = [0, 0]
    found = False
    for t in range(1, n - 2):
        for d in (0, 1):
            a_seq, b_seq, a, b = scans[d]
            x = a_seq[t - 1]
            y = b_seq[t - 1]
            cut[d] ^= star[x]
            touched[d] |= star[x]
            # toggle x and y in the odd-parity counter (a no-op if x == y)
            odd[d] ^= (1 << x) ^ (1 << y)
            if not odd[d]:
                found = True
                yield a_seq, a, b, t, cut[d], touched[d]
    if not found:
        last = star[ccw_v[-1]]
        yield ccw_v, v, w, n - 2, cut[0] ^ last, touched[0] | last


def flip_candidates(rs: RotationSystem, e) -> list[FlipCandidate]:
    """All candidate repositionings of ``e`` found by the parity scan run
    from both endpoints, ordered nearest-first (see :func:`_candidates`,
    which :func:`is_separator_edge` walks lazily)."""
    v, w = _checked_edge(rs, e)
    return [
        FlipCandidate(
            edge=(v, w), swept=frozenset(seq[:t]), rs=rs, move=(a, b, t)
        )
        for seq, a, b, t, _, _ in _candidates(rs, v, w, edge_index(rs.n).star)
    ]


def _fault(index: EdgeIndex, e, cut: int, touched: int, masks):
    """Why flipping the edge ``e`` = (v, w) of a realizable system across
    a swept set S is invalid, or None when it is valid, read off the
    system's :func:`crossing_masks` ``masks``.  S is given by two masks
    over ``index``: ``cut``, the edges with exactly one endpoint in S,
    and ``touched``, those with at least one.  As v is not in S, another
    vertex x is in S iff {x, v} is in ``cut``.

    Rule (a) fails with an edge crossing ``e`` that has no or both
    endpoints in S, which the flipped edge still crosses; it is returned
    as (c, d).  Rule (b) fails with a sorted 5-tuple {v, w, x, b, c}
    that the flip makes unrealizable.  See the module docstring for both
    rules."""
    ix, star, edges = index.index, index.star, index.edges
    v, w = e
    # edges at v or w never cross e
    kept = masks[ix[v][w]] & ~cut
    if kept:
        return edges[(kept & -kept).bit_length() - 1]
    in_s = touched & ~cut
    in_r = ((1 << len(edges)) - 1) ^ (touched | star[v] | star[w])
    for x in range(1, len(ix)):
        if x == v or x == w:
            continue
        row = ix[x]
        xv = row[v]
        pairs = masks[xv] & masks[row[w]] & (in_r if cut >> xv & 1 else in_s)
        while pairs:
            low = pairs & -pairs
            b, c = edges[low.bit_length() - 1]
            if (
                masks[ix[b][w]] >> ix[c][v] & 1
                or masks[ix[b][v]] >> ix[c][w] & 1
            ):
                return tuple(sorted((v, w, x, b, c)))
            pairs ^= low
    return None


def valid_flips(
    tables: RealizabilityTables, rs: RotationSystem, e
) -> list[Flip]:
    """Candidates filtered by realizability of the flipped system and by
    disjointness of the old and new crossing sets of ``e``, both decided
    by rules (a) and (b).  Descriptions of the same repositioning are
    merged (smallest swept set reported), by comparing the flipped
    systems of valid candidates.

    Raises :class:`RealizabilityError` unless ``rs`` is realizable, so
    every flipped system returned is realizable."""
    e = _checked_edge(rs, e)
    _require_realizable(tables, rs)
    out: list[Flip] = []
    for flip in _flips(rs, edge_index(rs.n), crossing_masks(tables, rs), e):
        if not any(flip.new_rs == f.new_rs for f in out):
            out.append(flip)
    return out


def _flips(rs: RotationSystem, index: EdgeIndex, masks, e):
    """Yield the valid flips of the checked edge ``e`` of the realizable
    ``rs``, nearest first, given ``edge_index(rs.n)`` and the crossing
    masks of ``rs``."""
    v, w = e
    for seq, a, b, t, cut, touched in _candidates(rs, v, w, index.star):
        if _fault(index, e, cut, touched, masks) is None:
            yield Flip(edge=e, swept=frozenset(seq[:t]), rs=rs, move=(a, b, t))


def _evidence(
    rs: RotationSystem, index: EdgeIndex, masks, e
) -> SeparatorEvidence | None:
    """:func:`is_separator_edge` of the checked edge ``e`` of the
    realizable ``rs``, with :func:`_flips`' arguments."""
    v, w = e
    if not masks[index.index[v][w]]:
        return SeparatorEvidence(edge=e, uncrossed=True, flip=None)
    flip = next(_flips(rs, index, masks, e), None)
    if flip is None:
        return None
    return SeparatorEvidence(edge=e, uncrossed=False, flip=flip)


def is_separator_edge(
    tables: RealizabilityTables, rs: RotationSystem, e
) -> SeparatorEvidence | None:
    """Evidence that ``e`` is a separator edge, or None.

    Raises :class:`RealizabilityError` unless ``rs`` is realizable.
    Uncrossed edges short-circuit; otherwise the candidates are walked
    nearest first, and the first valid flip wins.
    """
    e = _checked_edge(rs, e)
    _require_realizable(tables, rs)
    return _evidence(rs, edge_index(rs.n), crossing_masks(tables, rs), e)


def is_separable(
    tables: RealizabilityTables, rs: RotationSystem
) -> SeparabilityResult:
    """Whether every edge is a separator edge (with a certificate).

    Raises :class:`RealizabilityError` unless ``rs`` is realizable.
    Every edge reads the crossing masks memoized on ``rs``.  Stops at
    the first failing edge; the certificate covers the edges examined
    so far.
    """
    _require_realizable(tables, rs)
    index = edge_index(rs.n)
    masks = crossing_masks(tables, rs)
    entries = []
    for e in rs.edges():
        ev = _evidence(rs, index, masks, e)
        if ev is None:
            return SeparabilityResult(
                separable=False,
                certificate=SeparatorCertificate(tuple(entries)),
                failed_edge=e,
            )
        entries.append(ev)
    return SeparabilityResult(
        separable=True,
        certificate=SeparatorCertificate(tuple(entries)),
        failed_edge=None,
    )


def side_partition(rs: RotationSystem, flip: Flip):
    """The two vertex sides induced by a flip: the swept side plus both
    endpoints, and the rest plus both endpoints."""
    v, w = flip.edge
    v1 = frozenset(flip.swept | {v, w})
    v2 = frozenset(
        x for x in range(1, rs.n + 1) if x not in flip.swept
    ) | {v, w}
    return v1, frozenset(v2)


def uncrossed_partition(rs: RotationSystem, e):
    """Degenerate partition for an uncrossed edge: one side holds only
    the edge itself."""
    v, w = edge_key(*e)
    return frozenset((v, w)), frozenset(range(1, rs.n + 1))


def evidence_partition(rs: RotationSystem, ev: SeparatorEvidence):
    if ev.uncrossed:
        return uncrossed_partition(rs, ev.edge)
    return side_partition(rs, ev.flip)


def separator_edges_at(
    tables: RealizabilityTables, rs: RotationSystem, v: int
) -> list[tuple[int, int]]:
    """All separator edges incident to ``v`` (degree query mode)."""
    out = []
    for w in range(1, rs.n + 1):
        if w == v:
            continue
        if is_separator_edge(tables, rs, (v, w)) is not None:
            out.append(edge_key(v, w))
    return out


def find_any_separator_edge(
    tables: RealizabilityTables, rs: RotationSystem
):
    """First separator edge in deterministic edge order, or None."""
    for e in rs.edges():
        ev = is_separator_edge(tables, rs, e)
        if ev is not None:
            return ev
    return None


def flip_json(flip: Flip) -> dict:
    """JSON payload of one flip: its swept set and the new rotations of
    the edge's endpoints, read without building the flipped system."""
    a, b, t = flip.move
    new = dict(zip((a, b), _flipped_rotations(flip.rs, a, b, t)))
    return {
        "swept": sorted(flip.swept),
        "new_rotations": {str(x): new[x] for x in flip.edge},
    }


def certificate_json(cert: SeparatorCertificate) -> dict:
    """JSON payload: per edge either "uncrossed" or :func:`flip_json`."""
    return {
        f"{ev.edge[0]},{ev.edge[1]}": (
            "uncrossed" if ev.uncrossed else flip_json(ev.flip)
        )
        for ev in cert.entries
    }
