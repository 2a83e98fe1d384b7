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
:func:`subrotation`).  Every candidate is then validated the same way,
pruned exactly by the set of vertices the edge is moved across: a
realizability recheck of the 5-tuples through the edge, then a lookup
of the old crossing edges in the flipped system.  Each quad those
lookups read lies in a 5-tuple through the edge, which the recheck has
found realizable, so by Kynčl's 5-tuple criterion none of them can
fail, and the answer is that of comparing the full old and new
crossing sets.

Both steps read the other vertices' rotations counted from v, the
smaller endpoint.  A flip leaves those rotations unchanged, so the
system builds these offset rows once per v and every flipped system
inherits them (see :mod:`sepdraw.rotation`).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .rotation import (
    RealizabilityTables,
    RotationSystem,
    _checked_edge,
    _flipped,
    _require_realizable,
    crossing_sets,
    crosses_any,
    crossings_of_edge,
    edge_key,
    is_realizable_touching,
)


@dataclass(frozen=True)
class FlipCandidate:
    """A repositioning emitted by the parity scan (realizability not yet
    checked).  ``swept`` is the vertex set the edge moves across, as seen
    from the scan direction that produced it.

    The flipped system ``new_rs`` is built on first access: most
    candidates are rejected by the swept-set rule without it.  ``move``
    is the ``(a, b, t)`` of the ``_flipped`` call that builds it from
    ``rs``."""

    edge: tuple[int, int]
    swept: frozenset[int]
    rs: RotationSystem = field(repr=False)
    move: tuple[int, int, int] = field(repr=False)

    @cached_property
    def new_rs(self) -> RotationSystem:
        return _flipped(self.rs, *self.move)


@dataclass(frozen=True)
class Flip:
    """A validated flip: ``new_rs`` is realizable and the flipped edge
    crosses an edge set disjoint from the original's."""

    edge: tuple[int, int]
    swept: frozenset[int]
    new_rs: RotationSystem


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


def _candidates(rs: RotationSystem, v: int, w: int):
    """Yield the candidate repositionings of the edge {v, w}, v < w,
    nearest first.

    Two parity scans run side by side: direction 0 along the ccw
    rotation of v and the cw rotation of w, direction 1 along the ccw
    rotation of w and the cw rotation of v, each starting right after
    the other endpoint.  At step t a scan yields when its odd-parity
    counter returns to zero, direction 0 before direction 1.  Both
    counters return to zero at t = n - 2, the full sweep across all
    other vertices, which leaves the rotation system unchanged (the edge
    is redrawn around the back); it is yielded, from direction 0, only
    when no proper repositioning exists, where it is the candidate that
    certifies uncrossed edges."""
    n = rs.n
    if n < 3:
        return
    m = n - 1
    row_v = rs.rows[v - 1]
    row_w = rs.rows[w - 1]
    iv = row_v.index(w)
    iw = row_w.index(v)
    # ccw successor of position i in a cw-stored row is position i-1
    ccw_v = [row_v[(iv - 1 - k) % m] for k in range(n - 2)]
    cw_v = [row_v[(iv + 1 + k) % m] for k in range(n - 2)]
    ccw_w = [row_w[(iw - 1 - k) % m] for k in range(n - 2)]
    cw_w = [row_w[(iw + 1 + k) % m] for k in range(n - 2)]
    scans = ((ccw_v, cw_w, v, w, set()), (ccw_w, cw_v, w, v, set()))
    found = False
    for t in range(1, n - 2):
        for a_seq, b_seq, a, b, odd in scans:
            for x in (a_seq[t - 1], b_seq[t - 1]):
                if x in odd:
                    odd.discard(x)
                else:
                    odd.add(x)
            if not odd:
                found = True
                yield FlipCandidate(
                    edge=(v, w), swept=frozenset(a_seq[:t]), rs=rs,
                    move=(a, b, t),
                )
    if not found:
        yield FlipCandidate(
            edge=(v, w), swept=frozenset(ccw_v), rs=rs, move=(v, w, n - 2)
        )


def flip_candidates(rs: RotationSystem, e) -> list[FlipCandidate]:
    """All candidate repositionings of ``e`` found by the parity scan run
    from both endpoints, ordered nearest-first (see :func:`_candidates`,
    which :func:`is_separator_edge` walks lazily)."""
    v, w = _checked_edge(rs, e)
    return list(_candidates(rs, v, w))


def _is_valid_flip(tables, e, cand: FlipCandidate, old_cross) -> bool:
    """Whether ``cand.new_rs`` is realizable and ``e`` crosses none of
    ``old_cross`` in it, given that ``cand.rs`` is realizable.

    A flip changes only the rotations of v and w, so realizability is
    rechecked on the 5-tuples through e = {v,w} only.  The old and new
    crossing sets of ``e`` meet iff ``e`` still crosses some old crossing
    edge, so only those edges are looked up in the flipped system.  No
    lookup can fail once the recheck has passed: a quad {v,w,c,d} lies in
    a checked 5-tuple {v,w,c,d,x} (at n = 4 the recheck covers the whole
    K4, and n <= 3 has no quads), and every 4-subsystem of a realizable
    5-tuple is realizable under ``k4`` (the first condition of
    ``check_tables``, which shipped, built and loaded tables meet).

    The test is pruned by the swept set S, exactly, since the system
    before the flip is realizable.  In the rotations of v and w
    the other endpoint moves only past members of S, so every quad or
    5-tuple whose vertices other than v, w avoid S keeps its table entry.
    Hence an edge crossing ``e`` with no endpoint in S still crosses it
    after the flip, and the candidate is rejected at once, before its
    flipped system is built; and only the 5-tuples {v,w,a,b,c} with
    {a,b,c} meeting S are rechecked.
    """
    if any(cand.swept.isdisjoint(f) for f in old_cross):
        return False
    new_rs = cand.new_rs
    if not is_realizable_touching(tables, new_rs, e, swept=cand.swept):
        return False
    return not crosses_any(tables, new_rs, e, old_cross)


def valid_flips(
    tables: RealizabilityTables, rs: RotationSystem, e
) -> list[Flip]:
    """Candidates filtered by realizability of the flipped system and by
    disjointness of the old and new crossing sets of ``e``.  Descriptions
    of the same repositioning are merged (smallest swept set reported).

    Raises :class:`RealizabilityError` unless ``rs`` is realizable, so
    every flipped system returned is realizable."""
    e = _checked_edge(rs, e)
    _require_realizable(tables, rs)
    old_cross = crossings_of_edge(tables, rs, e)
    out: list[Flip] = []
    for cand in flip_candidates(rs, e):
        if _is_valid_flip(tables, e, cand, old_cross) and not any(
            cand.new_rs == f.new_rs for f in out
        ):
            out.append(Flip(edge=e, swept=cand.swept, new_rs=cand.new_rs))
    return out


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
    old_cross = crossings_of_edge(tables, rs, e)
    if not old_cross:
        return SeparatorEvidence(edge=e, uncrossed=True, flip=None)
    for cand in _candidates(rs, *e):
        if _is_valid_flip(tables, e, cand, old_cross):
            return SeparatorEvidence(
                edge=e,
                uncrossed=False,
                flip=Flip(edge=e, swept=cand.swept, new_rs=cand.new_rs),
            )
    return None


def is_separable(
    tables: RealizabilityTables, rs: RotationSystem
) -> SeparabilityResult:
    """Whether every edge is a separator edge (with a certificate).

    Raises :class:`RealizabilityError` unless ``rs`` is realizable.
    The crossing sets are memoized once, and each edge reads its own.
    Stops at the first failing edge; the certificate covers the edges
    examined so far.
    """
    _require_realizable(tables, rs)
    crossing_sets(tables, rs)
    entries = []
    for e in rs.edges():
        ev = is_separator_edge(tables, rs, e)
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


def certificate_json(cert: SeparatorCertificate) -> dict:
    """JSON payload: per edge either "uncrossed" or the flip data."""
    out = {}
    for ev in cert.entries:
        key = f"{ev.edge[0]},{ev.edge[1]}"
        if ev.uncrossed:
            out[key] = "uncrossed"
        else:
            v, w = ev.edge
            out[key] = {
                "swept": sorted(ev.flip.swept),
                "new_rotations": {
                    str(v): list(ev.flip.new_rs.rotation(v)),
                    str(w): list(ev.flip.new_rs.rotation(w)),
                },
            }
    return out
