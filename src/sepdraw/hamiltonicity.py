"""Crossing-free Hamiltonian paths, cycles, and matchings.

All constructions follow the same divide strategy: certify a separator
edge, split the vertex set into the two sides of its closing curve
(which cannot exchange crossings), solve both sides recursively, and
glue.  Separator edges are searched on demand at every recursion level,
so the routines also work on inputs that are merely degree-2-separable
rather than fully separable.

The constructions assume a realizable system: on one that is not, they
can return crossing edges.  So :func:`ham_path`, :func:`ham_cycle` and
:func:`plane_matching` raise :class:`RealizabilityError` on it, from
the realizability verdict memoized on the system.  Separator-edge
tests read the crossing masks of the system they run on, which the
caller's system sweeps once (:func:`crossing_masks`).  Each
sub-instance is an induced subsystem, which inherits both the verdict
and those masks, restricted to its vertices, from :func:`subrotation`,
so it sweeps neither its 5-tuples nor its quads.  An instance on every
vertex (the top level of :func:`ham_path` and :func:`plane_matching`,
and in :func:`ham_cycle` the side of an uncrossed separator edge) is
the caller's system itself, so it reads the crossing masks already
memoized there.  :func:`verify_crossing_free` reads the
same masks, so checking a result on the system it was built from
sweeps nothing more.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError, SeparatorNotFoundError
from .rotation import (
    RealizabilityTables,
    RotationSystem,
    _checked_edge,
    _require_realizable,
    crossing_masks,
    edge_index,
    edge_key,
    subrotation,
)
from .separability import (
    evidence_partition,
    find_any_separator_edge,
    is_separator_edge,
)


@dataclass(frozen=True)
class PlanePath:
    vertices: tuple[int, ...]

    @property
    def edges(self):
        return [
            edge_key(a, b)
            for a, b in zip(self.vertices, self.vertices[1:])
        ]


@dataclass(frozen=True)
class PlaneCycle:
    vertices: tuple[int, ...]

    @property
    def edges(self):
        n = len(self.vertices)
        return [
            edge_key(self.vertices[i], self.vertices[(i + 1) % n])
            for i in range(n)
        ]


@dataclass(frozen=True)
class PlaneMatching:
    edges: tuple[tuple[int, int], ...]


def verify_crossing_free(
    tables: RealizabilityTables, rs: RotationSystem, edges
) -> bool:
    """Whether no two of the given edges cross (adjacent pairs never do).

    Every edge is checked first: the first one with a label outside
    1..n or equal endpoints raises :class:`InputError`.  Then each
    edge's :func:`crossing_masks` entry is tested against the bits of
    all of them; a mask never holds an edge adjacent to its own."""
    index = edge_index(rs.n).index
    ids = [index[v][w] for v, w in (_checked_edge(rs, e) for e in edges)]
    masks = crossing_masks(tables, rs)
    listed = 0
    for i in ids:
        listed |= 1 << i
    return not any(masks[i] & listed for i in ids)


def ham_path(
    tables: RealizabilityTables, rs: RotationSystem, v: int, w: int
) -> PlanePath:
    """A crossing-free Hamiltonian path from v to w.

    Recursion: pick a separator edge {v,v'} with v' != w, split along its
    partition into the side without w and the rest minus v, connect the
    two sub-paths at v'.
    """
    if v == w:
        raise InputError("path endpoints must differ")
    for x in (v, w):
        if not 1 <= x <= rs.n:
            raise InputError(f"vertex {x} out of range 1..{rs.n}")
    _require_realizable(tables, rs)
    seq = _ham_path_rec(tables, rs, list(range(1, rs.n + 1)), v, w)
    return PlanePath(tuple(seq))


def _ham_path_rec(tables, rs, labels, v, w) -> list[int]:
    n = len(labels)
    if n == 1:
        return [v]
    if n == 2:
        return [v, w]
    sub = subrotation(rs, labels)
    back = {i + 1: x for i, x in enumerate(labels)}
    fwd = {x: i + 1 for i, x in enumerate(labels)}
    sv, sw = fwd[v], fwd[w]
    # smallest v' by original label, v' != w, over separator edges at v
    for vp in sorted(labels):
        if vp in (v, w):
            continue
        ev = is_separator_edge(tables, sub, (sv, fwd[vp]))
        if ev is None:
            continue
        s1, s2 = evidence_partition(sub, ev)
        if sw in s1:
            s1, s2 = s2, s1
        side1 = sorted(back[x] for x in s1)
        side2 = sorted(back[x] for x in s2 if x != sv)
        p1 = _ham_path_rec(tables, rs, side1, v, vp)
        p2 = _ham_path_rec(tables, rs, side2, vp, w)
        return p1 + p2[1:]
    raise SeparatorNotFoundError(
        f"no separator edge at vertex {v} avoiding {w} in the "
        f"sub-instance on {labels}",
        vertices=tuple(labels),
    )


def ham_cycle(
    tables: RealizabilityTables, rs: RotationSystem
) -> PlaneCycle:
    """A crossing-free Hamiltonian cycle: both sides of any separator
    edge's partition carry a path between its endpoints."""
    if rs.n < 3:
        raise InputError("a cycle needs at least 3 vertices")
    _require_realizable(tables, rs)
    ev = find_any_separator_edge(tables, rs)
    if ev is None:
        raise SeparatorNotFoundError(
            "no separator edge in the drawing",
            vertices=tuple(range(1, rs.n + 1)),
        )
    v, w = ev.edge
    s1, s2 = evidence_partition(rs, ev)
    p1 = _ham_path_rec(tables, rs, sorted(s1), v, w)
    p2 = _ham_path_rec(tables, rs, sorted(s2), v, w)
    return PlaneCycle(tuple(p1 + list(reversed(p2))[1:-1]))


def plane_matching(
    tables: RealizabilityTables, rs: RotationSystem
) -> PlaneMatching:
    """A crossing-free matching of size at least floor(n/4), built by
    taking a separator edge and recursing on both sides minus its
    endpoints."""
    _require_realizable(tables, rs)
    edges = _matching_rec(tables, rs, list(range(1, rs.n + 1)))
    return PlaneMatching(tuple(edges))


def _matching_rec(tables, rs, labels) -> list[tuple[int, int]]:
    n = len(labels)
    if n < 2:
        return []
    sub = subrotation(rs, labels)
    back = {i + 1: x for i, x in enumerate(labels)}
    ev = find_any_separator_edge(tables, sub)
    if ev is None:
        raise SeparatorNotFoundError(
            f"no separator edge in the sub-instance on {labels}",
            vertices=tuple(labels),
        )
    v, w = ev.edge
    s1, s2 = evidence_partition(sub, ev)
    side1 = sorted(back[x] for x in s1 if x not in (v, w))
    side2 = sorted(back[x] for x in s2 if x not in (v, w))
    out = [edge_key(back[v], back[w])]
    out += _matching_rec(tables, rs, side1)
    out += _matching_rec(tables, rs, side2)
    return out
