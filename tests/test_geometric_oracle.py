"""Straight-line drawings past n = 7 against the geometric oracle.

Crossings read off point coordinates share no code with the tables, so
they check the edge-by-edge crossing queries, separability, g-convexity
and the crossing-free constructions at sizes the enumerated corpora do
not reach.  Tier-1 runs K8-K16; the weekly ``recognize-scale`` CI job calls
:func:`check_straight_line` on K20-K30.  This module imports no pytest,
so that job can import it from a plain install.
"""
from __future__ import annotations

import itertools
import random

from oracles import (
    crossing_pairs_from_points,
    random_points,
    rotation_system_from_points,
    segments_cross,
)
from sepdraw.hamiltonicity import ham_cycle, ham_path, plane_matching
from sepdraw.rotation import crossings_of_edge, is_g_convex
from sepdraw.separability import is_separable


def _crossing_free(pts, edges) -> bool:
    return not any(
        segments_cross(pts[a], pts[b], pts[c], pts[d])
        for (a, b), (c, d) in itertools.combinations(edges, 2)
        if not {a, b} & {c, d}
    )


def check_straight_line(tables, n: int, seed: int) -> None:
    """On seeded random points: ``crossings_of_edge`` of every edge is
    the set of edges whose segments cross it, the drawing is separable
    and g-convex (every straight-line drawing is both), and
    ``ham_cycle``, ``plane_matching`` and three ``ham_path`` pairs are
    crossing-free as segments."""
    rng = random.Random(f"{n}:{seed}")
    pts = random_points(n, rng)
    rs = rotation_system_from_points(pts)
    crossing = {e: set() for e in rs.edges()}
    for e, f in crossing_pairs_from_points(pts):
        crossing[e].add(f)
        crossing[f].add(e)
    for e, want in crossing.items():
        assert crossings_of_edge(tables, rs, e) == want, (n, seed, e)
    assert is_separable(tables, rs).separable, (n, seed)
    assert is_g_convex(tables, rs), (n, seed)
    labels = list(range(1, n + 1))
    cycle = ham_cycle(tables, rs)
    assert sorted(cycle.vertices) == labels, (n, seed)
    assert _crossing_free(pts, cycle.edges), (n, seed, cycle)
    matching = plane_matching(tables, rs)
    assert len(matching.edges) >= n // 4, (n, seed, matching)
    assert _crossing_free(pts, matching.edges), (n, seed, matching)
    for _ in range(3):
        v, w = rng.sample(labels, 2)
        path = ham_path(tables, rs, v, w)
        assert path.vertices[0] == v and path.vertices[-1] == w
        assert sorted(path.vertices) == labels, (n, seed, path)
        assert _crossing_free(pts, path.edges), (n, seed, path)


def test_straight_line_k8_to_k16(tables):
    for n in range(8, 17):
        for seed in range(3):
            check_straight_line(tables, n, seed)
