"""Seeded instance generators for tests and corpora.

Everything here is deterministic given the seed: generators draw from
``random.Random`` only and all underlying searches are deterministic.
"""
from __future__ import annotations

import itertools
import random

from .cmap import (
    CombinatorialMap,
    EDGE,
    MapBuilder,
    from_two_page,
    is_connected,
)
from .enumeration import path_k2_map
from .errors import InternalInvariantError
from .routing import apply_route, iter_routes


def all_edges(n: int):
    return list(itertools.combinations(range(1, n + 1), 2))


def random_two_page(n: int, rng: random.Random):
    """A random 2-page book drawing of the full K_n (map with witnesses,
    plus spine order and pages for reference)."""
    order = list(range(1, n + 1))
    rng.shuffle(order)
    edges = all_edges(n)
    pages = [rng.choice(("upper", "lower")) for _ in edges]
    m, ws = from_two_page(order, edges, pages)
    return m, ws, order, pages


def random_two_page_minus(
    n: int, max_removed: int, rng: random.Random
):
    """A 2-page drawing of K_n minus 1..max_removed random edges, with
    mirrored witnesses.  Removals keeping the graph connected are drawn
    by rejection (an isolated vertex would leave nothing to route from).
    """
    order = list(range(1, n + 1))
    rng.shuffle(order)
    edges = all_edges(n)
    while True:
        k = rng.randint(1, max_removed)
        removed = set(rng.sample(edges, k))
        kept = [e for e in edges if e not in removed]
        deg = {v: 0 for v in range(1, n + 1)}
        for u, v in kept:
            deg[u] += 1
            deg[v] += 1
        if all(d >= 1 for d in deg.values()):
            pages = [rng.choice(("upper", "lower")) for _ in kept]
            m, ws = from_two_page(order, kept, pages)
            if is_connected(m):
                return m, ws, sorted(removed)


def random_planar_map(n: int, rng: random.Random) -> CombinatorialMap:
    """A random connected crossing-free drawn graph on labels 1..n, built
    by inserting each vertex into a random face and fanning out to
    boundary vertices with zero-crossing routes."""
    if n < 2:
        raise InternalInvariantError("need at least two vertices")
    m = path_k2_map()
    for k in range(3, n + 1):
        m = _place_vertex_crossing_free(m, k, rng)
    # a few extra chords between old vertices when they fit face-locally
    extra = rng.randint(0, n)
    for _ in range(extra):
        pairs = [
            (u, v)
            for u, v in all_edges(n)
            if (u, v) not in {c.edge() for c in m.curves}
        ]
        if not pairs:
            break
        u, v = rng.choice(pairs)
        routes = list(
            iter_routes(
                m,
                m.real_by_label[u],
                m.real_by_label[v],
                {cid: 0 for cid in range(len(m.curves))},
            )
        )
        if not routes:
            continue
        b = MapBuilder.from_map(m)
        apply_route(b, EDGE, u, v, rng.choice(routes))
        m = b.freeze()
    return m


def _place_vertex_crossing_free(m, label, rng):
    zero = {cid: 0 for cid in range(len(m.curves))}
    fid = rng.randrange(len(m.faces))
    on_face = sorted(
        {
            m.vlabel[m.dvert[g]]
            for orbit in [m.faces[fid]]
            for g in orbit
            if m.vkind[m.dvert[g]] == "real"
        }
    )
    if not on_face:
        # face bounded only by crossings cannot happen in a crossing-free map
        raise InternalInvariantError("face without real vertices")
    first = rng.choice(on_face)
    routes = [
        r
        for r in iter_routes(m, ("face", fid), m.real_by_label[first], zero)
    ]
    b = MapBuilder.from_map(m)
    b.new_vertex("real", label)
    apply_route(b, EDGE, label, first, rng.choice(routes))
    m = b.freeze()
    # fan out to a few more targets while staying crossing-free
    for _ in range(rng.randint(0, 2)):
        targets = [x for x in m.real_labels() if x != label]
        t = rng.choice(targets)
        if (min(label, t), max(label, t)) in {c.edge() for c in m.curves}:
            continue
        routes = list(
            iter_routes(
                m,
                m.real_by_label[label],
                m.real_by_label[t],
                {cid: 0 for cid in range(len(m.curves))},
            )
        )
        if not routes:
            continue
        b = MapBuilder.from_map(m)
        apply_route(b, EDGE, label, t, rng.choice(routes))
        m = b.freeze()
    return m
