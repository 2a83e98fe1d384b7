"""The lazy route search against the collecting one, and generator pins.

``routing.iter_routes`` yields each route where its depth-first search
finds it.  It must yield exactly the routes, in the same order, that the
search collected before yielding (``reference_iter_routes`` in
``tests/oracles.py``), and its first route must be the one that search
returned with ``first_only``.  The maps are the golden probe maps, 2-page
drawings of K4-K6 under the budgets of the witness search, and every
insertion step of the enumeration up to K5.

The seeded generators pick among crossing-free routes with ``rng.choice``,
so their outputs pin the route order too.
"""
from __future__ import annotations

import hashlib
import random

import sepdraw.enumeration as enumeration
import sepdraw.routing as routing
from sepdraw.cmap import EDGE, serialize_cmap
from sepdraw.generators import (
    random_planar_map,
    random_two_page,
    random_two_page_minus,
)
from sepdraw.routing import iter_routes

from oracles import reference_iter_routes
from test_map_golden import _probe_maps
from test_validate_reference import _outcome

# sha256 of the serialized random_planar_map outputs for n = 2..12,
# seeds 0..19, then the random_two_page_minus maps and removed edges for
# n = 4..8, seeds 0..9, recorded when the route search still collected
# its routes before yielding
GENERATOR_DIGEST = (
    "c532a0db205fe4be4d179128bf2bce0224b3a16d8ce0b63a7b37f0aed0378a31"
)


def _check(m, source, target_vid, budget) -> int:
    """Compare both searches on one query; returns the number of routes."""
    got = _outcome(lambda: list(iter_routes(m, source, target_vid, budget)))
    want = _outcome(
        lambda: list(reference_iter_routes(m, source, target_vid, budget))
    )
    assert got == want, (source, target_vid, budget)
    first = _outcome(
        lambda: next(iter_routes(m, source, target_vid, budget), None)
    )
    want_first = _outcome(
        lambda: next(
            reference_iter_routes(
                m, source, target_vid, budget, first_only=True
            ),
            None,
        )
    )
    assert first == want_first, (source, target_vid, budget)
    return len(got[1]) if got[0] == "ok" else 0


def test_probe_maps():
    rng = random.Random(51)
    routes = 0
    for outcome in _probe_maps():
        if outcome[0] != "ok":
            continue
        m = outcome[1]
        u, v = rng.sample(m.real_labels(), 2)
        target = m.real_by_label[v]
        # crossing-free, then up to one crossing on three random curves
        some = rng.sample(range(len(m.curves)), min(3, len(m.curves)))
        for budget in ({}, dict.fromkeys(some, 1)):
            routes += _check(m, m.real_by_label[u], target, budget)
            routes += _check(m, ("face", rng.randrange(len(m.faces))),
                             target, budget)
    assert routes > 0


def test_two_page_witness_budgets(monkeypatch):
    """Every route search of ``find_witness`` on the drawn edges of 2-page
    K4-K6 drawings, and the same budget from a random face."""
    rng = random.Random(52)
    queries = []

    def checked(m, source, target_vid, budget):
        queries.append(_check(m, source, target_vid, budget))
        face = ("face", rng.randrange(len(m.faces)))
        queries.append(_check(m, face, target_vid, budget))
        return iter_routes(m, source, target_vid, budget)

    monkeypatch.setattr(routing, "iter_routes", checked)
    for n in (4, 5, 6):
        for _ in range(3):
            m = random_two_page(n, rng)[0]
            for e in sorted({c.edge() for c in m.curves if c.kind == EDGE}):
                routing.find_witness(m, e)
    assert len(queries) > 0 and sum(queries) > 0


def test_enumeration_steps(monkeypatch):
    """Every route search of the enumerator up to K5, as it runs."""
    queries = []

    def checked(m, source, target_vid, budget):
        queries.append(_check(m, source, target_vid, budget))
        return iter_routes(m, source, target_vid, budget)

    monkeypatch.setattr(enumeration, "iter_routes", checked)
    enumeration.enumerate_good_drawings(5)
    assert len(queries) > 0 and sum(queries) > 0


def test_generator_outputs_pinned():
    h = hashlib.sha256()
    for n in range(2, 13):
        for s in range(20):
            m = random_planar_map(n, random.Random(f"{n}:{s}"))
            h.update(serialize_cmap(m).encode())
    for n in range(4, 9):
        for s in range(10):
            m, _, removed = random_two_page_minus(
                n, n, random.Random(f"{n}:{s}")
            )
            h.update(serialize_cmap(m).encode())
            h.update(repr(removed).encode())
    assert h.hexdigest() == GENERATOR_DIGEST
