"""``cmap.from_two_page`` against ``oracles.reference_from_two_page``.

``from_two_page`` keys each crossing by integers, its exact coordinates
scaled by lcm(1..2n), and writes each crossing's darts into slots of one
rotation table; the reference keys crossings by ``Fraction`` and builds
each rotation from per-crossing side dicts.  Both must give the same map,
byte for byte, and refuse bad input with the same message.
"""
from __future__ import annotations

import random
import re

import pytest

from oracles import reference_from_two_page
from sepdraw.cmap import from_two_page, serialize_cmap
from sepdraw.errors import InputError
from sepdraw.generators import all_edges


def _partial_edges(n, order, rng):
    """About two thirds of K_n's edges, plus an edge to the next spine
    vertex for each vertex they leave bare."""
    edges = {e for e in all_edges(n) if rng.random() < 0.67}
    touched = {x for e in edges for x in e}
    for i, v in enumerate(order):
        if v not in touched:
            w = order[(i + 1) % n]
            edges.add((min(v, w), max(v, w)))
    return sorted(edges)


def _inputs():
    """Seeded spine orders and pages for n = 3..14, each on the full and
    on a partial edge set, and the one-page drawing of K_n in label
    order, whose half-circles meet three or more at a point."""
    for n in range(3, 15):
        rng = random.Random(f"two-page:{n}")
        full = all_edges(n)
        yield list(range(1, n + 1)), full, ["upper"] * len(full)
        for _ in range(3):
            order = list(range(1, n + 1))
            rng.shuffle(order)
            for edges in (full, _partial_edges(n, order, rng)):
                pages = [rng.choice(("upper", "lower")) for _ in edges]
                yield order, edges, pages


@pytest.mark.parametrize("witnesses", [True, False])
def test_maps_match_reference(witnesses):
    cases = 0
    for order, edges, pages in _inputs():
        got, got_ws = from_two_page(order, edges, pages, witnesses)
        want, want_ws = reference_from_two_page(order, edges, pages, witnesses)
        assert serialize_cmap(got) == serialize_cmap(want), (order, pages)
        assert got_ws == want_ws
        cases += 1
    assert cases == 12 * 7


BAD_INPUTS = [
    ([1, 1, 2], [(1, 2)], ["upper"]),
    ([1, 2], [(1, 2), (2, 1)], ["upper", "upper"]),
    ([1, 2], [(2, 2)], ["upper"]),
    ([1, 2], [(1, 2)], ["upper", "lower"]),
    ([1, 2], [(1, 2)], ["sideways"]),
    ([1, 2], [(1, 3)], ["upper"]),
    ([1, 2, 3], [(1, 2)], ["upper"]),
    ([3, 1, 2], [(1, 2), (2, 3)], {(1, 2): "upper", (2, 3): "up"}),
]


@pytest.mark.parametrize("order, edges, pages", BAD_INPUTS)
def test_bad_input_messages_match_reference(order, edges, pages):
    with pytest.raises(InputError) as want:
        reference_from_two_page(order, edges, pages)
    with pytest.raises(InputError, match=f"^{re.escape(str(want.value))}$"):
        from_two_page(order, edges, pages)
