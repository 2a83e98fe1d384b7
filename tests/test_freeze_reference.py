"""``MapBuilder.freeze`` and ``MapBuilder.from_map`` against the
reference compaction of ``tests/oracles.py``.

``freeze`` numbers darts through one list and maps each vertex's dart
list through it; ``reference_freeze`` is the version that numbered
segments through a dict and listed every vertex's live darts in a pass
over all darts.  The ``checked_freeze`` fixture compares the two,
all six fields of the map, on every freeze of a test: here on every
builder the enumerator routes through and on ``from_map`` copies of the
golden corpus, and in ``tests/test_extension.py`` on the fix-up surgery
builders (dead segments, removed darts, an excised loop).
"""
from __future__ import annotations

import random

import sepdraw.enumeration as enumeration
from sepdraw.cmap import MapBuilder
from sepdraw.enumeration import enumerate_good_drawings
from sepdraw.generators import random_planar_map

import test_cmap
from test_map_golden import (
    _crossmin_inputs,
    _probe_maps,
    _separable_inputs,
    _two_page_maps,
)


def test_enumeration_builders(checked_freeze, monkeypatch):
    routed = []
    with_route = enumeration.with_route

    def counting(*args):
        """Counts the copy-route-freeze steps, each one checked freeze."""
        before = len(checked_freeze)
        out = with_route(*args)
        assert len(checked_freeze) == before + 1
        routed.append(args[1:])
        return out

    monkeypatch.setattr(enumeration, "with_route", counting)
    enumerate_good_drawings(5)
    # every inner star edge, and the leaf of each of the 2 + 5 new orbits
    # (8 and 109 leaves at n = 4 and 5 are deduplicated without a map)
    assert len(routed) == 164


def test_from_map_round_trips_golden_corpus(checked_freeze):
    rng = random.Random(48)
    maps = _two_page_maps() + _separable_inputs() + _crossmin_inputs()
    maps += [o[1] for o in _probe_maps() if o[0] == "ok"]
    maps += [random_planar_map(n, rng) for n in (2, 3, 6, 10)]
    checked_freeze.clear()
    for m in maps:
        for mm in (m, test_cmap.TestFromMap.renumber_segments(m, rng)):
            b = MapBuilder.from_map(mm)
            assert b.rot == [list(r) for r in mm.vdarts]
            assert b.freeze() == m
    assert len(checked_freeze) == 2 * len(maps)
