"""``MapBuilder.freeze`` and ``MapBuilder.from_map`` against the
reference compaction of ``tests/oracles.py``.

``freeze`` numbers darts through one list and maps each vertex's dart
list through it; ``reference_freeze`` is the version that numbered
segments through a dict and listed every vertex's live darts in a pass
over all darts.  The ``checked_freeze`` fixture compares the two,
all six fields of the map, on every freeze of a test: here on
``from_map`` copies of the golden corpus, and in
``tests/test_extension.py`` on the fix-up surgery builders (dead
segments, removed darts, an excised loop).  The enumerator builds no
builder: it splices each route into a frozen map, and the
``checked_route`` fixture compares every splice with
``reference_with_route``, whose compaction is ``reference_freeze``.
"""
from __future__ import annotations

import random

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


def test_enumeration_builders(checked_route, checked_freeze):
    enumerate_good_drawings(5)
    # every inner star edge, and the leaf of each of the 2 + 5 new orbits
    # (8 and 109 leaves at n = 4 and 5 are deduplicated without a map),
    # each spliced into a frozen map; the one freeze is from_two_page's
    # triangle
    assert checked_route == ["splice"] * 164
    assert len(checked_freeze) == 1


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
