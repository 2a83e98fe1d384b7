from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from oracles import reference_freeze
from sepdraw.cmap import MapBuilder
from sepdraw.enumeration import default_tables, enumerate_good_drawings


@pytest.fixture(scope="session")
def tables():
    return default_tables()


@pytest.fixture(scope="session")
def enum5():
    """All enumerated drawings up to n=5 (fast)."""
    return {n: enumerate_good_drawings(n) for n in (3, 4, 5)}


@pytest.fixture(scope="session")
def enum6():
    """The n=6 level (a few seconds; shared across tests)."""
    return enumerate_good_drawings(6)


@pytest.fixture
def checked_freeze(monkeypatch):
    """Makes every ``MapBuilder.freeze`` in the test check the builder's
    rotation lists and compare its map, all six fields, with
    ``reference_freeze`` of the same builder; returns the list of maps
    checked."""
    freeze = MapBuilder.freeze
    checked = []

    def checking(b):
        """``freeze`` after checking that every dart of a segment on a
        chain is listed once, at its own vertex, and no other dart is,
        and comparing the map with the reference."""
        listed = [d for rot in b.rot for d in rot]
        assert len(set(listed)) == len(listed)
        assert all(b.dvert[d] == v for v, rot in enumerate(b.rot) for d in rot)
        on_chains = [d for segs in b.csegs for s in segs
                     for d in (2 * s, 2 * s + 1)]
        assert sorted(listed) == sorted(on_chains)
        want = reference_freeze(b)
        got = freeze(b)
        assert got == want  # compares all six fields
        checked.append(got)
        return got

    monkeypatch.setattr(MapBuilder, "freeze", checking)
    return checked
