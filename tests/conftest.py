from __future__ import annotations

import re
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

import sepdraw.enumeration as enumeration
import sepdraw.extension as extension
import sepdraw.generators as generators
import sepdraw.routing as routing
from oracles import reference_freeze, reference_with_route
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


@pytest.fixture
def checked_route(monkeypatch):
    """Makes every ``with_route`` call that library code or the test
    makes through ``sepdraw.routing`` compare its map, all six fields,
    and its curve id with ``reference_with_route`` of the same arguments,
    or its error with the reference's.  Returns the path each call took,
    ``"splice"`` or ``"builder"``, in call order."""
    with_route = routing.with_route
    splice = routing._splice
    paths = []

    def spliced(*args):
        paths[-1] = "splice"
        return splice(*args)

    def checking(m, kind, u, v, route):
        """``with_route`` after checking it against the reference."""
        paths.append("builder")
        try:
            want = reference_with_route(m, kind, u, v, route)
        except Exception as exc:  # the error is part of the answer
            with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                with_route(m, kind, u, v, route)
            raise
        got = with_route(m, kind, u, v, route)
        assert got == want  # the map's six fields and the curve id
        return got

    monkeypatch.setattr(routing, "_splice", spliced)
    for module in (routing, enumeration, extension, generators):
        monkeypatch.setattr(module, "with_route", checking)
    return paths
