"""Triangle sides, g-convexity and crossing-free checks against their
per-pair references in ``oracles``, plus the realizability check at the
library entry points.

The library reads the memoized crossing masks; the references make one
``reference_pair_crossing`` call per pair of edges.  On realizable
systems the answers must agree.  ``verify_crossing_free`` must also
raise the same error for the same first bad edge on any system, and on
a system with an unrealizable quad the error of the first such quad in
sorted order.
"""
from __future__ import annotations

import itertools
import random

import pytest

from oracles import (
    k4_consistent_unrealizable_k5,
    random_points,
    reference_is_g_convex,
    reference_k4_index,
    reference_same_triangle_side,
    reference_triangle_sides,
    reference_verify_crossing_free,
    rotation_system_from_points,
)
from sepdraw.cmap import extract_rotation_system, from_two_page
from sepdraw.errors import InputError, RealizabilityError
from sepdraw.hamiltonicity import (
    ham_cycle,
    ham_path,
    plane_matching,
    verify_crossing_free,
)
from sepdraw.rotation import (
    RotationSystem,
    is_g_convex,
    mirror,
    relabel,
    _triangle_sides,
    crossing_masks,
    edge_index,
    same_triangle_side,
)
from sepdraw.separability import (
    find_any_separator_edge,
    is_separable,
    is_separator_edge,
    separator_edges_at,
    valid_flips,
)
from test_rotation import REROUTED_K5, _sorted_error


def _two_page(n: int, rng: random.Random) -> RotationSystem:
    order = list(range(1, n + 1))
    rng.shuffle(order)
    edges = list(itertools.combinations(range(1, n + 1), 2))
    pages = [rng.choice(("upper", "lower")) for _ in edges]
    m, _ = from_two_page(order, edges, pages, witnesses=False)
    return extract_rotation_system(m)


@pytest.fixture(scope="module")
def corpus(enum5, enum6):
    """Every K4-K6 orbit under two seeded relabelings and their mirrors,
    straight-line K7-K14, 2-page K7-K12 and ``REROUTED_K5``."""
    rng = random.Random(10)
    out = []
    for rep in list(enum5[4]) + list(enum5[5]) + list(enum6):
        for _ in range(2):
            perm = list(range(1, rep.rs.n + 1))
            rng.shuffle(perm)
            rs = relabel(rep.rs, perm)
            out += [rs, mirror(rs)]
    for n in range(7, 15):
        out.append(rotation_system_from_points(random_points(n, rng)))
    for n in range(7, 13):
        out.append(_two_page(n, rng))
    out.append(REROUTED_K5)
    return out


def test_is_g_convex_matches_reference(tables, corpus):
    answers = []
    for rs in corpus:
        ans = is_g_convex(tables, rs)
        assert ans == reference_is_g_convex(tables, rs), rs
        answers.append(ans)
    assert True in answers and False in answers


def test_triangle_sides_match_reference(tables, corpus):
    """The sides that :func:`is_g_convex` reads off the crossing masks."""
    for rs in corpus:
        masks = crossing_masks(tables, rs)
        for T in itertools.combinations(range(1, rs.n + 1), 3):
            want = reference_triangle_sides(tables, rs, T)
            sides = _triangle_sides(masks, edge_index(rs.n), T)
            assert tuple(map(frozenset, sides)) == want, (rs, T)


def test_same_triangle_side_matches_reference(tables, corpus):
    for rs in corpus:
        if rs.n > 6:
            continue
        for T in itertools.combinations(range(1, rs.n + 1), 3):
            others = [x for x in range(1, rs.n + 1) if x not in T]
            for u, v in itertools.permutations(others, 2):
                want = reference_same_triangle_side(tables, rs, T, u, v)
                assert same_triangle_side(tables, rs, T, u, v) == want


def _outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except Exception as exc:  # noqa: BLE001 - compared by type and text
        return (type(exc), str(exc), getattr(exc, "subset", None))


def _random_system(n: int, rng: random.Random) -> RotationSystem:
    """Random rotations: most such systems have unrealizable quads."""
    rows = []
    for v in range(1, n + 1):
        row = [x for x in range(1, n + 1) if x != v]
        rng.shuffle(row)
        rows.append(tuple(row))
    return RotationSystem(n, rows)


def test_verify_crossing_free_matches_reference(tables, corpus):
    """Seeded edge lists with crossings, duplicates, adjacent pairs,
    degenerate edges and labels outside 1..n, on realizable systems and
    on random ones with unrealizable quads: same answer, or the same
    exception type, message and subset.  Past the edge checks, a system
    with an unrealizable quad raises the sorted reference's first
    error."""
    rng = random.Random(11)
    systems = corpus[::7] + [_random_system(n, rng) for n in (5, 6, 8, 10)]
    kinds = set()
    for rs in systems:
        n = rs.n
        quads = itertools.combinations(range(1, n + 1), 4)
        k4_ref = {q: reference_k4_index(rs, q) for q in quads}
        error = _sorted_error(tables, k4_ref)
        for trial in range(30):
            hi = n + 1 if trial % 3 == 0 else n
            lo = 0 if trial % 5 == 0 else 1
            edges = [
                (rng.randint(lo, hi), rng.randint(lo, hi))
                for _ in range(rng.randint(0, 2 * n))
            ]
            if trial % 4:
                edges = [e for e in edges if e[0] != e[1]]
            got = _outcome(verify_crossing_free, tables, rs, edges)
            want = _outcome(reference_verify_crossing_free, tables, rs, edges)
            if error is not None and want[0] is not InputError:
                want = (type(error), str(error), error.subset)
            assert got == want, (rs, edges)
            kinds.add(got[0] if got[0] != "ok" else got)
    want_kinds = {("ok", True), ("ok", False), InputError, RealizabilityError}
    assert want_kinds <= kinds


def test_entry_points_reject_k4_consistent_unrealizable_k5(tables):
    """On the 72 unrealizable K5 systems whose 4-subsystems are all
    realizable, the constructions, ``is_g_convex`` and the separability
    entry points raise instead of answering (without the check,
    ``ham_cycle`` returned a crossing cycle on 60 of them)."""
    systems = k4_consistent_unrealizable_k5(tables)
    assert len(systems) == 72
    calls = [
        lambda rs: ham_path(tables, rs, 1, 3),
        lambda rs: ham_cycle(tables, rs),
        lambda rs: plane_matching(tables, rs),
        lambda rs: is_g_convex(tables, rs),
        lambda rs: is_separable(tables, rs),
        lambda rs: is_separator_edge(tables, rs, (2, 4)),
        lambda rs: valid_flips(tables, rs, (1, 5)),
        lambda rs: separator_edges_at(tables, rs, 3),
        lambda rs: find_any_separator_edge(tables, rs),
    ]
    for rs in systems:
        for call in calls:
            # a fresh copy: no call reads another's memoized verdict
            with pytest.raises(RealizabilityError, match="not realizable"):
                call(RotationSystem(rs.n, rs.rows))
