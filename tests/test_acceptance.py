"""Acceptance suite: one test per shipped guarantee, each printing a
pass/fail line.  Run with ``pytest tests/test_acceptance.py -v -s``.

Corpus sizes, tolerances and time budgets are pinned here and must not
be weakened.
"""
from __future__ import annotations

import itertools
import math
import random
import time
from pathlib import Path

import pytest

import sepdraw.extension as ext
from sepdraw.cmap import (
    EDGE,
    crossing_pairs_of_map,
    extract_rotation_system,
    validate_map,
)
from sepdraw.generators import (
    random_planar_map,
    random_two_page,
    random_two_page_minus,
)
from sepdraw.hamiltonicity import (
    ham_cycle,
    ham_path,
    plane_matching,
    verify_crossing_free,
)
from sepdraw.rotation import (
    K4_UNREALIZABLE,
    _roll_min,
    convex,
    is_g_convex,
    pair_crossing,
)
from sepdraw.routing import min_cost_route
from sepdraw.separability import is_separable, valid_flips

from oracles import (
    exhaustive_min_route_cost,
    reference_check_simple_vs_original,
)
from test_rotation import REROUTED_K5, _orbit_encodings


def _report(num, ok, detail):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def two_page_500(tables):
    """The 500-instance seeded 2-page corpus, 4 <= n <= 10."""
    rng = random.Random(20240)
    out = []
    sizes = [4 + (i % 7) for i in range(500)]
    for n in sizes:
        m, _, _, _ = random_two_page(n, rng)
        out.append((n, extract_rotation_system(m)))
    return out


def test_criterion_1_table_derivation(tables, enum5):
    t0 = time.perf_counter()
    mismatches = 0
    assert len(tables.k4) == 16
    assert all(v in (K4_UNREALIZABLE, -1, 0, 1, 2) for v in tables.k4)
    assert all(0 <= i < 6**5 for i in tables.k5)
    for n in (4, 5):
        for rep in enum5[n]:
            explicit = crossing_pairs_of_map(rep.map)
            for e, f in itertools.combinations(rep.rs.edges(), 2):
                if set(e) & set(f):
                    continue
                want = tuple(sorted((e, f))) in explicit
                if pair_crossing(tables, rep.rs, e, f) != want:
                    mismatches += 1
    dt = time.perf_counter() - t0
    _report(
        1,
        mismatches == 0 and dt < 60,
        f"16 k4 entries, {len(tables.k5)} k5 entries, "
        f"{mismatches} crossing mismatches on enumerated K4/K5 [{dt:.1f}s]",
    )


def _quad_realizable(rows, quad, k4):
    idx = 0
    for bit, v in enumerate(quad):
        row = rows[v]
        a, b, c = (x for x in quad if x != v)
        L = len(row)
        pa, pb, pc = row.index(a), row.index(b), row.index(c)
        if not (pb - pa) % L < (pc - pa) % L:
            idx |= 1 << bit
    return k4[idx] != K4_UNREALIZABLE


def _quint_index(rows, quint):
    ranks = {
        p: r for r, p in enumerate(itertools.permutations((0, 1, 2)))
    }
    idx = 0
    power = 1
    for v in quint:
        row = rows[v]
        others = [x for x in quint if x != v]
        L = len(row)
        pa = row.index(others[0])
        rel = [(row.index(x) - pa) % L for x in others[1:]]
        order = tuple(sorted(range(3), key=lambda i: rel[i]))
        idx += ranks[order] * power
        power *= 6
    return idx


def _k6_systems_passing_five_tuple(tables):
    """Labeled encodings of every 6-vertex rotation system whose six
    5-vertex subsystems are all realizable."""
    from sepdraw.rotation import k5_system

    k4, k5 = tables.k4, tables.k5
    quints_with6 = [
        tuple(sorted(s + (6,)))
        for s in itertools.combinations(range(1, 6), 4)
    ]
    out = set()
    for base_idx in sorted(k5):
        base = k5_system(base_idx)
        rows5 = {v: base.rotation(v) for v in range(1, 6)}
        for rest in itertools.permutations((2, 3, 4, 5)):
            rows = dict(rows5)
            rows[6] = (1,) + rest

            def rec(v):
                if v == 6:
                    for quint in quints_with6:
                        if _quint_index(rows, quint) not in k5:
                            return
                    enc = b"".join(
                        bytes(_roll_min(rows[x])) for x in range(1, 7)
                    )
                    out.add(enc)
                    return
                old = rows[v]
                for pos in range(4):
                    rows[v] = old[:pos] + (6,) + old[pos:]
                    ok = all(
                        _quad_realizable(rows, (a, b, v, 6), k4)
                        for a, b in itertools.combinations(range(1, v), 2)
                    )
                    if ok and v == 4:
                        ok = _quint_index(rows, (1, 2, 3, 4, 6)) in k5
                    if ok:
                        rec(v + 1)
                rows[v] = old

            rec(1)
    return out


def test_criterion_2_five_tuple_closure(tables, enum6):
    t0 = time.perf_counter()
    passing = _k6_systems_passing_five_tuple(tables)
    enumerated = set()
    for rep in enum6:
        for row in _orbit_encodings(rep.rs):
            enumerated.add(row.tobytes())
    dt = time.perf_counter() - t0
    _report(
        2,
        passing == enumerated and dt < 1800,
        f"{len(passing)} labeled systems pass the 5-tuple test, "
        f"{len(enumerated)} lie in enumerated orbits; sets "
        f"{'equal' if passing == enumerated else 'DIFFER'} [{dt:.1f}s]",
    )


def test_criterion_3_uncrossed_edge_law(enum5, enum6):
    exceptions = 0
    total = 0
    for reps in (enum5[3], enum5[4], enum5[5], enum6):
        for rep in reps:
            total += 1
            crossed = {
                e for p in crossing_pairs_of_map(rep.map) for e in p
            }
            n = rep.rs.n
            if len(crossed) >= n * (n - 1) // 2:
                exceptions += 1
    _report(
        3,
        exceptions == 0,
        f"{total} drawings at n<=6, {exceptions} without an uncrossed edge",
    )


def test_criterion_4_unique_flip_of_the_long_diagonal(tables):
    flips = valid_flips(tables, convex(7), (2, 6))
    ok = len(flips) == 1 and flips[0].swept == frozenset({7, 1})
    _report(
        4,
        ok,
        f"valid flips of {{2,6}} in convex K7: "
        f"{[sorted(f.swept) for f in flips]}",
    )


def test_criterion_5_two_page_drawings_are_separable(tables, two_page_500):
    t0 = time.perf_counter()
    failures = sum(
        1
        for _, rs in two_page_500
        if not is_separable(tables, rs).separable
    )
    dt = time.perf_counter() - t0
    _report(
        5,
        failures == 0 and dt < 300,
        f"500 seeded 2-page drawings, {failures} non-separable [{dt:.1f}s]",
    )


def test_criterion_6_gconvex_implies_separable(tables, enum5, enum6):
    counterexamples = 0
    checked = 0
    for reps in (enum5[3], enum5[4], enum5[5], enum6):
        for rep in reps:
            if is_g_convex(tables, rep.rs):
                checked += 1
                if not is_separable(tables, rep.rs).separable:
                    counterexamples += 1
    hand = (
        is_separable(tables, REROUTED_K5).separable
        and not is_g_convex(tables, REROUTED_K5)
    )
    _report(
        6,
        counterexamples == 0 and hand,
        f"{checked} g-convex drawings all separable; rerouted-hull K5 is "
        f"separable and not g-convex: {hand}",
    )


@pytest.fixture(scope="module")
def separable_corpus(tables, enum5, enum6, two_page_500):
    out = []
    for reps in (enum5[3], enum5[4], enum5[5], enum6):
        for rep in reps:
            if is_separable(tables, rep.rs).separable:
                out.append(rep.rs)
    out.extend(rs for _, rs in two_page_500)
    return out


def test_criterion_7_plane_hamiltonicity(tables, separable_corpus):
    t0 = time.perf_counter()
    path_fail = cycle_fail = 0
    npaths = 0
    for rs in separable_corpus:
        n = rs.n
        for v, w in itertools.permutations(range(1, n + 1), 2):
            p = ham_path(tables, rs, v, w)
            npaths += 1
            if (
                p.vertices[0] != v
                or p.vertices[-1] != w
                or sorted(p.vertices) != list(range(1, n + 1))
                or not verify_crossing_free(tables, rs, p.edges)
            ):
                path_fail += 1
        c = ham_cycle(tables, rs)
        if sorted(c.vertices) != list(
            range(1, n + 1)
        ) or not verify_crossing_free(tables, rs, c.edges):
            cycle_fail += 1
    dt = time.perf_counter() - t0
    _report(
        7,
        path_fail == 0 and cycle_fail == 0 and dt < 900,
        f"{npaths} Hamiltonian paths and {len(separable_corpus)} cycles on "
        f"the separable corpus, {path_fail}+{cycle_fail} failures [{dt:.1f}s]",
    )


def test_criterion_8_matching_contract(tables, separable_corpus):
    t0 = time.perf_counter()
    failures = 0
    for rs in separable_corpus:
        mt = plane_matching(tables, rs)
        used = [x for e in mt.edges for x in e]
        ok = (
            len(mt.edges) >= rs.n // 4
            and len(used) == len(set(used))
            and verify_crossing_free(tables, rs, mt.edges)
        )
        if not ok:
            failures += 1
    dt = time.perf_counter() - t0
    _report(
        8,
        failures == 0,
        f"matchings of size >= floor(n/4) on {len(separable_corpus)} "
        f"drawings, {failures} failures [{dt:.1f}s]",
    )


def test_criterion_9_separable_completion(tables):
    t0 = time.perf_counter()
    rng = random.Random(20241)
    failures = 0
    fixups = 0
    for i in range(200):
        n = 5 + (i % 4)
        m, _, _ = random_two_page_minus(n, n, rng)
        res = ext.extend_to_complete_separable(m)
        ok = validate_map(res.map) == []
        for ins in res.insertions:
            if reference_check_simple_vs_original(ins.map, ins.curve_id):
                ok = False
        for a, b in zip(res.potential_log, res.potential_log[1:]):
            if not b < a:
                ok = False
        fixups += max(0, len(res.potential_log) - 1)
        if not ok:
            failures += 1
    dt = time.perf_counter() - t0
    _report(
        9,
        failures == 0 and dt < 600,
        f"200 seeded completions (5<=n<=8), {failures} failures, "
        f"{fixups} fix-up steps total [{dt:.1f}s]",
    )


def test_criterion_10_crossmin_completion(tables):
    t0 = time.perf_counter()
    rng = random.Random(20242)
    failures = 0
    for i in range(100):
        n = 4 + (i % 5)
        m = random_planar_map(n, rng)
        if crossing_pairs_of_map(m):
            failures += 1
            continue
        res = ext.extend_to_complete_crossmin(m)
        if validate_map(res.map) != []:
            failures += 1
    dt = time.perf_counter() - t0
    _report(
        10,
        failures == 0,
        f"100 seeded planar drawings (n<=8) completed simply, "
        f"{failures} failures [{dt:.1f}s]",
    )


def test_criterion_11_router_optimality(tables):
    rng = random.Random(20243)
    checked = 0
    mismatches = 0
    while checked < 50:
        n = rng.choice((4, 5))
        with_witnesses = rng.random() < 0.5
        if with_witnesses:
            m, _, _ = random_two_page_minus(n, n - 2, rng)
            kinds = (EDGE, "witness")
        else:
            m, _, _, _ = random_two_page(n, rng)
            kinds = (EDGE,)
        if len(m.faces) > 12:
            continue
        present = {c.edge() for c in m.curves if c.kind == EDGE}
        absent = [
            (u, v)
            for u, v in itertools.combinations(range(1, n + 1), 2)
            if (u, v) not in present
        ]
        u, v = rng.choice(absent) if absent else rng.sample(range(1, n + 1), 2)

        def cost(cid, m=m, kinds=kinds):
            return 1 if m.curves[cid].kind in kinds else 0

        got = min_cost_route(
            m, m.real_by_label[u], m.real_by_label[v], cost
        )[1]
        want = exhaustive_min_route_cost(
            m, u, v, lambda c: cost(c)
        )
        if got != want:
            mismatches += 1
        checked += 1
    _report(
        11,
        mismatches == 0,
        f"50 small maps (<=12 faces): router vs exhaustive enumeration, "
        f"{mismatches} mismatches",
    )


def test_criterion_12_recognition_performance(tables):
    times = {}
    for n in (10, 15, 20, 25, 30):
        t0 = time.perf_counter()
        res = is_separable(tables, convex(n))
        times[n] = time.perf_counter() - t0
        assert res.separable
    xs = [math.log(n) for n in times]
    ys = [math.log(max(t, 1e-9)) for t in times.values()]
    xbar = sum(xs) / len(xs)
    ybar = sum(ys) / len(ys)
    slope = sum(
        (x - xbar) * (y - ybar) for x, y in zip(xs, ys)
    ) / sum((x - xbar) ** 2 for x in xs)
    ok = times[30] < 60 and slope <= 6.5
    _report(
        12,
        ok,
        f"convex K30 in {times[30]:.2f}s, log-log slope {slope:.2f}",
    )


def test_criterion_13_stretch_goals_documented():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text()
    ok = "stretch goals" in text.lower() and "K8" in text
    _report(
        13,
        ok,
        "the two K8-scale reproductions (separator-free drawings; the "
        "19-crossing completion bound) are documented as manual-fixture "
        "stretch goals, not automated checks",
    )
