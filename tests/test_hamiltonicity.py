from __future__ import annotations

import hashlib
import itertools
import random

import pytest

from sepdraw.cmap import extract_rotation_system
from sepdraw.errors import InputError, SeparatorNotFoundError
from sepdraw.generators import random_two_page
from sepdraw.hamiltonicity import (
    ham_cycle,
    ham_path,
    plane_matching,
    verify_crossing_free,
)
from sepdraw.rotation import RotationSystem, convex
from sepdraw.separability import is_separable

from oracles import random_points, rotation_system_from_points
from test_separability import LOW_DEGREE_K6

# sha256 of every ham_path (all ordered pairs), ham_cycle and
# plane_matching answer, or exception type and message, on the 102 K6
# orbits and on straight-line K8-K10; see test_outputs_pinned.
HAMILTONICITY_DIGEST = (
    "1c5f25ddb3193b1cb53406a2224d9867fb102d923f858178ecab33a7ef51ab97"
)


def _check_path(tables, rs, p, v, w):
    assert p.vertices[0] == v and p.vertices[-1] == w
    assert sorted(p.vertices) == list(range(1, rs.n + 1))
    assert verify_crossing_free(tables, rs, p.edges)


class TestHamPath:
    def test_base_case_single_edge(self, tables):
        p = ham_path(tables, convex(2), 1, 2)
        assert p.vertices == (1, 2)

    def test_convex_k5_pair(self, tables):
        p = ham_path(tables, convex(5), 1, 3)
        _check_path(tables, convex(5), p, 1, 3)

    def test_all_pairs_on_separable_corpus(self, tables, enum5):
        for n in (3, 4, 5):
            for rep in enum5[n]:
                if not is_separable(tables, rep.rs).separable:
                    continue
                for v, w in itertools.permutations(range(1, n + 1), 2):
                    p = ham_path(tables, rep.rs, v, w)
                    _check_path(tables, rep.rs, p, v, w)

    def test_rejects_equal_endpoints(self, tables):
        with pytest.raises(InputError):
            ham_path(tables, convex(4), 2, 2)

    def test_stuck_instance_reports_sub_instance(self, tables):
        with pytest.raises(SeparatorNotFoundError) as exc:
            ham_path(tables, LOW_DEGREE_K6, 1, 6)
        assert exc.value.vertices == (1, 2, 3, 4, 5, 6)


class TestHamCycle:
    def test_k3_triangle(self, tables):
        c = ham_cycle(tables, convex(3))
        assert sorted(c.vertices) == [1, 2, 3]

    def test_convex_drawings(self, tables):
        for n in (4, 5, 6, 7):
            c = ham_cycle(tables, convex(n))
            assert sorted(c.vertices) == list(range(1, n + 1))
            assert verify_crossing_free(tables, convex(n), c.edges)

    def test_random_two_page(self, tables):
        rng = random.Random(31)
        for n in (5, 7, 10):
            for _ in range(3):
                m, _, _, _ = random_two_page(n, rng)
                rs = extract_rotation_system(m)
                c = ham_cycle(tables, rs)
                assert sorted(c.vertices) == list(range(1, n + 1))
                assert verify_crossing_free(tables, rs, c.edges)

    def test_too_small(self, tables):
        with pytest.raises(InputError):
            ham_cycle(tables, convex(2))


class TestPlaneMatching:
    def test_convex_k4_meets_floor_bound(self, tables):
        # the contract is size >= floor(4/4) = 1; recursing on both sides
        # of the first hull edge actually yields a perfect matching here
        m = plane_matching(tables, convex(4))
        assert len(m.edges) >= 1
        assert verify_crossing_free(tables, convex(4), m.edges)

    def test_tiny_inputs(self, tables):
        assert plane_matching(tables, convex(2)).edges == ((1, 2),)
        assert len(plane_matching(tables, convex(3)).edges) == 1

    def test_two_page_k12_meets_bound(self, tables):
        rng = random.Random(37)
        m, _, _, _ = random_two_page(12, rng)
        rs = extract_rotation_system(m)
        mt = plane_matching(tables, rs)
        assert len(mt.edges) >= 3
        assert verify_crossing_free(tables, rs, mt.edges)
        used = [x for e in mt.edges for x in e]
        assert len(used) == len(set(used))

    def test_bound_on_corpus(self, tables, enum5):
        for n in (4, 5):
            for rep in enum5[n]:
                mt = plane_matching(tables, rep.rs)
                assert len(mt.edges) >= n // 4
                assert verify_crossing_free(tables, rep.rs, mt.edges)

    def test_recursion_bound_brute_force(self):
        # worst case of the divide step: one matched edge retires the two
        # endpoints plus any split remainder; check floor(n/4) for n <= 12
        best = {0: 0, 1: 0}

        def g(n):
            if n in best:
                return best[n]
            val = 1 + min(
                g(a) + g(n - 2 - a) for a in range(0, n - 1)
            )
            best[n] = val
            return val

        for n in range(2, 13):
            assert g(n) >= n // 4


class TestVerifyCrossingFree:
    def test_hull_cycle(self, tables):
        hull = [(i, i % 5 + 1) for i in range(1, 6)]
        assert verify_crossing_free(tables, convex(5), hull)

    def test_crossing_diagonals(self, tables):
        assert not verify_crossing_free(
            tables, convex(5), [(1, 3), (2, 4)]
        )

    def test_single_edge(self, tables):
        assert verify_crossing_free(tables, convex(5), [(1, 3)])

    @pytest.mark.parametrize(
        "edges",
        [[(0, 99)], [(5, 7)], [(1, 3), (3, 9)]],
        ids=["both-out", "one-out", "adjacent-to-out"],
    )
    def test_every_edge_checked(self, tables, edges):
        with pytest.raises(InputError, match="outside 1..6"):
            verify_crossing_free(tables, convex(6), edges)


def _answer(call) -> str:
    try:
        return repr(call())
    except (InputError, SeparatorNotFoundError) as exc:
        return f"{type(exc).__name__}: {exc}"


def test_outputs_pinned(tables, enum6):
    """The constructions' answers, including every negative one, pinned
    on fresh copies of the K6 orbits and of straight-line K8-K10."""
    systems = [rep.rs for rep in enum6]
    systems += [
        rotation_system_from_points(random_points(n, random.Random(n)))
        for n in (8, 9, 10)
    ]
    h = hashlib.sha256()
    for base in systems:
        rs = RotationSystem(base.n, base.rows)
        for v, w in itertools.permutations(range(1, rs.n + 1), 2):
            got = _answer(lambda: ham_path(tables, rs, v, w).vertices)
            h.update(f"path {v} {w}: {got}\n".encode())
        h.update(f"cycle: {_answer(lambda: ham_cycle(tables, rs).vertices)}\n".encode())
        h.update(f"matching: {_answer(lambda: plane_matching(tables, rs).edges)}\n".encode())
    assert len(systems) == 105
    assert h.hexdigest() == HAMILTONICITY_DIGEST
