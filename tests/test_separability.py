from __future__ import annotations

import random

import pytest

from sepdraw.cmap import extract_rotation_system
from sepdraw.errors import InputError
from sepdraw.generators import random_two_page
from sepdraw.rotation import (
    RotationSystem,
    convex,
    crossing_pairs,
    crossings_of_edge,
    is_g_convex,
    is_realizable,
    mirror,
    relabel,
    subrotation,
)
from sepdraw.routing import find_witness
from sepdraw.separability import (
    certificate_json,
    evidence_partition,
    flip_candidates,
    is_separable,
    is_separator_edge,
    side_partition,
    uncrossed_partition,
    valid_flips,
)

from oracles import (
    random_points,
    reference_flip_candidates,
    reference_is_valid_flip,
    rotation_system_from_points,
)
from test_rotation import REROUTED_K5

# an enumerated K6 drawing whose vertices 1 and 6 have only {1,6} as
# their separator edge (used for the stuck-recursion error path)
LOW_DEGREE_K6 = RotationSystem(
    6,
    (
        (2, 6, 3, 5, 4),
        (1, 6, 4, 3, 5),
        (1, 6, 4, 2, 5),
        (1, 6, 2, 3, 5),
        (1, 6, 4, 2, 3),
        (1, 3, 5, 4, 2),
    ),
)


def _count_builds(monkeypatch) -> dict[str, int]:
    """Count the flipped systems built by ``sepdraw.separability`` while
    the test runs."""
    import sepdraw.separability as sep

    counts = {"built": 0}
    flipped = sep._flipped

    def counting(*args):
        counts["built"] += 1
        return flipped(*args)

    monkeypatch.setattr(sep, "_flipped", counting)
    return counts


class TestFlipCandidates:
    def test_convex_k7_long_diagonal(self):
        cands = flip_candidates(convex(7), (2, 6))
        assert [sorted(c.swept) for c in cands] == [[1, 7], [3, 4, 5]]

    def test_hull_edge_sweeps_everything(self):
        for n in (5, 7):
            cands = flip_candidates(convex(n), (1, 2))
            assert len(cands) == 1
            assert cands[0].swept == frozenset(range(3, n + 1))
            assert cands[0].new_rs == convex(n)

    def test_endpoint_out_of_range_is_input_error(self, tables):
        rs = convex(7)
        for e in ((1, 99), (0, 2), (-1, 3), (7, 8)):
            for call in (
                lambda: flip_candidates(rs, e),
                lambda: valid_flips(tables, rs, e),
                lambda: is_separator_edge(tables, rs, e),
            ):
                with pytest.raises(InputError):
                    call()

    def test_new_rs_is_built_on_first_access(self):
        cand = flip_candidates(convex(7), (2, 6))[0]
        assert "new_rs" not in vars(cand)
        first = cand.new_rs
        assert cand.new_rs is first
        assert first.rotation(2) != convex(7).rotation(2)

    def test_is_separable_and_certificate_build_no_system(
        self, tables, monkeypatch
    ):
        # candidates are validated from the input system's masks, and
        # certificates read the two new rotations of each accepted flip
        counts = _count_builds(monkeypatch)
        for rs in (
            convex(9),
            rotation_system_from_points(random_points(9, random.Random(9))),
        ):
            res = is_separable(tables, rs)
            assert res.separable
            cert = certificate_json(res.certificate)
            assert any(entry != "uncrossed" for entry in cert.values())
        assert counts["built"] == 0

    def test_valid_flips_builds_only_valid_systems(self, tables, monkeypatch):
        # the dedup of valid_flips compares the flipped systems of valid
        # candidates only, so no other candidate's system is built, and
        # the first valid flip of an edge is compared with nothing.  The
        # valid candidates are counted first, by the reference validation,
        # on flipped systems the oracle builds itself.
        systems = (
            convex(9),
            rotation_system_from_points(random_points(9, random.Random(9))),
        )
        candidates = valid = 0
        for rs in systems:
            for e in rs.edges():
                old = crossings_of_edge(tables, rs, e)
                for cand in reference_flip_candidates(rs, e):
                    candidates += 1
                    valid += reference_is_valid_flip(tables, e, cand, old)
        counts = _count_builds(monkeypatch)
        for rs in systems:
            for e in rs.edges():
                valid_flips(tables, rs, e)
        assert 0 < counts["built"] <= valid < candidates

    def test_k3_single_candidate(self):
        cands = flip_candidates(convex(3), (1, 2))
        assert len(cands) == 1 and cands[0].swept == frozenset({3})

    def test_candidates_only_touch_endpoint_rotations(self):
        for cand in flip_candidates(convex(7), (2, 6)):
            for v in range(1, 8):
                if v in (2, 6):
                    continue
                assert cand.new_rs.rotation(v) == convex(7).rotation(v)


class TestValidFlips:
    def test_convex_k7_unique_flip(self, tables):
        flips = valid_flips(tables, convex(7), (2, 6))
        assert len(flips) == 1
        assert flips[0].swept == frozenset({7, 1})
        # the rerouted edge is uncrossed
        assert not crossings_of_edge(tables, flips[0].new_rs, (2, 6))

    def test_convex_k4_diagonal_flip_uncrossed(self, tables):
        flips = valid_flips(tables, convex(4), (1, 3))
        assert len(flips) == 1
        assert flips[0].swept in (frozenset({2}), frozenset({4}))
        assert not crossings_of_edge(tables, flips[0].new_rs, (1, 3))

    def test_flip_invariants(self, tables, enum5):
        for rep in enum5[5]:
            for e in rep.rs.edges():
                for f in valid_flips(tables, rep.rs, e):
                    assert f.swept
                    assert not f.swept & set(e)
                    assert is_realizable(tables, f.new_rs)

    def test_crossing_preservation(self, tables, enum5):
        # crossing pairs not involving the flipped edge are unchanged
        for rep in enum5[5]:
            base = crossing_pairs(tables, rep.rs)
            for e in rep.rs.edges():
                ek = tuple(sorted(e))
                rest = {p for p in base if ek not in p}
                for f in valid_flips(tables, rep.rs, e):
                    after = crossing_pairs(tables, f.new_rs)
                    assert {p for p in after if ek not in p} == rest


class TestSeparatorEdge:
    def test_hull_edge_is_uncrossed(self, tables):
        ev = is_separator_edge(tables, convex(7), (1, 2))
        assert ev.uncrossed and ev.flip is None

    def test_diagonal_has_flip_evidence(self, tables):
        ev = is_separator_edge(tables, convex(7), (2, 6))
        assert not ev.uncrossed
        assert ev.flip.swept == frozenset({7, 1})

    def test_agrees_with_topological_witness_search(self, tables, enum5):
        for n in (4, 5):
            for rep in enum5[n]:
                for e in rep.rs.edges():
                    flip_ans = is_separator_edge(tables, rep.rs, e)
                    wit = find_witness(rep.map, e)
                    assert (flip_ans is not None) == (wit is not None)


class TestIsSeparable:
    def test_two_page_drawings(self, tables):
        rng = random.Random(17)
        for n in (4, 6, 8):
            for _ in range(5):
                m, _, _, _ = random_two_page(n, rng)
                rs = extract_rotation_system(m)
                assert is_separable(tables, rs).separable

    def test_rerouted_k5_separable_not_gconvex(self, tables):
        assert is_separable(tables, REROUTED_K5).separable
        assert not is_g_convex(tables, REROUTED_K5)

    def test_k3(self, tables):
        res = is_separable(tables, convex(3))
        assert res.separable
        assert all(ev.uncrossed for ev in res.certificate.entries)

    def test_exactly_one_k5_orbit_fails(self, tables, enum5):
        fails = [
            rep for rep in enum5[5]
            if not is_separable(tables, rep.rs).separable
        ]
        assert len(fails) == 1
        res = is_separable(tables, fails[0].rs)
        assert res.failed_edge is not None

    def test_invariance_under_relabel_and_mirror(self, tables, enum5):
        rng = random.Random(23)
        for rep in enum5[5]:
            base = is_separable(tables, rep.rs).separable
            perm = list(range(1, 6))
            rng.shuffle(perm)
            assert is_separable(tables, relabel(rep.rs, perm)).separable == base
            assert is_separable(tables, mirror(rep.rs)).separable == base

    def test_subset_closure(self, tables, enum6):
        rng = random.Random(29)
        separable = [
            r for r in enum6 if is_separable(tables, r.rs).separable
        ]
        for rep in rng.sample(separable, 6):
            for _ in range(3):
                k = rng.randint(3, 5)
                sub = subrotation(rep.rs, rng.sample(range(1, 7), k))
                assert is_separable(tables, sub).separable

    def test_gconvex_implies_separable_small(self, tables, enum5):
        for n in (4, 5):
            for rep in enum5[n]:
                if is_g_convex(tables, rep.rs):
                    assert is_separable(tables, rep.rs).separable

    def test_class_counts_of_the_orbits(self, tables, enum5, enum6):
        """Orbits, separable ones, g-convex ones, and g-convex ones that
        are not separable, at K5 and K6: claim 3 holds at n <= 6."""
        counts = {}
        for n, reps in ((5, enum5[5]), (6, enum6)):
            sep = [is_separable(tables, r.rs).separable for r in reps]
            conv = [is_g_convex(tables, r.rs) for r in reps]
            counts[n] = (len(reps), sum(sep), sum(conv),
                         sum(c and not s for s, c in zip(sep, conv)))
        assert counts == {5: (5, 4, 3, 0), 6: (102, 41, 16, 0)}


class TestSidePartition:
    def test_fig_style_partition(self, tables):
        flips = valid_flips(tables, convex(7), (2, 6))
        v1, v2 = side_partition(convex(7), flips[0])
        assert v1 == frozenset({7, 1, 2, 6})
        assert v2 == frozenset({3, 4, 5, 2, 6})

    def test_uncrossed_degenerate(self):
        v1, v2 = uncrossed_partition(convex(5), (1, 2))
        assert v1 == frozenset({1, 2})
        assert v2 == frozenset(range(1, 6))

    def test_k3(self, tables):
        flips = valid_flips(tables, convex(3), (1, 2))
        v1, v2 = side_partition(convex(3), flips[0])
        assert v1 == frozenset({1, 2, 3})
        assert v2 == frozenset({1, 2})

    def test_separation_invariant(self, tables, enum5):
        # no crossing pair straddles the two sides of any valid flip
        for rep in enum5[5]:
            pairs = crossing_pairs(tables, rep.rs)
            for e in rep.rs.edges():
                ek = set(e)
                for f in valid_flips(tables, rep.rs, e):
                    v1, v2 = side_partition(rep.rs, f)
                    only1 = v1 - ek
                    only2 = v2 - ek
                    for p, q in pairs:
                        if tuple(sorted(e)) in (p, q):
                            continue
                        assert not (set(p) <= only1 and set(q) <= only2)
                        assert not (set(q) <= only1 and set(p) <= only2)


class TestQueryModes:
    def test_separator_degree_on_convex(self, tables):
        from sepdraw.separability import (
            find_any_separator_edge,
            separator_edges_at,
        )

        # every vertex of a convex drawing touches its two hull edges
        for v in range(1, 7):
            edges = separator_edges_at(tables, convex(6), v)
            assert len(edges) >= 2
        ev = find_any_separator_edge(tables, convex(6))
        assert ev is not None and ev.edge == (1, 2)

    def test_low_degree_instance(self, tables):
        from sepdraw.separability import separator_edges_at

        assert separator_edges_at(tables, LOW_DEGREE_K6, 1) == [(1, 6)]


class TestCertificate:
    def test_json_shape(self, tables):
        res = is_separable(tables, convex(5))
        payload = certificate_json(res.certificate)
        assert payload["1,2"] == "uncrossed"
        entry = payload["1,3"]
        assert set(entry) == {"swept", "new_rotations"}
        assert set(entry["new_rotations"]) == {"1", "3"}

    def test_partition_helper_covers_both_evidence_kinds(self, tables):
        res = is_separable(tables, convex(5))
        for ev in res.certificate.entries:
            v1, v2 = evidence_partition(convex(5), ev)
            assert v1 | v2 == frozenset(range(1, 6))
            assert set(ev.edge) <= v1 and set(ev.edge) <= v2
