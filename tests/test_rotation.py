from __future__ import annotations

import itertools
import random

import numpy as np
import pytest

import sepdraw.enumeration as enumeration
import sepdraw.rotation as rotation
from sepdraw.errors import (
    AdjacentEdgesError,
    InputError,
    RealizabilityError,
)
from sepdraw.hamiltonicity import verify_crossing_free
from sepdraw.rotation import (
    K4_NO_CROSSING,
    K4_UNREALIZABLE,
    RotationSystem,
    canonical_key,
    convex,
    RealizabilityTables,
    PAIR_BY_CODE,
    _triangle_sides,
    crosses_any,
    crossing_masks,
    crossing_pairs,
    crossings_of_edge,
    edge_index,
    is_g_convex,
    is_realizable,
    is_realizable_touching,
    k4_index,
    k5_index,
    k4_index_of,
    k4_system,
    k5_index_of,
    k5_system,
    mirror,
    pair_crossing,
    parse_crs,
    relabel,
    same_triangle_side,
    serialize_crs,
    subrotation,
)

from oracles import (
    convex_points,
    crossing_pairs_from_points,
    k4_consistent_unrealizable_k5,
    labeled_encoding,
    random_points,
    reference_canonical_key,
    reference_crossings_of_edge,
    reference_is_realizable,
    reference_k4_index,
    reference_k5_index,
    reference_pair_crossing,
    rotation_system_from_points,
)

# straight-line K4 with vertex 4 inside triangle 123 (computed from points
# (0,0), (4,0), (2,3), (2,1))
PLANAR_K4 = RotationSystem(4, [(3, 4, 2), (1, 4, 3), (2, 4, 1), (3, 2, 1)])

# convex 5-gon with edges {1,3} and {2,4} rerouted outside the hull
REROUTED_K5 = RotationSystem(
    5, [(2, 4, 5, 3), (3, 5, 1, 4), (4, 5, 2, 1), (5, 1, 3, 2), (1, 2, 3, 4)]
)


def _orbit_encodings(rs: RotationSystem) -> np.ndarray:
    """All normalized labeled encodings of the orbit of ``rs`` under
    relabeling and mirroring, one flat row per group element."""
    n = rs.n
    m = n - 1
    perms = np.array(
        list(itertools.permutations(range(1, n + 1))), dtype=np.uint8
    )
    order = np.argsort(perms, axis=1)
    base = np.array(rs.rows, dtype=np.uint8)
    variants = [base, base[:, ::-1]] if m > 1 else [base]
    outs = []
    for mat in variants:
        relabeled = perms[:, mat - 1]  # [P, n, m], entries mapped
        rows = relabeled[np.arange(len(perms))[:, None], order]
        am = np.argmin(rows, axis=2)
        take = (am[..., None] + np.arange(m)) % m
        normed = np.take_along_axis(rows, take, axis=2)
        outs.append(normed.reshape(len(perms), n * m))
    return np.concatenate(outs, axis=0)


class TestRotationSystem:
    def test_rejects_non_permutation_rows(self):
        with pytest.raises(InputError):
            RotationSystem(3, [(2, 3), (1, 1), (1, 2)])
        with pytest.raises(InputError):
            RotationSystem(3, [(2, 3), (1, 3)])
        with pytest.raises(InputError):
            RotationSystem(0, [])

    def test_equality_is_cyclic(self):
        a = RotationSystem(4, [(2, 3, 4), (3, 4, 1), (4, 1, 2), (1, 2, 3)])
        b = RotationSystem(4, [(3, 4, 2), (1, 3, 4), (2, 4, 1), (2, 3, 1)])
        assert a == b
        assert hash(a) == hash(b)
        assert a != mirror(a)

    def test_convex_matches_point_oracle(self):
        for n in (3, 4, 5, 6, 7, 8):
            assert rotation_system_from_points(convex_points(n)) == convex(n)

    def test_planar_k4_matches_point_oracle(self):
        pts = {1: (0, 0), 2: (4, 0), 3: (2, 3), 4: (2, 1)}
        assert rotation_system_from_points(pts) == PLANAR_K4


class TestSubrotation:
    def test_convex_k5_restricts_to_convex_k3(self):
        assert subrotation(convex(5), {1, 2, 3}) == convex(3)

    def test_full_subset_is_identity(self):
        # the system itself: it is immutable, so its memos are shared
        for n in (1, 6):
            rs = convex(n)
            assert subrotation(rs, range(1, n + 1)) is rs

    def test_convex_k7_on_evens_is_convex_k3(self):
        assert subrotation(convex(7), {2, 4, 6}) == convex(3)

    def test_bad_subsets_rejected(self):
        with pytest.raises(InputError):
            subrotation(convex(5), [])
        with pytest.raises(InputError):
            subrotation(convex(5), [0, 1])
        with pytest.raises(InputError):
            subrotation(convex(5), [1, 6])


class TestPairCrossing:
    def test_convex_k4_diagonals_cross(self, tables):
        assert pair_crossing(tables, convex(4), (1, 3), (2, 4)) is True

    def test_convex_k4_hull_edges_do_not(self, tables):
        assert pair_crossing(tables, convex(4), (1, 2), (3, 4)) is False

    def test_planar_k4_has_no_crossing(self, tables):
        assert pair_crossing(tables, PLANAR_K4, (1, 3), (2, 4)) is False
        assert len(crossing_pairs(tables, PLANAR_K4)) == 0

    def test_adjacent_edges_rejected(self, tables):
        with pytest.raises(AdjacentEdgesError):
            pair_crossing(tables, convex(4), (1, 2), (2, 3))

    @pytest.mark.parametrize(
        "query",
        [
            lambda t, rs: pair_crossing(t, rs, (1, 7), (3, 4)),
            lambda t, rs: pair_crossing(t, rs, (0, 2), (3, 4)),
            lambda t, rs: pair_crossing(t, rs, (3, 4), (2, 9)),
            lambda t, rs: crossings_of_edge(t, rs, (2, 9)),
            lambda t, rs: crossings_of_edge(t, rs, (-1, 3)),
            lambda t, rs: crosses_any(t, rs, (0, 3), [(4, 5)]),
            lambda t, rs: crosses_any(t, rs, (1, 3), [(4, 5), (2, 7)]),
            lambda t, rs: crosses_any(t, rs, (1, 3), [(0, 5)]),
            lambda t, rs: crosses_any(t, rs, (1, 4), [(2, 5), (3, 7)]),
            lambda t, rs: is_realizable_touching(t, rs, (2, 9)),
            lambda t, rs: is_realizable_touching(t, rs, (0, 1), swept={3}),
        ],
        ids=[
            "pair_crossing-e-high", "pair_crossing-e-zero",
            "pair_crossing-f-high", "crossings_of_edge-high",
            "crossings_of_edge-negative", "crosses_any-e-zero",
            "crosses_any-f-high", "crosses_any-f-zero",
            "crosses_any-after-crossing",
            "is_realizable_touching-high", "is_realizable_touching-zero",
        ],
    )
    def test_out_of_range_labels_rejected(self, tables, query):
        with pytest.raises(InputError, match="outside 1.."):
            query(tables, convex(6))

    def test_unrealizable_subsystem_reported(self, tables):
        # flip one entry of a single rotation of convex K4: breaks the quad
        rs = RotationSystem(4, [(2, 4, 3), (3, 4, 1), (4, 1, 2), (1, 2, 3)])
        with pytest.raises(RealizabilityError):
            pair_crossing(tables, rs, (1, 3), (2, 4))

    def test_edge_queries_sweep_once(self, tables, monkeypatch):
        """The five edge queries read one sweep of a fresh system."""
        calls = []
        sweep = rotation._crossing_sweep

        def counting(*args):
            calls.append(args)
            return sweep(*args)

        monkeypatch.setattr(rotation, "_crossing_sweep", counting)
        rs = rotation_system_from_points(random_points(12, random.Random(12)))
        pair_crossing(tables, rs, (1, 2), (3, 4))
        crossings_of_edge(tables, rs, (5, 9))
        crosses_any(tables, rs, (2, 7), [(1, 3), (4, 12)])
        same_triangle_side(tables, rs, (1, 6, 11), 2, 10)
        verify_crossing_free(tables, rs, [(1, 2), (2, 3), (3, 4)])
        assert len(calls) == 1


class TestCrossingPairs:
    def test_convex_k4(self, tables):
        assert crossing_pairs(tables, convex(4)) == frozenset(
            {((1, 3), (2, 4))}
        )

    def test_convex_k3_empty(self, tables):
        assert crossing_pairs(tables, convex(3)) == frozenset()

    def test_convex_k5_diagonal_pairs(self, tables):
        expect = frozenset(
            {
                ((1, 3), (2, 4)),
                ((1, 3), (2, 5)),
                ((1, 4), (2, 5)),
                ((1, 4), (3, 5)),
                ((2, 4), (3, 5)),
            }
        )
        assert crossing_pairs(tables, convex(5)) == expect

    def test_matches_point_oracle_on_random_configurations(self, tables):
        rng = random.Random(42)
        for n in (4, 5, 6, 7):
            for _ in range(5):
                pts = random_points(n, rng)
                rs = rotation_system_from_points(pts)
                assert is_realizable(tables, rs)
                want = crossing_pairs_from_points(pts)
                assert crossing_pairs(tables, rs) == want

    def test_invariance_under_relinearization(self, tables):
        rs = convex(6)
        rolled = RotationSystem(
            6, [row[2:] + row[:2] for row in rs.rows]
        )
        assert crossing_pairs(tables, rolled) == crossing_pairs(tables, rs)

    def test_relabeling_permutes_pairs(self, tables):
        rng = random.Random(3)
        rs = convex(6)
        base = crossing_pairs(tables, rs)
        perm = list(range(1, 7))
        rng.shuffle(perm)
        pm = {i + 1: p for i, p in enumerate(perm)}
        relabeled = crossing_pairs(tables, relabel(rs, pm))
        expect = frozenset(
            tuple(
                sorted(
                    (
                        tuple(sorted((pm[e[0]], pm[e[1]]))),
                        tuple(sorted((pm[f[0]], pm[f[1]]))),
                    )
                )
            )
            for e, f in base
        )
        assert relabeled == expect

    def test_mirror_preserves_pairs(self, tables):
        rs = convex(7)
        assert crossing_pairs(tables, mirror(rs)) == crossing_pairs(tables, rs)

    def test_reads_the_memoized_masks(self, tables):
        # the pairs are read off crossing_masks, which memoizes per tables
        # object; a sweep that raises memoizes nothing
        rs = rotation_system_from_points(random_points(7, random.Random(7)))
        no_k4 = RealizabilityTables(k4=(-2,) * 16, k5=tables.k5)
        with pytest.raises(RealizabilityError, match=r"\(1, 2, 3, 4\)"):
            crossing_pairs(no_k4, rs)
        assert rs._memo is None
        pairs = crossing_pairs(tables, rs)
        assert rs._memo == (tables, crossing_masks(tables, rs), True)
        with pytest.raises(RealizabilityError):
            crossing_pairs(no_k4, rs)
        assert rs._memo[0] is tables
        assert crossing_pairs(tables, rs) == pairs

    def test_crossing_pairs_match_crossings_of_edge(self, tables):
        rs = rotation_system_from_points(random_points(8, random.Random(4)))
        masks = crossing_masks(tables, rs)
        assert masks is crossing_masks(tables, rs)
        pairs = crossing_pairs(tables, rs)
        for e in rs.edges():
            partners = {f for p in pairs for f in p if e in p and f != e}
            assert partners == crossings_of_edge(tables, rs, e)


def _rolled_rows(rs: RotationSystem, rng) -> RotationSystem:
    """The same system with every rotation stored from a random anchor."""
    rows = []
    for row in rs.rows:
        k = rng.randrange(len(row))
        rows.append(row[k:] + row[:k])
    return RotationSystem(rs.n, rows)


def _shuffled_system(n: int, rng) -> RotationSystem:
    rows = []
    for v in range(1, n + 1):
        row = [x for x in range(1, n + 1) if x != v]
        rng.shuffle(row)
        rows.append(tuple(row))
    return RotationSystem(n, rows)


class TestIndexKernels:
    """k4_index and k5_index against the reference definitions in
    oracles.py, on every 4- and 5-subset."""

    @pytest.mark.parametrize("n", range(5, 15))
    def test_all_subsets_match_reference(self, tables, n):
        rng = random.Random(100 + n)
        straight = _rolled_rows(
            rotation_system_from_points(random_points(n, rng)), rng
        )
        shuffled = _shuffled_system(n, rng)
        assert is_realizable(tables, straight)
        if n >= 6:
            assert not is_realizable(tables, shuffled)
        for rs in (straight, shuffled):
            for quad in itertools.combinations(range(1, n + 1), 4):
                assert k4_index(rs, quad) == reference_k4_index(rs, quad)
            for quint in itertools.combinations(range(1, n + 1), 5):
                assert k5_index(rs, quint) == reference_k5_index(rs, quint)


def _sorted_reference(rs: RotationSystem):
    """Reference k4 and k5 indices of every sorted quad and quintuple."""
    labels = range(1, rs.n + 1)
    combos = itertools.combinations
    k4 = {q: reference_k4_index(rs, q) for q in combos(labels, 4)}
    k5 = {q: reference_k5_index(rs, q) for q in combos(labels, 5)}
    return k4, k5


def _reference_crossing_pairs(tables, k4_ref):
    pairs = set()
    for quad, idx in k4_ref.items():  # sorted order
        entry = tables.k4[idx]
        if entry == -2:
            raise RealizabilityError(
                f"4-vertex subsystem on {quad} is not realizable", quad
            )
        if entry >= 0:
            (a, b), (c, d) = PAIR_BY_CODE[entry]
            pairs.add(((quad[a - 1], quad[b - 1]), (quad[c - 1], quad[d - 1])))
    return frozenset(pairs)


def _reference_crosses_any(tables, rs, e, edges):
    return any(reference_pair_crossing(tables, rs, e, f) for f in edges)


def _sorted_error(tables, k4_ref):
    """The error :func:`_reference_crossing_pairs` raises, or None."""
    try:
        _reference_crossing_pairs(tables, k4_ref)
    except RealizabilityError as exc:
        return exc
    return None


def _same_error(got, want) -> bool:
    return (str(got), got.subset) == (str(want), want.subset)


def _assert_same_answer(got, want, error=None):
    """``got()`` raises ``error`` when one is given, else it returns what
    ``want()`` returns, or raises the same :class:`RealizabilityError`,
    message and subset included."""
    if error is None:
        try:
            expected = want()
        except RealizabilityError as exc:
            error = exc
    if error is not None:
        with pytest.raises(RealizabilityError) as raised:
            got()
        assert _same_error(raised.value, error)
    else:
        assert got() == expected


def _relabeled_convex(n: int, rng) -> RotationSystem:
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    return relabel(convex(n), perm)


def _reference_tables(tables):
    """The shipped tables, plus tables closed under no relabeling: k5
    without the convex K5, and k4 with entry 0's pair code changed."""
    k4 = list(tables.k4)
    k4[0] = (k4[0] + 1) % 3 if k4[0] >= 0 else 0
    return [
        tables,
        RealizabilityTables(
            k4=tables.k4, k5=tables.k5 - {k5_index_of(convex(5))}
        ),
        RealizabilityTables(k4=tuple(k4), k5=tables.k5),
    ]


class TestOffsetSweeps:
    """The crossing sweep reads sorted tuples from offset rows and the
    flip recheck reads sorted 5-tuples through ``k5_index``; both must
    answer as the sorted-order reference definitions do, on any tables,
    closed under relabeling or not.  Every edge-by-edge crossing
    query reads the masks, so on a system with an unrealizable quad it
    raises the sorted sweep's first error."""

    def test_derived_tables_are_not_closed(self, tables):
        from sepdraw.enumeration import check_tables

        for other in _reference_tables(tables)[1:]:
            with pytest.raises(InputError):
                check_tables(other)

    @pytest.mark.parametrize("n", range(5, 15))
    def test_match_sorted_reference(self, tables, n):
        rng = random.Random(200 + n)
        systems = [
            _rolled_rows(
                rotation_system_from_points(random_points(n, rng)), rng
            ),
            _relabeled_convex(n, rng),
            _shuffled_system(n, rng),
        ]
        for rs in systems:
            k4_ref, k5_ref = _sorted_reference(rs)
            for tab in _reference_tables(tables):
                want = all(idx in tab.k5 for idx in k5_ref.values())
                assert is_realizable(tab, rs) == want
                error = _sorted_error(tab, k4_ref)
                _assert_same_answer(
                    lambda: crossing_pairs(tab, rs),
                    lambda: _reference_crossing_pairs(tab, k4_ref),
                )
                for _ in range(6):
                    v, w = sorted(rng.sample(range(1, n + 1), 2))
                    rest = [x for x in range(1, n + 1) if x not in (v, w)]
                    swept = None
                    if rng.random() < 0.7:
                        k = rng.randrange(1, len(rest) + 1)
                        swept = frozenset(rng.sample(rest, k))
                    want = all(
                        k5_ref[tuple(sorted((v, w) + t))] in tab.k5
                        for t in itertools.combinations(rest, 3)
                        if swept is None or not swept.isdisjoint(t)
                    )
                    assert (
                        is_realizable_touching(tab, rs, (w, v), swept) == want
                    )
                    if swept is not None:
                        # any container that answers ``x in swept``
                        got = is_realizable_touching(
                            tab, rs, (w, v), sorted(swept)
                        )
                        assert got == want
                    edges = [
                        tuple(sorted(rng.sample(rest, 2)))
                        for _ in range(rng.randrange(1, 8))
                    ]
                    for c, d in edges:
                        _assert_same_answer(
                            lambda: pair_crossing(tab, rs, (w, v), (d, c)),
                            lambda: reference_pair_crossing(
                                tab, rs, (v, w), (c, d)
                            ),
                            error,
                        )
                    _assert_same_answer(
                        lambda: crossings_of_edge(tab, rs, (w, v)),
                        lambda: reference_crossings_of_edge(
                            tab, rs, (v, w)
                        ),
                        error,
                    )
                    _assert_same_answer(
                        lambda: crosses_any(tab, rs, (v, w), edges),
                        lambda: _reference_crosses_any(
                            tab, rs, (v, w), edges
                        ),
                        error,
                    )

    def test_crosses_any_rejects_adjacent_edges(self, tables):
        with pytest.raises(AdjacentEdgesError):
            crosses_any(tables, convex(6), (1, 3), [(3, 4), (2, 5)])
        # every edge is checked, also after one that crosses (1, 3)
        assert crosses_any(tables, convex(6), (1, 3), [(2, 5)])
        with pytest.raises(AdjacentEdgesError):
            crosses_any(tables, convex(6), (1, 3), [(2, 5), (3, 4)])

    def test_k4_system_round_trip(self):
        for idx in range(16):
            assert k4_index_of(k4_system(idx)) == idx


class TestRealizability:
    def test_convex_k7(self, tables):
        assert is_realizable(tables, convex(7))

    def test_small_n_trivial(self, tables):
        assert is_realizable(tables, convex(3))
        assert is_realizable(tables, RotationSystem(1, [()]))

    def test_smallest_non_realizable_k5(self, tables):
        non = min(set(range(6**5)) - set(tables.k5))
        assert not is_realizable(tables, k5_system(non))

    @staticmethod
    def _count_sweeps(monkeypatch) -> list:
        """The tables of each quad sweep :func:`is_realizable` runs."""
        sweeps = []
        sweep = rotation._crossing_sweep

        def counted(tables, rs):
            sweeps.append(tables)
            return sweep(tables, rs)

        monkeypatch.setattr(rotation, "_crossing_sweep", counted)
        return sweeps

    def test_verdict_is_memoized_per_tables(self, tables, monkeypatch):
        sweeps = self._count_sweeps(monkeypatch)
        rs = convex(6)
        no_k5 = RealizabilityTables(k4=tables.k4, k5=frozenset())
        assert is_realizable(tables, rs)
        assert is_realizable(tables, rs)
        assert sweeps == [tables]
        assert not is_realizable(no_k5, rs)
        assert not is_realizable(no_k5, rs)
        assert sweeps == [tables, no_k5]
        # one tables object is memoized at a time
        assert is_realizable(tables, rs)
        assert sweeps == [tables, no_k5, tables]

    def test_subrotation_inherits_true_verdict(self, tables, monkeypatch):
        sweeps = self._count_sweeps(monkeypatch)
        rs = convex(8)
        assert is_realizable(tables, rs)
        sub = subrotation(rs, (1, 3, 4, 6, 7, 8))
        assert is_realizable(tables, sub)
        assert is_realizable(tables, subrotation(sub, range(1, 6)))
        assert sweeps == [tables]
        # an equal tables object is another object: it sweeps
        same = RealizabilityTables(k4=tables.k4, k5=tables.k5)
        assert is_realizable(same, subrotation(rs, range(1, 7)))
        assert sweeps == [tables, same]
        # no verdict on the parent, none to inherit
        assert is_realizable(tables, subrotation(convex(8), range(1, 7)))
        assert sweeps == [tables, same, tables]

    def test_subrotation_of_unrealizable_computes_its_verdict(
        self, tables, monkeypatch
    ):
        """A realizable 5-subset of an unrealizable K6 (convex K5 plus a
        sixth vertex placed at random) sweeps and finds itself
        realizable."""
        rng = random.Random(5)
        while True:
            rows = [list(r) for r in convex(5).rows]
            for row in rows:
                row.insert(rng.randrange(5), 6)
            rows.append(rng.sample(range(1, 6), 5))
            k6 = RotationSystem(6, rows)
            if not is_realizable(tables, k6):
                break
        sweeps = self._count_sweeps(monkeypatch)
        sub = subrotation(k6, range(1, 6))
        assert sub == convex(5)
        assert is_realizable(tables, sub)
        assert sweeps == [tables]

    def test_unrealizable_quad_memoizes_verdict_not_masks(self, tables):
        rs = RotationSystem(4, [(2, 4, 3), (3, 4, 1), (4, 1, 2), (1, 2, 3)])
        assert not is_realizable(tables, rs)
        assert rs._memo == (tables, None, False)
        with pytest.raises(RealizabilityError):
            crossing_masks(tables, rs)
        assert rs._memo == (tables, None, False)

    def test_unrealizable_verdict_hands_nothing_down(
        self, tables, monkeypatch
    ):
        """A K5 outside ``k5`` whose quads are all realizable: its sweep
        finds a suspect 5-tuple and memoizes its masks with a False
        verdict, and an induced subsystem inherits neither, so the
        subsystem sweeps once for both."""
        rs = k4_consistent_unrealizable_k5(tables)[0]
        masks = crossing_masks(tables, rs)
        assert rs._memo == (tables, masks, False)
        assert not is_realizable(tables, rs)
        sub = subrotation(rs, (1, 2, 4, 5))
        assert sub._memo is None
        want = crossing_masks(tables, RotationSystem(sub.n, sub.rows))
        sweeps = self._count_sweeps(monkeypatch)
        assert is_realizable(tables, sub)
        assert crossing_masks(tables, sub) == want
        assert sweeps == [tables]

    def test_k5_index_round_trip(self):
        for idx in range(6**5):
            assert k5_index_of(k5_system(idx)) == idx

    def test_touching_after_valid_flip(self, tables):
        from sepdraw.separability import valid_flips

        flips = valid_flips(tables, convex(7), (2, 6))
        assert len(flips) == 1
        assert is_realizable_touching(tables, flips[0].new_rs, (2, 6))

    def test_touching_rejects_one_sided_edit(self, tables):
        # swapping two adjacent labels only at vertex 2 breaks some 5-tuple
        rows = list(convex(7).rows)
        r = list(rows[1])
        r[0], r[1] = r[1], r[0]
        rows[1] = tuple(r)
        rs = RotationSystem(7, rows)
        assert not is_realizable_touching(tables, rs, (2, 6))

    def test_touching_degenerates_to_k4_lookup(self, tables):
        assert is_realizable_touching(tables, convex(4), (1, 3))


def _pattern_tables(tables):
    """:func:`_reference_tables` plus tables with an empty ``k5``, under
    which every k4-consistent labeled K5 has a suspect pattern, some with
    an uncrossed quad.  The ``k5`` members of each have only realizable
    quads."""
    return _reference_tables(tables) + [
        RealizabilityTables(k4=tables.k4, k5=frozenset())
    ]


def _extended(tables, rs: RotationSystem, rng) -> RotationSystem | None:
    """A seeded one-vertex extension of ``rs`` whose quads through the new
    vertex m are all realizable under ``tables.k4``, or None: m gets a
    random rotation, then is inserted into the rotations of 1..m-1 in
    turn at random slots, backtracking from a slot as soon as a quad
    (x, y, v, m) it completes is unrealizable."""
    m = rs.n + 1
    rows = [list(r) for r in rs.rows] + [rng.sample(range(1, m), m - 1)]
    # the rows as they grow, for ``reference_k4_index`` to read
    partial = RotationSystem.__new__(RotationSystem)
    partial.n = m
    partial.rows = rows

    def place(v: int) -> bool:
        if v == m:
            return True
        row = rows[v - 1]
        for k in rng.sample(range(len(row)), len(row)):
            row.insert(k, m)
            if all(
                tables.k4[reference_k4_index(partial, (x, y, v, m))]
                != K4_UNREALIZABLE
                for x, y in itertools.combinations(range(1, v), 2)
            ) and place(v + 1):
                return True
            del row[k]
        return False

    return RotationSystem(m, rows) if place(1) else None


class TestSuspectPatterns:
    """:func:`is_realizable` reads ``k5`` only on the 5-tuples whose
    crossing pattern is suspect.  It must answer as the plain 5-tuple
    membership sweep (``oracles.reference_is_realizable``) on any tables
    whose ``k5`` members have only realizable quads."""

    def test_patterns_are_the_k4_consistent_non_members(self, tables):
        quads = list(itertools.combinations(range(1, 6), 4))
        for tab in _pattern_tables(tables):
            want = {
                tuple(tab.k4[reference_k4_index(rs, q)] for q in quads)
                for rs in k4_consistent_unrealizable_k5(tab)
            }
            assert tab.suspects == want
            assert tab.suspects_cross == all(
                K4_NO_CROSSING not in p for p in want
            )

            def leaves(tree, prefix=()):
                if isinstance(tree[0], int):
                    return {prefix + (p,) for p in tree}
                return set().union(
                    *(leaves(sub, prefix + (p,)) for p, sub in tree)
                )

            assert leaves(tab.suspect_tree) == want

    def test_shipped_patterns(self, tables):
        """The 72 k4-consistent unrealizable labeled K5 systems share 36
        patterns, all with five crossings, and no realizable one has
        any of them."""
        assert len(tables.suspects) == 36
        assert tables.suspects_cross
        quads = list(itertools.combinations(range(1, 6), 4))
        members = {
            tuple(tables.k4[k4_index(k5_system(i), q)] for q in quads)
            for i in tables.k5
        }
        assert not members & tables.suspects

    def test_every_labeled_k5(self, tables):
        for tab in _pattern_tables(tables):
            for idx in range(6**5):
                rs = k5_system(idx)
                want = reference_is_realizable(tab, rs)
                assert is_realizable(tab, rs) == want, idx

    @pytest.mark.parametrize("n", (6, 7))
    def test_quad_realizable_extensions(self, tables, n):
        """Seeded quad-realizable K6 systems, extended from the
        quad-realizable K5 ones, and K7 systems extended from those."""
        rng = random.Random(f"extend:{n}")
        k5s = [k5_system(i) for i in sorted(tables.k5)]
        systems = rng.sample(k5s + k4_consistent_unrealizable_k5(tables), 200)
        for _ in range(6, n + 1):
            systems = [
                ext
                for rs in systems
                if (ext := _extended(tables, rs, rng)) is not None
            ]
            assert len(systems) > 100
        verdicts = []
        tabs = _pattern_tables(tables)
        for rs in systems:
            for tab in tabs:
                want = reference_is_realizable(tab, rs)
                fresh = RotationSystem(n, rs.rows)
                assert is_realizable(tab, fresh) == want, (rs, tab)
                if tab is tables:
                    verdicts.append(want)
        assert 10 < verdicts.count(False) < len(verdicts) - 10

    def test_unrealizable_quad_answers_false(self, tables):
        """Contract: on tables whose ``k5`` members have an unrealizable
        quad (which ``check_tables`` rejects), an unrealizable quad
        answers False, though every 5-tuple is in ``k5``."""
        no_k4 = RealizabilityTables(k4=(K4_UNREALIZABLE,) * 16, k5=tables.k5)
        assert reference_is_realizable(no_k4, convex(6))
        assert not is_realizable(no_k4, convex(6))


class TestTriangleSides:
    def test_convex_k5_outside_pair(self, tables):
        assert same_triangle_side(tables, convex(5), (1, 2, 3), 4, 5)

    def test_inside_outside_split(self, tables):
        pts = {1: (0, 0), 2: (4, 0), 3: (2, 3), 4: (2, 1), 5: (2, -10)}
        rs = rotation_system_from_points(pts)
        assert not same_triangle_side(tables, rs, (1, 2, 3), 4, 5)

    def test_rejects_degenerate_queries(self, tables):
        with pytest.raises(InputError):
            same_triangle_side(tables, convex(5), (1, 2, 3), 4, 4)
        with pytest.raises(InputError):
            same_triangle_side(tables, convex(5), (1, 2, 3), 1, 4)

    def test_bipartition_properties(self, tables, enum5):
        for rep in enum5[5]:
            masks = crossing_masks(tables, rep.rs)
            for t in itertools.combinations(range(1, 6), 3):
                side_a, side_b = map(
                    set, _triangle_sides(masks, edge_index(5), t)
                )
                others = set(range(1, 6)) - set(t)
                assert side_a | side_b == others
                assert not side_a & side_b
                for u, v in itertools.combinations(sorted(others), 2):
                    same = same_triangle_side(tables, rep.rs, t, u, v)
                    assert same == same_triangle_side(
                        tables, rep.rs, t, v, u
                    )
                    assert same == (
                        (u in side_a) == (v in side_a)
                    )


class TestGConvex:
    def test_convex_drawings(self, tables):
        for n in (3, 4, 5, 6, 7, 8):
            assert is_g_convex(tables, convex(n))

    def test_rerouted_k5_is_not(self, tables):
        assert is_realizable(tables, REROUTED_K5)
        assert not is_g_convex(tables, REROUTED_K5)

    def test_k3_trivially(self, tables):
        assert is_g_convex(tables, convex(3))


class TestCanonicalKey:
    def test_relabel_invariance(self):
        rng = random.Random(5)
        rs = convex(6)
        key = canonical_key(rs)
        for _ in range(5):
            perm = list(range(1, 7))
            rng.shuffle(perm)
            assert canonical_key(relabel(rs, perm)) == key

    def test_mirror_invariance(self):
        rs = REROUTED_K5
        assert canonical_key(mirror(rs)) == canonical_key(rs)

    def test_distinct_orbits_differ(self):
        assert canonical_key(convex(4)) != canonical_key(PLANAR_K4)

    @staticmethod
    def full_orbit_key(rs):
        """The reference key: the byte minimum over all 2·n! labeled
        encodings of the orbit."""
        return bytes([rs.n]) + min(r.tobytes() for r in _orbit_encodings(rs))

    @staticmethod
    def shuffled_system(rng, n):
        rows = []
        for v in range(1, n + 1):
            row = [x for x in range(1, n + 1) if x != v]
            rng.shuffle(row)
            rows.append(row)
        return RotationSystem(n, rows)

    def test_equals_full_orbit_minimum_on_enumerated(self, enum5, enum6):
        rng = random.Random(11)
        reps = [r for n in (3, 4, 5) for r in enum5[n]] + list(enum6)
        for rep in reps:
            n = rep.rs.n
            for _ in range(2):
                perm = list(range(1, n + 1))
                rng.shuffle(perm)
                rs = relabel(rep.rs, perm)
                if rng.random() < 0.5:
                    rs = mirror(rs)
                rows = []
                for r in rs.rows:  # re-anchor every stored row
                    k = rng.randrange(n - 1)
                    rows.append(r[k:] + r[:k])
                rs = RotationSystem(n, rows)
                assert canonical_key(rs) == self.full_orbit_key(rs) == rep.key

    @pytest.mark.parametrize("n", range(2, 9))
    def test_equals_full_orbit_minimum_on_random_systems(self, tables, n):
        rng = random.Random(100 + n)
        count = 4 if n == 8 else 12
        systems = [self.shuffled_system(rng, n) for _ in range(count)]
        if n >= 5:
            # shuffled rotations are almost never realizable
            assert not all(is_realizable(tables, rs) for rs in systems)
        for rs in systems:
            assert canonical_key(rs) == self.full_orbit_key(rs)

    def test_equals_reference_on_enumerated_leaves(self, monkeypatch):
        """Every system the K6 enumeration keys, its leaves included,
        against the key built with one translation table per start."""
        keyed = []

        def checked(rs):
            key = canonical_key(rs)
            assert key == reference_canonical_key(rs), rs.rows
            keyed.append(rs.n)
            return key

        monkeypatch.setattr(enumeration, "canonical_key", checked)
        enumeration.enumerate_good_drawings(6)
        assert len(keyed) == 1504 and keyed.count(6) == 1386

    def test_equals_reference_on_random_systems(self):
        """Shuffled systems and their mirrors for n = 1..40: every start
        of every rotation, across the shift tables of each size."""
        rng = random.Random(34)
        for n in range(1, 41):
            for _ in range(3 if n <= 12 else 1):
                rs = self.shuffled_system(rng, n)
                for system in (rs, mirror(rs)):
                    key = canonical_key(system)
                    assert key == reference_canonical_key(system)

    def test_equals_reference_on_relabeled_representatives(
        self, enum5, enum6
    ):
        rng = random.Random(35)
        for rep in list(enum5[5]) + list(enum6):
            n = rep.rs.n
            for _ in range(2):
                perm = list(range(1, n + 1))
                rng.shuffle(perm)
                rs = relabel(rep.rs, perm)
                assert canonical_key(rs) == reference_canonical_key(rs)
                assert canonical_key(rs) == rep.key

    def test_single_vertex(self):
        assert canonical_key(RotationSystem(1, [()])) == bytes([1])

    def test_rejects_labels_above_a_byte(self):
        # raised before any of the 2·n·(n-1) candidates is built
        with pytest.raises(InputError, match="up to 255"):
            canonical_key(convex(256))

    def test_collision_free_across_orbits(self, enum5, enum6):
        keys = [r.key for n in (3, 4, 5) for r in enum5[n]]
        keys += [r.key for r in enum6]
        assert len(keys) == len(set(keys))

    def test_labeled_encoding_distinguishes_linearization_not(self):
        rs = convex(5)
        rolled = RotationSystem(5, [r[1:] + r[:1] for r in rs.rows])
        assert labeled_encoding(rs) == labeled_encoding(rolled)


class TestCrsFormat:
    def test_round_trip(self):
        text = serialize_crs([convex(5), PLANAR_K4])
        records = parse_crs(text)
        assert records == [convex(5), PLANAR_K4]
        assert serialize_crs(records) == text

    def test_comments_and_whitespace(self):
        text = "# a drawing\nn = 3\n 1:  2 3\n2: 3 1\n3: 1 2\n"
        assert parse_crs(text) == [convex(3)]

    def test_errors(self):
        with pytest.raises(InputError):
            parse_crs("")
        with pytest.raises(InputError):
            parse_crs("n=2\n1: 2\n")  # missing rotation for 2
        with pytest.raises(InputError):
            parse_crs("1: 2 3\n")
        with pytest.raises(InputError):
            parse_crs("n=3\n1: 2 3\n1: 3 2\n2: 1 3\n3: 1 2\n")
