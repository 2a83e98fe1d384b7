"""Flip candidates and the offset rows of the quad sweep.

These tests compare the candidates and the certificates with the eager
reference in ``oracles`` (every flipped system built in full and
validated).  They also check that recognizing a system builds each of
its offset rows (``rotation._rows_from``) at most once, and that the
system keeps none of them afterwards.
"""
from __future__ import annotations

import random

import pytest

from oracles import (
    random_points,
    reference_certificate_json,
    reference_flip_candidates,
    rotation_system_from_points,
)
from sepdraw.rotation import (
    RotationSystem,
    convex,
    crossing_masks,
    is_realizable,
    relabel,
)
from sepdraw.separability import certificate_json, flip_candidates, is_separable

from test_recognize_golden import NON_SEPARABLE_K6, _random_rows


def _relabeled(rs: RotationSystem, rng: random.Random) -> RotationSystem:
    perm = list(range(1, rs.n + 1))
    rng.shuffle(perm)
    return relabel(rs, perm)


def _fresh(rs: RotationSystem) -> RotationSystem:
    """A copy of ``rs`` with no memo."""
    return RotationSystem(rs.n, rs.rows)


def _candidate_view(cands):
    return [(c.swept, c.move, c.new_rs.rows) for c in cands]


def _assert_candidates_match(rs: RotationSystem) -> int:
    for e in rs.edges():
        assert _candidate_view(flip_candidates(rs, e)) == _candidate_view(
            reference_flip_candidates(rs, e)
        ), (rs, e)
    return len(rs.edges())


class TestCandidatesMatchReference:
    def test_relabeled_k5_k6_orbits(self, enum5, enum6):
        rng = random.Random(5)
        edges = 0
        for rep in list(enum5[5]) + list(enum6):
            edges += _assert_candidates_match(_relabeled(rep.rs, rng))
        assert edges == 10 * len(enum5[5]) + 15 * len(enum6)

    def test_straight_line_k8_to_k13(self):
        for n in range(8, 14):
            for seed in range(2):
                pts = random_points(n, random.Random(f"{n}:{seed}"))
                _assert_candidates_match(rotation_system_from_points(pts))

    def test_shuffled_rotations(self):
        edges = 0
        for n in range(3, 14):
            for seed in range(30):
                rs = _random_rows(n, random.Random(f"{n}:{seed}"))
                edges += _assert_candidates_match(rs)
        assert edges == 10890

    def test_certificates_match_eager_path(self, tables, enum6):
        systems = [convex(12)] + [enum6[i].rs for i in NON_SEPARABLE_K6]
        for n in range(8, 14):
            pts = random_points(n, random.Random(f"{n}:0"))
            systems.append(rotation_system_from_points(pts))
        separable = 0
        for rs in systems:
            res = is_separable(tables, rs)
            want = reference_certificate_json(tables, _fresh(rs))
            if res.separable:
                separable += 1
                assert certificate_json(res.certificate) == want
            else:
                assert want is None
        assert separable == 7


def _count_input_rows(monkeypatch, rs: RotationSystem) -> dict:
    """Count, per (u, x), the calls of ``_anchored(rs, u, x)`` on ``rs``
    itself while the test runs."""
    import sepdraw.rotation as rot

    counts: dict[tuple[int, int], int] = {}
    anchored = rot._anchored

    def counting(system, u, x):
        if system is rs:
            counts[u, x] = counts.get((u, x), 0) + 1
        return anchored(system, u, x)

    monkeypatch.setattr(rot, "_anchored", counting)
    return counts


class TestRowsBuiltOnce:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: convex(12),
            lambda: rotation_system_from_points(
                random_points(12, random.Random(12))
            ),
        ],
        ids=["convex-k12", "straight-line-k12"],
    )
    def test_recognition_builds_each_row_once(self, tables, monkeypatch, make):
        # the quad sweep builds the rows of each anchor once, and flips
        # read no offset row
        rs = make()
        counts = _count_input_rows(monkeypatch, rs)
        assert is_realizable(tables, rs)
        assert is_separable(tables, rs).separable
        assert counts and max(counts.values()) == 1

    def test_system_keeps_only_the_sweep_memo(self, tables):
        rs = rotation_system_from_points(random_points(12, random.Random(12)))
        assert is_separable(tables, rs).separable
        assert RotationSystem.__slots__ == ("n", "rows", "_norm", "_memo")
        assert not hasattr(rs, "__dict__")
        memo_tables, masks, verdict = rs._memo
        assert memo_tables is tables and verdict is True
        assert masks == crossing_masks(tables, _fresh(rs))
        assert all(type(mask) is int for mask in masks)
