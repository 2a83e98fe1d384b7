"""Flip validation by rules (a) and (b) against the flipped-system recheck.

``separability._fault`` decides each candidate of the parity scan
(``separability._candidates``) from the crossing masks of the system
before the flip and the two swept-set masks the scan carries.
``reference_is_valid_flip`` in ``oracles`` builds the flipped system
afresh and rechecks it (swept-set rule, ``is_realizable_touching``,
``reference_pair_crossing``).  Tier-1 compares the two on every
labeled K4 and K5, on the K6 orbits and on seeded walks along valid
flips at n = 7-10; the weekly
``recognize-scale`` CI job calls :func:`check_flip_walk` at n = 11-16.
This module imports no pytest, so that job can import it from a plain
install.
"""
from __future__ import annotations

import random

import sepdraw.rotation as rot
from oracles import (
    random_points,
    reference_crossings_of_edge,
    reference_flip_candidates,
    reference_is_realizable,
    reference_is_valid_flip,
    reference_reposition,
    rotation_system_from_points,
)
from sepdraw.enumeration import (
    build_tables,
    check_tables,
    default_tables,
    parse_tables,
    serialize_tables,
)
from sepdraw.cli import main
from sepdraw.errors import InputError
from sepdraw.hamiltonicity import ham_cycle, ham_path, plane_matching
from sepdraw.rotation import (
    K4_UNREALIZABLE,
    RealizabilityTables,
    RotationSystem,
    _flipped,
    _flipped_rotations,
    canonical_key,
    convex,
    crossing_masks,
    edge_index,
    k4_system,
    k5_system,
    relabel,
    serialize_crs,
    subrotation,
)
from sepdraw.separability import _candidates, _fault, flip_candidates


def swept_masks(star, swept) -> tuple[int, int]:
    """The XOR and the OR of ``star`` over the vertex set ``swept``: the
    edges with exactly one and with at least one endpoint in it."""
    cut = touched = 0
    for x in swept:
        cut ^= star[x]
        touched |= star[x]
    return cut, touched


def compare_verdicts(tables, rs, counts: dict[str, int]) -> list:
    """Assert that every candidate of every edge of the realizable ``rs``
    gets the same verdict from the rules as from the reference, and
    return the flipped systems of the valid candidates.

    The rules read the swept-set masks the parity scan carries, which
    must be those of the candidate's swept set.  The reference reads a
    fresh copy of ``rs``, which shares no memo with it: its verdict and
    each edge's old crossings come from the oracle readers, and each
    flipped system is built by the oracle.  ``counts`` gains the
    candidates seen, and those the rules reject by rule (a) and by rule
    (b)."""
    fresh = RotationSystem(rs.n, rs.rows)
    assert reference_is_realizable(tables, fresh)
    masks = crossing_masks(tables, rs)
    index = edge_index(rs.n)
    valid = []
    for v, w in rs.edges():
        e = (v, w)
        old = reference_crossings_of_edge(tables, fresh, e)
        scan = list(_candidates(rs, v, w, index.star))
        refs = reference_flip_candidates(fresh, e)
        assert [
            (frozenset(seq[:t]), (a, b, t)) for seq, a, b, t, _, _ in scan
        ] == [(r.swept, r.move) for r in refs], (rs, e)
        for (seq, a, b, t, cut, touched), ref in zip(scan, refs):
            swept = seq[:t]
            assert (cut, touched) == swept_masks(index.star, swept), (rs, e, t)
            fault = _fault(index, e, cut, touched, masks)
            want = reference_is_valid_flip(tables, e, ref, old)
            assert (fault is None) is want, (rs, e, sorted(swept), fault)
            counts["candidates"] += 1
            if fault is None:
                valid.append(_flipped(rs, a, b, t))
            else:
                counts["rule (a)" if len(fault) == 2 else "rule (b)"] += 1
    return valid


def check_flip_walk(tables, n: int, seed: int, steps: int) -> dict[str, int]:
    """From a seeded straight-line K_n, take ``steps`` valid flips chosen
    at random, comparing the verdicts of every candidate of every edge
    (:func:`compare_verdicts`) before each; return the counts.  The
    systems walked through are realizable but mostly not straight-line."""
    rng = random.Random(f"walk:{n}:{seed}")
    rs = rotation_system_from_points(random_points(n, rng))
    counts = {"candidates": 0, "rule (a)": 0, "rule (b)": 0}
    for _ in range(steps):
        valid = compare_verdicts(tables, rs, counts)
        rs = rng.choice([new for new in valid if new != rs])
    return counts


def check_scan(tables, rs) -> dict[str, int]:
    """Assert, for every candidate of every edge of the realizable
    ``rs``, that the parity scan yields the candidates
    :func:`flip_candidates` lists, that the masks it carries are the
    XOR and the OR of the stars over the candidate's swept set, and
    that ``_flipped_rotations`` gives the two rotations the flipped
    system has; return the candidates seen and those the rules find
    valid."""
    index = edge_index(rs.n)
    masks = crossing_masks(tables, rs)
    counts = {"candidates": 0, "valid": 0}
    for v, w in rs.edges():
        e = (v, w)
        scan = list(_candidates(rs, v, w, index.star))
        cands = flip_candidates(rs, e)
        assert len(scan) == len(cands), (rs, e)
        for (seq, a, b, t, cut, touched), cand in zip(scan, cands):
            assert cand.move == (a, b, t) and cand.swept == frozenset(seq[:t])
            want = swept_masks(index.star, cand.swept)
            assert (cut, touched) == want, (rs, e)
            fault = _fault(index, e, cut, touched, masks)
            new = _flipped(rs, a, b, t)
            ref = reference_reposition(rs, a, b, t)
            rotations = (new.rotation(a), new.rotation(b))
            got = tuple(map(tuple, _flipped_rotations(rs, a, b, t)))
            assert got == rotations, (rs, e)
            assert rotations == (ref.rotation(a), ref.rotation(b)), (rs, e)
            counts["candidates"] += 1
            counts["valid"] += fault is None
    return counts


def test_scan_masks_core_and_rotations(tables, enum5, enum6):
    systems = [rep.rs for rep in enum5[5]] + [rep.rs for rep in enum6]
    for n in range(8, 13):
        pts = random_points(n, random.Random(f"scan:{n}"))
        systems.append(rotation_system_from_points(pts))
    counts = {"candidates": 0, "valid": 0}
    for rs in systems:
        for key, k in check_scan(tables, rs).items():
            counts[key] += k
    assert 0 < counts["valid"] < counts["candidates"], counts


def _realizable_small_systems(tables):
    """Every realizable labeled K4 and K5 under ``tables``."""
    out = [
        k4_system(idx)
        for idx, entry in enumerate(tables.k4)
        if entry != K4_UNREALIZABLE
    ]
    return out + [k5_system(idx) for idx in sorted(tables.k5)]


def test_rules_hold_on_every_labeled_k4_and_k5():
    for tables in (default_tables(), build_tables()):
        check_tables(tables)
        counts = {"candidates": 0, "rule (a)": 0, "rule (b)": 0}
        for rs in _realizable_small_systems(tables):
            compare_verdicts(tables, rs, counts)
        assert counts["rule (a)"] and counts["rule (b)"], counts


def _drop_one_k5_orbit(tables):
    """The tables made by removing one orbit of K5 drawings from ``k5``,
    one per orbit: each is closed under relabeling and mirroring and
    passes every check but the flip rules."""
    orbits: dict[bytes, set[int]] = {}
    for idx in tables.k5:
        orbits.setdefault(canonical_key(k5_system(idx)), set()).add(idx)
    assert len(orbits) == 5
    return [
        RealizabilityTables(tables.k4, tables.k5 - orbits[key])
        for key in sorted(orbits)
    ]


def test_check_tables_rejects_dropped_k5_orbit(tables):
    for bad in _drop_one_k5_orbit(tables):
        try:
            check_tables(bad)
        except InputError as exc:
            assert "inconsistent tables" in str(exc)
            assert "rule (b)" in str(exc), exc
        else:
            raise AssertionError("a dropped K5 orbit passed check_tables")


def test_cli_rejects_dropped_k5_orbit(tables, tmp_path, capsys):
    crs = tmp_path / "convex7.crs"
    crs.write_text(serialize_crs(convex(7)))
    for i, bad in enumerate(_drop_one_k5_orbit(tables)):
        tbl = tmp_path / f"drop{i}.tbl"
        tbl.write_text(serialize_tables(bad))
        assert parse_tables(tbl.read_text()) == bad
        capsys.readouterr()
        code = main(["recognize", "--input", str(crs), "--tables", str(tbl)])
        assert code == 2
        assert "inconsistent tables" in capsys.readouterr().err


def test_rules_match_reference_on_k6_orbits(tables, enum6):
    rng = random.Random(6)
    counts = {"candidates": 0, "rule (a)": 0, "rule (b)": 0}
    for rep in enum6:
        for _ in range(3):
            perm = list(range(1, 7))
            rng.shuffle(perm)
            compare_verdicts(tables, relabel(rep.rs, perm), counts)
    assert counts["rule (a)"] and counts["rule (b)"], counts


def test_rules_match_reference_on_flip_walks(tables):
    for n in range(7, 11):
        counts = {"candidates": 0, "rule (a)": 0, "rule (b)": 0}
        for seed in range(3):
            for key, k in check_flip_walk(tables, n, seed, 25).items():
                counts[key] += k
        assert counts["rule (a)"] and counts["rule (b)"], (n, counts)


def test_subrotation_hands_down_masks(tables):
    rng = random.Random(12)
    rs = rotation_system_from_points(random_points(12, rng))
    masks = crossing_masks(tables, rs)
    for size in list(range(1, 12)) * 3:
        subset = rng.sample(range(1, 13), size)
        sub = subrotation(rs, subset)
        assert sub._memo is not None and sub._memo[0] is tables
        assert sub._memo[2] is True
        fresh = RotationSystem(sub.n, sub.rows)
        assert sub._memo[1] == crossing_masks(tables, fresh), subset
    assert subrotation(rs, range(1, 13))._memo[1] is masks


def test_all_pairs_ham_path_sweeps_crossings_once(tables, monkeypatch):
    calls = []
    sweep = rot._crossing_sweep

    def counting(*args):
        calls.append(args)
        return sweep(*args)

    monkeypatch.setattr(rot, "_crossing_sweep", counting)
    rs = rotation_system_from_points(random_points(10, random.Random(10)))
    for v in range(1, 11):
        for w in range(1, 11):
            if v != w:
                ham_path(tables, rs, v, w)
    ham_cycle(tables, rs)
    plane_matching(tables, rs)
    assert len(calls) == 1
