"""Golden output of ``recognize --certificate --json`` and exactness of
the pruned flip validation.

The corpus is generated here from fixed seeds.  The digests in
``GOLDEN`` were recorded before flip validation learned to prune by the
swept set, so any change to certificates, tie-breaks or exit codes shows
up as a mismatch.  The exactness test compares, edge by edge, the
separability answers on realizable systems with a reference that lists
the candidates eagerly (``oracles.reference_flip_candidates``, each
flipped system built in full), reads the flipped systems off the
rotations and compares full crossing sets, read by the oracle
(``oracles.reference_crossings_of_edge``), with no pruning.  It does so
on a fresh copy, on a copy whose verdict is already known, and on
induced subsystems of a known copy, which inherit the verdict as the
hamiltonicity recursion's sub-instances do.  On unrealizable systems
every separability entry point raises.
"""
from __future__ import annotations

import hashlib
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations

from oracles import (
    random_points,
    reference_crossings_of_edge,
    reference_flip_candidates,
    reference_k4_index,
    reference_k5_index,
    rotation_system_from_points,
)
import pytest

from sepdraw.cli import main
from sepdraw.cmap import extract_rotation_system, from_two_page
from sepdraw.generators import all_edges
from sepdraw.rotation import (
    K4_UNREALIZABLE,
    RealizabilityTables,
    RotationSystem,
    convex,
    crossing_pairs,
    crossings_of_edge,
    is_realizable,
    relabel,
    serialize_crs,
    subrotation,
)
from sepdraw.errors import RealizabilityError
from sepdraw.separability import (
    SeparatorEvidence,
    find_any_separator_edge,
    is_separable,
    is_separator_edge,
    separator_edges_at,
    valid_flips,
)

# orbits of enumerate_good_drawings(6) that are not separable
NON_SEPARABLE_K6 = (1, 37, 71, 82)


def _two_page(n: int, rng: random.Random) -> RotationSystem:
    order = list(range(1, n + 1))
    rng.shuffle(order)
    edges = all_edges(n)
    pages = [rng.choice(("upper", "lower")) for _ in edges]
    m, _ = from_two_page(order, edges, pages, witnesses=False)
    return extract_rotation_system(m)


def _random_rows(n: int, rng: random.Random) -> RotationSystem:
    rows = []
    for v in range(1, n + 1):
        row = [x for x in range(1, n + 1) if x != v]
        rng.shuffle(row)
        rows.append(row)
    return RotationSystem(n, rows)


def _unrealizable(n: int, rng: random.Random, tables) -> RotationSystem:
    while True:
        rs = _random_rows(n, rng)
        if not is_realizable(tables, rs):
            return RotationSystem(rs.n, rs.rows)


def golden_corpus(tables, enum6) -> dict[str, RotationSystem]:
    corpus = {}
    for n in (4, 5, 8, 10):
        corpus[f"convex-{n}"] = convex(n)
    for n, seed in ((5, 1), (6, 2), (7, 3), (8, 4), (9, 5), (10, 6)):
        pts = random_points(n, random.Random(seed))
        corpus[f"straight-{n}-{seed}"] = rotation_system_from_points(pts)
    for n, seed in ((5, 1), (6, 2), (7, 3), (8, 4), (9, 5), (10, 6)):
        corpus[f"two-page-{n}-{seed}"] = _two_page(n, random.Random(seed))
    rng = random.Random(6)
    for i in NON_SEPARABLE_K6:
        perm = list(range(1, 7))
        rng.shuffle(perm)
        corpus[f"k6-orbit-{i}"] = relabel(enum6[i].rs, perm)
    corpus["unrealizable-6"] = _unrealizable(6, random.Random(7), tables)
    return corpus


GOLDEN = {
    "convex-4": (0, "43af2b27f8676f1813ff60e950ff758c4f0c0c09d1d2c33ed43ae99deb708fec"),
    "convex-5": (0, "8247463c656fe386b2d9cd05190b3803987b2d294898da9f29b4a732851c5ffa"),
    "convex-8": (0, "222272cada6695554d121d59865e6297762f0b61c85139ceb2f975c3eee6c6f0"),
    "convex-10": (0, "a6b627363771cd5eeb06587185922cb47687a2ad0affbc2f1bb68447105474df"),
    "straight-5-1": (0, "39b7303f50eeb1b9785c2e09ed98d6a2c91e33eaeba295b7557fa73ef5f539bc"),
    "straight-6-2": (0, "eed5b3f4ffddfcb4c1ccac9c769acc616c0ef5aecdf1f66598d6d4d018aa5d63"),
    "straight-7-3": (0, "e399b00cb52a4e806f949f632b631f00f63ffbfacb64db1a3374667fe02e9b39"),
    "straight-8-4": (0, "b64ae1ed4ffa512f3f9e39938add5e6af7e009be6bd530e15467f586ddcdd0b0"),
    "straight-9-5": (0, "8e6836a18443b55cffc5ae31539d0361639a11fe787d3f62070b61d88750e185"),
    "straight-10-6": (0, "3e7b7dde712ad2bc998c318b0fa5671e9f0e6ec8515c14a9d9f9779d4202e7c8"),
    "two-page-5-1": (0, "1116fcb84f8025ee42ef4912f9b6301c93759892b108eb3c1693b15015198dea"),
    "two-page-6-2": (0, "66eda893b6cebb88aa7ecbc36dbcd4af62d80554826481fc81361c04165791ee"),
    "two-page-7-3": (0, "6151e889a168becb4892038f300f36d95445dad0e02405122721578542edfbfc"),
    "two-page-8-4": (0, "beb1dfbc9902b893d4df30af5c8943996a9bb737fd9264bdf46df72311a285d6"),
    "two-page-9-5": (0, "668a8d553b57c0860574e1c58b147bbecf62d93135b21d5fb70d20fd315188b2"),
    "two-page-10-6": (0, "687c1508a6f40f906a13d91a3ad5fa3911dae3baf31f46fef3cb4a5d8276e18f"),
    "k6-orbit-1": (1, "1029941a7b68b5a819860a14bf3dc311a6dfa631f20b95b2f378d3b3431b1b63"),
    "k6-orbit-37": (1, "867e8ac04b6fb27990d0f6c42fb6757d181bc9ff0f7a565d15ee45b207cb092e"),
    "k6-orbit-71": (1, "99e8627aab9def7e6e6675913187f34dd7c55cee911e562a0b95e430440beb0b"),
    "k6-orbit-82": (1, "6bb584b9562c30d4af2baf13dab7b0e4daf7cf9d4efb75b5363c097edbc782f2"),
    "unrealizable-6": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
}


def _recognize(path: str) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["recognize", "--input", path, "--certificate", "--json"])
    return code, out.getvalue()


def test_recognize_golden(tables, enum6, tmp_path):
    got = {}
    for name, rs in golden_corpus(tables, enum6).items():
        path = tmp_path / f"{name}.crs"
        path.write_text(serialize_crs(rs))
        code, stdout = _recognize(str(path))
        got[name] = (code, hashlib.sha256(stdout.encode()).hexdigest())
        if name.startswith("k6-orbit"):
            assert code == 1
            assert json.loads(stdout)["result"]["failed_edge"]
        elif name.startswith("unrealizable"):
            assert code == 2 and stdout == ""
        else:
            assert code == 0
    assert got == GOLDEN


def _outcome(fn, summary):
    try:
        return "ok", summary(fn())
    except Exception as exc:  # the exception itself is part of the answer
        return "raised", type(exc).__name__, str(exc)


def _evidence(ev):
    if ev is None:
        return None
    if ev.uncrossed:
        return ev.edge, "uncrossed"
    return ev.edge, sorted(ev.flip.swept), ev.flip.new_rs.rows


def _flips(flips):
    return [(f.edge, sorted(f.swept), f.new_rs.rows) for f in flips]


def _per_edge(tables, rs):
    return {
        e: (
            _outcome(lambda: is_separator_edge(tables, rs, e), _evidence),
            _outcome(lambda: valid_flips(tables, rs, e), _flips),
        )
        for e in rs.edges()
    }


def _reference_valid(tables, e, cand, old_cross) -> bool:
    """A flip by definition: every 5-tuple through e of the flipped
    system is in k5 (at n = 4 the K4 itself is realizable), and the full
    new crossing set of e misses the old one."""
    new_rs = cand.new_rs
    if new_rs.n == 4:
        entry = tables.k4[reference_k4_index(new_rs, (1, 2, 3, 4))]
        realizable = entry != K4_UNREALIZABLE
    else:
        rest = [x for x in range(1, new_rs.n + 1) if x not in e]
        realizable = all(
            reference_k5_index(new_rs, tuple(sorted(e + t))) in tables.k5
            for t in combinations(rest, 3)
        )
    if not realizable:
        return False
    return not old_cross & reference_crossings_of_edge(tables, new_rs, e)


def _reference_separator_edge(tables, rs, e):
    old_cross = reference_crossings_of_edge(tables, rs, e)
    if not old_cross:
        return SeparatorEvidence(edge=e, uncrossed=True, flip=None)
    for cand in reference_flip_candidates(rs, e):
        if _reference_valid(tables, e, cand, old_cross):
            # the flip is the oracle's candidate, with its own new_rs
            return SeparatorEvidence(edge=e, uncrossed=False, flip=cand)
    return None


def _reference_flips(tables, rs, e):
    old_cross = reference_crossings_of_edge(tables, rs, e)
    out = []
    for cand in reference_flip_candidates(rs, e):
        if any(cand.new_rs == f.new_rs for f in out):
            continue
        if _reference_valid(tables, e, cand, old_cross):
            out.append(cand)
    return out


def _reference_per_edge(tables, rs):
    """``_per_edge`` by the reference flip test."""
    return {
        e: (
            _outcome(
                lambda: _reference_separator_edge(tables, rs, e), _evidence
            ),
            _outcome(lambda: _reference_flips(tables, rs, e), _flips),
        )
        for e in rs.edges()
    }


def _separability_calls(tables, rs):
    """Every call of each separability entry point on ``rs``."""
    calls = [
        lambda: is_separable(tables, rs),
        lambda: find_any_separator_edge(tables, rs),
    ]
    for e in rs.edges():
        calls.append(lambda e=e: is_separator_edge(tables, rs, e))
        calls.append(lambda e=e: valid_flips(tables, rs, e))
    for v in range(1, rs.n + 1):
        calls.append(lambda v=v: separator_edges_at(tables, rs, v))
    return calls


def test_pruned_flip_validation_is_exact(tables, enum6):
    corpus = golden_corpus(tables, enum6)
    rng = random.Random(11)
    realizable = [rs for rs in corpus.values() if is_realizable(tables, rs)]
    assert len(realizable) == len(corpus) - 1
    subsystems = 0
    for rs in realizable:
        want = _reference_per_edge(tables, RotationSystem(rs.n, rs.rows))
        assert _per_edge(tables, RotationSystem(rs.n, rs.rows)) == want
        known = RotationSystem(rs.n, rs.rows)
        assert is_realizable(tables, known)
        assert _per_edge(tables, known) == want
        for k in range(4, rs.n):
            subset = rng.sample(range(1, rs.n + 1), k)
            sub = subrotation(known, subset)
            reference = subrotation(RotationSystem(rs.n, rs.rows), subset)
            assert _per_edge(tables, sub) == _reference_per_edge(
                tables, reference
            )
            subsystems += 1
    assert subsystems == 61
    unrealizable = [corpus["unrealizable-6"]]
    for n in (5, 5, 6, 6, 7, 7):
        unrealizable.append(_unrealizable(n, rng, tables))
    for rs in unrealizable:
        for call in _separability_calls(tables, RotationSystem(rs.n, rs.rows)):
            with pytest.raises(RealizabilityError, match="not realizable"):
                call()


def test_crossings_of_edge_reads_memo_unchanged(tables, enum6):
    """Each edge's crossings, read on a fresh copy (whose first query
    sweeps it) and again after ``crossing_pairs``, and the error on
    unrealizable input, agree.  The memo answers only for its own tables
    object."""
    no_k4 = RealizabilityTables(k4=(K4_UNREALIZABLE,) * 16, k5=tables.k5)
    for rs in golden_corpus(tables, enum6).values():
        rs = RotationSystem(rs.n, rs.rows)
        before = [
            _outcome(lambda e=e: crossings_of_edge(tables, rs, e), sorted)
            for e in rs.edges()
        ]
        memoized = _outcome(lambda: crossing_pairs(tables, rs), len)
        after = [
            _outcome(lambda e=e: crossings_of_edge(tables, rs, e), sorted)
            for e in rs.edges()
        ]
        assert after == before
        if memoized[0] == "ok":
            with pytest.raises(RealizabilityError):
                crossings_of_edge(no_k4, rs, (1, 2))
