"""Golden outputs of the map layer, the per-curve-pair meet counts and
the faces.

Every section below runs a map-layer routine over a corpus generated here
from fixed seeds and hashes what it returns.  The digests in ``GOLDEN``
were recorded before ``validate_map``, ``find_witness``, the completion
routines and ``MapBuilder.freeze`` were rewritten to share one meet-count
accessor and one route application, so any change to a serialized map, a
potential log, a witness, a violation message or an enumerated drawing
shows up as a mismatch.
"""
from __future__ import annotations

import hashlib
import random

import sepdraw.extension as ext
from oracles import (
    permuted_layout,
    reference_check_simple_vs_original,
    reference_faces,
)
from sepdraw.cmap import (
    WITNESS,
    CombinatorialMap,
    crossing_pairs_of_map,
    from_two_page,
    parse_cmap,
    serialize_cmap,
    validate_map,
    validate_witness,
)
from sepdraw.extension import (
    extend_to_complete_crossmin,
    extend_to_complete_separable,
    insert_min_witness_crossings,
)
from sepdraw.generators import (
    all_edges,
    random_planar_map,
    random_two_page,
    random_two_page_minus,
)
from sepdraw.routing import find_witness


def _digest(items) -> str:
    return hashlib.sha256(repr(items).encode()).hexdigest()


def _outcome(fn, summary):
    try:
        return "ok", summary(fn())
    except Exception as exc:  # the exception itself is part of the answer
        return "raised", type(exc).__name__, str(exc)


def _two_page_maps():
    """Full two-page K4..K9 drawings with mirrored witness arcs."""
    rng = random.Random(41)
    return [
        random_two_page(n, rng)[0] for n in (4, 5, 6, 7, 8, 9) for _ in (0, 1)
    ]


def _separable_inputs():
    rng = random.Random(42)
    return [
        random_two_page_minus(n, n, rng)[0]
        for n in (4, 5, 6, 7, 8)
        for _ in (0, 1, 2)
    ]


def _crossmin_inputs():
    rng = random.Random(43)
    planar = [
        random_planar_map(n, rng) for n in (4, 5, 6, 7, 8) for _ in (0, 1)
    ]
    # two-page inputs carry witness arcs, which crossmin routes across free
    return planar + _separable_inputs()[::2]


def _completion(res):
    return (
        serialize_cmap(res.map),
        res.potential_log,
        [
            (
                r.edge,
                r.witness_set_crossings,
                r.edge_crossings,
                r.inserted_crossings,
            )
            for r in res.insertions
        ],
    )


def _witness(found):
    if found is None:
        return None
    m, cid = found
    return serialize_cmap(m), cid


def _witness_free(n: int, rng: random.Random):
    order = list(range(1, n + 1))
    rng.shuffle(order)
    edges = all_edges(n)
    pages = [rng.choice(("upper", "lower")) for _ in edges]
    return from_two_page(order, edges, pages, witnesses=False)[0]


def _mutate(lines, rng: random.Random):
    """One structural edit of a serialized map that still parses: swap
    two darts of a rotation, move a dart between two rotations, change a
    curve's kind, or change one of its endpoint labels."""
    vertex = [i for i, ln in enumerate(lines) if ln.startswith("vertex")]
    curve = [i for i, ln in enumerate(lines) if ln.startswith("curve")]
    lines = list(lines)
    action = rng.randrange(4)
    if action < 2:
        a = rng.choice(vertex)
        b = a if action == 0 else rng.choice(vertex)
        ta = lines[a].split()
        tb = ta if b == a else lines[b].split()
        ca = ta.index(":") + 1 + rng.randrange(len(ta) - ta.index(":") - 1)
        cb = tb.index(":") + 1 + rng.randrange(len(tb) - tb.index(":") - 1)
        ta[ca], tb[cb] = tb[cb], ta[ca]
        lines[a], lines[b] = " ".join(ta), " ".join(tb)
    else:
        i = rng.choice(curve)
        toks = lines[i].split()
        if action == 2:
            toks[2] = rng.choice(("edge", "witness", "inserted"))
        else:
            u, v = toks[3].split("-")
            toks[3] = f"{u}-{int(v) % 4 + 1}"
        lines[i] = " ".join(toks)
    return lines


def _mutated_maps():
    """Parse outcomes of one or two structural edits of serialized
    two-page maps; most parsed maps are invalid."""
    rng = random.Random(44)
    out = []
    for m in _two_page_maps()[:6]:
        lines = serialize_cmap(m).splitlines()
        for _ in range(16):
            mutated = _mutate(lines, rng)
            if rng.random() < 0.5:
                mutated = _mutate(mutated, rng)
            text = "\n".join(mutated)
            out.append(_outcome(lambda: parse_cmap(text), lambda x: x))
    return out


def _probe_maps():
    """Parse outcomes of edited maps, then every intermediate map of the
    separable completions, where inserted curves may still meet twice."""
    out = _mutated_maps()
    for m in _separable_inputs():
        missing = sorted(
            set(all_edges(len(m.real_labels())))
            - {c.edge() for c in m.curves}
        )
        for u, v in missing:
            m = insert_min_witness_crossings(m, u, v).map
            out.append(("ok", m))
    return out


def _queries(m):
    """Every reader of per-curve-pair meet counts, on one map."""
    witnessed = sorted({c.edge() for c in m.curves if c.kind == WITNESS})
    return (
        validate_map(m),
        validate_map(m, strict=False),
        [validate_witness(m, e) for e in witnessed],
        sorted(crossing_pairs_of_map(m)),
        ext._potential(m, ext.SEPARABLE),
        ext._potential(m, ext.CROSSMIN),
        [
            reference_check_simple_vs_original(m, c)
            for c in range(len(m.curves))
        ],
    )


def _golden_sections(enum5, enum6):
    sections = {}
    sections["two-page"] = [serialize_cmap(m) for m in _two_page_maps()]
    sections["separable"] = [
        _outcome(lambda: extend_to_complete_separable(m), _completion)
        for m in _separable_inputs()
    ]
    sections["crossmin"] = [
        _outcome(lambda: extend_to_complete_crossmin(m), _completion)
        for m in _crossmin_inputs()
    ]
    rng = random.Random(45)
    witness = []
    for n in (4, 5, 6, 7):
        m = _witness_free(n, rng)
        for e in all_edges(n):
            witness.append(_outcome(lambda: find_witness(m, e), _witness))
    # non-separable K6 orbits: some edges have no witness
    for i in (1, 37, 71, 82):
        for e in all_edges(6):
            m = enum6[i].map
            witness.append(_outcome(lambda: find_witness(m, e), _witness))
    sections["find-witness"] = witness
    sections["queries"] = [
        _queries(o[1]) if o[0] == "ok" else o for o in _probe_maps()
    ]
    rng = random.Random(46)
    sections["planar"] = [
        serialize_cmap(random_planar_map(n, rng))
        for n in (2, 3, 4, 5, 6, 8, 10, 12)
        for _ in (0, 1, 2)
    ]
    levels = dict(enum5)
    levels[6] = enum6
    sections["enumerate"] = [
        [(d.key, serialize_cmap(d.map)) for d in levels[k]]
        for k in sorted(levels)
    ]
    return sections


GOLDEN = {
    "two-page": "9cdc4cfa5ac5463c6dc8f00687358a78a8eb958dea2f2e3f02a815af1b8ed863",
    "separable": "c9a0b99b21981f0555af99140a9badb2a86a99bf7bb24e988cba19c75c1a0645",
    "crossmin": "62b5c341130a4cc742e7e0bea273cfc204e76dabfa7e4b2f61ca64dd9420c832",
    "find-witness": "9cd9bcb1c08312e582eed3bc936fb3bf95d76b22e9a6b7a851aef1e3fcbcf0f9",
    "queries": "c17af24d15e79e8960748a51b17c895713c96f62e0e9750a0c80a4890ff72798",
    "planar": "8bf05b2f897a89fa9184c61cc84abdc96e524850183e1db2245c5feb4f61a452",
    "enumerate": "81e932ef2582bdaa81f72016a1cd9a5a12e3b80e63cedef4928482e0c11b5373",
}


def test_map_golden(enum5, enum6):
    got = {
        name: _digest(items)
        for name, items in _golden_sections(enum5, enum6).items()
    }
    assert got == GOLDEN


def _independent_meets(m):
    """Meet counts read off the curves' vertex chains: the crossing
    vertices two curves share, or that one curve passes twice."""
    chains = [
        [p for p in m.curve_points(c) if m.vkind[p] == "cross"]
        for c in range(len(m.curves))
    ]
    out = {}
    for a in range(len(chains)):
        for b in range(a, len(chains)):
            if a == b:
                k = len(chains[a]) - len(set(chains[a]))
            else:
                k = len(set(chains[a]) & set(chains[b]))
            if k:
                out[(a, b)] = k
    return out


def test_meets_matches_curve_chains():
    maps = list(_two_page_maps()) + [_witness_free(7, random.Random(47))]
    for m in _separable_inputs():
        maps.append(extend_to_complete_separable(m).map)
        missing = sorted(
            set(all_edges(len(m.real_labels())))
            - {c.edge() for c in m.curves}
        )
        maps.append(insert_min_witness_crossings(m, *missing[0]).map)
    for m in _crossmin_inputs()[:10]:
        maps.append(extend_to_complete_crossmin(m).map)
    crossings = 0
    for m in maps:
        assert dict(m.meets) == _independent_meets(m)
        assert sum(m.meets.values()) == m.vkind.count("cross")
        crossings += sum(m.meets.values())
    assert crossings > 0


def test_faces_match_reference():
    """``faces`` and ``face_of`` against an independent walk on the
    golden probe maps, 2-page maps and completions, each as a fresh copy
    and as a copy with its vertex and segment ids shuffled."""
    maps = [m for status, m, *_ in _probe_maps() if status == "ok"]
    maps += _two_page_maps()
    maps += [extend_to_complete_separable(m).map for m in _separable_inputs()]
    maps += [extend_to_complete_crossmin(m).map for m in _crossmin_inputs()[:6]]
    rng = random.Random(48)
    for i, m in enumerate(maps):
        fields = (m.vkind, m.vlabel, m.vdarts, m.scurve, m.sidx, m.curves)
        for copy in (CombinatorialMap(*fields), permuted_layout(m, rng)):
            faces, face_of = reference_faces(copy)
            if i % 2:  # either property may run the walk
                assert copy.face_of == face_of and copy.faces == faces, i
            else:
                assert copy.faces == faces and copy.face_of == face_of, i
