"""Seeded inputs, ops and answer checks of the four workloads.

``build_inputs`` runs in a fresh interpreter during set-up and writes the
inputs as files; ``load_inputs`` reads them back in the measuring
process, and ``PASSES[workload]`` runs one pass of ops over them.  The
library only ever sees the generated inputs.  Library functions are
looked up through their modules at call time (``H.ham_path``), so the
tracer's rebinding sees every call an op makes.
"""
from __future__ import annotations

import hashlib
import io
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import sepdraw.cli as CLI
import sepdraw.cmap as C
import sepdraw.enumeration as N
import sepdraw.extension as E
import sepdraw.generators as G
import sepdraw.hamiltonicity as H
import sepdraw.rotation as R
import sepdraw.separability as S

WORKLOADS = ("recognize", "hamilton", "complete", "ground-truth")
DEFAULT_SEED = 1

# Per workload: (family, n, instances) rows, or the enumeration size.
# recognize: the n <= 11 instances are 96 % of the ops and set both
# percentiles; p90 falls inside the n = 11 class, not at its edge.  The
# five larger instances carry about a third of the wall time.
FULL = {
    "recognize": [
        ("straight", 8, 22), ("two_page", 8, 22), ("convex", 8, 1),
        ("straight", 9, 12), ("two_page", 9, 12), ("convex", 9, 1),
        ("straight", 10, 8), ("two_page", 10, 8), ("convex", 10, 1),
        ("straight", 11, 10), ("two_page", 11, 10), ("convex", 11, 1),
        ("convex", 12, 1), ("straight", 14, 1), ("two_page", 14, 1),
        ("straight", 16, 1), ("two_page", 18, 1),
    ],
    "hamilton": [
        (fam, n, 2) for n in (8, 9, 10, 11) for fam in ("straight", "two_page")
    ],
    # the 24 separable K9 completions hold the p90 rank; the median falls
    # where the cheaper separable and crossmin completions overlap
    "complete": [
        ("separable", 6, 8), ("separable", 7, 16), ("separable", 8, 16),
        ("separable", 9, 24),
    ] + [("crossmin", n, 9) for n in (5, 6, 7, 8)],
    "ground-truth": 6,
}
TINY = {
    "recognize": [("straight", 6, 2), ("two_page", 6, 2), ("convex", 7, 1)],
    "hamilton": [("straight", 6, 1), ("two_page", 5, 1)],
    "complete": [("separable", 5, 2), ("crossmin", 5, 2)],
    "ground-truth": 5,
}
ORBITS = {5: 5, 6: 102}
NON_SEPARABLE = {5: 1, 6: 61}
# one missing edge per separable input: with up to three, the cost of an
# op depended on how many edges the seed removed, and op_p90_ms spread
# by a third across seeds
MAX_REMOVED = 1
# ground-truth checks each orbit under this many seeded relabelings, so
# that the cost of the orbit ops depends little on the seed
RELABELINGS = 6


def straight_line_rotations(n: int, rng: random.Random) -> list[list[int]]:
    """Rotation system of a straight-line drawing of K_n on n uniform
    random points: each vertex lists the others clockwise, i.e. by
    descending angle.

    Straight-line drawings are convex, hence separable, so every answer
    is known.  Unlike 2-page drawings, their flips are not confined to
    two pages, so flip validation rejects and accepts candidates in a
    different mix.  This shares no code with sepdraw on purpose.
    """
    pts = [(rng.random(), rng.random()) for _ in range(n)]
    rows = []
    for i, (x, y) in enumerate(pts):
        others = [j for j in range(n) if j != i]
        others.sort(key=lambda j: -math.atan2(pts[j][1] - y, pts[j][0] - x))
        rows.append([j + 1 for j in others])
    return rows


def _crs(rows) -> str:
    lines = [f"n={len(rows)}"]
    lines += [f"{v}: " + " ".join(map(str, row)) for v, row in enumerate(rows, 1)]
    return "\n".join(lines) + "\n"


def _two_page_crs(n: int, rng: random.Random) -> str:
    order = list(range(1, n + 1))
    rng.shuffle(order)
    edges = G.all_edges(n)
    pages = [rng.choice(("upper", "lower")) for _ in edges]
    m, _ = C.from_two_page(order, edges, pages, witnesses=False)
    return R.serialize_crs(C.extract_rotation_system(m))


def _rotation_text(family: str, n: int, rng: random.Random) -> str:
    if family == "straight":
        return _crs(straight_line_rotations(n, rng))
    if family == "two_page":
        return _two_page_crs(n, rng)
    return R.serialize_crs(R.convex(n))


def build_inputs(workload: str, seed: int, tiny: bool, outdir: Path):
    """Generate the workload's inputs from the seed and write them."""
    plan = (TINY if tiny else FULL)[workload]
    rng = random.Random(f"{workload}:{seed}")
    outdir.mkdir(parents=True, exist_ok=True)
    manifest = []
    if workload == "ground-truth":
        perms = []
        for _ in range(ORBITS[plan] * RELABELINGS):
            perm = list(range(1, plan + 1))
            rng.shuffle(perm)
            perms.append(perm)
        manifest = {"n": plan, "perms": perms}
    else:
        for family, n, count in plan:
            for _ in range(count):
                if workload == "complete":
                    if family == "separable":
                        m, _, _ = G.random_two_page_minus(n, MAX_REMOVED, rng)
                    else:
                        m = G.random_planar_map(n, rng)
                    text, suffix = C.serialize_cmap(m), "cmap"
                else:
                    text, suffix = _rotation_text(family, n, rng), "crs"
                name = f"{len(manifest):03d}-{family}-{n}.{suffix}"
                (outdir / name).write_text(text)
                manifest.append({"file": name, "family": family, "n": n})
    (outdir / "manifest.json").write_text(json.dumps(manifest, indent=0))


def load_inputs(workload: str, indir: Path):
    """Read the inputs back; rotation systems and maps are parsed here,
    outside any op."""
    manifest = json.loads((indir / "manifest.json").read_text())
    if workload == "ground-truth":
        return manifest
    items = []
    for entry in manifest:
        path = indir / entry["file"]
        item = dict(entry, path=str(path))
        if workload == "hamilton":
            item["rs"] = R.parse_crs(path.read_text())[0]
        elif workload == "complete":
            item["map"] = C.parse_cmap(path.read_text())
        items.append(item)
    return items


def digest(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Passes.  ``run.op(name, fn, check)`` times ``fn()`` and then calls
# ``check(answer)``, which returns (ok, bytes the answer digest covers).


def _cli_recognize(path: str):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = CLI.main(["recognize", "--input", path, "--certificate", "--json"])
    return code, out.getvalue()


def _check_recognize(n: int):
    def check(answer):
        code, stdout = answer
        try:
            res = json.loads(stdout)["result"]
        except (ValueError, KeyError):
            return False, stdout.encode()
        ok = (
            code == 0
            and res.get("separable") is True
            and res.get("n") == n
            and len(res.get("certificate", ())) == n * (n - 1) // 2
        )
        return ok, stdout.encode()

    return check


def recognize_pass(run, inputs, tables, ctx):
    for item in inputs:
        path = item["path"]
        run.op("recognize", lambda: _cli_recognize(path), _check_recognize(item["n"]))


def _verified(tables, rs, build):
    res = build()
    return res, H.verify_crossing_free(tables, rs, res.edges)


def _check_path(n, v, w):
    def check(answer):
        path, verified = answer
        vs = list(path.vertices)
        ok = verified and sorted(vs) == list(range(1, n + 1)) and vs[0] == v and vs[-1] == w
        return ok, repr(vs).encode()

    return check


def _check_cycle(n):
    def check(answer):
        cycle, verified = answer
        vs = list(cycle.vertices)
        return verified and sorted(vs) == list(range(1, n + 1)), repr(vs).encode()

    return check


def _check_matching(n):
    def check(answer):
        matching, verified = answer
        edges = [tuple(e) for e in matching.edges]
        ends = [x for e in edges for x in e]
        ok = (
            verified
            and len(set(ends)) == len(ends)
            and all(1 <= x <= n for x in ends)
            and len(edges) >= n // 4
        )
        return ok, repr(edges).encode()

    return check


def hamilton_pass(run, inputs, tables, ctx):
    for item in inputs:
        rs, n = item["rs"], item["n"]
        for v in range(1, n + 1):
            for w in range(1, n + 1):
                if v != w:
                    run.op(
                        "ham_path",
                        lambda: _verified(tables, rs, lambda: H.ham_path(tables, rs, v, w)),
                        _check_path(n, v, w),
                    )
        run.op(
            "ham_cycle",
            lambda: _verified(tables, rs, lambda: H.ham_cycle(tables, rs)),
            _check_cycle(n),
        )
        run.op(
            "plane_matching",
            lambda: _verified(tables, rs, lambda: H.plane_matching(tables, rs)),
            _check_matching(n),
        )


def _check_completion(n):
    def check(text):
        m = C.parse_cmap(text)
        ok = C.validate_map(m) == [] and C.extract_rotation_system(m).n == n
        return ok, text.encode()

    return check


def complete_pass(run, inputs, tables, ctx):
    for item in inputs:
        m = item["map"]
        extend = (
            E.extend_to_complete_separable
            if item["family"] == "separable"
            else E.extend_to_complete_crossmin
        )
        run.op(
            f"extend_{item['family']}",
            lambda: C.serialize_cmap(extend(m).map),
            _check_completion(item["n"]),
        )


def ground_truth_pass(run, inputs, tables, ctx):
    """``ctx`` may hold the pinned enumeration digest and per-orbit
    answers; both are seed-independent, so every seed is checked
    against them."""
    n, perms = inputs["n"], inputs["perms"]

    def check_enumeration(reps):
        text = R.serialize_crs([r.rs for r in reps])
        ok = len(reps) == ORBITS[n]
        if "enumeration_digest" in ctx:
            ok = ok and digest(text.encode()) == ctx["enumeration_digest"]
        return ok, text.encode()

    reps = run.op(
        "enumerate", lambda: N.enumerate_good_drawings(n), check_enumeration
    )
    if reps is None or len(reps) * RELABELINGS != len(perms):
        return
    separable = []
    for i, perm in enumerate(perms):
        orbit = i // RELABELINGS
        rs = R.relabel(reps[orbit].rs, perm)

        def check(ans, orbit=orbit, rs=rs):
            realizable, sep, gconvex = ans
            ok = realizable and (sep or not gconvex)
            if "orbit_answers" in ctx:
                ok = ok and [sep, gconvex] == ctx["orbit_answers"][orbit]
            separable.append(sep)
            return ok, (R.serialize_crs(rs) + repr(ans)).encode()

        run.op(
            "orbit",
            lambda: (
                R.is_realizable(tables, rs),
                S.is_separable(tables, rs).separable,
                R.is_g_convex(tables, rs),
            ),
            check,
        )
    if len(separable) == len(perms):
        run.expect(
            separable.count(False) == NON_SEPARABLE[n] * RELABELINGS,
            "non-separable orbit count",
        )


PASSES = {
    "recognize": recognize_pass,
    "hamilton": hamilton_pass,
    "complete": complete_pass,
    "ground-truth": ground_truth_pass,
}
