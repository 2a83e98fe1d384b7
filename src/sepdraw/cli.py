"""Command-line interface.

Exit codes: 0 success/affirmative, 1 well-formed negative answer,
2 input or format error, 3 internal invariant violation (a bug).
With ``--json`` a single JSON document goes to stdout; human-readable
notes and timings go to stderr so identical inputs produce byte-identical
stdout.
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time
from pathlib import Path

from . import __version__
from .cmap import (
    parse_cmap,
    serialize_cmap,
    validate_map,
)
from .enumeration import (
    build_tables,
    default_tables,
    enumerate_good_drawings,
    parse_tables,
    serialize_tables,
)
from .errors import (
    InputError,
    InternalInvariantError,
    SeparatorNotFoundError,
)
from .extension import extend_to_complete_crossmin, extend_to_complete_separable
from .hamiltonicity import ham_cycle, ham_path, plane_matching, verify_crossing_free
from .rotation import is_g_convex, is_realizable, parse_crs, serialize_crs
from .routing import find_witness
from .separability import certificate_json, is_separable, flip_candidates, valid_flips

OK, NEGATIVE, BAD_INPUT, BUG = 0, 1, 2, 3


def _digest(path: str | None) -> str | None:
    if path is None:
        return None
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _emit(args, payload: dict, human: str, code: int) -> int:
    payload = {
        "subcommand": args.cmd,
        "input_digest": _digest(getattr(args, "input", None)),
        "result": payload,
        "verification": payload.get("verified"),
    }
    if args.json:
        print(json.dumps(payload, sort_keys=True))
        if human:
            print(human, file=sys.stderr)
    else:
        if human:
            print(human)
    return code


def _load_tables(args):
    if getattr(args, "tables", None):
        return parse_tables(Path(args.tables).read_text())
    return default_tables()


def _load_rs(args):
    records = parse_crs(Path(args.input).read_text())
    if len(records) != 1:
        raise InputError(
            f"expected one rotation-system record, got {len(records)}"
        )
    return records[0]


def _load_map(args):
    return parse_cmap(Path(args.input).read_text())


def _parse_edge(text: str):
    # argparse turns "--edge=--" into an empty list, not a string
    if not isinstance(text, str):
        raise InputError(f"expected '--edge u,v', got {text!r}")
    try:
        u, v = (int(t) for t in text.split(","))
    except ValueError:
        raise InputError(f"expected '--edge u,v', got {text!r}") from None
    return u, v


def cmd_recognize(args) -> int:
    tables = _load_tables(args)
    rs = _load_rs(args)
    if not is_realizable(tables, rs):
        raise InputError("input rotation system is not realizable")
    res = is_separable(tables, rs)
    payload: dict = {"separable": res.separable, "n": rs.n}
    if not res.separable:
        payload["failed_edge"] = list(res.failed_edge)
    if args.certificate and res.separable:
        payload["certificate"] = certificate_json(res.certificate)
    human = "separable" if res.separable else (
        f"not separable (edge {res.failed_edge} has no witness)"
    )
    return _emit(args, payload, human, OK if res.separable else NEGATIVE)


def cmd_flips(args) -> int:
    tables = _load_tables(args)
    rs = _load_rs(args)
    e = _parse_edge(args.edge)
    cands = flip_candidates(rs, e)
    flips = valid_flips(tables, rs, e)
    payload = {
        "edge": sorted(e),
        "candidates": [sorted(c.swept) for c in cands],
        "valid_flips": [
            {
                "swept": sorted(f.swept),
                "new_rotations": {
                    str(v): list(f.new_rs.rotation(v)) for v in sorted(e)
                },
            }
            for f in flips
        ],
    }
    human = (
        f"{len(cands)} candidate(s), {len(flips)} valid flip(s): "
        + "; ".join(str(sorted(f.swept)) for f in flips)
    )
    return _emit(args, payload, human, OK)


def _verified(args, tables, rs, edges) -> bool | None:
    if not args.verify:
        return None
    return verify_crossing_free(tables, rs, edges)


def cmd_hampath(args) -> int:
    tables = _load_tables(args)
    rs = _load_rs(args)
    path = ham_path(tables, rs, args.src, args.dst)
    ver = _verified(args, tables, rs, path.edges)
    payload = {"path": list(path.vertices), "verified": ver}
    human = "path: " + " ".join(str(v) for v in path.vertices)
    if ver is False:
        raise InternalInvariantError("constructed path has a crossing")
    return _emit(args, payload, human, OK)


def cmd_hamcycle(args) -> int:
    tables = _load_tables(args)
    rs = _load_rs(args)
    cyc = ham_cycle(tables, rs)
    ver = _verified(args, tables, rs, cyc.edges)
    payload = {"cycle": list(cyc.vertices), "verified": ver}
    if ver is False:
        raise InternalInvariantError("constructed cycle has a crossing")
    return _emit(args, payload, "cycle: " + " ".join(map(str, cyc.vertices)), OK)


def cmd_matching(args) -> int:
    tables = _load_tables(args)
    rs = _load_rs(args)
    mt = plane_matching(tables, rs)
    ver = _verified(args, tables, rs, mt.edges)
    payload = {
        "matching": [list(e) for e in mt.edges],
        "size": len(mt.edges),
        "lower_bound": rs.n // 4,
        "verified": ver,
    }
    if ver is False or len(mt.edges) < rs.n // 4:
        raise InternalInvariantError("matching contract violated")
    human = "matching: " + " ".join(f"{u}-{v}" for u, v in mt.edges)
    return _emit(args, payload, human, OK)


def cmd_gconvex(args) -> int:
    tables = _load_tables(args)
    rs = _load_rs(args)
    ans = is_g_convex(tables, rs)
    return _emit(
        args,
        {"g_convex": ans, "n": rs.n},
        "g-convex" if ans else "not g-convex",
        OK if ans else NEGATIVE,
    )


def cmd_enumerate(args) -> int:
    reps = enumerate_good_drawings(args.n, extended=args.extended)
    text = serialize_crs([r.rs for r in reps])
    if args.out:
        Path(args.out).write_text(text)
    payload = {"n": args.n, "orbits": len(reps)}
    human = f"{len(reps)} orbit(s) at n={args.n}"
    if not args.out and not args.json:
        print(text, end="")
    return _emit(args, payload, human, OK)


def cmd_tables(args) -> int:
    tables = build_tables()
    out = Path(args.out) / "tables.tbl"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(serialize_tables(tables))
    payload = {
        "out": str(out),
        "k5_size": len(tables.k5),
    }
    return _emit(args, payload, f"wrote {out}", OK)


def cmd_witness(args) -> int:
    m = _load_map(args)
    e = _parse_edge(args.edge)
    found = find_witness(m, e)
    if found is None:
        return _emit(
            args,
            {"witness": None, "edge": sorted(e)},
            "none",
            NEGATIVE,
        )
    m2, cid = found
    segs = m2.curve_segments(cid)
    if args.out:
        Path(args.out).write_text(serialize_cmap(m2))
    payload = {
        "witness": {"curve": cid, "segments": len(segs)},
        "edge": sorted(e),
    }
    return _emit(args, payload, f"witness found ({len(segs)} segment(s))", OK)


def cmd_verify(args) -> int:
    m = _load_map(args)
    violations = validate_map(m)
    payload = {"valid": not violations, "violations": violations}
    human = "valid" if not violations else "invalid:\n  " + "\n  ".join(
        violations
    )
    return _emit(args, payload, human, OK if not violations else NEGATIVE)


def cmd_extend(args) -> int:
    m = _load_map(args)
    if args.mode == "separable":
        res = extend_to_complete_separable(m)
    else:
        res = extend_to_complete_crossmin(m)
    if args.out:
        Path(args.out).write_text(serialize_cmap(res.map))
    payload = {
        "inserted": [list(r.edge) for r in res.insertions],
        "fixup_steps": max(0, len(res.potential_log) - 1),
        "violations": [],
    }
    if args.log_potential:
        payload["potential_log"] = [list(p) for p in res.potential_log]
    human = (
        f"inserted {len(res.insertions)} edge(s), "
        f"{max(0, len(res.potential_log) - 1)} fix-up step(s)"
    )
    return _emit(args, payload, human, OK)


# built once per process: every main() call shares this parser, so no
# caller may add to or change it
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="sepdraw",
        description=(
            "Separator-edge recognition, crossing-free Hamiltonian "
            "structures, and edge completion for simple drawings of "
            "complete graphs."
        ),
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    def common(p, tables=True):
        p.add_argument("--json", action="store_true")
        if tables:
            p.add_argument("--tables", help="realizability tables file (.tbl)")

    p = sub.add_parser("recognize", help="decide separability of a .crs input")
    p.add_argument("--input", required=True)
    p.add_argument("--certificate", action="store_true")
    common(p)
    p.set_defaults(fn=cmd_recognize)

    p = sub.add_parser("flips", help="candidate and valid flips of one edge")
    p.add_argument("--input", required=True)
    p.add_argument("--edge", required=True, metavar="u,v")
    common(p)
    p.set_defaults(fn=cmd_flips)

    p = sub.add_parser("hampath", help="crossing-free Hamiltonian path")
    p.add_argument("--input", required=True)
    p.add_argument("--from", dest="src", type=int, required=True)
    p.add_argument("--to", dest="dst", type=int, required=True)
    p.add_argument("--verify", action="store_true")
    common(p)
    p.set_defaults(fn=cmd_hampath)

    p = sub.add_parser("hamcycle", help="crossing-free Hamiltonian cycle")
    p.add_argument("--input", required=True)
    p.add_argument("--verify", action="store_true")
    common(p)
    p.set_defaults(fn=cmd_hamcycle)

    p = sub.add_parser("matching", help="crossing-free matching")
    p.add_argument("--input", required=True)
    p.add_argument("--verify", action="store_true")
    common(p)
    p.set_defaults(fn=cmd_matching)

    p = sub.add_parser("gconvex", help="generalized-convexity test")
    p.add_argument("--input", required=True)
    common(p)
    p.set_defaults(fn=cmd_gconvex)

    p = sub.add_parser("enumerate", help="enumerate small good drawings")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--extended", action="store_true")
    p.add_argument("--out")
    common(p, tables=False)
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("tables", help="regenerate the realizability tables")
    p.add_argument("--out", required=True, help="output directory")
    common(p, tables=False)
    p.set_defaults(fn=cmd_tables)

    p = sub.add_parser("witness", help="search a witness arc in a .cmap")
    p.add_argument("--input", required=True)
    p.add_argument("--edge", required=True, metavar="u,v")
    p.add_argument("--out")
    common(p, tables=False)
    p.set_defaults(fn=cmd_witness)

    p = sub.add_parser("verify", help="validate a .cmap drawing")
    p.add_argument("--input", required=True)
    common(p, tables=False)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("extend", help="complete a drawing to K_n")
    p.add_argument("--input", required=True)
    p.add_argument(
        "--mode", choices=("separable", "crossmin"), default="separable"
    )
    p.add_argument("--out")
    p.add_argument("--log-potential", action="store_true")
    common(p, tables=False)
    p.set_defaults(fn=cmd_extend)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse uses 2 for usage errors, matching the contract
        return int(exc.code or 0)
    t0 = time.perf_counter()
    try:
        code = args.fn(args)
    except SeparatorNotFoundError as exc:
        print(f"negative: {exc}", file=sys.stderr)
        return NEGATIVE
    except (InputError, OSError, UnicodeDecodeError) as exc:
        # unreadable, undecodable or malformed input files included
        print(f"input error: {exc}", file=sys.stderr)
        return BAD_INPUT
    except InternalInvariantError as exc:
        print(f"internal invariant violated (bug): {exc}", file=sys.stderr)
        return BUG
    print(f"elapsed: {time.perf_counter() - t0:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
