"""Command-line interface.

:func:`build_parser` declares what each subcommand reads: nothing, a
rotation system with its tables (``--input``, ``--tables``) or a map
(``--input``).  :func:`main` loads it, so an unreadable or malformed
input maps to exit code 2 in one place, and each ``cmd_<name>``
function only computes and emits.

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
    check_tables,
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
from .separability import (
    certificate_json,
    flip_candidates,
    flip_json,
    is_separable,
    valid_flips,
)

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


def _load_rs(args):
    """The tables (``--tables``, checked, or the shipped ones) and the one
    realizable rotation system of ``--input``."""
    if args.tables:
        tables = parse_tables(Path(args.tables).read_text())
        check_tables(tables)
    else:
        tables = default_tables()
    records = parse_crs(Path(args.input).read_text())
    if len(records) != 1:
        raise InputError(
            f"expected one rotation-system record, got {len(records)}"
        )
    if not is_realizable(tables, records[0]):
        raise InputError("input rotation system is not realizable")
    return tables, records[0]


def _load_map(args):
    """The map of ``--input``, as a 1-tuple."""
    return (parse_cmap(Path(args.input).read_text()),)


def _parse_edge(text: str):
    # argparse turns "--edge=--" into an empty list, not a string
    if not isinstance(text, str):
        raise InputError(f"expected '--edge u,v', got {text!r}")
    try:
        u, v = (int(t) for t in text.split(","))
    except ValueError:
        raise InputError(f"expected '--edge u,v', got {text!r}") from None
    return u, v


def _verified(args, tables, rs, edges, violated: str) -> bool | None:
    """``--verify``: None when not asked, True when ``edges`` are pairwise
    crossing-free; raises ``violated`` as a bug when they are not."""
    if not args.verify:
        return None
    if not verify_crossing_free(tables, rs, edges):
        raise InternalInvariantError(violated)
    return True


def cmd_recognize(args, tables, rs) -> int:
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


def cmd_flips(args, tables, rs) -> int:
    e = _parse_edge(args.edge)
    cands = flip_candidates(rs, e)
    flips = valid_flips(tables, rs, e)
    payload = {
        "edge": sorted(e),
        "candidates": [sorted(c.swept) for c in cands],
        "valid_flips": [flip_json(f) for f in flips],
    }
    human = (
        f"{len(cands)} candidate(s), {len(flips)} valid flip(s): "
        + "; ".join(str(sorted(f.swept)) for f in flips)
    )
    return _emit(args, payload, human, OK)


def cmd_hampath(args, tables, rs) -> int:
    path = ham_path(tables, rs, args.src, args.dst)
    ver = _verified(
        args, tables, rs, path.edges, "constructed path has a crossing"
    )
    payload = {"path": list(path.vertices), "verified": ver}
    human = "path: " + " ".join(str(v) for v in path.vertices)
    return _emit(args, payload, human, OK)


def cmd_hamcycle(args, tables, rs) -> int:
    cyc = ham_cycle(tables, rs)
    ver = _verified(
        args, tables, rs, cyc.edges, "constructed cycle has a crossing"
    )
    payload = {"cycle": list(cyc.vertices), "verified": ver}
    return _emit(args, payload, "cycle: " + " ".join(map(str, cyc.vertices)), OK)


def cmd_matching(args, tables, rs) -> int:
    mt = plane_matching(tables, rs)
    ver = _verified(args, tables, rs, mt.edges, "matching contract violated")
    if len(mt.edges) < rs.n // 4:
        raise InternalInvariantError("matching contract violated")
    payload = {
        "matching": [list(e) for e in mt.edges],
        "size": len(mt.edges),
        "lower_bound": rs.n // 4,
        "verified": ver,
    }
    human = "matching: " + " ".join(f"{u}-{v}" for u, v in mt.edges)
    return _emit(args, payload, human, OK)


def cmd_gconvex(args, tables, rs) -> int:
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


def cmd_witness(args, m) -> int:
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


def cmd_verify(args, m) -> int:
    violations = validate_map(m)
    payload = {"valid": not violations, "violations": violations}
    human = "valid" if not violations else "invalid:\n  " + "\n  ".join(
        violations
    )
    return _emit(args, payload, human, OK if not violations else NEGATIVE)


def cmd_extend(args, m) -> int:
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

    def command(fn, help, load=None):
        """Subcommand ``fn`` (``cmd_<name>``): :func:`main` runs
        ``fn(args, *load(args))``, with ``load`` None (no input),
        :func:`_load_rs` or :func:`_load_map`."""
        p = sub.add_parser(fn.__name__.removeprefix("cmd_"), help=help)
        if load:
            p.add_argument("--input", required=True)
        p.set_defaults(fn=fn, load=load)
        return p

    p = command(cmd_recognize, "decide separability of a .crs input", _load_rs)
    p.add_argument("--certificate", action="store_true")

    p = command(cmd_flips, "candidate and valid flips of one edge", _load_rs)
    p.add_argument("--edge", required=True, metavar="u,v")

    p = command(cmd_hampath, "crossing-free Hamiltonian path", _load_rs)
    p.add_argument("--from", dest="src", type=int, required=True)
    p.add_argument("--to", dest="dst", type=int, required=True)
    p.add_argument("--verify", action="store_true")

    p = command(cmd_hamcycle, "crossing-free Hamiltonian cycle", _load_rs)
    p.add_argument("--verify", action="store_true")

    p = command(cmd_matching, "crossing-free matching", _load_rs)
    p.add_argument("--verify", action="store_true")

    command(cmd_gconvex, "generalized-convexity test", _load_rs)

    p = command(cmd_enumerate, "enumerate small good drawings")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--extended", action="store_true")
    p.add_argument("--out")

    p = command(cmd_tables, "regenerate the realizability tables")
    p.add_argument("--out", required=True, help="output directory")

    p = command(cmd_witness, "search a witness arc in a .cmap", _load_map)
    p.add_argument("--edge", required=True, metavar="u,v")
    p.add_argument("--out")

    command(cmd_verify, "validate a .cmap drawing", _load_map)

    p = command(cmd_extend, "complete a drawing to K_n", _load_map)
    p.add_argument(
        "--mode", choices=("separable", "crossmin"), default="separable"
    )
    p.add_argument("--out")
    p.add_argument("--log-potential", action="store_true")

    # after each subcommand's own options, as --help lists them
    for p in sub.choices.values():
        p.add_argument("--json", action="store_true")
        if p.get_default("load") is _load_rs:
            p.add_argument("--tables", help="realizability tables file (.tbl)")
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
        code = args.fn(args, *(args.load(args) if args.load else ()))
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
