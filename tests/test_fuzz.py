"""Property tests of the exit-code contract on arbitrary input: the CLI
answers with 0 or 1, or rejects the input with 2, and never shows a
traceback; the tables parser raises nothing but InputError."""
from __future__ import annotations

import functools
import io
import random
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sepdraw.cli import main
from sepdraw.cmap import serialize_cmap
from sepdraw.enumeration import parse_tables
from sepdraw.errors import InputError
from sepdraw.generators import random_two_page
from sepdraw.rotation import convex, serialize_crs

from test_map_golden import _mutate as _edit_structure

# bytes near the .crs format reach the parser's deeper branches far more
# often than uniform bytes do
CRS_ALPHABET = b"n=: 0123456789\n#-\xff"
crs_like = st.lists(st.sampled_from(list(CRS_ALPHABET)), max_size=60).map(bytes)


def _run_cli(argv) -> tuple[int, str]:
    """Exit code and stderr of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(st.binary(max_size=200), crs_like))
def test_recognize_exit_codes_on_arbitrary_bytes(data):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "input.crs"
        path.write_bytes(data)
        code, err = _run_cli(["recognize", "--input", str(path)])
    assert code in (0, 1, 2)
    assert "Traceback" not in err


tables_like = st.text(
    alphabet="tablesv1k45 unrealnoecross-0123456789x\n#", max_size=80
).map("tables v1\n".__add__)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(max_size=200), tables_like))
def test_parse_tables_raises_only_input_error(text):
    try:
        parse_tables(text)
    except InputError:
        pass


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        st.tuples(st.integers(-3, 12), st.integers(-3, 12)).map(
            lambda uv: f"{uv[0]},{uv[1]}"
        ),
        st.text(alphabet="0123456789,- x", max_size=8),
    )
)
def test_flips_edge_exit_codes(edge):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "convex7.crs"
        path.write_text(serialize_crs(convex(7)))
        code, err = _run_cli(["flips", "--input", str(path), "--edge=" + edge])
    assert code in (0, 2)
    assert "Traceback" not in err


@functools.cache
def _serialized_map() -> str:
    m, _, _, _ = random_two_page(5, random.Random(73))
    return serialize_cmap(m)


CMAP_TOKENS = ("0", "1", "2", "5", "7", "99", "-1", ":", "x", "vertex",
               "segment", "curve", "real", "cross", "edge", "idx", "1-2")
# (line, token, action, replacement): action 0 replaces the token, 1 deletes
# it, 2 inserts before it, 3 deletes the whole line, 4 duplicates the line
cmap_mutation = st.tuples(
    st.integers(0, 10**6), st.integers(0, 10**6), st.integers(0, 4),
    st.sampled_from(CMAP_TOKENS),
)


def _mutate(text: str, mutations) -> str:
    lines = [line.split() for line in text.splitlines()]
    for li, ti, action, tok in mutations:
        if not lines:
            break
        li %= len(lines)
        row = lines[li]
        if action == 3:
            del lines[li]
        elif action == 4:
            lines.insert(li, list(row))
        elif action == 2:
            row.insert(ti % (len(row) + 1), tok)
        elif row:
            ti %= len(row)
            if action == 0:
                row[ti] = tok
            else:
                del row[ti]
    return "\n".join(" ".join(row) for row in lines) + "\n"


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(cmap_mutation, min_size=1, max_size=4))
def test_verify_exit_codes_on_mutated_map(mutations):
    text = _mutate(_serialized_map(), mutations)
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "mutated.cmap"
        path.write_text(text)
        code, err = _run_cli(["verify", "--input", str(path)])
    assert code in (0, 1, 2)
    assert "Traceback" not in err


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_witness_rejects_maps_that_verify_rejects(seed, twice):
    """Structural edits that still parse: whenever ``verify`` finds the
    map invalid (exit 1), ``witness`` refuses it as bad input (exit 2)."""
    rng = random.Random(seed)
    lines = _edit_structure(_serialized_map().splitlines(), rng)
    if twice:
        lines = _edit_structure(lines, rng)
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "edited.cmap"
        path.write_text("\n".join(lines) + "\n")
        verify, err = _run_cli(["verify", "--input", str(path)])
        witness, werr = _run_cli(
            ["witness", "--input", str(path), "--edge", "1,2"]
        )
    assert verify in (0, 1, 2) and witness in (0, 1, 2)
    assert "Traceback" not in err + werr
    if verify == 1:
        assert witness == 2, werr
