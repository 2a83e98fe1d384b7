"""Property tests of the exit-code contract on arbitrary input: the CLI
answers with 0 or 1, or rejects the input with 2, and never shows a
traceback; the tables parser raises nothing but InputError."""
from __future__ import annotations

import io
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sepdraw.cli import main
from sepdraw.enumeration import parse_tables
from sepdraw.errors import InputError

# bytes near the .crs format reach the parser's deeper branches far more
# often than uniform bytes do
CRS_ALPHABET = b"n=: 0123456789\n#-\xff"
crs_like = st.lists(st.sampled_from(list(CRS_ALPHABET)), max_size=60).map(bytes)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(st.binary(max_size=200), crs_like))
def test_recognize_exit_codes_on_arbitrary_bytes(data):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "input.crs"
        path.write_bytes(data)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["recognize", "--input", str(path)])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


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
