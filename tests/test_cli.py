from __future__ import annotations

import json
import random

import pytest

from sepdraw.cli import main
from sepdraw.cmap import serialize_cmap
from sepdraw.generators import random_two_page, random_two_page_minus
from sepdraw.rotation import convex, serialize_crs
from test_separability import LOW_DEGREE_K6


@pytest.fixture(scope="module")
def convex7(tmp_path_factory):
    p = tmp_path_factory.mktemp("crs") / "convex7.crs"
    p.write_text(serialize_crs(convex(7)))
    return str(p)


@pytest.fixture(scope="module")
def nonsep5(tmp_path_factory, tables):
    from sepdraw.enumeration import enumerate_good_drawings
    from sepdraw.separability import is_separable

    rep = next(
        r
        for r in enumerate_good_drawings(5)
        if not is_separable(tables, r.rs).separable
    )
    p = tmp_path_factory.mktemp("crs") / "nonsep5.crs"
    p.write_text(serialize_crs(rep.rs))
    return str(p)


class TestRecognize:
    def test_separable_exits_zero(self, convex7, capsys):
        assert main(["recognize", "--input", convex7]) == 0
        assert "separable" in capsys.readouterr().out

    def test_negative_answer_exits_one(self, nonsep5, capsys):
        assert main(["recognize", "--input", nonsep5]) == 1
        out = capsys.readouterr().out
        assert "not separable" in out

    def test_garbage_exits_two(self, tmp_path, capsys):
        p = tmp_path / "garbage.txt"
        p.write_text("this is not a rotation system\n")
        assert main(["recognize", "--input", str(p)]) == 2

    def test_missing_file_exits_two(self):
        assert main(["recognize", "--input", "/nonexistent.crs"]) == 2

    def test_directory_input_exits_two(self, tmp_path, capsys):
        assert main(["recognize", "--input", str(tmp_path)]) == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_non_utf8_input_exits_two(self, tmp_path, capsys):
        p = tmp_path / "latin1.crs"
        p.write_bytes(b"n=3\n1: 2 3\n2: 1 3\n3: 1 2 \xe9\n")
        assert main(["recognize", "--input", str(p)]) == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_multi_record_input_exits_two(self, tmp_path, capsys):
        p = tmp_path / "two.crs"
        p.write_text(serialize_crs([convex(5), convex(6)]))
        for cmd in ("recognize", "hamcycle", "matching", "gconvex"):
            assert main([cmd, "--input", str(p)]) == 2
            assert "one rotation-system record" in capsys.readouterr().err

    @pytest.mark.parametrize("n", ["1000000000000", "1" + "0" * 30, "0", "-3"])
    def test_vertex_count_out_of_range_exits_two(self, tmp_path, n):
        p = tmp_path / "huge.crs"
        p.write_text(f"n={n}\n1: 2 3\n")
        assert main(["recognize", "--input", str(p)]) == 2

    def test_truncated_tables_exit_two(self, tmp_path, convex7, capsys):
        p = tmp_path / "bad.tbl"
        p.write_text("tables v1\nk5 5\n1\n")
        assert main(["recognize", "--input", convex7, "--tables", str(p)]) == 2
        assert "truncated" in capsys.readouterr().err

    def test_certificate_json(self, convex7, capsys):
        assert (
            main(["recognize", "--input", convex7, "--certificate", "--json"])
            == 0
        )
        doc = json.loads(capsys.readouterr().out)
        assert doc["result"]["separable"] is True
        assert doc["result"]["certificate"]["1,2"] == "uncrossed"

    def test_json_stdout_is_byte_identical(self, convex7, capsys):
        main(["recognize", "--input", convex7, "--json"])
        first = capsys.readouterr().out
        main(["recognize", "--input", convex7, "--json"])
        assert capsys.readouterr().out == first

    def test_reused_parser_keeps_no_state(
        self, convex7, nonsep5, tmp_path, capsys
    ):
        # main() builds its parser once per process; a subcommand's
        # options must not leak into the next call
        m, _, _, _ = random_two_page(5, random.Random(73))
        p = tmp_path / "m.cmap"
        p.write_text(serialize_cmap(m))
        calls = [
            ["recognize", "--input", convex7, "--json"],
            ["verify", "--input", str(p), "--json"],
            ["recognize", "--input", nonsep5, "--certificate", "--json"],
        ]

        def run(argv):
            code = main(argv)
            return code, capsys.readouterr().out

        first = [run(argv) for argv in calls]
        assert [code for code, _ in first] == [0, 0, 1]
        assert [run(argv) for argv in calls] == first


class TestFlips:
    def test_fig_style_query(self, convex7, capsys):
        assert main(["flips", "--input", convex7, "--edge", "2,6", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["result"]["candidates"] == [[1, 7], [3, 4, 5]]
        assert len(doc["result"]["valid_flips"]) == 1
        assert doc["result"]["valid_flips"][0]["swept"] == [1, 7]

    def test_bad_edge_syntax(self, convex7):
        assert main(["flips", "--input", convex7, "--edge", "2-6"]) == 2

    @pytest.mark.parametrize("edge", ["1,99", "0,2", "-1,3", "3,3", "--"])
    def test_bad_edge_exits_two(self, convex7, edge, capsys):
        assert main(["flips", "--input", convex7, "--edge=" + edge]) == 2
        assert "Traceback" not in capsys.readouterr().err


class TestHamiltonian:
    def test_hampath_verified(self, convex7, capsys):
        code = main(
            [
                "hampath", "--input", convex7,
                "--from", "1", "--to", "4", "--verify", "--json",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["result"]["verified"] is True
        assert doc["result"]["path"][0] == 1 and doc["result"]["path"][-1] == 4

    def test_hamcycle(self, convex7, capsys):
        assert main(["hamcycle", "--input", convex7, "--verify"]) == 0

    def test_matching(self, convex7, capsys):
        assert main(["matching", "--input", convex7, "--verify", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["result"]["size"] >= 1

    def test_stuck_instance_exits_one(self, tmp_path):
        p = tmp_path / "low.crs"
        p.write_text(serialize_crs(LOW_DEGREE_K6))
        assert (
            main(["hampath", "--input", str(p), "--from", "1", "--to", "6"])
            == 1
        )


class TestGconvex:
    def test_positive(self, convex7):
        assert main(["gconvex", "--input", convex7]) == 0

    def test_negative(self, tmp_path):
        from test_rotation import REROUTED_K5

        p = tmp_path / "r.crs"
        p.write_text(serialize_crs(REROUTED_K5))
        assert main(["gconvex", "--input", str(p)]) == 1


class TestEnumerateAndTables:
    def test_enumerate_writes_records(self, tmp_path, capsys):
        out = tmp_path / "k4.crs"
        assert (
            main(["enumerate", "--n", "4", "--out", str(out), "--json"]) == 0
        )
        doc = json.loads(capsys.readouterr().out)
        assert doc["result"]["orbits"] == 2
        from sepdraw.rotation import parse_crs

        assert len(parse_crs(out.read_text())) == 2

    def test_enumerate_7_needs_extended_flag(self, capsys):
        assert main(["enumerate", "--n", "7"]) == 2

    def test_tables_roundtrip(self, tmp_path, tables):
        assert main(["tables", "--out", str(tmp_path)]) == 0
        from sepdraw.enumeration import parse_tables, serialize_tables

        text = (tmp_path / "tables.tbl").read_text()
        assert parse_tables(text) == tables
        assert text == serialize_tables(tables)


class TestMapCommands:
    def test_verify_and_witness(self, tmp_path, capsys):
        rng = random.Random(73)
        m, _, _, _ = random_two_page(5, rng)
        p = tmp_path / "m.cmap"
        p.write_text(serialize_cmap(m))
        assert main(["verify", "--input", str(p)]) == 0
        assert main(["witness", "--input", str(p), "--edge", "1,2"]) == 0

    def test_extend_cli(self, tmp_path, capsys):
        rng = random.Random(79)
        m, _, _ = random_two_page_minus(6, 6, rng)
        p = tmp_path / "m.cmap"
        p.write_text(serialize_cmap(m))
        out = tmp_path / "full.cmap"
        code = main(
            [
                "extend", "--input", str(p), "--mode", "separable",
                "--out", str(out), "--log-potential", "--json",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["result"]["inserted"]
        from sepdraw.cmap import parse_cmap, validate_map

        assert validate_map(parse_cmap(out.read_text())) == []

    def test_extend_rejects_missing_witnesses(self, tmp_path):
        from sepdraw.cmap import from_two_page

        m, _ = from_two_page(
            [1, 2, 3], [(1, 2), (2, 3)], ["upper"] * 2, witnesses=False
        )
        p = tmp_path / "m.cmap"
        p.write_text(serialize_cmap(m))
        assert main(["extend", "--input", str(p), "--mode", "separable"]) == 2

    def test_unknown_subcommand_exits_two(self):
        assert main(["frobnicate"]) == 2
