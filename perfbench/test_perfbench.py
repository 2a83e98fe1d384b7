"""The benchmark's own tests: a tiny-size self-check of every workload,
its metric names against BENCHMARK.json, and its refusal to run without
the package sources."""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(args, cwd, timeout=300):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )


def test_selfcheck_and_metric_names():
    proc = _run(["--selfcheck"], ROOT)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert proc.stdout.strip().endswith("selfcheck ok")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for w in (x["name"] for x in bench["workloads"]):
        for trace, names in declared.items():
            res = json.loads(
                (HERE / "out" / f"result-{w}-1-trace{trace}-tiny.json").read_text()
            )
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            assert got == names, (w, trace)
            assert res["correct"] and res["failed"] == 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(
        ["--workload", "hamilton", "--seed", "1", "--seconds", "1", "--trace", "0"],
        tmp_path, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
