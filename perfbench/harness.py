"""Measurement, checks and output of the benchmark; ``run.py`` is the
entry point."""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from bisect import bisect_left, bisect_right
from pathlib import Path

import numpy
import sepdraw
import sepdraw.enumeration
import sepdraw.rotation as R
import sepdraw.separability as S

import workloads
from tracer import UNIT_SAMPLED, Tracer, per_layer_metric_units
from workloads import DEFAULT_SEED, PASSES, WORKLOADS, digest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
PINNED = HERE / "pinned"
SETUP_REPEATS = 3
REFERENCE_ITERS = 36
# about the reference loop's time on a 2 GHz Xeon vCPU in its fast state
REFERENCE_NOMINAL_S = 0.5e-3
PROBE_GAP_S = 0.025
PROBE_WINDOW_S = 0.03
END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


_REF_POS = [{x: (x * 7 + v) % 11 for x in range(12)} for v in range(12)]
_REF_RANK = {p: i for i, p in enumerate(
    [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
)}


def _reference_loop() -> int:
    """Fixed interpreter-bound work that shares no code with sepdraw but
    has its profile (tuples from generators, small sorts with a key,
    dict lookups): under contention it slows like the library does,
    which a plain arithmetic loop does not."""
    acc = 0
    for k in range(REFERENCE_ITERS):
        q = tuple(k % 7 + i for i in range(5))
        for v in q:
            others = tuple(x for x in q if x != v)
            p = _REF_POS[v]
            pa = p[others[0]]
            rel = tuple((p[x] - pa) % 11 for x in others[1:])
            acc += _REF_RANK[tuple(sorted(range(3), key=lambda i: rel[i]))]
    return acc


class SpeedProbe:
    """Tracks how fast this CPU runs Python right now.

    On a shared virtual machine the core speed flips, within seconds,
    between states that differ by a third or more.  Inside ``with`` the
    probe times a fixed reference loop every ``PROBE_GAP_S`` from a
    timer signal, also in the middle of a long op.  ``factor`` compares
    the reference times around an interval with the nominal one, so a
    wall time times the factor is the time at the nominal speed;
    ``own_time`` removes the probe's own samples from an interval, and
    ``on_sample`` hears of each sample's duration.
    """

    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []
        self.on_sample = None

    def sample(self, *_signal_args):
        t0 = time.perf_counter()
        _reference_loop()
        self.at.append(t0)
        self.took.append(time.perf_counter() - t0)
        if self.on_sample is not None:
            self.on_sample(self.took[-1])

    def __enter__(self):
        self.sample()
        self._handler = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_GAP_S, PROBE_GAP_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)
        self.sample()

    def own_time(self, start: float, end: float) -> float:
        lo, hi = bisect_left(self.at, start), bisect_right(self.at, end)
        return end - start - sum(self.took[lo:hi])

    def factor(self, start: float, end: float) -> float:
        lo = bisect_left(self.at, start - PROBE_WINDOW_S)
        hi = bisect_right(self.at, end + PROBE_WINDOW_S)
        near = self.took[lo:hi] or self.took[max(0, lo - 1):lo + 1]
        return REFERENCE_NOMINAL_S / statistics.median(near)


class Runner:
    """Times ops one at a time (closed loop, one caller) and checks each
    answer outside the timed region."""

    def __init__(self, pinned=None, tracer=None):
        self.pinned = pinned
        self.tracer = tracer
        self.spans: list[tuple[float, float]] = []
        self.digests: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def op(self, name, fn, check):
        idx = self.attempted
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op_begin(idx, name)
        t0 = time.perf_counter()
        try:
            answer, error = fn(), None
        except Exception as exc:  # an op that raises counts as failed
            answer, error = None, exc
        self.spans.append((t0, time.perf_counter()))
        if self.tracer is not None:
            self.tracer.op_end()
        if error is not None:
            self._fail(f"op {idx} {name} raised {error!r}")
            return None
        try:
            ok, blob = check(answer)
        except Exception as exc:  # a malformed answer can break its check
            self._fail(f"op {idx} {name}: check raised {exc!r}")
            return None
        self.digests.append(digest(blob))
        if not ok:
            self._fail(f"op {idx} {name}: wrong answer")
        elif self.pinned is not None and (
            idx >= len(self.pinned) or self.digests[-1] != self.pinned[idx]
        ):
            self._fail(f"op {idx} {name}: answer digest differs from pinned")
        return answer

    def expect(self, cond: bool, what: str):
        if not cond:
            self.errors.append(f"check failed: {what}")

    def _fail(self, msg):
        self.failed += 1
        self.errors.append(msg)


def git_commit() -> str:
    """The checkout's commit, read from .git without running git (the
    benchmark may run in an export that has no .git)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def env_stamp(args) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
    }


def _tree_digest(d: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(d.iterdir()):
        h.update(p.name.encode() + b"\0" + p.read_bytes() + b"\0")
    return h.hexdigest()


def set_up(workload, seed, tiny, repeats):
    """Run the set-up in ``repeats`` fresh interpreters; return the
    input directory and, for each, the wall time and the speed factor
    from probe samples taken around and inside the child.  Every repeat
    must write identical inputs."""
    indir = OUT / f"{workload}-{seed}{'-tiny' if tiny else ''}"
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only", str(indir),
           "--workload", workload, "--seed", str(seed)]
    if tiny:
        cmd.append("--tiny")
    shutil.rmtree(indir, ignore_errors=True)
    times, digests = [], set()
    probe = SpeedProbe()
    for _ in range(repeats):
        for _ in range(5):
            probe.sample()
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        t1 = time.perf_counter()
        for _ in range(5):
            probe.sample()
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed: {proc.stderr.strip()}")
        child = json.loads(proc.stdout.splitlines()[-1])
        near = probe.took[-10:] + child
        times.append(
            (t1 - t0 - sum(child), REFERENCE_NOMINAL_S / statistics.median(near))
        )
        digests.add(_tree_digest(indir))
    if len(digests) != 1:
        raise RuntimeError("set-up wrote different inputs for the same seed")
    return indir, times


def load_pinned(workload, seed, tiny):
    """Per-op digests apply to the default seed only; the ground-truth
    extras are seed-independent."""
    path = PINNED / f"{workload}.json"
    if tiny or not path.is_file():
        return None, {}
    data = json.loads(path.read_text())
    ctx = {k: v for k, v in data.items() if k in ("enumeration_digest", "orbit_answers")}
    digests = data["digests"] if seed == DEFAULT_SEED else None
    return digests, ctx


def timed_phase(workload, inputs, tables, seconds, pinned, ctx):
    """Repeat whole passes while another one fits in ``seconds``; at
    least one.  Whole passes keep the op mix the same in every run.
    Each pass restarts the op index that the pinned digests use."""
    runs = []
    with SpeedProbe() as probe:
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            run = Runner(pinned)
            PASSES[workload](run, inputs, tables, ctx)
            runs.append(run)
            now = time.perf_counter()
            if now - start + (now - t0) > seconds:
                return runs, probe


def per_op_medians(runs, duration):
    """Each op's median ``duration(start, end)`` over the passes that
    ran it."""
    by_op: list[list[float]] = []
    for run in runs:
        for i, span in enumerate(run.spans):
            if i == len(by_op):
                by_op.append([])
            by_op[i].append(duration(*span))
    return [statistics.median(ds) for ds in by_op]


def end_to_end(durations, setup_times):
    """Metrics from per-op durations and set-up times in seconds."""
    q = statistics.quantiles(durations, n=10, method="inclusive")
    return {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": len(durations) / sum(durations),
        "op_p50_ms": q[4] * 1e3,
        "op_p90_ms": q[8] * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced_phase(workload, inputs, tables, pinned, ctx):
    """One untraced pass, then two traced passes of the same ops.  The
    two traced passes must agree on every call and yield count.  The
    tracing overhead compares the first traced pass with the untraced
    one at nominal speed.  The speed probe's samples count as nobody's
    self time."""
    with SpeedProbe() as probe:
        plain = Runner(pinned)
        PASSES[workload](plain, inputs, tables, ctx)
        tracers, runs = [], [plain]
        for _ in range(2):
            tr = Tracer()
            tr.install()
            probe.on_sample = tr.exclude
            try:
                run = Runner(pinned, tracer=tr)
                PASSES[workload](run, inputs, tables, ctx)
            finally:
                probe.on_sample = None
                tr.uninstall()
            tracers.append(tr)
            runs.append(run)

    def nominal(run):
        return sum(probe.own_time(*sp) * probe.factor(*sp) for sp in run.spans)

    return tracers, runs, nominal(runs[1]) - nominal(plain), nominal(plain)


def pin_to_one_cpu():
    """Keep the benchmark and its set-up children on one CPU, so that
    the speed probe samples the core the measured work runs on."""
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


def measure(args) -> dict:
    """One workload run; returns the result object to print."""
    tiny = args.tiny
    indir, setup_times = set_up(
        args.workload, args.seed, tiny, 1 if args.trace else SETUP_REPEATS
    )
    tables = sepdraw.enumeration.default_tables()
    inputs = workloads.load_inputs(args.workload, indir)
    pinned, ctx = load_pinned(args.workload, args.seed, tiny)
    stamp = env_stamp(args)
    run_name = f"{args.workload}-{args.seed}-trace{args.trace}{'-tiny' if tiny else ''}"
    if args.trace:
        tracers, runs, overhead, untraced = traced_phase(
            args.workload, inputs, tables, pinned, ctx
        )
        counts = [tr.counts() for tr in tracers]
        errors = [e for r in runs for e in r.errors]
        if counts[0] != counts[1]:
            diff = sorted(k for k in counts[0] if counts[0][k] != counts[1][k])
            errors.append(f"traced passes disagree on counts: {diff}")
        metrics = tracers[0].metrics(overhead)
        units = per_layer_metric_units()
        OUT.mkdir(exist_ok=True)
        tracers[0].write_spans(OUT / f"spans-{run_name}.jsonl")
        attempted = sum(r.attempted for r in runs)
        failed = sum(r.failed for r in runs)
        for name in UNIT_SAMPLED:
            ratio = metrics[name + ".reconcile_ratio"]
            verdict = (
                "not called" if not metrics[name + ".calls"]
                else "matches" if 0.8 <= ratio <= 1.25
                else "does not match: the unit cost depends on the input"
            )
            print(
                f"# reconcile {name}: calls={metrics[name + '.calls']} "
                f"x median unit {metrics[name + '.unit_median_s'] * 1e6:.2f}us "
                f"vs self {metrics[name + '.self_s']:.4f}s "
                f"(ratio {ratio:.3f}) {verdict}"
            )
        print(f"# tracing overhead {args.workload}: {overhead:.3f}s "
              f"over {untraced:.3f}s untraced, at nominal speed")
        stamp["ops_per_pass"] = runs[0].attempted
    else:
        runs, probe = timed_phase(
            args.workload, inputs, tables, args.seconds, pinned, ctx
        )
        wall = per_op_medians(runs, probe.own_time)
        scaled = per_op_medians(
            runs, lambda t0, t1: probe.own_time(t0, t1) * probe.factor(t0, t1)
        )
        errors = [e for r in runs for e in r.errors]
        attempted = sum(r.attempted for r in runs)
        failed = sum(r.failed for r in runs)
        metrics = end_to_end(scaled, [t * f for t, f in setup_times])
        raw = end_to_end(wall, [t for t, _ in setup_times])
        units = END_TO_END_UNITS
        stamp.update(
            ops=len(wall), passes=len(runs), op_runs=attempted,
            setup_runs=[round(t, 4) for t, _ in setup_times],
            speed_factor=REFERENCE_NOMINAL_S / statistics.median(probe.took),
            raw_wall_metrics=raw,
        )
        for label, vals in (("", metrics), (" raw wall", raw)):
            print(
                f"# {args.workload}{label}: "
                + " ".join(f"{k}={v:.4f}" for k, v in vals.items())
                + f" fail_ratio={failed / attempted:.4f} samples={len(wall)}"
            )
    print("# env " + json.dumps(stamp, sort_keys=True))
    for e in errors[:20]:
        print(f"# error: {e}", file=sys.stderr)
    result = {
        "correct": failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{run_name}.json").write_text(
        json.dumps(dict(result, env=stamp, errors=errors), indent=1)
    )
    return result


def pin(args):
    """Record the per-op digests of the default seed (full sizes)."""
    seed = DEFAULT_SEED
    indir, _ = set_up(args.workload, seed, False, 1)
    tables = sepdraw.enumeration.default_tables()
    inputs = workloads.load_inputs(args.workload, indir)

    rec = Runner()
    PASSES[args.workload](rec, inputs, tables, {})
    if rec.failed or rec.errors:
        raise SystemExit(f"not pinning a failing pass: {rec.errors[:3]}")
    data = {"seed": seed, "digests": rec.digests}
    if args.workload == "ground-truth":
        # the first op is the enumeration; the answers per orbit are
        # taken on the unrelabeled representatives
        reps = sepdraw.enumeration.enumerate_good_drawings(inputs["n"])
        data["enumeration_digest"] = rec.digests[0]
        data["orbit_answers"] = [
            [S.is_separable(tables, r.rs).separable, R.is_g_convex(tables, r.rs)]
            for r in reps
        ]
    PINNED.mkdir(exist_ok=True)
    (PINNED / f"{args.workload}.json").write_text(json.dumps(data, indent=0) + "\n")
    print(f"pinned {len(rec.digests)} ops of {args.workload}")


def selfcheck() -> int:
    """Every workload at tiny sizes, timed and traced, in a few seconds."""
    ok = True
    for w in WORKLOADS:
        for trace in (0, 1):
            args = argparse.Namespace(
                workload=w, seed=DEFAULT_SEED, seconds=0,
                trace=trace, tiny=True,
            )
            res = measure(args)
            ok = ok and res["correct"] and res["attempted"] > 0
            if trace and w == "complete":
                m = res["metrics"]
                ok = ok and m["rotation.k4_index.calls"]["value"] == 0
                ok = ok and m["rotation.k5_index.calls"]["value"] == 0
    print("selfcheck ok" if ok else "selfcheck FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="The sepdraw benchmark.")
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="tiny input sizes")
    ap.add_argument("--selfcheck", action="store_true")
    ap.add_argument("--pin", action="store_true")
    ap.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if Path(sepdraw.__file__).resolve().parent != SRC / "sepdraw":
        print(f"error: sepdraw imported from {sepdraw.__file__}", file=sys.stderr)
        return 2
    if args.setup_only:
        # inherits the parent's CPU pinning; reports its speed samples
        with SpeedProbe() as probe:
            sepdraw.enumeration.default_tables()
            workloads.build_inputs(
                args.workload, args.seed, args.tiny, Path(args.setup_only)
            )
        print(json.dumps(probe.took))
        return 0
    pin_to_one_cpu()
    if args.selfcheck:
        return selfcheck()
    if args.workload is None:
        ap.error("--workload is required")
    if args.pin:
        pin(args)
        return 0
    result = measure(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
