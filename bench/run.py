"""tracecheck benchmark: one closed-loop client driving the public CLI.

    python3 bench/run.py --workload {pipeline,coarse,eventless} \
        --seed N --seconds S --trace {0,1}

Run from the repository root.  The harness imports tracecheck from
``src/`` of the same checkout, builds the workload's corpus from the
seeded simulators, and then calls ``tracecheck.cli.main(argv)`` in
process, one operation at a time: each operation starts only when the
previous one has returned.  Every exit code is checked against the
answer its simulator configuration implies.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports
the per-layer metrics of a traced run.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
import traceback
from contextlib import redirect_stderr, redirect_stdout, suppress
from dataclasses import dataclass, field
from pathlib import Path

import corpus
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"

# Fresh set-up processes timed per run, setup_s being their median: at
# least SETUP_MIN_RUNS, and more while they have taken under
# SETUP_SECONDS, up to SETUP_MAX_RUNS.  A cheap set-up is noisy, so it
# gets more runs.
SETUP_MIN_RUNS = 3
SETUP_MAX_RUNS = 9
SETUP_SECONDS = 3.0
TAIL_BEYOND = 10      # ops that must lie beyond the tail percentile
CHILD_TIMEOUT_S = 170

# Host speed.  On a shared host the CPU speed drifts by up to 2x over
# tens of seconds, and the drift moves every time alike.  So the harness
# times a fixed probe kernel (stdlib only, no tracecheck code) before
# every operation and after the last, and reports each time scaled to a
# reference speed: time * REFERENCE_PROBE_S / local probe time, where the
# local probe time is the median of the PROBE_WINDOW probes nearest the
# operation.  Set-up times are scaled by the median of every probe of
# the timed passes that follow: a set-up process is a separate process,
# and probes in the parent around it tracked its speed poorly.  The raw
# times are in the detail line.
PROBE_ROUNDS = 4
REFERENCE_PROBE_S = 0.001   # probe time at the reference speed
PROBE_WINDOW = 10

END_TO_END = {
    "wall_s": "s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "peak_heap_mib": "MiB",
    "setup_s": "s",
}
PER_LAYER = {
    "protocols.runs": "count",
    "protocols.self_s": "s",
    "tracer.log_calls": "count",
    "tracer.notify_calls": "count",
    "tracer.log_self_s": "s",
    "tracer.log_per_s": "1/s",
    "traces.parse_entries": "count",
    "traces.parse_self_s": "s",
    "traces.parse_entries_per_s": "1/s",
    "traces.merge_entries": "count",
    "traces.merge_self_s": "s",
    "traces.write_self_s": "s",
    "values.apply_entry_updates_calls": "count",
    "values.apply_entry_updates_self_s": "s",
    "values.value_to_json_calls": "count",
    "values.value_to_json_self_s": "s",
    "values.canonical_calls": "count",
    "machine.step_calls": "count",
    "machine.step_self_s": "s",
    "machine.steps_per_s": "1/s",
    "machine.guard_fail_ratio": "ratio",
    "machine.fingerprint_calls": "count",
    "machine.fingerprint_self_s": "s",
    "explorer.nodes": "count",
    "explorer.edges": "count",
    "explorer.match_entry_calls": "count",
    "explorer.match_entry_self_us": "us",
    "explorer.nodes_per_s": "1/s",
    "explorer.match_yield": "ratio",
    "explorer.attempts": "count",
    "explorer.validate_self_s": "s",
    "explorer.report_self_s": "s",
    "cli.self_s": "s",
    "trace.overhead": "ratio",
    "src.lines": "count",
}


def import_tracecheck():
    """Import tracecheck from this checkout's src/, never from elsewhere."""
    if not (SRC / "tracecheck" / "__init__.py").is_file():
        raise SystemExit(f"bench: no tracecheck sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import tracecheck.cli
    if Path(tracecheck.cli.__file__).resolve().parent.parent != SRC:
        raise SystemExit("bench: tracecheck was imported from "
                         f"{tracecheck.cli.__file__}, not {SRC}")
    return tracecheck.cli


def cli_caller(cli):
    """Call cli.main through the module, so a traced run sees its wrapper."""
    return lambda argv: cli.main(argv)


def run_op(cli, argv: list[str]) -> int | None:
    """One CLI invocation; its exit code, or None if it raised."""
    sink = io.StringIO()
    with redirect_stdout(sink), redirect_stderr(sink):
        try:
            return cli.main(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else None
        except Exception:
            crash = traceback.format_exc()
    print(f"bench: {' '.join(argv)} raised:\n{crash}", file=sys.stderr)
    return None


def probe() -> float:
    """Seconds for a fixed pure-Python kernel: dicts, tuples, json,
    sorting and string joins, the mix tracecheck's hot paths use."""
    t0 = time.perf_counter()
    for r in range(PROBE_ROUNDS):
        table = {}
        for i in range(300):
            key = ("k", i % 37, r)
            table[key] = table.get(key, 0) + i
        json.loads(json.dumps({str(k): v for k, v in table.items()},
                              sort_keys=True))
        hash(frozenset(table.items()))
        "".join(f"{k}:{v}" for k, v in sorted(table.items()))
    return time.perf_counter() - t0


def scale_to_reference(times: list[float], probes: list[float]) -> list[float]:
    """Scale times[i], taken between probes[i] and probes[i + 1], to the
    reference speed, using the median of the nearest PROBE_WINDOW probes."""
    assert len(probes) == len(times) + 1
    half = PROBE_WINDOW // 2
    return [t * REFERENCE_PROBE_S
            / statistics.median(probes[max(0, i + 1 - half): i + 1 + half])
            for i, t in enumerate(times)]


def warm(cli, work: Path, seed: int) -> None:
    """One small faithful run-and-validate: touches every layer once."""
    argv = ["run", "twophase", "--rms", "3", "--seed", str(seed),
            "--out", str(work / "warm"), "--and-validate"]
    code = run_op(cli, argv)
    if code != corpus.known_answer(None):
        raise RuntimeError(f"warm-up op exited {code}")


def setup(cli, workload: str, seed: int, work: Path) -> Path:
    """Build and warm the workload's corpus; return the corpus dir."""
    corpus_dir = work / "corpus"
    corpus.build(workload, seed, corpus_dir, cli_caller(cli))
    warm(cli, work, seed)
    return corpus_dir


@dataclass
class Tally:
    """Exit codes of every pass, checked against the known answers."""

    ops: list
    first: list | None = None
    attempted: int = 0
    failed: int = 0
    crashed: int = 0
    unstable: int = 0
    wrong: set = field(default_factory=set)
    corpus_identical: bool = True     # every timed set-up built the same

    def check(self, codes: list) -> None:
        for op, code in zip(self.ops, codes):
            self.attempted += 1
            if code not in (0, 1, 2, 3):
                self.crashed += 1
            if code != op.expected:
                self.failed += 1
                self.wrong.add(op.name)
        if self.first is None:
            self.first = list(codes)
        elif codes != self.first:
            self.unstable += 1

    @property
    def correct(self) -> bool:
        return (self.crashed == 0 and self.unstable == 0
                and self.corpus_identical)


@dataclass
class Pass:
    """One pass's op latencies, raw and scaled to the reference speed,
    and its probe times."""

    raw: list
    scaled: list
    probes: list

    @property
    def wall(self) -> float:
        """Scaled time to all verdicts: the sum of the op latencies."""
        return sum(self.scaled)

    @property
    def raw_wall(self) -> float:
        return sum(self.raw)


def run_pass(cli, ops, corpus_dir: Path, out_root: Path, tally: Tally,
             after_op=None) -> Pass:
    """Every op once, in order, with a speed probe before each op and
    after the last."""
    out_root.mkdir(parents=True)
    latencies, codes, probes = [], [], []
    clock = time.perf_counter
    for i, op in enumerate(ops):
        argv = op.resolve(corpus_dir, out_root / f"op-{i}")
        probes.append(probe())
        t0 = clock()
        codes.append(run_op(cli, argv))
        latencies.append(clock() - t0)
        if after_op is not None:
            after_op()
    probes.append(probe())
    shutil.rmtree(out_root)
    tally.check(codes)
    return Pass(latencies, scale_to_reference(latencies, probes), probes)


def timed_passes(cli, ops, corpus_dir, work, tally, seconds):
    """Passes until ``seconds`` have elapsed (at least one)."""
    passes, per_op = [], [[] for _ in ops]
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        p = run_pass(cli, ops, corpus_dir, work / f"pass-{len(passes)}",
                     tally)
        passes.append(p)
        for samples, x in zip(per_op, p.scaled):
            samples.append(x)
    return passes, [statistics.median(s) for s in per_op]


def latency_summary(op_medians: list[float]) -> dict:
    """Median op latency and the highest percentile that still has
    TAIL_BEYOND ops beyond it (left out when there are too few ops)."""
    ordered = sorted(op_medians)
    n = len(ordered)
    out = {"op_count": n, "op_ms_p50": statistics.median(ordered) * 1e3}
    if n > TAIL_BEYOND:
        out["op_ms_tail"] = ordered[n - TAIL_BEYOND - 1] * 1e3
        out["tail_percentile"] = 100.0 * (n - TAIL_BEYOND) / n
    return out


def timed_setups(workload: str, seed: int, work: Path):
    """Time fresh processes from start to a warm corpus."""
    times, digests = [], set()
    while len(times) < SETUP_MIN_RUNS or (
            len(times) < SETUP_MAX_RUNS and sum(times) < SETUP_SECONDS):
        if times:
            shutil.rmtree(child_work)
        child_work = work / f"setup-{len(times)}"
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--setup-child", str(child_work), "--workload", workload,
               "--seed", str(seed)]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"setup process failed:\n{proc.stderr}")
        digests.add(proc.stdout.strip().splitlines()[-1])
    return times, digests, child_work / "corpus"


def count_src_lines() -> int:
    return sum(len(p.read_text("utf-8").splitlines())
               for p in sorted((SRC / "tracecheck").rglob("*.py")))


def end_to_end_run(cli, args, work: Path):
    setup_times, digests, corpus_dir = timed_setups(
        args.workload, args.seed, work)
    ops = corpus.load_ops(corpus_dir)
    tally = Tally(ops, corpus_identical=len(digests) == 1)

    # Heap pass: first, untimed, and also the parent's warm-up.
    tracemalloc.start()
    run_pass(cli, ops, corpus_dir, work / "heap", tally)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()

    passes, op_medians = timed_passes(cli, ops, corpus_dir, work, tally,
                                      args.seconds)
    lat = latency_summary(op_medians)
    speed = statistics.median(x for p in passes for x in p.probes)
    setup_scaled = [t * REFERENCE_PROBE_S / speed for t in setup_times]
    metrics = {
        "wall_s": statistics.median(p.wall for p in passes),
        "op_ms_p50": lat["op_ms_p50"],
        "op_ms_tail": lat.get("op_ms_tail"),
        "peak_heap_mib": peak / 2**20,
        "setup_s": statistics.median(setup_scaled),
    }
    detail = {
        "passes": len(passes),
        "pass_walls_s": [p.wall for p in passes],
        "raw_pass_walls_s": [p.raw_wall for p in passes],
        "setup_runs_s": setup_scaled,
        "raw_setup_runs_s": setup_times,
        **{k: lat[k] for k in ("op_count", "tail_percentile") if k in lat},
    }
    return tally, metrics, END_TO_END, detail


def search_order_rows(ops, nodes: list[int], op_medians: list[float]):
    """Coarse cases: nodes and seconds under each search order."""
    rows: dict[str, dict] = {}
    for op, n, secs in zip(ops, nodes, op_medians):
        if op.case:
            rows.setdefault(op.case, {})[op.search] = {
                "nodes": n, "seconds": secs}
    return rows


def traced_run(cli, args, work: Path):
    rec = spans.SpanRecorder()
    marks = [0]                     # explorer.nodes after each op
    with spans.traced(rec):
        corpus_dir = setup(cli, args.workload, args.seed, work)
        ops = corpus.load_ops(corpus_dir)
        tally = Tally(ops)
        marks[0] = rec.counts["explorer.nodes"]
        traced = run_pass(
            cli, ops, corpus_dir, work / "traced", tally,
            after_op=lambda: marks.append(rec.counts["explorer.nodes"]))

    passes, op_medians = timed_passes(cli, ops, corpus_dir, work, tally,
                                      args.seconds)
    walls = [p.wall for p in passes]
    metrics = spans.layer_metrics(rec)
    metrics["trace.overhead"] = traced.wall / statistics.median(walls)
    metrics["src.lines"] = count_src_lines()
    detail = {"passes": len(walls), "traced_wall_s": traced.wall,
              "untraced_walls_s": walls}
    nodes = [b - a for a, b in zip(marks, marks[1:])]
    rows = search_order_rows(ops, nodes, op_medians)
    if rows:
        detail["search_orders"] = rows
    return tally, metrics, PER_LAYER, detail


def setup_child(args) -> int:
    """Entry point of a timed set-up process: import, build, warm."""
    cli = import_tracecheck()
    work = Path(args.setup_child)
    corpus_dir = setup(cli, args.workload, args.seed, work)
    print(corpus.digest(corpus_dir))
    return 0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-child", metavar="DIR", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_child:
        return setup_child(args)
    cli = import_tracecheck()
    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        run = traced_run if args.trace else end_to_end_run
        tally, values, units, detail = run(cli, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with suppress(OSError):         # other runs may still use it
            WORK_ROOT.rmdir()
    detail.update(workload=args.workload, seed=args.seed,
                  wrong_verdicts=len(tally.wrong),
                  wrong_ops=sorted(tally.wrong), crashed=tally.crashed,
                  unstable_passes=tally.unstable)
    print(json.dumps({"detail": detail}, sort_keys=True))
    missing = [k for k in units if values.get(k) is None]
    if missing:
        print(f"bench: no value for {missing}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": values[k], "unit": u}
                    for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
