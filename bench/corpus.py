"""Seeded corpus and known-answer table for each benchmark workload.

Every trace in a corpus comes from the bundled simulators, driven
through the public CLI (``tracecheck run``).  Each operation carries the
exit code its simulator configuration implies: 0 for a faithful run,
1 for a run with an injected bug.  Nothing in that answer comes from
tracecheck's own output.

A corpus directory holds the recorded runs plus ``ops.json``, the
operation table with its known answers, so a process that did not
build the corpus can run it.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import shutil
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable

WORKLOADS = ("pipeline", "coarse", "eventless")

# Placeholders in an op's argv, filled in when the op runs.
CORPUS = "{corpus}"
OUT = "{out}"

# `run twophase --bug counter` only deviates when a Prepared message is
# resent before the decision and the resend is not logged.
COUNTER_FLAGS = ("--bug", "counter", "--force-resend",
                 "--resend-logging", "silent")
TOKENRING_BUGS = ("self-message", "eternal-token")

# Coarse faithful runs give every process the same work time, so the
# search size at levels e and ea is fixed by the process count and
# does not swing with the seed (with the default work range, the 8-RM
# twophase trace at level e takes 5 200 to 7 600 bfs nodes).
COARSE_WORK = ("--work", "1,1")

# Long stutter-heavy traces: a short resend period against a wide work
# range.  Their length swings with the seed (about 500 to 4 200
# entries), so LONG_PROBES seeds are probed and the LONG_COUNT runs
# closest to LONG_TARGET entries are kept; each pass then does a similar
# amount of work whatever the benchmark seed.  The longest kept run sets
# eventless's peak heap, and with 20 probes its length still ranged
# from 2 825 to 3 057 entries between seeds, so 40 are probed.  A run's
# length does not depend on the recording level, so the probes run at
# the cheaper level e (about 60 ms each) and only the kept runs are
# recorded at vea.
LONG_FLAGS = ("--rms", "4", "--timeout", "0.5", "--work", "1,500")
LONG_TARGET = 2800
LONG_PROBES = 40
LONG_COUNT = 2

PIPELINE_SIZES = range(3, 9)
PIPELINE_SEEDS = 4

# Eventless tokenring runs per configuration.  The median eventless op
# is a tokenring validation, and its latency depends on the simulator
# seed (up to 1.6x between seeds for one configuration), so several
# seeded runs of each configuration keep op_ms_p50 steady across
# benchmark seeds.
EVENTLESS_TOKENRING_SEEDS = 3


def known_answer(bug: str | None) -> int:
    """Expected exit code: a faithful run is accepted, a bug rejected."""
    return 0 if bug is None else 1


@dataclass(frozen=True)
class Op:
    """One CLI invocation and the exit code it must return."""

    name: str
    argv: tuple[str, ...]
    bug: str | None
    expected: int
    case: str = ""          # coarse: the trace, shared by bfs and dfs
    search: str = ""

    def resolve(self, corpus_dir: Path, out_dir: Path) -> list[str]:
        return [a.replace(CORPUS, str(corpus_dir)).replace(OUT, str(out_dir))
                for a in self.argv]


def _op(name, argv, bug, case="", search="") -> Op:
    return Op(name, tuple(argv), bug, known_answer(bug), case, search)


CliMain = Callable[[list[str]], int]


def _record(cli_main: CliMain, corpus_dir: Path, key: str,
            argv: list[str]) -> int:
    """Record one simulator run into corpus_dir/key; return its length."""
    out = corpus_dir / key
    sink = io.StringIO()
    with redirect_stdout(sink), redirect_stderr(sink):
        code = cli_main(["run", *argv, "--out", str(out)])
    if code != 0:
        raise RuntimeError(f"corpus run {key} exited {code}: "
                           f"{sink.getvalue()[-500:]}")
    manifest = json.loads((out / "manifest.json").read_text("utf-8"))
    return manifest["entries"]


def _record_case(cli_main: CliMain, corpus_dir: Path, rng: random.Random,
                 proto: str, size: int, level: str, bug: str | None,
                 flags, copy: int = 0) -> str:
    """Record one protocol run for a validate op; return its key.
    ``copy`` tells apart several runs of one configuration."""
    key = f"{proto}-{size}-{level}-{bug or 'faithful'}"
    if copy:
        key += f"-{copy}"
    size_flag = "--rms" if proto == "twophase" else "--n"
    _record(cli_main, corpus_dir, key,
            [proto, size_flag, str(size), "--seed", str(rng.randrange(2**31)),
             "--record", level, *flags])
    return key


def _validate_argv(key: str, spec: str, compose: bool, stutter: bool,
                   search: str = "bfs") -> list[str]:
    argv = ["validate", "--spec", spec,
            "--trace", f"{CORPUS}/{key}/merged.ndjson", "--search", search]
    if compose:
        argv += ["--compose", f"{CORPUS}/{key}/manifest.json"]
    if stutter:
        argv.append("--allow-stutter")
    return argv


def _pipeline_ops(seed: int) -> list[Op]:
    rng = random.Random(f"pipeline-{seed}")
    ops = []
    for size in PIPELINE_SIZES:
        cells = [("twophase", ["--rms", str(size)], None),
                 ("twophase", ["--rms", str(size), *COUNTER_FLAGS],
                  "counter"),
                 ("tokenring", ["--n", str(size)], None)]
        cells += [("tokenring", ["--n", str(size), "--bug", b], b)
                  for b in TOKENRING_BUGS]
        for proto, flags, bug in cells:
            for _ in range(PIPELINE_SEEDS):
                sim_seed = rng.randrange(2**31)
                name = (f"run {proto} {size} {bug or 'faithful'} "
                        f"seed={sim_seed}")
                ops.append(_op(name, ["run", proto, *flags, "--seed",
                                      str(sim_seed), "--record", "vea",
                                      "--out", OUT, "--and-validate"], bug))
    return ops


def _coarse_ops(seed: int, cli_main: CliMain, corpus_dir: Path) -> list[Op]:
    rng = random.Random(f"coarse-{seed}")
    cases = []
    for level in ("e", "ea"):
        for rms in range(5, 9):
            cases.append(("twophase", rms, level, None, COARSE_WORK))
        # The 8-RM counter trace at level e explores 5 815 nodes under
        # either order (about 1.5 s each); it is left out to keep a
        # pass near 3 s.
        for rms in range(5, 8 if level == "e" else 9):
            cases.append(("twophase", rms, level, "counter", COUNTER_FLAGS))
        for n in range(4, 9):
            for bug in (None, *TOKENRING_BUGS):
                cases.append(("tokenring", n, level, bug,
                              COARSE_WORK + (("--bug", bug) if bug else ())))
    ops = []
    for proto, size, level, bug, flags in cases:
        key = _record_case(cli_main, corpus_dir, rng, proto, size, level, bug,
                           flags)
        for search in ("bfs", "dfs"):
            argv = _validate_argv(key, f"{proto}:{size}",
                                  compose=proto == "tokenring",
                                  stutter=False, search=search)
            ops.append(_op(f"validate {key} {search}", argv, bug,
                           case=key, search=search))
    return ops


def _eventless_ops(seed: int, cli_main: CliMain,
                   corpus_dir: Path) -> list[Op]:
    rng = random.Random(f"eventless-{seed}")
    ops = []

    def add(proto, size, level, bug, flags, copy=0):
        key = _record_case(cli_main, corpus_dir, rng, proto, size, level, bug,
                           flags, copy)
        ops.append(_op(f"validate {key}",
                       _validate_argv(key, f"{proto}:{size}",
                                      compose=proto == "tokenring",
                                      stutter=True), bug))

    for level in ("v", "vpea"):
        for rms in (8, 12, 16):
            add("twophase", rms, level, None, ())
            add("twophase", rms, level, "counter", COUNTER_FLAGS)
        for n in range(4, 9):
            for bug in (None, *TOKENRING_BUGS):
                for copy in range(EVENTLESS_TOKENRING_SEEDS):
                    add("tokenring", n, level, bug,
                        ("--bug", bug) if bug else (), copy)

    probes = []
    for _ in range(LONG_PROBES):
        argv = ["twophase", *LONG_FLAGS, "--seed", str(rng.randrange(2**31))]
        entries = _record(cli_main, corpus_dir, "probe",
                          [*argv, "--record", "e"])
        shutil.rmtree(corpus_dir / "probe")
        probes.append((abs(entries - LONG_TARGET), entries, argv))
    for _, entries, argv in sorted(probes, key=lambda p: p[0])[:LONG_COUNT]:
        key = f"long-{argv[-1]}"
        if _record(cli_main, corpus_dir, key,
                   [*argv, "--record", "vea"]) != entries:
            raise RuntimeError(f"{key}: length differs between levels")
        ops.append(_op(f"validate {key} ({entries} entries)",
                       _validate_argv(key, "twophase:4", compose=False,
                                      stutter=True), None))
    return ops


def build(workload: str, seed: int, corpus_dir: Path,
          cli_main: CliMain) -> list[Op]:
    """Record the workload's corpus into corpus_dir and write ops.json.

    The same (workload, seed) gives byte-identical files.
    """
    corpus_dir.mkdir(parents=True, exist_ok=False)
    if workload == "pipeline":
        ops = _pipeline_ops(seed)
    elif workload == "coarse":
        ops = _coarse_ops(seed, cli_main, corpus_dir)
    elif workload == "eventless":
        ops = _eventless_ops(seed, cli_main, corpus_dir)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    (corpus_dir / "ops.json").write_text(
        json.dumps([asdict(op) for op in ops], indent=1) + "\n", "utf-8")
    return ops


def load_ops(corpus_dir: Path) -> list[Op]:
    rows = json.loads((corpus_dir / "ops.json").read_text("utf-8"))
    return [Op(**{**row, "argv": tuple(row["argv"])}) for row in rows]


def digest(corpus_dir: Path) -> str:
    """SHA-256 over every file's relative path and bytes."""
    h = hashlib.sha256()
    for p in sorted(corpus_dir.rglob("*")):
        if p.is_file():
            h.update(p.relative_to(corpus_dir).as_posix().encode() + b"\0")
            h.update(p.read_bytes() + b"\0")
    return h.hexdigest()
