"""Shared plumbing for the example protocol runners.

A Recorder sits between a process and its Tracer and applies the
configured recording level, so one implementation can emit anything
from full traces down to event names only:

  vea   variable updates + event names + event arguments
  v     variable updates only
  vpea  variable updates everywhere, events/args only at the
        privileged process (the coordinator)
  ea    event names + arguments, no variable updates
  e     event names only
"""

from __future__ import annotations

import dataclasses
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from ..machine import Spec
from ..tracer import InMemoryClock, Tracer
from ..traces import Trace, merge, read_trace_file, write_trace_file
from .sim import SimNetwork, SimScheduler

RECORD_LEVELS = ("vea", "v", "vpea", "ea", "e")


def check_timing(name: str, bounds: tuple[float, float]) -> None:
    """Refuse a delay or work range with a NaN, infinite or negative end
    (a range with two infinite ends draws NaN).  Configs check this
    before a run opens any trace file."""
    if not all(0 <= x < math.inf for x in bounds):
        raise ValueError(f"{name} must be finite and not negative, "
                         f"got {bounds}")


class Recorder:
    def __init__(self, tracer: Tracer, level: str, privileged: bool = False):
        if level not in RECORD_LEVELS:
            raise ValueError(f"record level must be one of {RECORD_LEVELS}, "
                             f"got {level!r}")
        self.tracer = tracer
        self.records_vars = level in ("vea", "v", "vpea")
        self.records_events = level in ("vea", "ea", "e") \
            or (level == "vpea" and privileged)
        self.records_args = self.records_events and level != "e"

    def notify(self, variable: str, op: str, path=(), args=()) -> None:
        if self.records_vars:
            self.tracer.notify_change(variable, op, path=path, args=args)

    def log(self, event: str | None = None, event_args=None) -> int:
        ev = event if self.records_events else None
        args = event_args if (ev is not None and self.records_args) else None
        return self.tracer.log(event=ev, event_args=args)


@dataclass
class RunResult:
    """Everything a run leaves behind, parsed and on disk."""

    protocol: str
    out_dir: Path
    trace_files: list[Path]
    merged_file: Path
    manifest_file: Path
    trace: Trace
    spec: Spec
    composition: dict[str, tuple[str, ...]]


class SimRun:
    """One simulated run: its output directory, scheduler, seeded RNG
    and network, and one Tracer per process on a shared clock.

    ``cfg`` needs ``seed``, ``record``, ``delay`` and ``time_limit``.
    """

    def __init__(self, cfg, out_dir, loss: float = 0.0):
        self.cfg = cfg
        self.sched = SimScheduler()
        self.rng = random.Random(cfg.seed)
        # The network checks the delay order and the loss, so a refused
        # run leaves no output directory behind.
        self.net = SimNetwork(self.sched, self.rng, cfg.delay, loss)
        self.out = Path(out_dir)
        self.out.mkdir(parents=True, exist_ok=True)
        self.clock = InMemoryClock()
        self.files: list[Path] = []
        self.tracers: list[Tracer] = []

    def recorder(self, name: str, privileged: bool = False) -> Recorder:
        """A Recorder writing ``<name>.ndjson`` in the output directory."""
        path = self.out / f"{name}.ndjson"
        self.files.append(path)
        self.tracers.append(Tracer(str(path), clock=self.clock))
        return Recorder(self.tracers[-1], self.cfg.record, privileged)

    def finish(self, done: Callable[[], bool], protocol: str, spec: Spec,
               composition: dict[str, tuple[str, ...]]) -> RunResult:
        """Run until ``done()``, then merge and write the manifest."""
        try:
            self.sched.run(self.cfg.time_limit, done)
        finally:
            for t in self.tracers:
                t.close()
            # Queued callbacks and handlers point back at the processes,
            # which point at this run: drop them so nothing is cyclic.
            self.sched.clear()
            self.net.clear()
        merged = merge([read_trace_file(p) for p in self.files])
        merged_file = self.out / "merged.ndjson"
        write_trace_file(merged_file, merged)

        manifest = {
            "protocol": protocol,
            "seed": self.cfg.seed,
            "config": dataclasses.asdict(self.cfg),
            "files": [p.name for p in self.files],
            "merged": merged_file.name,
            "entries": len(merged),
            "composition": {k: list(v) for k, v in composition.items()},
        }
        manifest_file = self.out / "manifest.json"
        # No indent: the stdlib encodes that in pure Python, whose nested
        # closures would leave reference cycles behind every run.
        manifest_file.write_text(json.dumps(manifest, sort_keys=True) + "\n",
                                 encoding="utf-8")

        return RunResult(
            protocol=protocol, out_dir=self.out, trace_files=list(self.files),
            merged_file=merged_file, manifest_file=manifest_file,
            trace=merged, spec=spec, composition=dict(composition))
