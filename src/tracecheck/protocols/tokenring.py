"""Token-ring termination detection: reference state machine and a
simulated, instrumented implementation.

n nodes sit on a ring; node 0 initiates.  Nodes do some work and go
inactive for good.  Once inactive, node 0 launches a probe by handing
the token to node n-1; an inactive node passes the token down; when it
returns to node 0, every node must have gone quiet, so termination is
detected and a victory token makes one last lap.

The detector's trace-level event DetectAndInit covers two spec steps
at once (flag the detection, then relaunch the token), so validation
needs a composition mapping for it; ``run_tokenring`` advertises one
in its result.

Known deviations to inject:

  bug="self-message"   node 1 wakes itself up after going inactive,
                       violating the no-reactivation assumption.
  bug="eternal-token"  nodes keep forwarding the victory token as if
                       the probe were still live, logging token passes
                       after detection.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..machine import ActionSchema, GuardClause, Spec, SpecState
from ..values import VBool, VInt, VRec
from .common import RECORD_LEVELS, Recorder, RunResult, SimRun, check_timing

COMPOSITION = {"DetectAndInit": ("DetectTermination", "InitiateProbe")}

_TRUE = VBool(True)
_FALSE = VBool(False)


def build_tokenring_spec(n: int) -> Spec:
    """The ring state machine for n >= 2 nodes."""
    if n < 2:
        raise ValueError("the ring needs at least 2 nodes")
    ids = tuple(VInt(i) for i in range(n))
    keys = tuple(str(i) for i in range(n))

    init = SpecState({
        "token": VInt(0),
        "active": VRec([(k, _TRUE) for k in keys]),
        "detected": _FALSE,
    })

    def is_active(s: SpecState, i: int) -> bool:
        return s["active"][keys[i]] == _TRUE

    def deactivate(s, p):
        return [{"active": s["active"].replaced(keys[p["i"].n], _FALSE)}]

    actions = [
        ActionSchema(
            "Deactivate", (("i", ids),),
            (GuardClause("node i is active",
                         lambda s, p: is_active(s, p["i"].n)),),
            deactivate,
            writes=frozenset({"active"}), keys={"active": "i"}),
        ActionSchema(
            "PassToken", (("i", ids),),
            (GuardClause("node i holds the token",
                         lambda s, p: s["token"] == p["i"]),
             GuardClause("i is not the initiator",
                         lambda s, p: p["i"].n != 0),
             GuardClause("node i is inactive",
                         lambda s, p: not is_active(s, p["i"].n)),
             GuardClause("termination not yet detected",
                         lambda s, p: s["detected"] == _FALSE)),
            lambda s, p: [{"token": ids[p["i"].n - 1]}],
            writes=frozenset({"token"})),
        ActionSchema(
            # No detected-clause here: the probe may be relaunched right
            # after detection, which is what DetectAndInit composes.
            "InitiateProbe", (),
            (GuardClause("the initiator holds the token",
                         lambda s, p: s["token"] == ids[0]),
             GuardClause("the initiator is inactive",
                         lambda s, p: not is_active(s, 0))),
            lambda s, p: [{"token": ids[n - 1]}],
            writes=frozenset({"token"})),
        ActionSchema(
            "DetectTermination", (),
            (GuardClause("the initiator holds the token",
                         lambda s, p: s["token"] == ids[0]),
             GuardClause("every node is inactive",
                         lambda s, p: all(not is_active(s, i)
                                          for i in range(n))),
             GuardClause("termination not yet detected",
                         lambda s, p: s["detected"] == _FALSE)),
            lambda s, p: [{"detected": _TRUE}],
            writes=frozenset({"detected"})),
    ]

    def quiet_when_detected(s: SpecState) -> bool:
        if s["detected"] == _FALSE:
            return True
        return all(v == _FALSE for _, v in s["active"].fields)

    return Spec(
        variables=("token", "active", "detected"),
        init=[init],
        actions=actions,
        invariants={"QuietWhenDetected": quiet_when_detected},
    )


# --- simulator --------------------------------------------------------

@dataclass
class TokenRingConfig:
    n: int = 3
    seed: int = 0
    record: str = "vea"
    bug: str | None = None     # None | "self-message" | "eternal-token"
    delay: tuple[float, float] = (1.0, 2.0)
    work: tuple[float, float] = (1.0, 5.0)
    time_limit: float = 100_000.0

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("the ring needs at least 2 nodes")
        if self.record not in RECORD_LEVELS:
            raise ValueError(f"record must be one of {RECORD_LEVELS}")
        if self.bug not in (None, "self-message", "eternal-token"):
            raise ValueError(f"unknown bug {self.bug!r}")
        check_timing("delay", self.delay)
        check_timing("work", self.work)


class _Node:
    def __init__(self, i: int, run: SimRun, rec: Recorder):
        self.i = i
        self.run = run
        self.rec = rec
        self.active = True
        self.has_token = i == 0
        self.probing = False       # initiator: probe already launched
        self.detected = False      # initiator: termination detected
        self.victory_done = False  # the victory lap ended here
        self.woke_once = False     # self-message bug: woke itself up

    @property
    def name(self) -> str:
        return f"node-{self.i}"

    def deactivate(self) -> None:
        if not self.active:
            return
        self.active = False
        self.rec.notify("active", "Update", path=(str(self.i),),
                        args=(False,))
        self.rec.log("Deactivate", [self.i])
        if self.run.cfg.bug == "self-message" and self.i == 1 \
                and not self.woke_once:
            # Deviation: schedules a message to itself that will wake
            # it back up, breaking "inactive for good".
            self.woke_once = True
            self.run.net.send(self.name, self.name, ("wake",))
        self.maybe_move_token()

    def maybe_move_token(self) -> None:
        if self.active or not self.has_token:
            return
        run = self.run
        n = run.cfg.n
        if self.i == 0:
            self.has_token = False
            if not self.probing:
                self.probing = True
                self.rec.notify("token", "Update", args=(n - 1,))
                self.rec.log("InitiateProbe")
                run.net.send(self.name, f"node-{n - 1}", ("token",))
            else:
                # The probe came home: all nodes went quiet.  Flag it
                # and send the token on a victory lap.  One handler
                # activation, one trace entry, two spec steps.
                self.rec.notify("detected", "Update", args=(True,))
                self.rec.notify("token", "Update", args=(n - 1,))
                self.rec.log("DetectAndInit")
                self.detected = True
                run.net.send(self.name, f"node-{n - 1}", ("victory",))
        else:
            self.has_token = False
            self._pass_on("token")

    def _pass_on(self, kind: str) -> None:
        """Record PassToken and send ``kind`` ("token" or "victory") to
        the next node down the ring."""
        self.rec.notify("token", "Update", args=(self.i - 1,))
        self.rec.log("PassToken", [self.i])
        self.run.net.send(self.name, f"node-{self.i - 1}", (kind,))

    def on_message(self, src: str, payload: tuple) -> None:
        kind = payload[0]
        if kind == "token":
            self.has_token = True
            self.maybe_move_token()
        elif kind == "victory":
            if self.run.cfg.bug == "eternal-token" and self.i != 0:
                # Deviation: treats the victory lap like a live probe
                # and logs a real token pass after detection.
                self._pass_on("victory")
            else:
                self.victory_done = True
        elif kind == "wake":
            if not self.active:
                self.active = True
                self.rec.notify("active", "Update", path=(str(self.i),),
                                args=(True,))
                self.rec.log()
                self.run.sched.at(1.0, self.deactivate)


def run_tokenring(cfg: TokenRingConfig, out_dir) -> RunResult:
    """Simulate a run and leave its traces in ``out_dir``."""
    run = SimRun(cfg, out_dir)
    nodes: list[_Node] = []
    for i in range(cfg.n):
        node = _Node(i, run, run.recorder(f"node-{i}", privileged=(i == 0)))
        nodes.append(node)
        run.net.register(node.name, node.on_message)

    for node in nodes:
        run.sched.at(run.rng.uniform(*cfg.work), node.deactivate)

    def done() -> bool:
        return nodes[0].detected and any(node.victory_done for node in nodes)

    return run.finish(done, "tokenring", build_tokenring_spec(cfg.n),
                      dict(COMPOSITION))
