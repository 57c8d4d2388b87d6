"""Two-phase commit: reference state machine and a simulated,
instrumented implementation.

The state machine has a transaction manager (TM) and a set of resource
managers (RMs).  RMs prepare spontaneously; the TM commits once every
RM has prepared, or may abort unilaterally while undecided.  Decision
messages overwrite RM state regardless of what the RM was doing, and
receive actions stay enabled while their message is in flight, so
duplicate deliveries are part of the model.

The simulator runs one TM and n RM processes over a lossy network,
each logging through its own Tracer against a shared logical clock.
A run writes per-process NDJSON files, the merged trace, and a
manifest; identical (config, seed) pairs produce identical bytes.

Known deviations to inject:

  bug="counter"   the TM counts Prepared messages instead of tracking
                  which RMs sent them, so a duplicate (e.g. a resend)
                  makes it commit before every RM has prepared.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..machine import ActionSchema, GuardClause, Spec, SpecState
from ..values import VRec, VSet, VStr
from .common import RECORD_LEVELS, Recorder, RunResult, SimRun, check_timing

RM_STATES = ("working", "prepared", "committed", "aborted")
# Every other string a state holds.  Renaming RMs renames these too if
# an RM bears one of their names, so such a spec declares no symmetry.
STATE_STRINGS = frozenset(RM_STATES + ("init", "done", "Prepared", "Commit",
                                       "Abort", "type", "rm"))


def _prepared_msg(rm: str) -> VRec:
    return VRec([("type", VStr("Prepared")), ("rm", VStr(rm))])


_COMMIT_MSG = VRec([("type", VStr("Commit"))])
_ABORT_MSG = VRec([("type", VStr("Abort"))])
_INIT = VStr("init")
_DONE = VStr("done")


def _check_rms(rms) -> tuple[str, ...]:
    """The RM names as a tuple, refusing none, empty and repeated
    names."""
    rms = tuple(rms)
    if not rms:
        raise ValueError("at least one RM required")
    if "" in rms:
        raise ValueError("empty RM name")
    if len(set(rms)) != len(rms):
        raise ValueError("duplicate RM names")
    return rms


def build_twophase_spec(rms) -> Spec:
    """The two-phase commit state machine over the given RM names."""
    rm_names = _check_rms(rms)
    rm_dom = tuple(VStr(r) for r in rm_names)
    all_rms = VSet(rm_dom)
    # Built once per spec, so guards and effects look messages up
    # instead of rebuilding them.
    prepared_msg = {r: _prepared_msg(r) for r in rm_names}
    rm_state = {x: VStr(x) for x in RM_STATES}

    init = SpecState({
        "rmState": VRec([(r, VStr("working")) for r in rm_names]),
        "tmState": VStr("init"),
        "tmPrepared": VSet(),
        "msgs": VSet(),
    })

    def rm_state_is(state_name: str):
        want = rm_state[state_name]
        return lambda s, p: s["rmState"][p["r"].text] == want

    def set_rm_state(s: SpecState, p, state_name: str) -> VRec:
        return s["rmState"].replaced(p["r"].text, rm_state[state_name])

    tm_undecided = GuardClause(
        'tmState = "init"', lambda s, p: s["tmState"] == _INIT)

    actions = [
        ActionSchema(
            "RMPrepare", (("r", rm_dom),),
            (GuardClause('rmState[r] = "working"', rm_state_is("working")),),
            lambda s, p: [{
                "rmState": set_rm_state(s, p, "prepared"),
                "msgs": s["msgs"].with_element(prepared_msg[p["r"].text]),
            }],
            writes=frozenset({"rmState", "msgs"}), keys={"rmState": "r"}),
        ActionSchema(
            "RMRcvCommitMsg", (("r", rm_dom),),
            (GuardClause("a Commit message is in msgs",
                         lambda s, p: _COMMIT_MSG in s["msgs"]),),
            lambda s, p: [{"rmState": set_rm_state(s, p, "committed")}],
            writes=frozenset({"rmState"}), keys={"rmState": "r"}),
        ActionSchema(
            "RMRcvAbortMsg", (("r", rm_dom),),
            (GuardClause("an Abort message is in msgs",
                         lambda s, p: _ABORT_MSG in s["msgs"]),),
            lambda s, p: [{"rmState": set_rm_state(s, p, "aborted")}],
            writes=frozenset({"rmState"}), keys={"rmState": "r"}),
        ActionSchema(
            "TMRcvPrepared", (("r", rm_dom),),
            (tm_undecided,
             GuardClause("a Prepared message from r is in msgs",
                         lambda s, p:
                         prepared_msg[p["r"].text] in s["msgs"])),
            lambda s, p: [{
                "tmPrepared": s["tmPrepared"].with_element(p["r"]),
            }],
            writes=frozenset({"tmPrepared"})),
        ActionSchema(
            "TMCommit", (),
            (tm_undecided,
             GuardClause("every RM is in tmPrepared",
                         lambda s, p: s["tmPrepared"] == all_rms)),
            lambda s, p: [{
                "tmState": _DONE,
                "msgs": s["msgs"].with_element(_COMMIT_MSG),
            }],
            writes=frozenset({"tmState", "msgs"})),
        ActionSchema(
            "TMAbort", (),
            (tm_undecided,),
            lambda s, p: [{
                "tmState": _DONE,
                "msgs": s["msgs"].with_element(_ABORT_MSG),
            }],
            writes=frozenset({"tmState", "msgs"})),
    ]

    legal = tuple(rm_state.values())

    def type_ok(s: SpecState) -> bool:
        rec = s["rmState"]
        if not isinstance(rec, VRec) or set(rec.keys()) != set(rm_names):
            return False
        return all(v in legal for _, v in rec.fields)

    def consistent(s: SpecState) -> bool:
        states = [v for _, v in s["rmState"].fields]
        aborted = any(v == rm_state["aborted"] for v in states)
        committed = any(v == rm_state["committed"] for v in states)
        return not (aborted and committed)

    return Spec(
        variables=("rmState", "tmState", "tmPrepared", "msgs"),
        init=[init],
        actions=actions,
        invariants={"TypeOK": type_ok, "Consistent": consistent},
        symmetric=() if STATE_STRINGS.intersection(rm_names) else rm_names,
    )


# --- simulator --------------------------------------------------------

BUGS = ("counter",)
RESEND_LOGGING = ("stutter", "silent")


@dataclass
class TwoPhaseConfig:
    rms: tuple[str, ...] = ("rm-0", "rm-1")
    seed: int = 0
    record: str = "vea"
    bug: str | None = None              # None or one of BUGS
    loss: float = 0.0
    delay: tuple[float, float] = (1.0, 2.0)
    work: tuple[float, float] = (1.0, 5.0)
    timeout: float = 60.0               # Prepared resend period
    abort_after: float | None = None    # TM decides Abort at this time
    force_resend: bool = False
    resend_logging: str = "stutter"     # one of RESEND_LOGGING
    time_limit: float = 100_000.0

    def __post_init__(self):
        _check_rms(self.rms)
        if self.record not in RECORD_LEVELS:
            raise ValueError(f"record must be one of {RECORD_LEVELS}")
        if self.bug not in (None, *BUGS):
            raise ValueError(f"unknown bug {self.bug!r}")
        if self.resend_logging not in RESEND_LOGGING:
            raise ValueError(f"resend_logging must be one of {RESEND_LOGGING}")
        check_timing("delay", self.delay)
        check_timing("work", self.work)
        # A zero period would resend at the same virtual time forever.
        if not self.timeout > 0:
            raise ValueError(f"timeout must be > 0, got {self.timeout}")
        if self.abort_after is not None and not self.abort_after >= 0:
            raise ValueError("abort_after must not be NaN or negative, "
                             f"got {self.abort_after}")


def rm_names(n: int) -> tuple[str, ...]:
    return tuple(f"rm-{i}" for i in range(n))


# Every message an RM receives is a decision: its kind -> (the RM's
# new state, the event it records).
_DECISIONS = {"Commit": ("committed", "RMRcvCommitMsg"),
              "Abort": ("aborted", "RMRcvAbortMsg")}


class _RM:
    def __init__(self, name: str, run: SimRun, rec: Recorder,
                 timeout: float):
        self.name = name
        self.run = run
        self.rec = rec
        self.timeout = timeout
        self.decided = False

    def prepare(self) -> None:
        self._prepared("RMPrepare")

    def resend(self) -> None:
        # The decision is late: push Prepared again.  With "stutter"
        # logging the retry is recorded even though nothing changed.
        self._prepared(None)

    def _prepared(self, event: str | None) -> None:
        """Record Prepared with ``event`` (None for a retry), send it,
        and schedule the retry."""
        if self.decided:
            # The TM decided (e.g. an early abort) before this RM got
            # around to preparing; a real RM would not prepare now.
            return
        if event is not None or self.run.cfg.resend_logging == "stutter":
            rec = self.rec
            rec.notify("rmState", "Update", path=(self.name,),
                       args=("prepared",))
            rec.notify("msgs", "Add",
                       args=({"type": "Prepared", "rm": self.name},))
            rec.log(event, [self.name] if event else None)
        self.run.net.send(self.name, "tm", ("Prepared", self.name))
        self.run.sched.at(self.timeout, self.resend)

    def on_message(self, src: str, payload: tuple) -> None:
        if self.decided:
            return
        state, event = _DECISIONS[payload[0]]
        self.decided = True
        self.rec.notify("rmState", "Update", path=(self.name,),
                        args=(state,))
        self.rec.log(event, [self.name])


class _TM:
    def __init__(self, run: SimRun, rec: Recorder):
        self.run = run
        self.rec = rec
        self.prepared: set[str] = set()
        self.counter = 0
        self.decision: str | None = None

    def on_message(self, src: str, payload: tuple) -> None:
        if payload[0] != "Prepared":
            return
        rm = payload[1]
        if self.decision is not None:
            # Already decided; remind the sender, no new step.
            self.run.net.send("tm", rm, (self.decision,))
            return
        self.rec.notify("tmPrepared", "Add", args=(rm,))
        self.rec.log("TMRcvPrepared", [rm])
        n = len(self.run.cfg.rms)
        if self.run.cfg.bug == "counter":
            # Deviation: tallies receipts, so duplicates count twice.
            self.counter += 1
            ready = self.counter >= n
        else:
            self.prepared.add(rm)
            ready = len(self.prepared) == n
        if ready:
            self._decide("Commit", "TMCommit")

    def abort(self) -> None:
        if self.decision is None:
            self._decide("Abort", "TMAbort")

    def _decide(self, decision: str, event: str) -> None:
        self.decision = decision
        self.rec.notify("tmState", "Update", args=("done",))
        self.rec.notify("msgs", "Add", args=({"type": decision},))
        self.rec.log(event)
        self._broadcast_decision()

    def _broadcast_decision(self) -> None:
        for rm in self.run.cfg.rms:
            self.run.net.send("tm", rm, (self.decision,))
        if self.run.cfg.loss > 0.0:
            # Lossy link: repeat until the run completes.  Resends are
            # housekeeping, not protocol steps, so nothing is logged.
            self.run.sched.at(self.run.cfg.timeout, self._broadcast_decision)


def run_twophase(cfg: TwoPhaseConfig, out_dir) -> RunResult:
    """Simulate a run and leave its traces in ``out_dir``."""
    run = SimRun(cfg, out_dir, cfg.loss)
    tm = _TM(run, run.recorder("tm", privileged=True))
    run.net.register("tm", tm.on_message)

    rms: list[_RM] = []
    for i, name in enumerate(cfg.rms):
        timeout = cfg.timeout
        if cfg.force_resend and i == 0:
            timeout = 3.0
        rm = _RM(name, run, run.recorder(name), timeout)
        rms.append(rm)
        run.net.register(name, rm.on_message)

    # Work times are drawn up front, in RM order, so a seed pins them.
    last = len(cfg.rms) - 1
    for i, rm in enumerate(rms):
        if cfg.force_resend:
            # First RM prepares early and retries fast; the last one is
            # slow enough that its Prepared cannot arrive before the
            # first RM's duplicate does.
            work = 1.0 if i == 0 else (50.0 if i == last else 2.0)
        else:
            work = run.rng.uniform(*cfg.work)
        run.sched.at(work, rm.prepare)

    if cfg.abort_after is not None:
        run.sched.at(cfg.abort_after, tm.abort)

    def done() -> bool:
        return tm.decision is not None and all(rm.decided for rm in rms)

    return run.finish(done, "twophase", build_twophase_spec(cfg.rms), {})
