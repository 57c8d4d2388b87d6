"""Instrumented example protocols and their reference state machines."""

from .common import RECORD_LEVELS, Recorder, RunResult
from .sim import SimNetwork, SimScheduler
from .tokenring import (COMPOSITION, TokenRingConfig, build_tokenring_spec,
                        run_tokenring)
from .twophase import (TwoPhaseConfig, build_twophase_spec, rm_names,
                       run_twophase)

__all__ = [
    "RECORD_LEVELS",
    "Recorder",
    "RunResult",
    "SimNetwork",
    "SimScheduler",
    "COMPOSITION",
    "TokenRingConfig",
    "build_tokenring_spec",
    "run_tokenring",
    "TwoPhaseConfig",
    "build_twophase_spec",
    "rm_names",
    "run_twophase",
]
