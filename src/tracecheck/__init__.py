"""Validate recorded execution traces against state-machine specs.

A distributed program logs variable updates and named events through a
Tracer; per-process NDJSON logs are merged on a shared logical clock;
the explorer then searches the spec's constrained state space for a
behavior that explains the whole trace.
"""

from .errors import (BagUnderflow, MissingClock, OpTypeError, ParseError,
                     PathError, SchemaError, SimDeadlock, TracecheckError,
                     UnknownOp)
from .explorer import (STUTTER, Attempt, ExplorerConfig, FailureReport,
                       Match, Verdict, explain, explored_dot, match_entry,
                       validate)
from .machine import ActionSchema, GuardClause, Spec, SpecState, step
from .tracer import (TRACE_PATH_ENV, Clock, ExplicitClock, FileBasedClock,
                     InMemoryClock, Tracer, VirtualField, get_tracer)
from .traces import (Trace, TraceEntry, merge, parse_ndjson,
                     read_trace_file, serialize_entry, serialize_trace,
                     write_trace_file)
from .values import (UpdateOp, Value, VBag, VBool, VInt, VRec, VSeq, VSet,
                     VStr, apply_entry_updates, apply_update, json_to_value,
                     jsonable_to_value, mk, render_event_arg, value_to_json,
                     value_to_jsonable)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "TracecheckError", "PathError", "OpTypeError", "BagUnderflow",
    "UnknownOp", "ParseError", "SchemaError", "MissingClock", "SimDeadlock",
    # values
    "Value", "VStr", "VInt", "VBool", "VSeq", "VSet", "VBag", "VRec",
    "UpdateOp", "mk", "apply_update", "apply_entry_updates",
    "value_to_json", "json_to_value", "value_to_jsonable",
    "jsonable_to_value", "render_event_arg",
    # traces
    "Trace", "TraceEntry", "parse_ndjson",
    "read_trace_file", "serialize_entry", "serialize_trace", "merge",
    "write_trace_file",
    # tracer
    "Tracer", "get_tracer", "VirtualField", "Clock", "InMemoryClock",
    "FileBasedClock", "ExplicitClock", "TRACE_PATH_ENV",
    # machine
    "SpecState", "GuardClause", "ActionSchema", "Spec", "step",
    # explorer
    "STUTTER", "ExplorerConfig", "Match", "Attempt", "FailureReport",
    "Verdict", "match_entry", "validate", "explain", "explored_dot",
]
