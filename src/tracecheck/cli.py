"""Command-line interface.

Subcommands:

  validate      check a trace file against a bundled spec
  run           simulate a bundled protocol and record its traces
  merge         merge per-process NDJSON traces on their clocks
  schema-check  report entries that do not fit the trace format

Exit codes: 0 success/accepted, 1 rejected, 2 inconclusive (search
budget exhausted, nothing else), 3 usage or input error (a malformed,
missing or unknown flag or subcommand among them), an output path that
cannot be written, or standard output closed before all of it was
written.  A rejection caused purely by an event name the spec does not
know also exits 3, with a hint to supply a composition mapping.

``main(argv)`` may be called repeatedly in one process, which builds its
parser once; it returns every exit code, a usage error's included.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

from .errors import TracecheckError
from .explorer import ExplorerConfig, explain, explored_dot, validate
from .machine import Spec
from .protocols import (RECORD_LEVELS, TokenRingConfig, TwoPhaseConfig,
                        build_tokenring_spec, build_twophase_spec, rm_names,
                        run_tokenring, run_twophase, tokenring, twophase)
from .tracer import TRACE_PATH_ENV
from .traces import merge, read_lines, read_trace_file, serialize_trace
from .values import TOO_DEEP, parse_json

EXIT_ACCEPTED = 0
EXIT_REJECTED = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Refuses a bad command line with exit code 3, not argparse's 2,
    which here means an exhausted budget."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _parse_spec_arg(text: str) -> Spec:
    kind, _, rest = text.partition(":")
    if kind == "twophase":
        if not rest:
            raise UsageError(
                "twophase needs RMs: twophase:<count> or twophase:a,b,c")
        if rest.isdigit():
            rms = rm_names(int(rest))
        else:
            rms = rest.split(",")
        try:
            return build_twophase_spec(rms)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
    if kind == "tokenring":
        if not rest or not rest.isdigit():
            raise UsageError("tokenring needs a node count: tokenring:<n>")
        try:
            return build_tokenring_spec(int(rest))
        except ValueError as exc:
            raise UsageError(str(exc)) from None
    raise UsageError(
        f"unknown spec {text!r}; expected twophase:<rms> or tokenring:<n>")


def _load_composition(path: str) -> dict[str, tuple[str, ...]]:
    """A composition file is either {"Event": ["A", "B"]} or a run
    manifest carrying such a mapping under "composition"."""
    try:
        obj = parse_json(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, TracecheckError) as exc:
        raise UsageError(f"cannot read composition file {path}: {exc}") \
            from None
    if isinstance(obj, dict) and isinstance(obj.get("composition"), dict):
        obj = obj["composition"]
    if not isinstance(obj, dict):
        raise UsageError(f"{path}: composition must be a JSON object")
    out = {}
    for event, stages in obj.items():
        if not isinstance(stages, list) \
                or not all(isinstance(s, str) for s in stages):
            raise UsageError(
                f"{path}: composition for {event!r} must be a list of "
                "action names")
        out[event] = tuple(stages)
    return out


def _range(text: str) -> tuple[float, float]:
    """A ``--delay`` or ``--work`` value: LO,HI, or one number for both."""
    lo, sep, hi = text.partition(",")
    try:
        return float(lo), float(hi if sep else lo)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected LO,HI or a single number, got {text!r}") from None


def _input_error(path: str, exc: TracecheckError) -> UsageError:
    """``path: line N: message``, or ``path: message`` when the error
    has no line."""
    line = getattr(exc, "line", 0)
    where = f"{path}: line {line}" if line else path
    return UsageError(f"{where}: {exc}")


def _read_trace(path: str):
    try:
        return read_trace_file(path)
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None
    except TracecheckError as exc:
        raise _input_error(path, exc) from None


def _only_unknown_events(verdict) -> bool:
    attempts = [a for f in verdict.failures for a in f.attempts]
    return bool(attempts) and all(a.reason == "UnknownEvent"
                                  for a in attempts)


def _finish_validation(verdict, trace, args) -> int:
    if args.dot:
        Path(args.dot).write_text(explored_dot(verdict, trace),
                                  encoding="utf-8")
    if args.json:
        print(json.dumps(verdict.to_jsonable(), indent=2, sort_keys=True))
    else:
        print(explain(verdict, trace))
    if verdict.accepted:
        return EXIT_ACCEPTED
    if verdict.inconclusive:
        return EXIT_INCONCLUSIVE
    if _only_unknown_events(verdict):
        print("hint: the trace uses event names the spec has no action "
              "for; if one event covers several actions, pass their "
              "order with --compose FILE (a run's manifest.json works)",
              file=sys.stderr)
        return EXIT_USAGE
    return EXIT_REJECTED


def _cmd_validate(args) -> int:
    spec = _parse_spec_arg(args.spec)
    trace = _read_trace(args.trace)
    composition = _load_composition(args.compose) if args.compose else {}
    try:
        cfg = ExplorerConfig(
            search=args.search,
            allow_stutter=args.allow_stutter,
            composition=composition,
            max_states=args.max_states,
            max_seconds=args.max_seconds)
        verdict = validate(spec, trace, cfg)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    return _finish_validation(verdict, trace, args)


def _cmd_run(args) -> int:
    if args.json and not args.and_validate:
        raise UsageError("--json needs --and-validate")
    out_dir = args.out or os.environ.get(TRACE_PATH_ENV) \
        or f"runs/{args.protocol}-seed{args.seed}"
    if args.protocol == "twophase":
        config, run = TwoPhaseConfig, run_twophase
    else:
        config, run = TokenRingConfig, run_tokenring
    # A protocol's parser names each flag after the config field it sets.
    kwargs = {k: v for k, v in vars(args).items()
              if k in config.__dataclass_fields__}
    if "rms" in kwargs:     # a count on the command line
        kwargs["rms"] = rm_names(args.rms)
    try:
        cfg = config(**kwargs)
        result = run(cfg, out_dir)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    print(f"{result.protocol}: {len(result.trace)} entries in "
          f"{result.merged_file}")
    for p in result.trace_files:
        print(f"  {p}")
    print(f"  manifest: {result.manifest_file}")
    if not args.and_validate:
        return EXIT_ACCEPTED
    cfg2 = ExplorerConfig(allow_stutter=True,
                          composition=result.composition)
    verdict = validate(result.spec, result.trace, cfg2)
    return _finish_validation(verdict, result.trace, args)


def _cmd_merge(args) -> int:
    merged = merge([_read_trace(p) for p in args.files])
    text = serialize_trace(merged)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
        print(f"{len(merged)} entries -> {args.output}")
    else:
        sys.stdout.write(text)
    return EXIT_ACCEPTED


def _cmd_schema_check(args) -> int:
    try:
        text = Path(args.file).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {args.file}: {exc}") from None
    lines = list(read_lines(text))
    problems = [(n, exc) for n, exc in lines
                if isinstance(exc, TracecheckError)]
    deep = next((exc for _, exc in problems if str(exc) == TOO_DEEP), None)
    if deep is not None:
        raise _input_error(args.file, deep)
    total = len(lines)
    shown = problems[:20]
    for lineno, msg in shown:
        print(f"line {lineno}: {msg}")
    if len(problems) > len(shown):
        print(f"... and {len(problems) - len(shown)} more problem(s)")
    if problems:
        print(f"{len(problems)} of {total} entries do not fit the format")
        return EXIT_REJECTED
    print(f"ok: {total} entries fit the trace format")
    return EXIT_ACCEPTED


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Shared by every call in this process; parse_args does not change it."""
    parser = _Parser(
        prog="tracecheck",
        description="Validate recorded execution traces against "
                    "state-machine specs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="check a trace against a spec")
    p_val.add_argument("--spec", required=True,
                       help="twophase:<count|a,b,c> or tokenring:<n>")
    p_val.add_argument("--trace", required=True, help="NDJSON trace file")
    p_val.add_argument("--search", choices=("bfs", "dfs"), default="bfs")
    p_val.add_argument("--allow-stutter", action="store_true",
                       help="let event-free entries match no-op steps")
    p_val.add_argument("--compose", metavar="FILE",
                       help="JSON mapping of composed events to the "
                            "action sequence each one covers")
    p_val.add_argument("--max-states", type=int, default=None)
    p_val.add_argument("--max-seconds", type=float, default=None)
    p_val.add_argument("--dot", metavar="FILE",
                       help="write the explored graph as DOT")
    p_val.add_argument("--json", action="store_true",
                       help="print the verdict as JSON")
    p_val.set_defaults(func=_cmd_validate)

    p_run = sub.add_parser("run", help="simulate a bundled protocol")
    by_protocol = p_run.add_subparsers(dest="protocol", required=True)
    p_two = by_protocol.add_parser("twophase", help="two-phase commit")
    p_ring = by_protocol.add_parser(
        "tokenring", help="token-ring termination detection")
    p_two.add_argument("--rms", type=int, default=len(TwoPhaseConfig.rms),
                       help="number of resource managers")
    p_ring.add_argument("--n", type=int, default=TokenRingConfig.n,
                        help="number of nodes")
    for p, config, bugs in ((p_two, TwoPhaseConfig, twophase.BUGS),
                            (p_ring, TokenRingConfig, tokenring.BUGS)):
        p.add_argument("--seed", type=int, default=config.seed)
        p.add_argument("--record", choices=RECORD_LEVELS,
                       default=config.record)
        p.add_argument("--bug", choices=bugs, default=config.bug,
                       help="inject a known deviation")
        p.add_argument("--delay", type=_range, default=config.delay,
                       help="message delay range LO,HI")
        p.add_argument("--work", type=_range, default=config.work,
                       help="per-process work time range LO,HI")
        p.add_argument("--out", default=None,
                       help=f"output directory (default: ${TRACE_PATH_ENV} "
                            "or runs/<protocol>-seed<seed>)")
        p.add_argument("--and-validate", action="store_true",
                       help="validate the merged trace right away "
                            "(stutter allowed, run's composition applied)")
        p.add_argument("--json", action="store_true",
                       help="print the verdict as JSON (with "
                            "--and-validate)")
        p.set_defaults(func=_cmd_run, dot=None)
    p_two.add_argument("--loss", type=float, default=TwoPhaseConfig.loss,
                       help="message loss probability")
    p_two.add_argument("--timeout", type=float,
                       default=TwoPhaseConfig.timeout,
                       help="Prepared resend period")
    p_two.add_argument("--abort-after", type=float,
                       default=TwoPhaseConfig.abort_after,
                       help="TM aborts at this time if undecided")
    p_two.add_argument("--force-resend", action="store_true",
                       help="schedule work so a Prepared is resent before "
                            "the decision")
    p_two.add_argument("--resend-logging", choices=twophase.RESEND_LOGGING,
                       default=TwoPhaseConfig.resend_logging,
                       help="record resends as unchanged-value entries, "
                            "or not at all")

    p_merge = sub.add_parser("merge",
                             help="merge per-process traces on their clocks")
    p_merge.add_argument("files", nargs="+", help="NDJSON trace files")
    p_merge.add_argument("-o", "--output", default=None,
                         help="write here instead of stdout")
    p_merge.set_defaults(func=_cmd_merge)

    p_schema = sub.add_parser("schema-check",
                              help="report entries that do not fit the "
                                   "trace format")
    p_schema.add_argument("file", help="NDJSON trace file")
    p_schema.set_defaults(func=_cmd_schema_check)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:       # --help, or a refused command line
        return exc.code
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Whatever reads stdout has gone.  Point stdout at devnull so
        # the interpreter's flush at exit cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: standard output was closed before all of it was "
              "written", file=sys.stderr)
        return EXIT_USAGE
    except (UsageError, TracecheckError, OSError) as exc:
        # An OSError here is an output path that cannot be written; its
        # message names the path.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
