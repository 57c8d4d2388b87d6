"""Command-line interface: subcommands, exit codes, output formats."""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tracecheck
from tracecheck.cli import main
from tracecheck.protocols import (TokenRingConfig, TwoPhaseConfig,
                                  build_twophase_spec)


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def happy_run(tmp_path, capsys):
    out_dir = tmp_path / "run"
    code, out, err = run_cli(
        ["run", "twophase", "--rms", "2", "--seed", "3",
         "--out", str(out_dir)], capsys)
    assert code == 0
    return out_dir


def test_run_reports_outputs(tmp_path, capsys):
    out_dir = tmp_path / "run"
    code, out, err = run_cli(
        ["run", "twophase", "--rms", "2", "--seed", "1",
         "--out", str(out_dir)], capsys)
    assert code == 0
    assert "merged.ndjson" in out
    assert "manifest" in out
    assert (out_dir / "merged.ndjson").exists()
    assert (out_dir / "manifest.json").exists()
    assert (out_dir / "tm.ndjson").exists()


def test_run_honors_trace_path_env(tmp_path, capsys, monkeypatch):
    target = tmp_path / "from-env"
    monkeypatch.setenv("TRACE_PATH", str(target))
    code, out, _ = run_cli(["run", "twophase", "--seed", "0"], capsys)
    assert code == 0
    assert target.exists()


def test_run_and_validate_accepts(tmp_path, capsys):
    code, out, err = run_cli(
        ["run", "twophase", "--rms", "3", "--seed", "5",
         "--out", str(tmp_path / "r"), "--and-validate"], capsys)
    assert code == 0
    assert "accepted" in out


def test_run_counter_bug_and_validate_rejects(tmp_path, capsys):
    code, out, err = run_cli(
        ["run", "twophase", "--rms", "3", "--seed", "0",
         "--bug", "counter", "--force-resend",
         "--resend-logging", "silent",
         "--out", str(tmp_path / "r"), "--and-validate"], capsys)
    assert code == 1
    assert "rejected" in out
    assert "TMCommit" in out


def test_run_tokenring_and_validate_uses_manifest_composition(tmp_path,
                                                              capsys):
    code, out, err = run_cli(
        ["run", "tokenring", "--n", "3", "--seed", "2",
         "--out", str(tmp_path / "r"), "--and-validate"], capsys)
    assert code == 0
    assert "accepted" in out


def test_validate_accepted(happy_run, capsys):
    code, out, err = run_cli(
        ["validate", "--spec", "twophase:2",
         "--trace", str(happy_run / "merged.ndjson")], capsys)
    assert code == 0
    assert out.startswith("accepted")


def test_validate_dfs_and_json(happy_run, capsys):
    code, out, err = run_cli(
        ["validate", "--spec", "twophase:2", "--search", "dfs", "--json",
         "--trace", str(happy_run / "merged.ndjson")], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["status"] == "accepted"
    assert obj["search"] == "dfs"


def test_validate_rejects_against_wrong_spec(happy_run, capsys):
    # same protocol, different RM population: the trace cannot fit
    code, out, err = run_cli(
        ["validate", "--spec", "twophase:rm-0,other",
         "--trace", str(happy_run / "merged.ndjson")], capsys)
    assert code == 1
    assert "rejected" in out


def test_validate_inconclusive_on_tiny_budget(happy_run, capsys):
    code, out, err = run_cli(
        ["validate", "--spec", "twophase:2", "--max-states", "1",
         "--trace", str(happy_run / "merged.ndjson")], capsys)
    assert code == 2
    assert "inconclusive" in out
    code, out, err = run_cli(
        ["validate", "--spec", "twophase:2", "--max-states", "1", "--json",
         "--trace", str(happy_run / "merged.ndjson")], capsys)
    assert code == 2
    verdict = json.loads(out)
    assert verdict["status"] == "inconclusive"
    assert verdict["budget_reason"] == "max_states=1 exceeded"


def test_validate_writes_dot(happy_run, tmp_path, capsys):
    dot_file = tmp_path / "graph.dot"
    code, out, err = run_cli(
        ["validate", "--spec", "twophase:2", "--dot", str(dot_file),
         "--trace", str(happy_run / "merged.ndjson")], capsys)
    assert code == 0
    assert dot_file.read_text().startswith("digraph")


def test_validate_unknown_event_exits_usage_with_hint(tmp_path, capsys):
    out_dir = tmp_path / "ring"
    code, _, _ = run_cli(
        ["run", "tokenring", "--n", "3", "--seed", "2",
         "--out", str(out_dir)], capsys)
    assert code == 0
    code, out, err = run_cli(
        ["validate", "--spec", "tokenring:3",
         "--trace", str(out_dir / "merged.ndjson")], capsys)
    assert code == 3
    assert "--compose" in err

    code, out, err = run_cli(
        ["validate", "--spec", "tokenring:3",
         "--compose", str(out_dir / "manifest.json"),
         "--trace", str(out_dir / "merged.ndjson")], capsys)
    assert code == 0


def test_validate_compose_direct_mapping(tmp_path, capsys):
    out_dir = tmp_path / "ring"
    run_cli(["run", "tokenring", "--n", "3", "--seed", "2",
             "--out", str(out_dir)], capsys)
    mapping = tmp_path / "compose.json"
    mapping.write_text(json.dumps(
        {"DetectAndInit": ["DetectTermination", "InitiateProbe"]}))
    code, out, err = run_cli(
        ["validate", "--spec", "tokenring:3", "--compose", str(mapping),
         "--trace", str(out_dir / "merged.ndjson")], capsys)
    assert code == 0


def test_validate_allow_stutter_flag(tmp_path, capsys):
    out_dir = tmp_path / "r"
    run_cli(["run", "twophase", "--rms", "2", "--seed", "0",
             "--delay", "10,10", "--work", "1,1", "--timeout", "12",
             "--out", str(out_dir)], capsys)
    trace = str(out_dir / "merged.ndjson")
    code, _, _ = run_cli(
        ["validate", "--spec", "twophase:2", "--trace", trace], capsys)
    assert code == 1
    code, _, _ = run_cli(
        ["validate", "--spec", "twophase:2", "--allow-stutter",
         "--trace", trace], capsys)
    assert code == 0


def test_usage_errors_exit_three(tmp_path, capsys):
    latin1 = tmp_path / "latin1.ndjson"
    latin1.write_bytes(b'{"clock":0,"event":"\xff"}\n')
    abort = tmp_path / "abort.ndjson"
    abort.write_text('{"clock":0,"event":"TMAbort"}\n')
    cases = [
        ["validate", "--spec", "nosuch:2", "--trace", "x.ndjson"],
        ["validate", "--spec", "twophase:", "--trace", "x.ndjson"],
        ["validate", "--spec", "tokenring:x", "--trace", "x.ndjson"],
        ["validate", "--spec", "tokenring:1", "--trace", "x.ndjson"],
        # A twophase spec with no RM, or with one RM named twice.
        ["validate", "--spec", "twophase:0", "--trace", str(abort)],
        ["validate", "--spec", "twophase:,", "--trace", str(abort)],
        ["validate", "--spec", "twophase:rm-0,rm-0", "--trace", str(abort)],
        # An empty RM name, at the end or between two others.
        ["validate", "--spec", "twophase:rm-0,", "--trace", str(abort)],
        ["validate", "--spec", "twophase:rm-0,,rm-1", "--trace", str(abort)],
        ["validate", "--spec", "twophase:2",
         "--trace", str(tmp_path / "missing.ndjson")],
        ["run", "twophase", "--rms", "0", "--out", str(tmp_path / "o")],
        ["run", "twophase", "--delay", "oops",
         "--out", str(tmp_path / "o2")],
        ["run", "tokenring", "--n", "1", "--out", str(tmp_path / "o3")],
        # Files that are not UTF-8.
        ["validate", "--spec", "twophase:2", "--trace", str(latin1)],
        ["schema-check", str(latin1)],
        ["merge", str(latin1)],
        ["validate", "--spec", "twophase:2", "--compose", str(latin1),
         "--trace", str(latin1)],
        # Command lines the parser refuses: argparse alone would exit 2.
        ["validate", "--trace", "x.ndjson"],
        ["nosuch"],
        ["validate", "--spec", "twophase:2", "--trace", "x.ndjson",
         "--search", "zz"],
        ["run", "twophase", "--rms", "x"],
        # Budgets that bound nothing; a NaN would compare false forever.
        ["validate", "--spec", "twophase:2", "--trace", str(abort),
         "--max-states", "-3"],
        ["validate", "--spec", "twophase:2", "--trace", str(abort),
         "--max-seconds", "-1"],
        ["validate", "--spec", "twophase:2", "--trace", str(abort),
         "--max-seconds", "nan"],
        # Timings a run cannot use, refused before any trace file opens;
        # a zero resend period would resend at one virtual time forever.
        ["run", "twophase", "--timeout", "0", "--out", str(tmp_path / "t")],
        ["run", "twophase", "--timeout", "nan", "--out", str(tmp_path / "t")],
        ["run", "twophase", "--delay", "nan", "--out", str(tmp_path / "t")],
        ["run", "twophase", "--work", "nan", "--out", str(tmp_path / "t")],
        ["run", "twophase", "--abort-after", "nan",
         "--out", str(tmp_path / "t")],
        ["run", "twophase", "--work=-5,-1", "--out", str(tmp_path / "t")],
        ["run", "twophase", "--work", "inf", "--out", str(tmp_path / "t")],
        ["run", "tokenring", "--delay", "nan", "--out", str(tmp_path / "t")],
    ]
    for argv in cases:
        code, out, err = run_cli(argv, capsys)
        assert code == 3, argv
        assert err.count("error:") == 1, argv


@pytest.mark.parametrize("argv", [
    ["twophase", "--delay", "5,1"], ["twophase", "--loss", "1.5"],
    ["tokenring", "--delay", "5,1"]])
def test_a_refused_run_leaves_no_output_directory(argv, tmp_path, capsys):
    # The ring loses no message, so only twophase reads --loss.
    out_dir = tmp_path / "x"
    code, out, err = run_cli(["run", *argv, "--out", str(out_dir)], capsys)
    assert code == 3
    assert err.count("error:") == 1
    assert not out_dir.exists()


# Each protocol's run parser declares only the flags its config reads,
# and --json prints only a verdict that --and-validate asked for.
@pytest.mark.parametrize("argv", [
    ["tokenring", "--rms", "3"], ["tokenring", "--loss", "0.5"],
    ["tokenring", "--timeout", "5"], ["tokenring", "--abort-after", "2"],
    ["tokenring", "--force-resend"],
    ["tokenring", "--resend-logging", "silent"],
    ["twophase", "--n", "5"], ["twophase", "--json"]])
def test_a_run_refuses_a_flag_it_does_not_read(argv, tmp_path, capsys):
    out_dir = tmp_path / "x"
    code, out, err = run_cli(["run", *argv, "--out", str(out_dir)], capsys)
    assert code == 3
    assert err.count("error:") == 1
    assert not out_dir.exists()


@pytest.mark.parametrize("protocol, only_other", [
    ("twophase", ["--n"]),
    ("tokenring", ["--rms", "--loss", "--timeout", "--abort-after",
                   "--force-resend", "--resend-logging"])])
def test_run_help_names_only_the_protocols_flags(protocol, only_other,
                                                 capsys):
    code, out, _ = run_cli(["run", protocol, "--help"], capsys)
    assert code == 0
    assert "--seed" in out
    assert not [flag for flag in only_other if flag in out]


@pytest.mark.parametrize("protocol, config", [
    ("twophase", TwoPhaseConfig), ("tokenring", TokenRingConfig)])
def test_a_flagless_run_records_the_default_config(protocol, config,
                                                   tmp_path, capsys):
    out_dir = tmp_path / "run"
    code, _, _ = run_cli(["run", protocol, "--out", str(out_dir)], capsys)
    assert code == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["config"] == json.loads(
        json.dumps(dataclasses.asdict(config())))


def test_effect_outside_its_frame_exits_three(tmp_path, capsys,
                                             monkeypatch):
    # TMAbort's frame leaves out msgs, which its effect binds.
    def misframed(rms):
        spec = build_twophase_spec(rms)
        actions = [dataclasses.replace(a, writes=frozenset({"tmState"}))
                   if a.name == "TMAbort" else a for a in spec.actions]
        return tracecheck.Spec(spec.variables, spec.init, actions,
                               spec.invariants)

    monkeypatch.setattr("tracecheck.cli.build_twophase_spec", misframed)
    abort = tmp_path / "abort.ndjson"
    abort.write_text('{"clock":0,"event":"TMAbort"}\n')
    code, out, err = run_cli(
        ["validate", "--spec", "twophase:2", "--trace", str(abort)], capsys)
    assert code == 3
    assert err == ("error: TMAbort: effect wrote variables outside its "
                   "frame: ['msgs']\n")


def test_deadlocked_run_exits_three_with_one_error_line(tmp_path, capsys):
    # Messages are lost and nothing is resent within the time bound.
    code, out, err = run_cli(
        ["run", "twophase", "--rms", "2", "--seed", "0", "--loss", "0.9",
         "--timeout", "1e9", "--out", str(tmp_path / "d")], capsys)
    assert code == 3
    assert err == ("error: virtual time bound 100000.0 exceeded before "
                   "completion\n")


def test_runaway_run_exits_three_at_the_event_bound(tmp_path):
    # A resend period far below the message delay resends forever
    # without ever passing the virtual time bound.  In a process of its
    # own, so a hang fails the test at its timeout, and with unclosed
    # files turned into warnings, which would add to stderr.
    result = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error::ResourceWarning",
         "-m", "tracecheck.cli", "run", "twophase", "--timeout", "1e-6",
         "--out", str(tmp_path / "r")],
        capture_output=True, text=True, timeout=60)
    assert result.returncode == 3
    assert result.stdout == ""
    assert result.stderr == ("error: event bound 100000 exceeded before "
                             "completion\n")


def test_refused_command_line_keeps_argparse_message(capsys):
    code, out, err = run_cli(["validate", "--trace", "x.ndjson"], capsys)
    assert code == 3
    assert out == ""
    assert err.startswith("usage: tracecheck validate [-h] --spec SPEC")
    assert err.endswith("tracecheck validate: error: the following "
                        "arguments are required: --spec\n")
    code, out, err = run_cli(["validate", "--help"], capsys)
    assert code == 0
    assert out.startswith("usage: tracecheck validate") and err == ""


def _tree(root):
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_repeated_calls_match_fresh_processes(tmp_path, capsys,
                                              monkeypatch):
    """One process shares one parser between calls: each call's exit
    code, output and files are those of the same call in a process of
    its own, and no flag value carries over to the next call."""
    ring = tmp_path / "ring"
    assert main(["run", "tokenring", "--n", "3", "--seed", "2",
                 "--out", str(ring)]) == 0
    calls = [
        ["validate", "--spec", "tokenring:3", "--trace", "ring/merged.ndjson",
         "--compose", "ring/manifest.json", "--dot", "graph.dot", "--json"],
        ["run", "twophase", "--rms", "2", "--seed", "3", "--out", "run",
         "--and-validate"],
        # Without --compose the ring's events are unknown (exit 3); a
        # --dot carried over would rewrite graph.dot with another graph.
        ["validate", "--spec", "tokenring:3",
         "--trace", "ring/merged.ndjson"],
    ]
    shared, fresh = tmp_path / "shared", tmp_path / "fresh"
    for side in (shared, fresh):
        (side / "ring").mkdir(parents=True)
        for name in ("merged.ndjson", "manifest.json"):
            (side / "ring" / name).write_bytes((ring / name).read_bytes())
    src = str(Path(tracecheck.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    capsys.readouterr()
    monkeypatch.chdir(shared)
    for argv in calls:
        code, out, err = run_cli(argv, capsys)
        alone = subprocess.run(
            [sys.executable, "-m", "tracecheck.cli", *argv], cwd=fresh,
            env=env, capture_output=True, text=True)
        assert (code, out, err) == (alone.returncode, alone.stdout,
                                    alone.stderr), argv
        assert _tree(shared) == _tree(fresh), argv
    assert code == 3 and "--compose" in err and not out.startswith("{")


def test_bad_compose_file_exits_three(happy_run, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]")
    code, _, err = run_cli(
        ["validate", "--spec", "twophase:2", "--compose", str(bad),
         "--trace", str(happy_run / "merged.ndjson")], capsys)
    assert code == 3
    assert "composition" in err

    # Each goes through the trace reader's JSON decoder.
    for text, message in [
            ('{"Ev": "not-a-list"}', "must be a list"),
            ('{"E": ["TMAbort", "TMAbort"], "E": ["TMCommit"]}',
             "duplicate key 'E'"),
            ('{"E": [%s, "TMAbort"]}' % ("1" * 5000), "too many digits"),
            ('{"E": ["\\ud800", "TMAbort"]}', "lone surrogate"),
            ("[" * 100_000 + "]" * 100_000, "nested too deeply")]:
        worse = tmp_path / "worse.json"
        worse.write_text(text)
        code, _, err = run_cli(
            ["validate", "--spec", "twophase:2", "--compose", str(worse),
             "--trace", str(happy_run / "merged.ndjson")], capsys)
        assert code == 3
        assert message in err


def test_merge_to_stdout_and_file(happy_run, tmp_path, capsys):
    files = [str(happy_run / "tm.ndjson"),
             str(happy_run / "rm-0.ndjson"),
             str(happy_run / "rm-1.ndjson")]
    code, out, _ = run_cli(["merge", *files], capsys)
    assert code == 0
    clocks = [json.loads(line)["clock"] for line in out.splitlines()]
    assert clocks == sorted(clocks)

    target = tmp_path / "merged.ndjson"
    code, out, _ = run_cli(["merge", *files, "-o", str(target)], capsys)
    assert code == 0
    assert target.exists()
    assert str(target) in out


@pytest.mark.parametrize("protocol", ["twophase", "tokenring"])
def test_merge_reproduces_a_runs_merged_file(protocol, tmp_path, capsys):
    out_dir = tmp_path / "run"
    code, _, _ = run_cli(["run", protocol, "--seed", "2",
                          "--out", str(out_dir)], capsys)
    assert code == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    target = tmp_path / "again.ndjson"
    code, _, _ = run_cli(
        ["merge", *(str(out_dir / f) for f in manifest["files"]),
         "-o", str(target)], capsys)
    assert code == 0
    assert target.read_bytes() == (out_dir / "merged.ndjson").read_bytes()


# Seeded runs whose validation must not change by a byte: (run argv,
# extra validate argv, exit code).  "{run}" is the run's directory.
_GOLDEN_CASES = {
    "twophase-e-counter": (
        ["twophase", "--rms", "4", "--seed", "5", "--record", "e",
         "--bug", "counter", "--force-resend", "--resend-logging", "silent"],
        ["--spec", "twophase:4"], 1),
    "tokenring-ea-self-message": (
        ["tokenring", "--n", "4", "--seed", "6", "--record", "ea",
         "--bug", "self-message"],
        ["--spec", "tokenring:4", "--compose", "{run}/manifest.json"], 1),
    "twophase-v-stutter": (
        ["twophase", "--rms", "3", "--seed", "7", "--record", "v",
         "--timeout", "0.5"],
        ["--spec", "twophase:3", "--allow-stutter"], 0),
}

# sha256 of (plain stdout, --json stdout, --dot stdout, DOT file).
_GOLDEN_DIGESTS = {
    # Re-recorded when twophase declared its RMs symmetric: the search
    # merges nodes whose states differ by a renaming of RMs no later
    # entry names, so it explores fewer nodes and lists fewer blocked
    # states.
    ("twophase-e-counter", "bfs"): (
        "4b88b02c005035682dfe9481408153bd8631937f8c4b93f7f3e7ea8272a89aae",
        "7e261efe17e45cbbbb6c10c809894da25ecabd5fbf167d306e50d6aebe58221d",
        "4b88b02c005035682dfe9481408153bd8631937f8c4b93f7f3e7ea8272a89aae",
        "877c31dfb128c4ff8a9f4a010f608cb9050849b6372feb7b5c85f20245b1a380",
    ),
    ("twophase-e-counter", "dfs"): (
        "b897b057c389be55724542cb3f50f2de50435b0a05578f60b7442f2cbf182013",
        "29337f0d2fac843195f7f7531ca29e7eb83124e0591c7df575465879a202a4c2",
        "b897b057c389be55724542cb3f50f2de50435b0a05578f60b7442f2cbf182013",
        "33b8793e7485fb26326ad2405a984b2463d77434e430236a0b477c71675d15c7",
    ),
    ("tokenring-ea-self-message", "bfs"): (
        "c5d7d24691bc84a2a3a0c863a96fcf2ec431faee9f63de8b90727c6783779908",
        "4fa698d61af17fadbfd791d042f25d532f188dfbaf9eba29baa8c8e9db87292b",
        "c5d7d24691bc84a2a3a0c863a96fcf2ec431faee9f63de8b90727c6783779908",
        "61d0e504080c0e6d3dc1150678a0e4fee1e5262107128e00eba55a008da11ab6",
    ),
    ("tokenring-ea-self-message", "dfs"): (
        "9dfbfbfc45697d7f89de96841aa1c7151952d35935410b84c150ddd3418fce86",
        "b5ae5cc2885d465766ca61719698797d2f00a2aed431f64bb061e856e48e43c2",
        "9dfbfbfc45697d7f89de96841aa1c7151952d35935410b84c150ddd3418fce86",
        "61d0e504080c0e6d3dc1150678a0e4fee1e5262107128e00eba55a008da11ab6",
    ),
    ("twophase-v-stutter", "bfs"): (
        "2c2fc5e3fd646e20e0caa98f5f6497da35ea4ccc6234201fad2d7c7b07db6865",
        "a5dff92525971ff2edd3ea540f8dd8b204ec0f322e3591efc8e077ebdb5433f0",
        "2c2fc5e3fd646e20e0caa98f5f6497da35ea4ccc6234201fad2d7c7b07db6865",
        "dcb4bb1d5ae46e83a13a9e5dde1f9c5130e6e3de6211c917b3998b6724237bfa",
    ),
    ("twophase-v-stutter", "dfs"): (
        "cf8b580c67a870874da06bd04ed2d6238335cd6b5f7b10e46e35b2ee983cd783",
        "aa1312ca5dd755de77be538860695123e0b7865048e76ab8f2737e8f2d5af446",
        "cf8b580c67a870874da06bd04ed2d6238335cd6b5f7b10e46e35b2ee983cd783",
        "62bc391c519b1ba7616f9a537af858d2bf7146692073e075bb56d26ddde71953",
    ),
}


def _validation_digests(tmp_path, case, search, capsys):
    """Exit code, and the sha256 of each of validate's outputs."""
    run_argv, validate_argv, _ = _GOLDEN_CASES[case]
    run_dir = tmp_path / "run"
    code, _, _ = run_cli(["run", *run_argv, "--work", "1,1",
                          "--out", str(run_dir)], capsys)
    assert code == 0
    base = ["validate", "--trace", str(run_dir / "merged.ndjson"),
            "--search", search,
            *(a.replace("{run}", str(run_dir)) for a in validate_argv)]
    dot = tmp_path / "graph.dot"
    codes, digests = set(), []
    for extra in ([], ["--json"], ["--dot", str(dot)]):
        code, out, err = run_cli(base + extra, capsys)
        assert err == ""
        codes.add(code)
        digests.append(hashlib.sha256(out.encode()).hexdigest())
    digests.append(hashlib.sha256(dot.read_bytes()).hexdigest())
    (code,) = codes
    return code, tuple(digests)


@pytest.mark.parametrize("search", ["bfs", "dfs"])
@pytest.mark.parametrize("case", list(_GOLDEN_CASES))
def test_validation_output_is_byte_for_byte_pinned(case, search, tmp_path,
                                                   capsys):
    """A change to the search may make it faster, not change what it
    prints or the graph it writes."""
    code, digests = _validation_digests(tmp_path, case, search, capsys)
    assert code == _GOLDEN_CASES[case][2]
    assert digests == _GOLDEN_DIGESTS[case, search]


# Seeded runs whose files must not change by a byte: one per recorded
# step of each simulator, logged resends and injected bugs included.
_RUN_CASES = {
    "twophase-resends-logged": "twophase --rms 3 --seed 7 --timeout 0.5",
    "twophase-counter": "twophase --rms 4 --seed 5 --bug counter "
                        "--force-resend --resend-logging silent",
    "twophase-abort-after": "twophase --rms 3 --seed 2 --abort-after 2",
    "tokenring-faithful": "tokenring --n 4 --seed 3",
    "tokenring-self-message": "tokenring --n 4 --seed 6 --bug self-message",
    "tokenring-eternal-token": "tokenring --n 4 --seed 6 --bug eternal-token",
}

# sha256 of each file a run writes.
_RUN_DIGESTS = {
    "twophase-resends-logged": {
        "manifest.json":
            "fc792885ad381cf915004f32c8c49d7ace8c4a79d8ef7389482427217863bafb",
        "merged.ndjson":
            "ad2e4c56be06eb65495fd9e993ffa481bf44e4a845ef53f2fc20959e6a2d0f38",
        "rm-0.ndjson":
            "cbbe377937fc17d253e467c3648ed90bb04951db36836657975a3cf5330fc102",
        "rm-1.ndjson":
            "a8f02cfb09d8f39922b93a6dc50a241d186ab3b0f261b04c16cced4139f7fe7a",
        "rm-2.ndjson":
            "fe22ecc788a05ddbebe114103a88780e86fbc08c4ef0e4fec7682bcc2760c994",
        "tm.ndjson":
            "0a8bd05fa8c02a9ffe842fb738392c198a83d9573efa8bfc04ae76b73f736a07",
    },
    "twophase-counter": {
        "manifest.json":
            "3496baa354723ac1c32594c4dfc37b12d8bc618eb1cf05fc1e707a3b73c89dce",
        "merged.ndjson":
            "79185f8609f41f49cba5be16f12128232fd1e4b7d811b6480d3d4a09017424d2",
        "rm-0.ndjson":
            "b09515a64a0b40fc9fdc7da42add3cafbcc83c4044a5d39a4fd02686a51801a3",
        "rm-1.ndjson":
            "dbc8f3c6823d7aa967a6bdc5281a0ccafec1fb263729f5dedcb0f86acc09fcf7",
        "rm-2.ndjson":
            "323ed8eed4faf0869a6308d0444b1a44534f5cab0e0ceb9142b2a8ba70ce7184",
        "rm-3.ndjson":
            "d1f56c6793f715e85384fce8cb44e27da55f10d125cbbcb8d3e3973a6c8497b5",
        "tm.ndjson":
            "714bd233eb7da8c9850e2e6218f85b250df153baf67acbaf86ae1a2fc31de480",
    },
    "twophase-abort-after": {
        "manifest.json":
            "7b3e91085d2841ee8a3b22835b0be2a3876fcce1f26db237074afc56da556614",
        "merged.ndjson":
            "729e5d048964a59d055a63a12b18100bdb6c437397363a13223a9bd6a86f8221",
        "rm-0.ndjson":
            "6a1d439ef7563b8d5465b98d1935a481f94e964fe6f5f47c33d5ec2b0d279ecb",
        "rm-1.ndjson":
            "54bce1ecaa51a16e2597af725e7505f3ea45be53a2718b8796fc7004bd352792",
        "rm-2.ndjson":
            "3b053c71cd80adfec4b6042495de5e32d3945e2935c59974b24b36493480d284",
        "tm.ndjson":
            "5c60e57036a412f3d1f257412c4b5d7de115534a8e6182c85c0cf00ac356353c",
    },
    "tokenring-faithful": {
        "manifest.json":
            "a163f35f6794459f3ad89f4894fddb7ca10a9a55731d69ba5b26effed71e0829",
        "merged.ndjson":
            "d630f3f63160257e57e2cd6b4feb4475dfdbbb6a191450d088fdcfc08659661a",
        "node-0.ndjson":
            "f929928968bc768af32ead9075d80432aa1bf7495ead1a17d76db82c22e4234c",
        "node-1.ndjson":
            "f6ba012ddfc22c63f670870b0114e309f3b4c4bfe5921cd6e461b48117a6de56",
        "node-2.ndjson":
            "b0c3ed63b2fa5deb54a544e71721c8100637e8d8a50c416baf79bb1d392540ad",
        "node-3.ndjson":
            "7f72a74de61dce4bd2cf45f99a33315752c5875076115478d788dcf7e0393654",
    },
    "tokenring-self-message": {
        "manifest.json":
            "49b97be8d29b2e49a00d84601798591797bb1bfa7770a6b54327beeef3580764",
        "merged.ndjson":
            "df76471c8ccdce852bb6f0ba28ed20914d3af2b3b93a43a8028b172263393140",
        "node-0.ndjson":
            "bdeca9f41abd7dd1ca935fb89c7adbf0b409b9b12b340b644f2e994dae1f6917",
        "node-1.ndjson":
            "624c903546126964c468e3ec7611227e1d1d787cffb15c1bf59cdea056eca15f",
        "node-2.ndjson":
            "5600c6b4e29a2906cedbb98f7d553fecbe7b6dbfaf94c3b305993ace03012d4f",
        "node-3.ndjson":
            "3e5df12d41f8a380c44f94b04a3f2b3579559b6b80be2c07bd1233c9aa09767d",
    },
    "tokenring-eternal-token": {
        "manifest.json":
            "7ddb4f8a384122f002c00a019ea713de6681e98c71cda1a2235fa78f2d91794f",
        "merged.ndjson":
            "d452db3360aed9a50430302c557c9174ac2527da3ca7f1b7945203f960af6a5b",
        "node-0.ndjson":
            "b1f532384f2e446bbc48548c0f88b40c09465893a028357eb240e11c3eb52aa9",
        "node-1.ndjson":
            "bfe84022166057c7bce52bc3c40b6f05711dff53d8d92893aa3c37bed5360580",
        "node-2.ndjson":
            "bcbe526b77e3abae7a3934df07f4651ac1cfc38b53b58a2d5bc790bc4d33ffdc",
        "node-3.ndjson":
            "bd70d8b5ccea7552eacbc28b6c97692f59bb484da854a5b0915a1fc2e41641fd",
    },
}


@pytest.mark.parametrize("case", list(_RUN_CASES))
def test_run_files_are_byte_for_byte_pinned(case, tmp_path, capsys):
    """A change to a simulator or the tracer may not change what a
    seeded run records."""
    out_dir = tmp_path / "run"
    code, _, _ = run_cli(["run", *_RUN_CASES[case].split(),
                          "--out", str(out_dir)], capsys)
    assert code == 0
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir())} == _RUN_DIGESTS[case]


@pytest.mark.parametrize("command", ["run", "merge", "validate"])
def test_unwritable_output_path_exits_three(command, happy_run, tmp_path,
                                            capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    target = str(blocker / "out")
    argv = {
        "run": ["run", "twophase", "--out", target],
        "merge": ["merge", str(happy_run / "tm.ndjson"), "-o", target],
        "validate": ["validate", "--spec", "twophase:2", "--allow-stutter",
                     "--trace", str(happy_run / "merged.ndjson"),
                     "--dot", target],
    }[command]
    code, out, err = run_cli(argv, capsys)
    assert code == 3
    assert err.startswith("error: ") and err.count("\n") == 1
    assert target in err


def test_schema_check_clean_and_dirty(happy_run, tmp_path, capsys):
    code, out, _ = run_cli(
        ["schema-check", str(happy_run / "merged.ndjson")], capsys)
    assert code == 0
    assert out.startswith("ok:")

    dirty = tmp_path / "dirty.ndjson"
    dirty.write_text('{"clock":0}\n'
                     'not json\n'
                     '{"clock":-1}\n'
                     '{"event":"NoClock"}\n')
    code, out, _ = run_cli(["schema-check", str(dirty)], capsys)
    assert code == 1
    assert "line 2" in out
    assert "3 of 4" in out


def test_schema_check_truncates_long_problem_lists(tmp_path, capsys):
    many = tmp_path / "many.ndjson"
    many.write_text("\n".join('{"clock":-1}' for _ in range(30)) + "\n")
    code, out, _ = run_cli(["schema-check", str(many)], capsys)
    assert code == 1
    assert "and 10 more problem(s)" in out


def test_schema_check_lists_entries_validate_rejects(tmp_path, capsys):
    # Each line passes the wire schema but holds an update that the
    # trace reader cannot decode, so validate exits 3 on it.
    bad = tmp_path / "bad.ndjson"
    bad.write_text('{"clock":0,"x":[{"op":"Update","path":[],"args":[1.5]}]}\n'
                   '{"clock":1,"x":[{"op":"Update","path":[7],"args":[1]}]}\n'
                   '{"clock":2,"event":"TMAbort"}\n'
                   '{"clock":3\n')
    code, out, _ = run_cli(["schema-check", str(bad)], capsys)
    assert code == 1
    assert "line 1: bad arg for 'x': non-integral number" in out
    assert "line 2: path segment for 'x' must be a string" in out
    assert "line 3" not in out
    assert "line 4: malformed JSON" in out
    assert "3 of 4 entries" in out
    code, _, err = run_cli(
        ["validate", "--spec", "twophase:2", "--trace", str(bad)], capsys)
    assert code == 3
    assert "line 1: bad arg for 'x'" in err


def test_schema_check_lists_a_repeated_refused_line_at_every_line(
        tmp_path, capsys):
    line = '{"clock":%d,"x":[{"op":"Update","path":[],"args":[1],"extra":2}]}'
    bad = tmp_path / "bad.ndjson"
    bad.write_text(line % 1 + "\n" + '{"clock":2}\n'
                   + "".join(line % n + "\n" for n in (3, 3, 4)))
    code, out, _ = run_cli(["schema-check", str(bad)], capsys)
    assert code == 1
    assert out == "".join(f"line {n}: update for 'x' has unknown key "
                          "'extra'\n" for n in (1, 3, 4, 5)) \
        + "4 of 5 entries do not fit the format\n"


def test_schema_check_names_each_arg_the_value_lift_refuses(tmp_path,
                                                            capsys):
    args = ("null", "1.5", str(2**63), str(-2**63 - 1), "[[null]]",
            '{"a":1.5}')
    bad = tmp_path / "bad.ndjson"
    bad.write_text("".join(
        '{"clock":%d,"x":[{"op":"Update","path":[],"args":[%s]}]}\n'
        % (n, arg) for n, arg in enumerate(args, start=1)))
    code, out, _ = run_cli(["schema-check", str(bad)], capsys)
    assert code == 1
    assert out == (
        "line 1: bad arg for 'x': null is not a supported value\n"
        "line 2: bad arg for 'x': non-integral number not supported: 1.5\n"
        "line 3: bad arg for 'x': integer out of 64-bit signed range: "
        "9223372036854775808\n"
        "line 4: bad arg for 'x': integer out of 64-bit signed range: "
        "-9223372036854775809\n"
        "line 5: bad arg for 'x': null is not a supported value\n"
        "line 6: bad arg for 'x': non-integral number not supported: 1.5\n"
        "6 of 6 entries do not fit the format\n")


def test_event_args_without_an_event_are_refused(tmp_path, capsys):
    bad = tmp_path / "bad.ndjson"
    bad.write_text(
        '{"clock":1,"tmState":[{"op":"Update","path":[],"args":["done"]}],'
        '"msgs":[{"op":"Add","path":[],"args":[{"type":"Abort"}]}],'
        '"event_args":["rm-7"]}\n')
    code, out, _ = run_cli(["schema-check", str(bad)], capsys)
    assert code == 1
    assert out == ("line 1: 'event_args' needs an 'event'\n"
                   "1 of 1 entries do not fit the format\n")
    code, _, err = run_cli(["validate", "--spec", "twophase:2",
                            "--allow-stutter", "--trace", str(bad)], capsys)
    assert code == 3
    assert "line 1: 'event_args' needs an 'event'" in err


def test_validate_input_errors_name_the_line(tmp_path, capsys):
    trace = tmp_path / "t.ndjson"
    trace.write_text('{"clock":0,"event":"TMAbort"}\n'
                     '\n'
                     '{"clock":1,"x":[{"op":"Update","path":[],"args":[1.5]}]}\n')
    code, _, err = run_cli(
        ["validate", "--spec", "twophase:2", "--trace", str(trace)], capsys)
    assert code == 3
    assert err == (f"error: {trace}: line 3: bad arg for 'x': "
                   "non-integral number not supported: 1.5\n")


def _deep_entry(depth: int) -> str:
    value = "[" * depth + "1" + "]" * depth
    return ('{"clock": 1, "msgs": [{"op": "Update", "path": [], '
            '"args": [%s]}], "event": "TMAbort"}\n' % value)


def test_deeply_nested_values_exit_three_without_traceback(tmp_path,
                                                           capsys):
    # 3 000 levels overflow the JSON parser; 600 pass it but overflow
    # the value decoder.  Both are the same fault, with one message.
    deep = tmp_path / "deep.ndjson"
    for depth in (600, 3000):
        deep.write_text(_deep_entry(depth))
        for argv in (["validate", "--spec", "twophase:2", "--trace",
                      str(deep)],
                     ["schema-check", str(deep)]):
            code, _, err = run_cli(argv, capsys)
            assert code == 3, (depth, argv)
            assert err == f"error: {deep}: line 1: value nested too deeply\n"


def test_clock_beyond_64_bits_is_rejected(tmp_path, capsys):
    big = tmp_path / "big.ndjson"
    big.write_text('{"clock": %d, "event": "TMAbort"}\n' % 2**70)
    code, _, err = run_cli(
        ["validate", "--spec", "twophase:2", "--trace", str(big)], capsys)
    assert code == 3
    assert "clock" in err
    code, out, _ = run_cli(["schema-check", str(big)], capsys)
    assert code == 1
    assert "line 1: 'clock' must be at most 2^63-1" in out


def test_console_script_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "tracecheck.cli", "run", "twophase",
         "--rms", "2", "--seed", "1", "--out", str(tmp_path / "r"),
         "--and-validate"],
        capture_output=True, text=True)
    assert result.returncode == 0
    assert "accepted" in result.stdout


def test_closed_stdout_pipe_exits_three_with_one_error_line(tmp_path):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "tracecheck.cli", "run", "twophase",
             "--rms", "4", "--seed", "7", "--out", str(tmp_path / "d"),
             "--and-validate"],
            stdout=write_end, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write_end)
    assert result.returncode == 3
    assert result.stderr == ("error: standard output was closed before "
                             "all of it was written\n")


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_decreasing_clock_is_refused_by_every_reader(tmp_path, capsys):
    trace = _write(tmp_path, "back.ndjson",
                   '{"clock":5,"event":"TMAbort"}\n{"clock":2}\n')
    message = "line 2: 'clock' 2 is lower than the previous entry's 5"
    code, _, err = run_cli(
        ["validate", "--spec", "twophase:2", "--trace", trace], capsys)
    assert code == 3
    assert message in err
    code, out, err = run_cli(["merge", trace], capsys)
    assert code == 3
    assert out == "" and message in err
    code, out, _ = run_cli(["schema-check", trace], capsys)
    assert code == 1
    assert message in out
    assert "1 of 2 entries" in out


@pytest.mark.parametrize("line, message", [
    ('{"clock":0,"event":"TMAbort","event":"RMPrepare",'
     '"event_args":["rm-0"]}', "duplicate key 'event'"),
    ('{"clock":0,"x":[{"op":"Update","path":[],"args":[%s]}],'
     '"event":"TMAbort"}' % ("1" * 5000), "number has too many digits"),
    ('{"clock":0,"event":"\\ud800"}', "string holds a lone surrogate"),
], ids=["duplicate-key", "long-number", "lone-surrogate"])
def test_unreadable_entries_exit_three_without_traceback(tmp_path, capsys,
                                                         line, message):
    trace = _write(tmp_path, "t.ndjson", line + "\n")
    code, _, err = run_cli(
        ["validate", "--spec", "twophase:2", "--trace", trace], capsys)
    assert code == 3
    assert err == f"error: {trace}: line 1: {message}\n"
    code, out, _ = run_cli(["schema-check", trace], capsys)
    assert code == 1
    assert f"line 1: {message}" in out
