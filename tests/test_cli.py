"""CLI commands, exit codes, and report files."""

import contextlib
import hashlib
import io
import json
import os
import random
import re
import subprocess
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trolldetect import (
    MassFunction,
    Message,
    MessageFrame,
    Thread,
    generate,
    thread_from_dict,
    thread_to_dict,
    thread_to_json,
    __version__,
)
from trolldetect.cli import main
from trolldetect.errors import BeliefError
from trolldetect.simulate import BUILTIN_SCENARIOS, example1, spec_from_dict

from helpers import (
    CLI_NAMES,
    json_documents,
    random_mass,
    run_interpreter,
    run_python,
    spec_documents,
    spec_to_dict,
)


@pytest.fixture
def runner():
    return CliRunner()


def write_degenerate_thread(path):
    """All users post the identical bba: per-user scores have no spread."""
    mf = MessageFrame(topic_count=2, relevant_topic=1)
    bba = MassFunction(mf.frame, {mf.relevant_set(): 0.9, mf.frame.full_set: 0.1})
    thread = Thread(
        frame=mf,
        users=("U1", "U2"),
        messages=(
            Message(author="U1", rank=1, bba=bba),
            Message(author="U2", rank=2, bba=bba),
        ),
    )
    path.write_text(json.dumps(thread_to_dict(thread)))


class TestSimulate:
    def test_builtin_scenario(self, runner, tmp_path):
        out = tmp_path / "thread.json"
        result = runner.invoke(
            main, ["simulate", "--scenario", "example1", "--seed", "42", "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
        data = json.loads(out.read_text())
        assert len(data["messages"]) == 16
        assert data["meta"]["seed"] == 42
        assert "generator" in data["meta"]

    def test_example2_message_count(self, runner, tmp_path):
        out = tmp_path / "thread.json"
        result = runner.invoke(
            main, ["simulate", "--scenario", "example2", "--out", str(out)]
        )
        assert result.exit_code == 0
        assert len(json.loads(out.read_text())["messages"]) == 31

    # The whole file, meta included, so the digests also pin the package
    # version (0.1.0) and GENERATOR_ID.
    @pytest.mark.parametrize(
        "scenario, digest",
        [
            ("example1", "653d5a5540bc0769aac0413600bc35f0b52e22c90c351862ca0ef911f881bbbe"),
            ("example2", "5fd4947e311e43de5bb956e45ccfa055415ab213e7453f1b66c14581048ff59d"),
        ],
    )
    def test_scenario_file_bytes_are_pinned(self, runner, tmp_path, scenario, digest):
        out = tmp_path / "thread.json"
        result = runner.invoke(main, ["simulate", "--scenario", scenario, "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_spec_file(self, runner, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec_to_dict(example1())))
        out = tmp_path / "thread.json"
        result = runner.invoke(
            main, ["simulate", "--spec", str(spec_path), "--out", str(out)]
        )
        assert result.exit_code == 0
        assert out.exists()

    def test_missing_spec_file_is_io_error(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["simulate", "--spec", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o.json")],
        )
        assert result.exit_code == 1

    def test_invalid_spec_is_validation_error(self, runner, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"topic_count": 2}))
        result = runner.invoke(
            main, ["simulate", "--spec", str(spec_path), "--out", str(tmp_path / "o.json")]
        )
        assert result.exit_code == 2

    def test_non_string_user_id_exits_2_without_output(self, runner, tmp_path):
        spec = spec_to_dict(example1())
        spec["users"][0]["id"] = 1
        for entry in spec["script"]:
            if entry["author"] == "U1":
                entry["author"] = 1
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "o.json"
        result = runner.invoke(main, ["simulate", "--spec", str(spec_path), "--out", str(out)])
        assert result.exit_code == 2
        assert "user ids must be strings" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("rank", [1.5, True], ids=["float-rank", "bool-rank"])
    def test_non_integer_pin_rank_exits_2_without_output(self, runner, tmp_path, rank):
        spec = spec_to_dict(example1())
        spec["pins"][0]["rank"] = rank
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "o.json"
        result = runner.invoke(main, ["simulate", "--spec", str(spec_path), "--out", str(out)])
        assert result.exit_code == 2
        assert "pinned rank must be an integer" in result.output
        assert not out.exists()

    @pytest.mark.parametrize(
        "spec, text",
        [
            (
                {
                    "topic_count": True,
                    "relevant_topic": 1,
                    "users": [{"id": "A", "role": "expert"}, {"id": "B", "role": "troll"}],
                    "script": [
                        {"author": "A", "category": "relevant"},
                        {"author": "B", "category": "off_topic"},
                    ],
                },
                "topic_count must be an integer",
            ),
            (
                spec_to_dict(example1())
                | {"pins": [{"rank": 1, "mass": 0.9}, {"rank": 1, "mass": 0.8}]},
                "pinned rank 1 appears more than once",
            ),
        ],
        ids=["bool-topic-count", "duplicate-pin-rank"],
    )
    def test_invalid_spec_exits_2_without_output(self, runner, tmp_path, spec, text):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "o.json"
        result = runner.invoke(main, ["simulate", "--spec", str(spec_path), "--out", str(out)])
        assert result.exit_code == 2
        assert text in result.output
        assert not out.exists()

    @pytest.mark.parametrize(
        "change, text",
        [
            ({"concentration": 0.7}, "concentration must be a (lo, hi) pair"),
            ({"pins": [1, 2]}, "pins entry 0 must be an object"),
            ({"users": [{"id": "U1"}]}, "users entry 0 missing key 'role'"),
        ],
        ids=["concentration-not-a-pair", "pin-not-an-object", "user-without-role"],
    )
    def test_malformed_spec_exits_2_with_its_own_text(self, runner, tmp_path, change, text):
        spec_path, out = tmp_path / "spec.json", tmp_path / "o.json"
        spec_path.write_text(json.dumps(spec_to_dict(example1()) | change))
        result = runner.invoke(main, ["simulate", "--spec", str(spec_path), "--out", str(out)])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert result.output == f"error: {spec_path} is not a valid scenario: {text}\n"
        assert not out.exists()

    def test_invalid_spec_error_names_the_file(self, runner, tmp_path):
        spec = spec_to_dict(example1())
        spec["users"][1]["id"] = "U1"
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        result = runner.invoke(
            main, ["simulate", "--spec", str(spec_path), "--out", str(tmp_path / "o.json")]
        )
        assert result.exit_code == 2
        assert result.output == (
            f"error: {spec_path} is not a valid scenario: duplicate user ids in roster\n"
        )

    def test_scenario_and_spec_together_rejected(self, runner, tmp_path):
        result = runner.invoke(
            main,
            [
                "simulate",
                "--scenario",
                "example1",
                "--spec",
                "x.json",
                "--out",
                str(tmp_path / "o.json"),
            ],
        )
        assert result.exit_code == 2

    def test_unwritable_out_is_io_error(self, runner, tmp_path):
        result = runner.invoke(
            main,
            [
                "simulate",
                "--scenario",
                "example1",
                "--out",
                str(tmp_path / "no" / "such" / "dir" / "o.json"),
            ],
        )
        assert result.exit_code == 1


ID_ERROR = (
    "user id {!r} is empty or holds a space or a character that does not print,"
    " so no table line could show it as one id"
)
LONE_SURROGATE_ERROR = ID_ERROR.format("\ud800")


class TestLoneSurrogateIds:
    """A user id holding a lone surrogate is valid JSON, but no command can
    print it: each one refuses the file before it prints anything."""

    @pytest.mark.parametrize(
        "command",
        [["detect"], ["conflict", "--a", "2", "--b", "1"]],  # message 2 is U1's
        ids=["detect", "conflict"],
    )
    def test_thread_exits_2_without_output(self, runner, tmp_path, command):
        document = thread_to_dict(generate(example1()))
        document["users"][0] = "\ud800"  # U1
        for message in document["messages"]:
            if message["author"] == "U1":
                message["author"] = "\ud800"
        path = tmp_path / "thread.json"
        path.write_text(json.dumps(document))
        result = runner.invoke(main, [command[0], "--thread", str(path), *command[1:]])
        assert result.exit_code == 2
        assert result.output == f"error: {path} is not a valid thread: {LONE_SURROGATE_ERROR}\n"

    def test_spec_exits_2_without_output(self, runner, tmp_path):
        spec = spec_to_dict(example1())
        spec["users"][0]["id"] = "\ud800"  # U1
        for entry in spec["script"]:
            if entry["author"] == "U1":
                entry["author"] = "\ud800"
        spec_path, out = tmp_path / "spec.json", tmp_path / "o.json"
        spec_path.write_text(json.dumps(spec))
        result = runner.invoke(main, ["simulate", "--spec", str(spec_path), "--out", str(out)])
        assert result.exit_code == 2
        assert result.output == (
            f"error: {spec_path} is not a valid scenario: {LONE_SURROGATE_ERROR}\n"
        )
        assert not out.exists()


# Ids no table line could show as one token: each forges a line, hides a
# name or passes for another user.
UNPRINTABLE_IDS = {
    "newline": "U4\ntrolls (center 0.000000000000): U1",  # a forged table line
    "escape": "U4\x1b[2K",  # an ANSI erase
    "rlo": "U4\u202e1U :)000000000000.0 retnec( sllort",  # a line shown reversed
    "isolate": "U4\u2067\u05d0\u2069",  # a right-to-left isolate
    "empty": "",  # a trolls line that names no one
    "space": "U1 U2",  # one user printed as two
    "no-break-space": "U1\u00a0U2",  # the same, with U+00A0
    "zero-width-space": "U3\u200b",  # prints as the expert U3
    "zero-width-joiner": "U3\u200d",
}


@pytest.mark.parametrize("uid", UNPRINTABLE_IDS.values(), ids=UNPRINTABLE_IDS)
def test_unprintable_ids_exit_2_with_one_error_line(runner, tmp_path, uid):
    spec = spec_to_dict(example1())
    document = thread_to_dict(generate(example1()))
    for entry in spec["users"]:
        entry["id"] = uid if entry["id"] == "U4" else entry["id"]
    for entry in spec["script"] + document["messages"]:
        entry["author"] = uid if entry["author"] == "U4" else entry["author"]
    document["users"] = [uid if u == "U4" else u for u in document["users"]]
    thread_path, spec_path, out = tmp_path / "t.json", tmp_path / "s.json", tmp_path / "o.json"
    thread_path.write_text(json.dumps(document))
    spec_path.write_text(json.dumps(spec))
    for args, kind in (
        (["detect", "--thread", str(thread_path)], "thread"),
        (["conflict", "--thread", str(thread_path), "--a", "2", "--b", "1"], "thread"),
        (["simulate", "--spec", str(spec_path), "--out", str(out)], "scenario"),
    ):
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == f"error: {args[2]} is not a valid {kind}: {ID_ERROR.format(uid)}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["s.json", "t.json"]


# Each thread command, its arguments after the file, and its exit codes on a
# valid thread: detect scores (0) or finds the scores too uniform to split
# (3); conflict needs messages 1 and 2.
THREAD_COMMANDS = {
    "detect": ([], {0, 3}),
    "conflict": (["--a", "1", "--b", "2"], {0}),
}


@pytest.mark.parametrize("command", THREAD_COMMANDS)
@settings(max_examples=40, deadline=None)
@given(json_documents)
def test_any_json_document_exits_2_unless_it_is_a_thread(command, doc):
    args, valid = THREAD_COMMANDS[command]
    try:
        thread = thread_from_dict(doc)
        if command == "conflict":
            thread.message(1), thread.message(2)  # RankOutOfBounds on a short thread
        expected = valid
    except BeliefError:
        expected = {2}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "thread.json"
        path.write_text(json.dumps(doc))
        result = CliRunner().invoke(main, [command, "--thread", str(path), *args])
    assert result.exit_code in expected, result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)


@settings(max_examples=40, deadline=None)
@given(spec_documents)
def test_any_json_document_exits_2_unless_it_is_a_spec(doc):
    try:
        generate(spec_from_dict(doc))
        expected = 0
    except BeliefError:
        expected = 2
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "spec.json", Path(tmp) / "thread.json"
        path.write_text(json.dumps(doc))
        result = CliRunner().invoke(main, ["simulate", "--spec", str(path), "--out", str(out)])
        assert out.exists() == (expected == 0)
    assert result.exit_code == expected, result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["U1", "U2", "U3", "U4"]), st.text())
@example(1, "U4", "")
@example(1, "U4", "U1 U2")
@example(1, "U4", "U1\u00a0U2")
@example(1, "U4", "U3\u200b")
def test_an_accepted_id_prints_as_one_token(seed, renamed, uid):
    """Whatever a user is renamed to, either both thread commands refuse the
    file with one error line, or every table row splits into its id and
    score and the trolls and others lines into the report's lists."""
    document = thread_to_dict(generate(replace(example1(), seed=seed)))
    document["users"] = [uid if u == renamed else u for u in document["users"]]
    for message in document["messages"]:
        message["author"] = uid if message["author"] == renamed else message["author"]
    with tempfile.TemporaryDirectory() as tmp:
        path, report_path = Path(tmp) / "t.json", Path(tmp) / "r.json"
        path.write_text(json.dumps(document))
        detect = CliRunner().invoke(main, ["detect", "--thread", str(path), "--json", str(report_path)])
        pair = CliRunner().invoke(main, ["conflict", "--thread", str(path), "--a", "1", "--b", "2"])
        if detect.exit_code == 2:
            for result in (detect, pair):
                assert result.exit_code == 2
                assert result.stdout == ""
                assert len(result.stderr.splitlines()) == 1
            return
        assert (detect.exit_code, pair.exit_code) == (0, 0), detect.output
        report = json.loads(report_path.read_text())["report"]
    _, *rows, trolls, others = detect.stdout.splitlines()
    assert [row.split() for row in rows] == [
        [user, f"{score:.12f}"] for user, score in report["per_user"].items()
    ]
    assert trolls.split("): ", 1)[1].split() == report["trolls"]
    assert others.split("): ", 1)[1].split() == report["others"]


@pytest.mark.parametrize(
    "command",
    [["simulate", "--scenario", "example1", "--out", "{out}"],
     ["detect", "--thread", "{thread}", "--json", "{out}"]],
    ids=["simulate", "detect"],
)
def test_unwritable_output_names_only_the_given_path(runner, example1_file, tmp_path, command):
    # The write goes through a temp file beside the target; the error names
    # the path the user gave and the reason, not that temp file.  It is the
    # whole output: detect prints no table (no "user conflict:" line) before
    # a failed report write, which would read as a success.
    out = tmp_path / "no" / "such" / "dir" / "o.json"
    result = runner.invoke(main, [a.format(out=out, thread=example1_file) for a in command])
    assert result.exit_code == 1
    assert result.output.splitlines() == [f"error: cannot write {out}: No such file or directory"]


@pytest.mark.parametrize(
    "command",
    [["detect", "--thread", "{file}"],
     ["conflict", "--thread", "{file}", "--a", "1", "--b", "2"],
     ["simulate", "--spec", "{file}", "--out", "{out}"]],
    ids=["detect", "conflict", "simulate-spec"],
)
def test_unreadable_path_names_the_path_once(runner, tmp_path, command):
    out = tmp_path / "o.json"
    result = runner.invoke(main, [a.format(file=tmp_path, out=out) for a in command])
    assert result.exit_code == 1
    assert (result.stdout, result.stderr) == ("", f"error: cannot read {tmp_path}: Is a directory\n")
    assert not out.exists()


UNREADABLE_FILES = {
    "not-utf8": b'{"topic_count": "\xff\xfe"}',
    "deeply-nested": b"[" * 200_000 + b"]" * 200_000,
}


@pytest.mark.parametrize("content", UNREADABLE_FILES.values(), ids=UNREADABLE_FILES)
@pytest.mark.parametrize(
    "command",
    [
        ["detect", "--thread", "{file}"],
        ["conflict", "--thread", "{file}", "--a", "1", "--b", "2"],
        ["simulate", "--spec", "{file}", "--out", "{out}"],
    ],
    ids=["detect", "conflict", "simulate-spec"],
)
def test_unreadable_file_exits_2_without_traceback(runner, tmp_path, command, content):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    out = tmp_path / "o.json"
    args = [a.format(file=bad, out=out) for a in command]
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert "is not valid JSON" in result.output
    assert not out.exists()


def test_simulate_and_conflict_leave_numpy_unloaded(tmp_path):
    # numpy is imported only when a thread is scored; commands that score
    # nothing must not pay for loading it
    script = """
import sys
from click.testing import CliRunner
from trolldetect.cli import main

out = sys.argv[1]
runner = CliRunner()
for args in (["simulate", "--scenario", "example1", "--out", out],
             ["conflict", "--thread", out, "--a", "1", "--b", "2"]):
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
assert "numpy" not in sys.modules, "numpy was loaded"
"""
    result = run_python(script, str(tmp_path / "thread.json"))
    assert result.returncode == 0, result.stderr


def test_scoring_leaves_numpy_ma_unloaded():
    # The kernel loads numpy, but nothing it calls needs numpy.ma (np.unique
    # would import it), which would add to every scoring command's start-up
    # time and memory.
    script = """
import sys
from trolldetect import analyze
from trolldetect.simulate import example1, generate

analyze(generate(example1()))
assert "numpy" in sys.modules, "the thread was not scored"
assert "numpy.ma" not in sys.modules, "numpy.ma was loaded"
"""
    result = run_python(script)
    assert result.returncode == 0, result.stderr


@pytest.fixture
def example1_file(tmp_path):
    path = tmp_path / "example1.json"
    path.write_text(thread_to_json(generate(example1())))
    return path


# ``trolldetect detect --thread ARGV[1]`` through the console entry.  ``run``
# leaves by ``os._exit``, so nothing after it runs; an exit handler, which
# ``run`` calls first, reports what the command left behind.
CONSOLE_DETECT = """
import atexit, os, sys
import trolldetect.cli
print("import:", os.environ.get("OPENBLAS_NUM_THREADS"), "numpy" in sys.modules, file=sys.stderr)


def report():
    threads = None
    if os.path.exists("/proc/self/status"):
        with open("/proc/self/status") as fh:
            threads = next(line for line in fh if line.startswith("Threads:")).split()[1]
    print("exit:", os.environ.get("OPENBLAS_NUM_THREADS"), "numpy" in sys.modules, threads, file=sys.stderr)


atexit.register(report)
sys.argv = ["trolldetect", "detect", "--thread", sys.argv[1]]
trolldetect.cli.run()
"""


def test_cli_runs_openblas_on_one_thread(monkeypatch, example1_file):
    # The default must come before numpy's first import: OpenBLAS starts its
    # worker threads when it loads, so a late default leaves them running.
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    result = run_python(CONSOLE_DETECT, str(example1_file))
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("user conflict:\n")
    threads = "1" if os.path.exists("/proc/self/status") else "None"
    # Unset and numpy unloaded at import; "1" with one thread once scored.
    assert result.stderr.splitlines() == ["import: None False", f"exit: 1 True {threads}"]


def test_cli_keeps_a_preset_openblas_thread_count(monkeypatch, example1_file):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    result = run_python(CONSOLE_DETECT, str(example1_file))
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("user conflict:\n")
    at_import, at_exit = result.stderr.splitlines()
    assert at_import == "import: 2 False"
    assert at_exit.split()[:3] == ["exit:", "2", "True"], at_exit


@pytest.mark.parametrize(
    "call",
    [
        "trolldetect.analyze(trolldetect.generate(trolldetect.example1()))",
        'from trolldetect.cli import main\n'
        'main(["detect", "--thread", sys.argv[1]], standalone_mode=False)',
    ],
    ids=["library", "click-group"],
)
def test_library_leaves_the_environment_alone(monkeypatch, example1_file, call):
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    script = f"""
import os, sys
before = dict(os.environ)
import trolldetect
{call}
assert "numpy" in sys.modules, "the thread was not scored"
assert dict(os.environ) == before, set(os.environ.items()) ^ set(before.items())
"""
    result = run_python(script, str(example1_file))
    assert result.returncode == 0, result.stderr


# What each command loads, run in a fresh interpreter; the last stdout
# line lists sys.modules after the command.
COMMAND_MODULES = """
import json, sys
from trolldetect.cli import main
try:
    main(sys.argv[1:], prog_name="trolldetect")
except SystemExit as exc:
    assert not exc.code, exc.code
print(json.dumps(sorted(sys.modules)))
"""
SCORING = {"trolldetect.pipeline", "trolldetect.clustering", "numpy"}


@pytest.mark.parametrize(
    "args, unloaded",
    [
        (["--version"], SCORING | {"trolldetect.thread", "trolldetect.simulate", "click"}),
        (["--help"], SCORING | {"trolldetect.thread", "trolldetect.simulate", "click"}),
        (["conflict", "--thread", "{file}", "--a", "5", "--b", "1"], SCORING | {"trolldetect.simulate", "click"}),
        (["simulate", "--scenario", "example1", "--out", "{out}"], SCORING - {"numpy"} | {"click"}),
        (["detect", "--thread", "{file}"], {"trolldetect.simulate", "click"}),
    ],
    ids=["version", "help", "conflict", "simulate", "detect"],
)
def test_each_command_imports_only_what_it_runs(example1_file, tmp_path, args, unloaded):
    args = [a.format(file=example1_file, out=tmp_path / "out.json") for a in args]
    result = run_python(COMMAND_MODULES, *args)
    assert result.returncode == 0, result.stderr
    loaded = set(json.loads(result.stdout.splitlines()[-1]))
    assert not loaded & unloaded, sorted(loaded & unloaded)


def test_scenario_choices_are_the_builtin_scenarios(runner, tmp_path):
    listed = re.search(r"--scenario \{([^}]*)\}", runner.invoke(main, ["simulate", "--help"]).stdout)
    assert listed.group(1).split(",") == sorted(BUILTIN_SCENARIOS)
    result = runner.invoke(
        main, ["simulate", "--scenario", "nope", "--out", str(tmp_path / "o.json")]
    )
    assert result.exit_code == 2
    assert "--scenario: invalid choice: 'nope'" in result.stderr
    assert not (tmp_path / "o.json").exists()


# Usage errors, each refused by the parser before any command runs: the
# arguments and a piece of the refusal.  argparse's wording differs between
# Python versions, so only the stable parts are matched.
USAGE_ERRORS = {
    "missing-thread": (["detect"], "required: --thread"),
    "missing-out": (["simulate", "--scenario", "example1"], "required: --out"),
    "missing-a": (["conflict", "--thread", "{file}", "--b", "1"], "required: --a"),
    "a-not-an-int": (["conflict", "--thread", "{file}", "--a", "x", "--b", "1"], "invalid int value: 'x'"),
    "seed-not-an-int": (["simulate", "--scenario", "example1", "--seed", "x", "--out", "{out}"],
                        "invalid int value: 'x'"),
    "unknown-option": (["detect", "--thread", "{file}", "--bogus"], "unrecognized arguments: --bogus"),
    "abbreviation": (["detect", "--th", "{file}"], "required: --thread"),
    "unknown-scenario": (["simulate", "--scenario", "nope", "--out", "{out}"], "invalid choice: 'nope'"),
    "unknown-command": (["nope"], "invalid choice: 'nope'"),
    "no-command": ([], "required: command"),
}


@pytest.mark.parametrize("args, text", USAGE_ERRORS.values(), ids=USAGE_ERRORS)
def test_usage_error_exits_2_with_a_usage_line(example1_file, tmp_path, args, text):
    before = sorted(tmp_path.iterdir())
    args = [a.format(file=example1_file, out=tmp_path / "out.json") for a in args]
    proc = run_interpreter(["-m", "trolldetect", *args], capture_output=True, text=True, cwd=tmp_path)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("usage: trolldetect"), proc.stderr
    assert text in proc.stderr and "Traceback" not in proc.stderr, proc.stderr
    assert sorted(tmp_path.iterdir()) == before


def test_in_process_calling_convention():
    # bench/run.py's traced mode calls ``main.main`` with these keywords;
    # click.testing.CliRunner reads ``main.name`` for the program name.
    assert main.name == "trolldetect"
    with pytest.raises(SystemExit) as exc:
        main.main(args=["detect"], prog_name="trolldetect", standalone_mode=False)
    assert exc.value.code == 2


def test_in_process_run_returns_0_with_the_console_output(tmp_path):
    thread = str(tmp_path / "thread.json")
    for args in (
        ["simulate", "--scenario", "example1", "--out", thread],
        ["detect", "--thread", thread],
        ["conflict", "--thread", thread, "--a", "5", "--b", "1"],
    ):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main.main(args=args, prog_name="trolldetect", standalone_mode=False)
        proc = run_interpreter(["-m", "trolldetect", *args], capture_output=True, text=True)
        assert (code, out.getvalue()) == (0, proc.stdout)
        assert (proc.returncode, proc.stderr) == (0, "")


def test_commands_call_the_names_bound_on_the_cli_module(monkeypatch, runner, tmp_path):
    # bench/tracing.py times the commands by rebinding these names on the
    # cli module, so each command must look them up there when it runs.
    import trolldetect.cli as cli

    called = set()

    def spy(name, fn):
        def wrapper(*args, **kwargs):
            called.add(name)
            return fn(*args, **kwargs)

        return wrapper

    names = {n for n in CLI_NAMES if callable(getattr(cli, n))}
    for name in names:
        monkeypatch.setattr(cli, name, spy(name, getattr(cli, name)))
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(spec_to_dict(example1())))
    thread = str(tmp_path / "thread.json")
    for args in (
        ["simulate", "--scenario", "example1", "--out", thread],
        ["simulate", "--spec", str(spec), "--out", thread],
        ["detect", "--thread", thread, "--json", str(tmp_path / "report.json")],
        ["conflict", "--thread", thread, "--a", "5", "--b", "1"],
    ):
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
    assert called == names


class TestConsoleEntry:
    """``python -m trolldetect`` runs ``cli.run``, which leaves by ``os._exit``
    once the exit handlers ran and stdout and stderr are flushed."""

    @pytest.mark.parametrize(
        "args, code",
        [
            (["detect", "--thread", "{file}"], 0),
            (["detect", "--thread", "{missing}"], 1),
            (["conflict", "--thread", "{file}", "--a", "1", "--b", "99"], 2),
            (["detect", "--thread", "{flat}"], 3),
        ],
        ids=["ok", "io", "invalid", "degenerate"],
    )
    def test_exit_code_and_output_match_the_click_runner(
        self, runner, example1_file, tmp_path, args, code
    ):
        flat = tmp_path / "flat.json"
        write_degenerate_thread(flat)
        args = [
            a.format(file=example1_file, missing=tmp_path / "none.json", flat=flat)
            for a in args
        ]
        expected = runner.invoke(main, args)
        proc = run_interpreter(["-m", "trolldetect", *args], capture_output=True)
        assert expected.exit_code == code
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            code,
            expected.stdout_bytes,
            expected.stderr_bytes,
        )

    def test_output_past_64_kib_is_written_whole(self, runner, tmp_path):
        # About 93 KiB of report, more than a 64 KiB pipe buffer holds.
        rng = random.Random(16)
        mf = MessageFrame(topic_count=3, relevant_topic=1)
        users = tuple(f"user-{i:04d}-" + "x" * 60 for i in range(600))
        messages = tuple(
            Message(author=user, rank=rank, bba=random_mass(rng, mf.frame))
            for rank, user in enumerate(users, start=1)
        )
        thread_path = tmp_path / "thread.json"
        thread_path.write_text(thread_to_json(Thread(frame=mf, users=users, messages=messages)))
        args = ["detect", "--thread", str(thread_path)]
        out = tmp_path / "detect.out"
        with out.open("wb") as fh:
            proc = run_interpreter(
                ["-m", "trolldetect", *args], env={"PYTHONUNBUFFERED": None}, stdout=fh
            )
        assert proc.returncode == 0
        expected = runner.invoke(main, args).stdout_bytes
        assert len(expected) > 64 * 1024
        assert out.read_bytes() == expected

    def test_registered_exit_handlers_run(self):
        script = """
import atexit, sys
from trolldetect.cli import run
atexit.register(print, "handler ran")
sys.argv = ["trolldetect", "--version"]
run()
print("run returned")
"""
        # Buffered, so the handler's line is written only by the flush after it.
        result = run_interpreter(
            ["-c", script], env={"PYTHONUNBUFFERED": None}, capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines() == [f"trolldetect, version {__version__}", "handler ran"]

    def test_run_collects_no_garbage(self, tmp_path):
        # At 2 000 messages the numpy import and scoring would trigger
        # collections if the collector ran.
        spec = example1()
        thread = generate(replace(spec, script=spec.script * 125))
        assert len(thread.messages) == 2000
        thread_path = tmp_path / "thread.json"
        thread_path.write_text(thread_to_json(thread))
        script = """
import atexit, gc, sys
from trolldetect import cli
collections = []
gc.callbacks.append(lambda phase, info: phase == "start" and collections.append(info))
atexit.register(lambda: print("collections:", len(collections), file=sys.stderr))
sys.argv = ["trolldetect", "detect", "--thread", sys.argv[1]]
cli.run()
"""
        result = run_python(script, str(thread_path))
        assert result.returncode == 0, result.stderr
        assert result.stderr == "collections: 0\n"

    def test_interrupt_exits_1_without_traceback(self):
        # As a Ctrl-C while the command runs.
        script = """
import sys
from trolldetect import cli

def interrupted(path):
    raise KeyboardInterrupt

cli.load_thread = interrupted
sys.argv = ["trolldetect", "detect", "--thread", "thread.json"]
cli.run()
"""
        result = run_python(script)
        assert (result.returncode, result.stdout, result.stderr) == (1, "", "\nAborted!\n")

    @pytest.mark.skipif(os.name != "posix", reason="closes fd 1 before exec")
    def test_version_with_stdout_closed_exits_0(self):
        # As ``trolldetect --version >&-``: the child starts with sys.stdout None.
        proc = run_interpreter(
            ["-m", "trolldetect", "--version"],
            preexec_fn=lambda: os.close(1),
            stderr=subprocess.PIPE,
        )
        assert (proc.returncode, proc.stderr) == (0, b"")

    @pytest.mark.skipif(os.name != "posix", reason="closes fd 2 before exec")
    def test_error_with_stderr_closed_prints_nothing(self, tmp_path):
        # As ``trolldetect detect --thread none.json 2>&-``: the error line
        # has nowhere to go and must not land on stdout.
        proc = run_interpreter(
            ["-m", "trolldetect", "detect", "--thread", str(tmp_path / "none.json")],
            preexec_fn=lambda: os.close(2),
            stdout=subprocess.PIPE,
        )
        assert (proc.returncode, proc.stdout) == (1, b"")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("unbuffered", [None, "1"], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize(
        "args",
        [["--version"], ["detect", "--thread", "{file}"]],
        ids=["version", "detect"],
    )
    def test_unwritable_stdout_exits_1_with_one_line(self, example1_file, args, unbuffered):
        args = [a.format(file=example1_file) for a in args]
        with open("/dev/full", "wb") as full:
            proc = run_interpreter(
                ["-m", "trolldetect", *args],
                env={"PYTHONUNBUFFERED": unbuffered},
                stdout=full,
                stderr=subprocess.PIPE,
                text=True,
            )
        assert proc.returncode == 1
        (line,) = proc.stderr.splitlines()
        assert line.startswith("error: cannot write output: [Errno 28] "), line

    def test_closed_pipe_exits_1_silently(self, example1_file):
        # A reader that closed the pipe gets no error line: run exits 1 quietly.
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = run_interpreter(
                ["-m", "trolldetect", "detect", "--thread", str(example1_file)],
                stdout=write_end,
                stderr=subprocess.PIPE,
            )
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (1, b"")


class TestDetect:
    def test_reports_the_troll(self, runner, tmp_path):
        thread_path = tmp_path / "thread.json"
        runner.invoke(
            main, ["simulate", "--scenario", "example1", "--out", str(thread_path)]
        )
        result = runner.invoke(main, ["detect", "--thread", str(thread_path)])
        assert result.exit_code == 0, result.output
        assert "trolls" in result.output
        troll_line = next(
            line for line in result.output.splitlines() if line.startswith("trolls")
        )
        assert troll_line.endswith("U4")

    def test_json_report_round_trips(self, runner, tmp_path):
        thread_path = tmp_path / "thread.json"
        report_path = tmp_path / "report.json"
        runner.invoke(
            main, ["simulate", "--scenario", "example1", "--out", str(thread_path)]
        )
        result = runner.invoke(
            main,
            ["detect", "--thread", str(thread_path), "--json", str(report_path)],
        )
        assert result.exit_code == 0
        doc = json.loads(report_path.read_text())
        assert doc["report"]["trolls"] == ["U4"]
        assert doc["report"]["others"] == ["U1", "U2", "U3"]
        assert set(doc["report"]["per_user"]) == {"U1", "U2", "U3", "U4"}
        assert len(doc["report"]["per_message"]) == 16
        assert doc["meta"]["input"] == str(thread_path)
        # serialized floats reload to the exact same values
        again = json.loads(json.dumps(doc))
        assert again == doc

    def test_json_report_body_is_run_independent(self, runner, tmp_path):
        thread_path = tmp_path / "thread.json"
        runner.invoke(
            main, ["simulate", "--scenario", "example2", "--out", str(thread_path)]
        )
        bodies = []
        for name in ("r1.json", "r2.json"):
            report_path = tmp_path / name
            runner.invoke(
                main, ["detect", "--thread", str(thread_path), "--json", str(report_path)]
            )
            bodies.append(json.loads(report_path.read_text())["report"])
        assert bodies[0] == bodies[1]

    def test_scoring_counters_go_to_json_only(self, runner, tmp_path):
        thread_path = tmp_path / "thread.json"
        report_path = tmp_path / "report.json"
        runner.invoke(
            main, ["simulate", "--scenario", "example1", "--out", str(thread_path)]
        )
        plain = runner.invoke(main, ["detect", "--thread", str(thread_path)])
        with_json = runner.invoke(
            main, ["detect", "--thread", str(thread_path), "--json", str(report_path)]
        )
        assert plain.exit_code == with_json.exit_code == 0
        assert plain.stdout_bytes == with_json.stdout_bytes
        doc = json.loads(report_path.read_text())
        messages = json.loads(thread_path.read_text())["messages"]
        pairs = sum(
            1 for m in messages for p in messages
            if p["rank"] < m["rank"] and p["author"] != m["author"]
        )
        # example1: 16 messages by 4 users, each bba on a singleton and the frame
        assert doc["meta"]["scoring"] == {
            "messages": 16,
            "users": 4,
            "vocabulary": 4,
            "packing": "vocabulary",
            "pairs": pairs,
        }
        # stdout holds the report lines and nothing else: no timing, no counter
        report = doc["report"]
        centers = report["centers"]
        expected = "user conflict:\n"
        expected += "".join(f"  {u:<8s} {v:.12f}\n" for u, v in report["per_user"].items())
        expected += f"trolls (center {centers['trolls']:.12f}): {' '.join(report['trolls'])}\n"
        expected += f"others (center {centers['others']:.12f}): {' '.join(report['others'])}\n"
        assert plain.output == expected

    def test_missing_thread_is_io_error(self, runner, tmp_path):
        result = runner.invoke(main, ["detect", "--thread", str(tmp_path / "no.json")])
        assert result.exit_code == 1

    def test_malformed_json_is_validation_error(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        result = runner.invoke(main, ["detect", "--thread", str(bad)])
        assert result.exit_code == 2

    def test_invalid_masses_are_validation_error(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps(
                {
                    "topic_count": 1,
                    "relevant_topic": 1,
                    "users": ["U1", "U2"],
                    "messages": [
                        {"rank": 1, "author": "U1", "bba": [{"set": ["Topic_1"], "mass": 0.5}]},
                        {"rank": 2, "author": "U2", "bba": [{"set": ["Topic_1"], "mass": 1.0}]},
                    ],
                }
            )
        )
        result = runner.invoke(main, ["detect", "--thread", str(bad)])
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "bba",
        [
            [{"set": ["Topic_1"], "mass": float("nan")}],
            [{"set": ["Topic_1"], "mass": 1.0}, {"set": ["Topic_2"], "mass": float("nan")}],
            [{"set": ["Topic_1"], "mass": float("inf")}],
            [{"set": ["Topic_1"], "mass": 10**400}],
            [],
        ],
        ids=["nan-only", "nan-beside-one", "infinity", "huge-integer", "empty"],
    )
    def test_bad_bba_exits_2_without_traceback(self, runner, tmp_path, bba):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps(
                {
                    "topic_count": 2,
                    "relevant_topic": 1,
                    "users": ["U1", "U2"],
                    "messages": [
                        {"rank": 1, "author": "U1", "bba": [{"set": ["Topic_1"], "mass": 1.0}]},
                        {"rank": 2, "author": "U2", "bba": bba},
                    ],
                }
            )
        )
        result = runner.invoke(main, ["detect", "--thread", str(bad)])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "not a valid thread" in result.output
        assert "Traceback" not in result.output

    def test_bad_bba_error_names_its_message(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps(
                {
                    "topic_count": 2,
                    "relevant_topic": 1,
                    "users": ["U1", "U2"],
                    "messages": [
                        {"rank": 1, "author": "U1", "bba": [{"set": ["Topic_1"], "mass": 1.0}]},
                        {"rank": 2, "author": "U2", "bba": [{"set": ["Topic_2"], "mass": 0.5}]},
                    ],
                }
            )
        )
        result = runner.invoke(main, ["detect", "--thread", str(bad)])
        assert result.exit_code == 2
        assert result.output == (
            f"error: {bad} is not a valid thread: message 1: masses sum to 0.5, expected 1\n"
        )

    def test_rank_gap_is_validation_error(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps(
                {
                    "topic_count": 1,
                    "relevant_topic": 1,
                    "users": ["U1", "U2"],
                    "messages": [
                        {"rank": 1, "author": "U1", "bba": [{"set": ["Topic_1"], "mass": 1.0}]},
                        {"rank": 3, "author": "U2", "bba": [{"set": ["Topic_1"], "mass": 1.0}]},
                    ],
                }
            )
        )
        result = runner.invoke(main, ["detect", "--thread", str(bad)])
        assert result.exit_code == 2

    def test_degenerate_thread_exits_3_without_partial_report(self, runner, tmp_path):
        thread_path = tmp_path / "thread.json"
        report_path = tmp_path / "report.json"
        write_degenerate_thread(thread_path)
        result = runner.invoke(
            main, ["detect", "--thread", str(thread_path), "--json", str(report_path)]
        )
        assert result.exit_code == 3
        assert not report_path.exists()


class TestConflictCommand:
    @pytest.fixture
    def thread_path(self, runner, tmp_path):
        path = tmp_path / "thread.json"
        runner.invoke(main, ["simulate", "--scenario", "example1", "--out", str(path)])
        return path

    def test_identical_messages(self, runner, tmp_path):
        path = tmp_path / "thread.json"
        mf = MessageFrame(topic_count=2, relevant_topic=1)
        bba = MassFunction(mf.frame, {mf.relevant_set(): 1.0})
        thread = Thread(
            frame=mf,
            users=("U1", "U2"),
            messages=(
                Message(author="U1", rank=1, bba=bba),
                Message(author="U2", rank=2, bba=bba),
            ),
        )
        path.write_text(json.dumps(thread_to_dict(thread)))
        result = runner.invoke(
            main, ["conflict", "--thread", str(path), "--a", "1", "--b", "2"]
        )
        assert result.exit_code == 0
        assert "conflict               : 0.000000000000" in result.output

    def test_disjoint_certain_messages(self, runner, tmp_path):
        path = tmp_path / "thread.json"
        mf = MessageFrame(topic_count=2, relevant_topic=1)
        thread = Thread(
            frame=mf,
            users=("U1", "U2"),
            messages=(
                Message(author="U1", rank=1, bba=MassFunction(mf.frame, {mf.relevant_set(): 1.0})),
                Message(author="U2", rank=2, bba=MassFunction(mf.frame, {mf.topic_set(2): 1.0})),
            ),
        )
        path.write_text(json.dumps(thread_to_dict(thread)))
        result = runner.invoke(
            main, ["conflict", "--thread", str(path), "--a", "1", "--b", "2"]
        )
        assert result.exit_code == 0
        assert "conflict               : 1.000000000000" in result.output

    def test_nested_messages_conflict_zero(self, runner, tmp_path):
        path = tmp_path / "thread.json"
        mf = MessageFrame(topic_count=2, relevant_topic=1)
        nested = MassFunction(
            mf.frame, {mf.relevant_set(): 0.5, mf.frame.full_set: 0.5}
        )
        thread = Thread(
            frame=mf,
            users=("U1", "U2"),
            messages=(
                Message(author="U1", rank=1, bba=nested),
                Message(author="U2", rank=2, bba=MassFunction.vacuous(mf.frame)),
            ),
        )
        path.write_text(json.dumps(thread_to_dict(thread)))
        result = runner.invoke(
            main, ["conflict", "--thread", str(path), "--a", "1", "--b", "2"]
        )
        assert result.exit_code == 0
        assert "symmetric inclusion    : 1.000000000000" in result.output
        assert "conflict               : 0.000000000000" in result.output

    def test_bad_rank_exits_2(self, runner, thread_path):
        result = runner.invoke(
            main, ["conflict", "--thread", str(thread_path), "--a", "1", "--b", "99"]
        )
        assert result.exit_code == 2

    def test_rank_zero_names_the_range(self, runner, thread_path):
        result = runner.invoke(
            main, ["conflict", "--thread", str(thread_path), "--a", "0", "--b", "1"]
        )
        assert result.exit_code == 2
        assert result.output == "error: rank 0 outside 1..16\n"
