"""Command-line front end: simulate threads, detect trolls, inspect pairs.

Exit codes: 0 success, 1 I/O failure, 2 usage or validation failure (bad
option, bad spec, malformed thread file, bad ranks), 3 degenerate clustering.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import os
import sys
import time
from importlib import import_module

from . import __version__
from .errors import BeliefError, Degenerate

# The commands look names up on the module (``_cli.<name>``), so a name
# rebound here, as bench/tracing.py does, is the one that runs.  Each loads
# on first use, so a command imports only what it runs: an exported name
# through the package's own table, these unexported helpers through this one.
_HELPERS = {"write_json_atomic": "thread", "_dumps": "thread",
            "GENERATOR_ID": "simulate", "load_spec": "simulate"}
_package = sys.modules[__package__]
_cli = sys.modules[__name__]


def __getattr__(name):
    if name in _HELPERS:
        value = getattr(import_module(f".{_HELPERS[name]}", __package__), name)
    elif name in _package.__all__:
        value = getattr(_package, name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


EXIT_IO = 1
EXIT_INVALID = 2
EXIT_DEGENERATE = 3

# What reading a malformed file raises before any validation: bytes that
# are not UTF-8 (UnicodeDecodeError) or not JSON (JSONDecodeError) are both
# ValueErrors, and nesting deeper than the parser's recursion limit raises
# RecursionError.
_UNREADABLE = (ValueError, RecursionError)


def _echo(text: str, err: bool = False) -> None:
    """Print ``text`` as one line and flush it, so a stream that refuses the
    write raises here, inside the command, and not at the exit's last flush.
    Prints nothing when the stream's descriptor was closed."""
    stream = sys.stderr if err else sys.stdout
    if stream is not None:  # print(file=None) would fall back to stdout
        print(text, file=stream, flush=True)


def _shown(name: str) -> str:
    r"""A user id or path as stdout prints it: plain when it is ASCII and
    holds no ``"`` or ``\``, else as ``json.dumps`` writes it
    (``"\u054d3"``).  So any stdout encoding can print it, two ids never
    print alike, and no id prints as a plain ASCII id it is not."""
    if name.isascii() and '"' not in name and "\\" not in name:
        return name
    import json

    return json.dumps(name)


def _fail(code: int, message: str):
    _echo(f"error: {message}", err=True)
    sys.exit(code)


def _load_or_exit(load, path: str, kind: str):
    """``load(path)``, or exit with the code for why the file was refused."""
    try:
        return load(path)
    except OSError as exc:
        _fail(EXIT_IO, f"cannot read {path}: {exc.strerror or exc}")
    except _UNREADABLE as exc:
        _fail(EXIT_INVALID, f"{path} is not valid JSON: {exc}")
    except BeliefError as exc:
        _fail(EXIT_INVALID, f"{path} is not a valid {kind}: {exc}")


def _write_or_exit(text: str, path: str) -> None:
    """``write_json_atomic(text, path)``, or exit 1 naming the path."""
    try:
        _cli.write_json_atomic(text, path)
    except OSError as exc:
        _fail(EXIT_IO, f"cannot write {path}: {exc.strerror or exc}")


def simulate(scenario, spec_path, seed, out_path):
    """Generate a synthetic thread from a scenario."""
    if scenario is not None:
        spec = _cli.BUILTIN_SCENARIOS[scenario]()
    else:
        spec = _load_or_exit(_cli.load_spec, spec_path, "scenario")
    if seed is not None:
        try:
            spec = spec._replace(seed=seed)
        except BeliefError as exc:
            _fail(EXIT_INVALID, f"--seed {seed} is not valid: {exc}")
    thread = _cli.generate(spec)
    meta = {
        "tool": "trolldetect",
        "version": __version__,
        "generator": _cli.GENERATOR_ID,
        "seed": spec.seed,
    }
    _write_or_exit(_cli.thread_to_json(thread, meta), out_path)
    _echo(
        f"wrote {len(thread.messages)} messages by {len(thread.users)} users "
        f"to {_shown(out_path)}"
    )


def detect(thread_path, json_path):
    """Score a thread's users and split them into trolls and others."""
    thread = _load_or_exit(_cli.load_thread, thread_path, "thread")
    started = time.perf_counter()
    try:
        report = _cli.analyze(thread)
    except Degenerate as exc:
        _fail(EXIT_DEGENERATE, f"cannot cluster users: {exc}")
    elapsed = time.perf_counter() - started

    summary = report.to_dict()
    # The report is written before the table is printed, so a failed write
    # exits 1 with the error alone, not after a table that looks like success.
    if json_path is not None:
        document = {
            "meta": {
                "tool": "trolldetect",
                "version": __version__,
                "input": str(thread_path),
                "elapsed_seconds": elapsed,
                "scoring": report.scoring,
            },
            "report": summary,
        }
        _write_or_exit(_cli._dumps(document), json_path)
    # One echo for the table: one per user took 17-25 ms at 5 000 users
    # (2 vCPUs).
    _echo("\n".join([
        "user conflict:",
        *(f"  {_shown(user):<8s} {value:.12f}" for user, value in report.per_user.items()),
        f"trolls (center {report.troll_center:.12f}): {' '.join(map(_shown, summary['trolls']))}",
        f"others (center {report.other_center:.12f}): {' '.join(map(_shown, summary['others']))}",
    ]))


def conflict_pair(thread_path, rank_a, rank_b):
    """Inspect the conflict between two messages of a thread."""
    thread = _load_or_exit(_cli.load_thread, thread_path, "thread")
    try:
        first = thread.message(rank_a)
        second = thread.message(rank_b)
    except BeliefError as exc:
        _fail(EXIT_INVALID, str(exc))
    _echo(f"message {rank_a} ({_shown(first.author)}) vs message {rank_b} ({_shown(second.author)})")
    _echo(f"  inclusion degree a in b: {_cli.inclusion_degree(first.bba, second.bba):.12f}")
    _echo(f"  inclusion degree b in a: {_cli.inclusion_degree(second.bba, first.bba):.12f}")
    _echo(f"  symmetric inclusion    : {_cli.symmetric_inclusion(first.bba, second.bba):.12f}")
    _echo(f"  distance               : {_cli.jousselme_distance(first.bba, second.bba):.12f}")
    _echo(f"  conflict               : {_cli.conflict(first.bba, second.bba):.12f}")


class _Show(argparse.Action):
    """``--help`` and ``--version``: print through ``_echo``, then exit 0.
    argparse's own actions print to stderr when stdout is closed and
    ignore a write that fails."""

    def __init__(self, option_strings, dest, help, text=None):
        super().__init__(option_strings, argparse.SUPPRESS, nargs=0, help=help)
        self.text = text

    def __call__(self, parser, namespace, values, option_string=None):
        _echo(self.text or parser.format_help().rstrip("\n"))
        parser.exit()


# Each command's function; its docstring is the command's help.
_COMMANDS = {"simulate": simulate, "detect": detect, "conflict": conflict_pair}


def _parser(prog: str) -> argparse.ArgumentParser:
    """The command line: each command's options are the keyword parameters
    of its function in ``_COMMANDS``."""

    def new(add, **kwargs):
        # No abbreviations (``--th`` is not ``--thread``), and no ``-h``.
        parser = add(**kwargs, add_help=False, allow_abbrev=False)
        parser.add_argument("--help", action=_Show, help="Show this message and exit.")
        return parser

    parser = new(argparse.ArgumentParser, prog=prog,
                 description="Conflict-based troll detection for discussion threads.")
    parser.add_argument("--version", action=_Show, help="Show the version and exit.",
                        text=f"trolldetect, version {__version__}")
    commands = parser.add_subparsers(title="commands", dest="command", required=True)

    def command(name):
        doc = _COMMANDS[name].__doc__
        return new(commands.add_parser, name=name, help=doc, description=doc)

    simulate_command = command("simulate")
    option = simulate_command.add_argument
    source = simulate_command.add_mutually_exclusive_group(required=True).add_argument  # exactly one
    # BUILTIN_SCENARIOS's keys, written out so that defining the command
    # line imports no simulate; a test keeps the two equal.
    source("--scenario", choices=("example1", "example2"), help="Use a built-in scenario.")
    source("--spec", dest="spec_path", metavar="PATH", help="Read a scenario JSON file.")
    option("--seed", type=int, metavar="N", help="Override the scenario seed.")
    option("--out", dest="out_path", metavar="PATH", required=True, help="Thread JSON output path.")
    option = command("detect").add_argument
    option("--thread", dest="thread_path", metavar="PATH", required=True, help="Thread JSON file.")
    option("--json", dest="json_path", metavar="PATH", help="Also write a JSON report here.")
    option = command("conflict").add_argument
    option("--thread", dest="thread_path", metavar="PATH", required=True, help="Thread JSON file.")
    option("--a", dest="rank_a", type=int, metavar="RANK", required=True, help="First message rank.")
    option("--b", dest="rank_b", type=int, metavar="RANK", required=True, help="Second message rank.")
    return parser


def main(args=None, prog_name="trolldetect", standalone_mode=True):
    """Parse ``args`` (default ``sys.argv[1:]``) and run the command.  A
    usage error exits 2, and a failed command exits with its own code.  On
    success it exits 0, or returns 0 when ``standalone_mode`` is false."""
    try:
        options = vars(_parser(prog_name).parse_args(args))
        _COMMANDS[options.pop("command")](**options)
    except SystemExit as exc:
        if exc.code:
            raise
    if standalone_mode:
        sys.exit(0)
    return 0


# click's in-process calling convention, which bench/run.py's traced mode
# and click.testing.CliRunner use: ``main.main(args=..., prog_name=...)``
# after reading ``main.name``.
main.main = main
main.name = "trolldetect"


def run():
    """The console entry point, the one place that changes process state:
    OpenBLAS on one thread unless ``OPENBLAS_NUM_THREADS`` is set, the cyclic
    garbage collector off, then ``main`` and an exit without teardown.
    In-process callers use ``main``, which does none of this.

    Runs the ``atexit`` handlers and flushes stdout and stderr, as CPython's
    own exit does first, then skips the rest (a last full collection and the
    unloading of every module, 13-25 ms a process on 2 vCPUs) with
    ``os._exit``, with the int code that every exit reaching it carries.  A
    failed flush exits as usual.
    """
    # Before numpy's first import (inside a command): idle OpenBLAS workers
    # spin, which slowed a 90 ms numpy import to 160 ms on a 2-core host, and
    # the kernel's products (exact 0/1 sums on small tiles) never need them.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    gc.disable()  # the process leaves through os._exit, and the library makes no cycles
    try:
        main()
    except SystemExit as exc:
        leaving = exc
    except KeyboardInterrupt:  # Ctrl-C: no traceback
        _echo("\nAborted!", err=True)
        leaving = SystemExit(1)
    except OSError as exc:  # a standard stream refused a write
        _drop_unwritable_stdout()
        if not isinstance(exc, BrokenPipeError):  # the reader left: exit quietly
            _echo(f"error: cannot write output: {exc}", err=True)
        leaving = SystemExit(EXIT_IO)
    atexit._run_exitfuncs()  # clears them, so a fallback exit runs none twice
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:  # None when the descriptor was closed
                stream.flush()
    except (OSError, ValueError):
        raise leaving from None
    os._exit(leaving.code or 0)


def _drop_unwritable_stdout() -> None:
    """Send what stdout cannot write to the null device, so no later flush
    fails on it again."""
    try:
        if sys.stdout is not None:
            sys.stdout.flush()
    except OSError:
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)
