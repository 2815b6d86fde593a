"""Command-line front end: simulate threads, detect trolls, inspect pairs.

Exit codes: 0 success, 1 I/O failure, 2 validation failure (bad spec,
malformed thread file, bad ranks), 3 degenerate clustering.
"""

from __future__ import annotations

import os
import sys
import time
from importlib import import_module

import click

from . import __version__
from .errors import BeliefError, Degenerate

# name -> module: each loads on first use, so a command imports only what
# it runs.  The commands look these up on the module (``_cli.<name>``), so
# a name rebound here, as bench/tracing.py does, is the one that runs.
# ``thread_to_dict`` is unused here but bench/tracing.py wraps it by this
# module's name (the ``thread.to_dict`` span).
_LAZY = {
    name: module
    for module, names in (
        ("thread", "load_thread thread_to_json thread_to_dict write_json_atomic _dumps"),
        ("simulate", "BUILTIN_SCENARIOS GENERATOR_ID generate load_spec"),
        ("pipeline", "analyze"),
        ("conflict", "conflict inclusion_degree symmetric_inclusion"),
        ("belief", "jousselme_distance"),
    )
    for name in names.split()
}
_cli = sys.modules[__name__]


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __package__), name)
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


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _load_or_exit(load, path: str, kind: str):
    """``load(path)``, or exit with the code for why the file was refused."""
    try:
        return load(path)
    except OSError as exc:
        _fail(EXIT_IO, f"cannot read {path}: {exc}")
    except _UNREADABLE as exc:
        _fail(EXIT_INVALID, f"{path} is not valid JSON: {exc}")
    except BeliefError as exc:
        _fail(EXIT_INVALID, f"{path} is not a valid {kind}: {exc}")


@click.group()
@click.version_option(__version__, prog_name="trolldetect")
def main():
    """Conflict-based troll detection for discussion threads."""
    # Before the kernel's first numpy import: idle OpenBLAS workers spin, which
    # slowed a 90 ms numpy import to 160 ms on a 2-core host, and the kernel's
    # products (exact 0/1 sums on small tiles) never need them.  Not set at
    # import or in the kernel, so a library user's process keeps its pool.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")


@main.command()
@click.option(
    "--scenario",
    # BUILTIN_SCENARIOS's keys, written out so that defining the command
    # line imports no simulate; a test keeps the two equal.
    type=click.Choice(("example1", "example2")),
    default=None,
    help="Use a built-in scenario.",
)
@click.option(
    "--spec", "spec_path", default=None, help="Read a scenario JSON file."
)
@click.option("--seed", type=int, default=None, help="Override the scenario seed.")
@click.option("--out", "out_path", required=True, help="Thread JSON output path.")
def simulate(scenario, spec_path, seed, out_path):
    """Generate a synthetic thread from a scenario."""
    if (scenario is None) == (spec_path is None):
        _fail(EXIT_INVALID, "give exactly one of --scenario or --spec")
    if scenario is not None:
        spec = _cli.BUILTIN_SCENARIOS[scenario]()
    else:
        spec = _load_or_exit(_cli.load_spec, spec_path, "scenario")
    if seed is not None:
        from dataclasses import replace

        spec = replace(spec, seed=seed)
    try:
        thread = _cli.generate(spec)
    except BeliefError as exc:
        _fail(EXIT_INVALID, f"invalid scenario: {exc}")
    meta = {
        "tool": "trolldetect",
        "version": __version__,
        "generator": _cli.GENERATOR_ID,
        "seed": spec.seed,
    }
    try:
        _cli.write_json_atomic(_cli.thread_to_json(thread, meta), out_path)
    except OSError as exc:
        _fail(EXIT_IO, f"cannot write {out_path}: {exc}")
    click.echo(
        f"wrote {len(thread.messages)} messages by {len(thread.users)} users "
        f"to {out_path}"
    )


@main.command()
@click.option("--thread", "thread_path", required=True, help="Thread JSON file.")
@click.option(
    "--json", "json_path", default=None, help="Also write a JSON report here."
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
    click.echo("user conflict:")
    for user, value in report.per_user.items():
        click.echo(f"  {user:<8s} {value:.12f}")
    click.echo(f"trolls (center {report.troll_center:.12f}): {' '.join(summary['trolls'])}")
    click.echo(f"others (center {report.other_center:.12f}): {' '.join(summary['others'])}")

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
        try:
            _cli.write_json_atomic(_cli._dumps(document), json_path)
        except OSError as exc:
            _fail(EXIT_IO, f"cannot write {json_path}: {exc}")


@main.command("conflict")
@click.option("--thread", "thread_path", required=True, help="Thread JSON file.")
@click.option("--a", "rank_a", type=int, required=True, help="First message rank.")
@click.option("--b", "rank_b", type=int, required=True, help="Second message rank.")
def conflict_pair(thread_path, rank_a, rank_b):
    """Inspect the conflict between two messages of a thread."""
    thread = _load_or_exit(_cli.load_thread, thread_path, "thread")
    try:
        first = thread.message(rank_a)
        second = thread.message(rank_b)
    except BeliefError as exc:
        _fail(EXIT_INVALID, str(exc))
    click.echo(f"message {rank_a} ({first.author}) vs message {rank_b} ({second.author})")
    click.echo(f"  inclusion degree a in b: {_cli.inclusion_degree(first.bba, second.bba):.12f}")
    click.echo(f"  inclusion degree b in a: {_cli.inclusion_degree(second.bba, first.bba):.12f}")
    click.echo(f"  symmetric inclusion    : {_cli.symmetric_inclusion(first.bba, second.bba):.12f}")
    click.echo(f"  distance               : {_cli.jousselme_distance(first.bba, second.bba):.12f}")
    click.echo(f"  conflict               : {_cli.conflict(first.bba, second.bba):.12f}")


if __name__ == "__main__":
    main()
