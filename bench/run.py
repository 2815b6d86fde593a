"""trolldetect benchmark: seeded threads, the real CLI, checked answers.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root (it finds ``src/`` next to ``bench/``).
Inputs are generated from ``--seed`` into a scratch directory under
``.bench_work/``; the program only sees those files.  Load is one client
in a closed loop: one CLI subprocess at a time, each in its own empty
working directory, with an absolute ``PYTHONPATH`` to ``src``.

Workloads, and why each is here (``BENCHMARK.json`` lists ``forum`` and
``bulk``; ``dialogue`` and ``wide`` run the same way and are there for
traced layer studies of the scoring path):

* ``forum``: example1 scaled to 240 posts by 200 users (10 % trolls), most
  posting once.  The O(U * M^2) rescans in ``pipeline`` dominate, conflict
  math is about a third, and the clustering sees 200 users instead of 4.
* ``bulk``: an 8 000-post, 4 000-user example1 scale-up, written by
  ``simulate --spec`` and read back by ``conflict``.  No scoring: the load
  and save path that is under 1 % of ``detect`` elsewhere.
* ``dialogue``: example1 scaled to 320 posts by 4 users (2 victims, an
  expert, a troll).  Almost all of ``detect`` is per-pair conflict math.
* ``wide``: a 140-post, 30-user thread over a 16-hypothesis frame with 4
  to 10 focal sets per bba, written by the benchmark itself because
  ``simulate`` only makes 2-focal bbas.  Same layers as ``dialogue``, but
  each pair costs several times more and the focal vocabulary has about
  a thousand sets.

Sizes keep one ``detect`` around a second on a 2-core host.  On such a
shared host the speed of the whole machine drifts by +-20 % over tens of
seconds, which moves every sample of a run alike; long runs, not more
samples per second, are what steady the medians.

End-to-end metrics (``--trace 0``), timings as medians over a closed loop
of rounds that lasts ``--seconds``:

* ``setup_s``: ``python -m trolldetect --version``, interpreter start plus
  package import;
* ``command_s``: the workload's command from spawn to exit (``detect
  --json`` on the thread; ``simulate --spec --out`` on ``bulk``);
* ``inspect_s``: ``conflict --a M --b 1`` on the same thread file;
* ``peak_rss_mb``: largest peak RSS of those subprocesses (``os.wait4``).

Printed alongside, not part of the result: ``library_s``, the library
call behind the command in process on input already in memory
(``analyze(thread)``; ``generate(spec)`` plus ``thread_from_dict`` on
``bulk``), and ``score_pairs_per_s``, prior pairs over ``library_s``.  It
drifts more from run to run than the subprocess timings.

Every output is compared with ``reference.py`` (or, for ``simulate``, with
an in-process ``generate``); every mismatch, nonzero exit or traceback
counts as a failed operation.  ``--trace 1`` runs the same commands in
process, alternating untraced and traced passes, and reports per-layer
numbers (see ``tracing.py``).  The last stdout line is the JSON result;
the lines before it record machine facts, workload properties, sample
counts, ``error_rate`` and the per-workload name of ``command_s``
(``detect_s`` or ``simulate_s``).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from importlib.metadata import version
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

if not (SRC / "trolldetect" / "__init__.py").is_file():
    sys.exit(f"error: no trolldetect package under {SRC}; run from a full checkout")
sys.path.insert(0, str(SRC))

import numpy  # noqa: E402
from trolldetect import cli  # noqa: E402
from trolldetect.belief import jaccard, jousselme_distance  # noqa: E402
from trolldetect.conflict import conflict, inclusion_degree  # noqa: E402
from trolldetect.pipeline import analyze, user_conflict  # noqa: E402
from trolldetect.simulate import generate, spec_from_dict  # noqa: E402
from trolldetect.thread import Thread, load_thread, thread_from_dict, thread_to_dict  # noqa: E402

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

COMMAND_TIMEOUT = 120
INSPECT_TOLERANCE = 1e-12  # printed with 12 decimals: rounding adds <= 5e-13
SETUP_SAMPLES = 2  # before the loop; each round adds one more

SCALED = {  # workload -> (messages, trolls, victims, experts)
    "dialogue": (320, 1, 2, 1),
    "forum": (240, 20, 140, 40),
    "bulk": (8_000, 400, 2_400, 1_200),
}
WIDE = (140, 30, 3)  # messages, users, trolls
WORKLOADS = ("dialogue", "forum", "wide", "bulk")

END_TO_END = {
    "setup_s": "s",
    "command_s": "s",
    "inspect_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "cli.command_s": "s",
    "cli.self_s": "s",
    "thread.load_s": "s",
    "thread.from_dict_s": "s",
    "thread.validate_s": "s",
    "thread.write_s": "s",
    "thread.file_bytes": "bytes",
    "conflict.busy_s": "s",
    "conflict.calls": "count",
    "conflict.conflict_us": "us",
    "conflict.inclusion_degree_us": "us",
    "belief.jousselme_us": "us",
    "belief.jaccard_ns": "ns",
    "belief.focal_mean": "count",
    "belief.vocab_K": "count",
    "trace.overhead_s": "s",
}


def emit(record: dict) -> None:
    print(json.dumps(record), flush=True)


class Session:
    """One benchmark run: scratch space, operation counts, peak RSS."""

    def __init__(self, work: Path):
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.peak_rss_kb = 0

    def check(self, ok: bool, what: str, detail: object = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.failed <= 10:
                print(f"FAILED {what}: {str(detail)[:400]}", file=sys.stderr)
        return ok

    def tempdir(self) -> Path:
        return Path(tempfile.mkdtemp(dir=self.work))

    def cli(self, args: list[str], cwd: Path, track_rss: bool = True):
        """Run ``python -m trolldetect ARGS`` in ``cwd``; return
        (seconds from spawn to exit, exit code, stdout, stderr)."""
        env = dict(os.environ, PYTHONPATH=str(SRC))
        with open(cwd / "stdout", "wb") as out, open(cwd / "stderr", "wb") as err:
            started = perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "trolldetect", *args],
                cwd=cwd, env=env, stdout=out, stderr=err, stdin=subprocess.DEVNULL,
            )
            killer = threading.Timer(COMMAND_TIMEOUT, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            seconds = perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        if track_rss:
            self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        stdout = (cwd / "stdout").read_text(encoding="utf-8", errors="replace")
        stderr = (cwd / "stderr").read_text(encoding="utf-8", errors="replace")
        return seconds, proc.returncode, stdout, stderr

    def in_process(self, args: list[str]) -> tuple[int, str, str]:
        """Run the CLI inside this process; return (exit code, stdout, stderr)."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                cli.main.main(args=args, prog_name="trolldetect", standalone_mode=False)
                code = 0
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
        return code, out.getvalue(), err.getvalue()


def machine_facts() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "click": version("click"),
        "commit": git_commit(),
        "src_lines": sum(
            len(p.read_text(encoding="utf-8").splitlines())
            for p in sorted(SRC.rglob("*.py"))
        ),
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git (which
    would search directories above the checkout)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def thread_properties(document: dict) -> dict:
    seen: dict[str, int] = {}
    prior_pairs = 0
    focal_count = 0
    vocabulary = set()
    for rank, msg in enumerate(sorted(document["messages"], key=lambda m: m["rank"])):
        prior_pairs += rank - seen.get(msg["author"], 0)
        seen[msg["author"]] = seen.get(msg["author"], 0) + 1
        focal_count += len(msg["bba"])
        vocabulary.update(frozenset(e["set"]) for e in msg["bba"])
    messages = len(document["messages"])
    return {
        "M": messages,
        "U": len(document["users"]),
        "topic_count": document["topic_count"],
        "prior_pairs": prior_pairs,
        "belief.focal_mean": focal_count / messages,
        "belief.vocab_K": len(vocabulary),
    }


class Workload:
    """Generated input files and the reference answers for one run."""

    def __init__(self, name: str, seed: int, work: Path):
        self.name = name
        self.seed = seed
        self.bulk = name == "bulk"
        if name == "wide":
            self.spec_document = None
            self.document = workloads.wide_thread(seed, *WIDE)
        else:
            self.spec_document = workloads.scaled_example1_spec(seed, *SCALED[name])
            self.document = thread_to_dict(generate(spec_from_dict(self.spec_document)))
        self.messages = len(self.document["messages"])
        self.input = work / ("spec.json" if self.bulk else "thread.json")
        with open(self.input, "w", encoding="utf-8") as fh:
            json.dump(self.spec_document if self.bulk else self.document, fh, indent=2)
        # Reference answers, computed once, outside any timing.
        by_rank = sorted(self.document["messages"], key=lambda m: m["rank"])
        bits: dict[str, int] = {}
        last = reference.focal(by_rank[-1]["bba"], bits)
        first = reference.focal(by_rank[0]["bba"], bits)
        self.expected_inspect = reference.pair_values(last, first)
        self.expected_report = None if self.bulk else reference.detect(self.document)
        self.properties = thread_properties(self.document)
        self.file_bytes = self.input.stat().st_size  # of the thread file, once bulk writes it

    def command(self, cwd: Path) -> tuple[list[str], Path]:
        """Arguments of the workload's main command and the thread file
        that ``conflict`` inspects after it."""
        if self.bulk:
            target = cwd / "thread.json"
            return ["simulate", "--spec", str(self.input), "--out", str(target)], target
        report = cwd / "report.json"
        return ["detect", "--thread", str(self.input), "--json", str(report)], self.input

    def inspect(self, target: Path) -> list[str]:
        return ["conflict", "--thread", str(target), "--a", str(self.messages), "--b", "1"]

    def check_command(self, session: Session, cwd: Path, code: int, stdout: str, stderr: str) -> None:
        clean = code == 0 and "Traceback" not in stderr
        if self.bulk:
            try:
                written = json.loads((cwd / "thread.json").read_text(encoding="utf-8"))
                meta = written.pop("meta", {})
                ok = clean and written == self.document and meta.get("seed") == self.seed
                detail = "file differs from generate()"
            except (OSError, ValueError) as exc:
                ok, detail = False, repr(exc)
            session.check(ok, "simulate", f"exit {code}, {detail}, {stderr}")
            return
        try:
            body = json.loads((cwd / "report.json").read_text(encoding="utf-8"))["report"]
            problems = reference.report_mismatches(body, self.expected_report)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems = [repr(exc)]
        ok = clean and stdout.startswith("user conflict:") and not problems
        session.check(ok, "detect", f"exit {code}, {problems[:3]}, {stderr}")

    def check_inspect(self, session: Session, code: int, stdout: str, stderr: str) -> None:
        printed = [INSPECT_LINE.search(line) for line in stdout.splitlines()[1:]]
        values = [float(m.group(1)) for m in printed if m]
        ok = (
            code == 0
            and "Traceback" not in stderr
            and len(values) == 5
            and all(abs(v - e) <= INSPECT_TOLERANCE for v, e in zip(values, self.expected_inspect))
        )
        session.check(ok, "conflict", f"exit {code}, printed {values}, expected {self.expected_inspect}, {stderr}")

    def library(self, session: Session, spec, thread) -> float:
        """Time the in-process library call behind the command, then check it."""
        if self.bulk:
            started = perf_counter()
            generated = generate(spec)
            loaded = thread_from_dict(self.document)
            elapsed = perf_counter() - started
            ok = thread_to_dict(generated) == self.document and thread_to_dict(loaded) == self.document
            session.check(ok, "generate/thread_from_dict", "differs from the written file")
            return elapsed
        started = perf_counter()
        result = analyze(thread)
        elapsed = perf_counter() - started
        problems = reference.report_mismatches(result.to_dict(), self.expected_report)
        session.check(not problems, "analyze", problems[:3])
        return elapsed


INSPECT_LINE = re.compile(r":\s*(-?\d+\.\d+)\s*$")


def run_end_to_end(load: Workload, seconds: float, session: Session) -> dict:
    samples: dict[str, list[float]] = {
        name: [] for name in ("setup_s", "command_s", "inspect_s", "library_s")
    }
    spec = spec_from_dict(load.spec_document) if load.bulk else None
    thread = None if load.bulk else load_thread(load.input)

    def setup_sample() -> float:
        cwd = session.tempdir()
        elapsed, code, stdout, stderr = session.cli(["--version"], cwd, track_rss=False)
        session.check(code == 0 and "version" in stdout, "--version", f"exit {code}, {stderr}")
        shutil.rmtree(cwd)
        return elapsed

    setup_sample()  # the first start may compile bytecode; not a sample
    samples["setup_s"] += [setup_sample() for _ in range(SETUP_SAMPLES)]
    deadline = perf_counter() + seconds
    while not samples["command_s"] or perf_counter() < deadline:
        cwd = session.tempdir()
        args, target = load.command(cwd)
        elapsed, code, stdout, stderr = session.cli(args, cwd)
        load.check_command(session, cwd, code, stdout, stderr)
        samples["command_s"].append(elapsed)
        if target.exists():
            load.file_bytes = target.stat().st_size
        elapsed, code, stdout, stderr = session.cli(load.inspect(target), cwd)
        load.check_inspect(session, code, stdout, stderr)
        samples["inspect_s"].append(elapsed)
        shutil.rmtree(cwd)
        samples["library_s"].append(load.library(session, spec, thread))
        samples["setup_s"].append(setup_sample())

    metrics = {name: statistics.median(values) for name, values in samples.items()}
    metrics["peak_rss_mb"] = session.peak_rss_kb / 1024
    named = {"command_s": "simulate_s" if load.bulk else "detect_s"}
    lines = {
        named.get(name, name): {
            "value": metrics[name],
            "unit": unit,
            "samples": len(samples[name]) if name in samples else None,
        }
        for name, unit in dict(END_TO_END, library_s="s").items()
    }
    if not load.bulk:
        lines["score_pairs_per_s"] = {
            "value": load.properties["prior_pairs"] / metrics["library_s"],
            "unit": "1/s",
            "samples": len(samples["library_s"]),
        }
    lines["error_rate"] = {"value": session.failed / session.attempted, "unit": "ratio"}
    emit({"workload": load.name, "end_to_end": lines})
    return {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END.items()}


def per_call(fn, pairs, repeats: int = 7) -> float:
    """Median over ``repeats`` of the mean seconds per ``fn(a, b)`` call."""
    times = []
    for _ in range(repeats):
        started = perf_counter()
        for a, b in pairs:
            fn(a, b)
        times.append((perf_counter() - started) / len(pairs))
    return statistics.median(times)


def run_traced(load: Workload, seconds: float, session: Session) -> dict:
    """Alternate untraced and traced in-process passes of the workload's
    commands for ``seconds``; report per-layer medians over traced passes."""

    def one_pass(tracer: tracing.Tracer | None) -> float:
        """Seconds spent inside the CLI for the command and the inspection."""
        cwd = session.tempdir()
        args, target = load.command(cwd)
        invoke = tracer.span(f"cli.{args[0]}", session.in_process) if tracer else session.in_process
        inspect = tracer.span("cli.conflict", session.in_process) if tracer else session.in_process
        with tracing.traced(tracer) if tracer else contextlib.nullcontext():
            started = perf_counter()
            code, stdout, stderr = invoke(args)
            middle = perf_counter()
            load.check_command(session, cwd, code, stdout, stderr)
            resumed = perf_counter()
            code, stdout, stderr = inspect(load.inspect(target))
            elapsed = perf_counter() - resumed + middle - started
        load.check_inspect(session, code, stdout, stderr)
        load.file_bytes = target.stat().st_size
        shutil.rmtree(cwd)
        return elapsed

    untraced: list[float] = []
    traced: list[float] = []
    passes: list[tracing.Tracer] = []
    deadline = perf_counter() + seconds
    while not passes or perf_counter() < deadline:
        untraced.append(one_pass(None))
        passes.append(tracing.Tracer())
        traced.append(one_pass(passes[-1]))

    def over_passes(measure) -> float:
        return statistics.median(measure(t) for t in passes)

    thread = thread_from_dict(load.document)
    rng = random.Random(load.seed)
    bbas = [m.bba for m in thread.messages]
    pairs = [tuple(rng.sample(bbas, 2)) for _ in range(400)]
    focal_sets = [s for bba in bbas for s in bba.focal_sets()]
    set_pairs = [(rng.choice(focal_sets), rng.choice(focal_sets)) for _ in range(4000)]
    validate = []
    for _ in range(3):
        started = perf_counter()
        Thread(frame=thread.frame, users=thread.users, messages=thread.messages)
        validate.append(perf_counter() - started)

    layers = {
        "cli.command_s": over_passes(lambda t: sum(s["end"] - s["start"] for s in t.spans if s["parent"] is None)),
        "cli.self_s": over_passes(lambda t: t.self_times().get("cli", 0.0)),
        "thread.load_s": over_passes(lambda t: t.total("thread.load")),
        "thread.from_dict_s": over_passes(lambda t: t.total("thread.from_dict")),
        "thread.validate_s": statistics.median(validate),
        "thread.write_s": over_passes(lambda t: t.total("thread.write")),
        "thread.file_bytes": load.file_bytes,
        "conflict.busy_s": over_passes(lambda t: t.total("conflict.conflict")),
        "conflict.calls": passes[0].calls("conflict.conflict"),
        "conflict.conflict_us": per_call(conflict, pairs) * 1e6,
        "conflict.inclusion_degree_us": per_call(inclusion_degree, pairs) * 1e6,
        "belief.jousselme_us": per_call(jousselme_distance, pairs) * 1e6,
        "belief.jaccard_ns": per_call(jaccard, set_pairs) * 1e9,
        "belief.focal_mean": load.properties["belief.focal_mean"],
        "belief.vocab_K": load.properties["belief.vocab_K"],
        "trace.overhead_s": statistics.median(traced) - statistics.median(untraced),
    }

    # Layers that only some workloads reach: printed, not in the result.
    extra = {
        "thread.to_dict_s": over_passes(lambda t: t.total("thread.to_dict")),
        "simulate.generate_s": over_passes(lambda t: t.total("simulate.generate")),
    }
    if not load.bulk:
        analyze_s = over_passes(lambda t: t.total("pipeline.analyze"))
        users = rng.sample(thread.users, min(3, len(thread.users)))
        extra.update({
            "pipeline.analyze_s": analyze_s,
            "pipeline.self_s": over_passes(lambda t: t.self_times().get("pipeline", 0.0)),
            "pipeline.row_us": analyze_s / load.messages * 1e6,
            "pipeline.user_agg_us": per_call(lambda u, _: user_conflict(thread, u), [(u, None) for u in users], 1) * 1e6,
            "clustering.kmeans2_s": over_passes(lambda t: t.total("clustering.kmeans2")),
            "clustering.items": len(thread.users),
            "share.conflict_of_analyze": over_passes(lambda t: t.total("conflict.conflict") / t.total("pipeline.analyze")),
            "share.pipeline_self_of_analyze": over_passes(lambda t: t.self_times()["pipeline"] / t.total("pipeline.analyze")),
        })
    emit({"workload": load.name, "traced_passes": len(passes), "per_layer_extra": extra, "self_s": {
        layer: over_passes(lambda t, layer=layer: t.self_times().get(layer, 0.0))
        for layer in ("cli", "thread", "simulate", "pipeline", "conflict", "belief", "clustering")
    }})
    tracing.dump(passes, WORK / f"spans-{load.name}-seed{load.seed}.json")
    return {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        emit({"machine": machine_facts()})
        session = Session(work)
        load = Workload(args.workload, args.seed, work)
        # Inputs and reference answers live for the whole run; keep the
        # collector from rescanning them inside timed library calls.
        gc.collect()
        gc.freeze()
        run = run_traced if args.trace else run_end_to_end
        metrics = run(load, args.seconds, session)
        emit({"workload": load.name, "seed": load.seed,
              "properties": dict(load.properties, file_bytes=load.file_bytes)})
    finally:
        shutil.rmtree(work, ignore_errors=True)
    emit({
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": metrics,
    })
    return 0


if __name__ == "__main__":
    sys.exit(main())
