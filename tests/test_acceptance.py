"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.  Tolerances are fixed here, not configurable.
"""

import json
import random
import time

from trolldetect import (
    MassFunction,
    Message,
    MessageFrame,
    Thread,
    analyze,
    combine_conjunctive,
    combine_dempster,
    combine_disjunctive,
    conflict,
    example1,
    example2,
    generate,
    jousselme_distance,
    kmeans2,
    message_conflict,
    thread_to_dict,
    user_conflict,
)
from trolldetect.errors import TotalConflict

from helpers import make_frame, random_mass, random_thread, run_interpreter
from oracles import (
    best_split,
    dense_conjunctive,
    dense_dempster,
    dense_disjunctive,
    dense_vector,
    naive_message_conflict,
    naive_user_conflict,
)


def finish(number: int, name: str, failures: list):
    status = "PASS" if not failures else "FAIL"
    print(f"[criterion {number}] {name}: {status}")
    assert not failures, f"criterion {number}: {failures[:5]}"


def test_criterion_1_combination_oracle_equivalence():
    failures = []
    rng = random.Random(1001)
    started = time.perf_counter()
    for trial in range(1000):
        frame = make_frame(rng.choice((2, 3, 4)))
        m1 = random_mass(rng, frame, allow_empty=True)
        m2 = random_mass(rng, frame, allow_empty=True)
        v1, v2 = dense_vector(m1), dense_vector(m2)

        checks = [
            ("conjunctive", combine_conjunctive(m1, m2), dense_conjunctive(v1, v2)),
            ("disjunctive", combine_disjunctive(m1, m2), dense_disjunctive(v1, v2)),
        ]
        expected_dempster = dense_dempster(v1, v2)
        if expected_dempster is None:
            try:
                combine_dempster(m1, m2)
                failures.append(f"trial {trial}: dempster should have raised")
            except TotalConflict:
                pass
        else:
            checks.append(("dempster", combine_dempster(m1, m2), expected_dempster))

        for rule, computed, expected in checks:
            for subset in frame.subsets():
                if abs(computed.mass(subset) - expected[subset]) > 1e-12:
                    failures.append(f"trial {trial}: {rule} differs on {subset:#b}")
    elapsed = time.perf_counter() - started
    if elapsed >= 5.0:
        failures.append(f"took {elapsed:.2f}s, budget is 5s")
    finish(1, "combination rules match the dense enumeration oracle", failures)


def test_criterion_2_conflict_measure_properties():
    failures = []
    rng = random.Random(1002)
    for trial in range(1000):
        frame = make_frame(rng.choice((2, 3, 4)))
        m1 = random_mass(rng, frame)
        m2 = random_mass(rng, frame)
        value = conflict(m1, m2)
        if not 0.0 <= value <= 1.0:
            failures.append(f"trial {trial}: conflict {value} outside [0,1]")
        if abs(value - conflict(m2, m1)) > 1e-12:
            failures.append(f"trial {trial}: asymmetric")
        if conflict(m1, m1) != 0.0:
            failures.append(f"trial {trial}: self-conflict nonzero")
        if value > jousselme_distance(m1, m2) + 1e-15:
            failures.append(f"trial {trial}: conflict above distance")

    frame = make_frame(2)
    a, b = frame.subset(["a"]), frame.subset(["b"])
    certain_a = MassFunction(frame, {a: 1.0})
    certain_b = MassFunction(frame, {b: 1.0})
    if conflict(certain_a, certain_b) != 1.0:
        failures.append("certain disjoint singletons must score exactly 1")
    nested_inner = MassFunction(frame, {a: 0.5, frame.full_set: 0.5})
    nested_outer = MassFunction.vacuous(frame)
    if conflict(nested_inner, nested_outer) != 0.0:
        failures.append("nested focal structure must score exactly 0")
    finish(2, "conflict measure bounded, symmetric, zero on identity", failures)


def test_criterion_3_distance_metric_suite():
    failures = []
    rng = random.Random(1003)
    for trial in range(10000):
        frame = make_frame(rng.choice((2, 3, 4)))
        m1 = random_mass(rng, frame, max_focal=3)
        m2 = random_mass(rng, frame, max_focal=3)
        m3 = random_mass(rng, frame, max_focal=3)
        d12 = jousselme_distance(m1, m2)
        d21 = jousselme_distance(m2, m1)
        if d12 != d21:
            failures.append(f"trial {trial}: asymmetric distance")
        if jousselme_distance(m1, m1) > 1e-12:
            failures.append(f"trial {trial}: self-distance above 1e-12")
        if d12 > jousselme_distance(m1, m3) + jousselme_distance(m3, m2) + 1e-9:
            failures.append(f"trial {trial}: triangle inequality broken")
        if len(failures) > 5:
            break
    finish(3, "distance symmetry, identity, triangle inequality", failures)


def test_criterion_4_example1_reproduction():
    failures = []
    started = time.perf_counter()
    report = analyze(generate(example1()))
    elapsed = time.perf_counter() - started
    if report.trolls != frozenset({"U4"}):
        failures.append(f"trolls = {sorted(report.trolls)}, expected ['U4']")
    scores = report.per_user
    if max(scores, key=scores.get) != "U4":
        failures.append("U4 must carry the strictly largest score")
    if any(scores["U4"] <= scores[u] for u in ("U1", "U2", "U3")):
        failures.append("U4's score must be strictly maximal")
    if min(scores, key=scores.get) != "U3":
        failures.append("U3 must carry the smallest score")
    if any(scores["U3"] >= scores[u] for u in ("U1", "U2", "U4")):
        failures.append("U3's score must be strictly minimal")
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.2f}s, budget is 1s")
    finish(4, "16-message one-troll thread reproduces the published ordering", failures)


def test_criterion_5_example2_reproduction():
    failures = []
    started = time.perf_counter()
    report = analyze(generate(example2()))
    elapsed = time.perf_counter() - started
    if report.trolls != frozenset({"U4", "U8"}):
        failures.append(f"trolls = {sorted(report.trolls)}, expected ['U4', 'U8']")
    if report.per_user["U4"] <= report.per_user["U8"]:
        failures.append("the late troll U4 must outscore the early troll U8")
    for victim in ("U1", "U2", "U3"):
        if victim in report.trolls:
            failures.append(f"victim {victim} misclassified as troll")
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.2f}s, budget is 1s")
    finish(5, "31-message two-troll thread reproduces the published ordering", failures)


def test_criterion_6_pipeline_oracle():
    failures = []
    rng = random.Random(1006)
    for trial in range(100):
        thread = random_thread(rng, max_users=5, max_messages=8)
        for rank in range(1, len(thread.messages) + 1):
            got = message_conflict(thread, rank)
            want = naive_message_conflict(thread, rank)
            if abs(got - want) > 1e-12:
                failures.append(f"trial {trial}: message {rank}: {got} vs {want}")
        for user in thread.users:
            got = user_conflict(thread, user)
            want = naive_user_conflict(thread, user)
            if abs(got - want) > 1e-12:
                failures.append(f"trial {trial}: user {user}: {got} vs {want}")
        if len(failures) > 5:
            break
    finish(6, "aggregation matches the naive formula transcription", failures)


def test_criterion_7_clustering_optimality():
    failures = []
    rng = random.Random(1007)
    for trial in range(500):
        values = {f"id{i}": rng.random() for i in range(rng.randint(2, 20))}
        part = kmeans2(values)
        high, low, _ = best_split(values)
        if part.high != high or part.low != low:
            failures.append(f"trial {trial}: partition differs from optimum")
    table = {"U1": 0.0610, "U2": 0.0639, "U3": 0.0489, "U4": 0.2030}
    if kmeans2(table).high != frozenset({"U4"}):
        failures.append("published score set must isolate U4")
    finish(7, "two-means equals the exhaustive split optimum", failures)


def test_criterion_8_robustness_sweep():
    failures = []
    unpinned = example1()._replace(pins={})
    hits = 0
    for seed in range(100):
        report = analyze(generate(unpinned._replace(seed=seed)))
        if report.trolls == frozenset({"U4"}):
            hits += 1
    if hits < 95:
        failures.append(f"troll identified in only {hits}/100 runs, need >= 95")
    finish(8, f"unpinned sweep identifies the troll in {hits}/100 runs", failures)


def _run_cli(args, cwd):
    # The child runs in ``cwd``, where a relative PYTHONPATH entry would no
    # longer resolve; run_interpreter hands it the package source by
    # absolute path.
    return run_interpreter(["-m", "trolldetect", *args], cwd=cwd, capture_output=True)


def test_criterion_9_cli_golden(tmp_path):
    failures = []

    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    for out in (first, second):
        proc = _run_cli(
            ["simulate", "--scenario", "example1", "--seed", "42", "--out", str(out)],
            tmp_path,
        )
        if proc.returncode != 0:
            failures.append(f"simulate exited {proc.returncode}")
    if first.read_bytes() != second.read_bytes():
        failures.append("simulate output differs between runs")

    detect_runs = [
        _run_cli(["detect", "--thread", str(first)], tmp_path) for _ in range(2)
    ]
    if any(p.returncode != 0 for p in detect_runs):
        failures.append("detect exited nonzero")
    if detect_runs[0].stdout != detect_runs[1].stdout:
        failures.append("detect stdout differs between runs")
    if b"U4" not in detect_runs[0].stdout:
        failures.append("detect did not report U4")

    # documented exit codes
    missing = _run_cli(["detect", "--thread", "does-not-exist.json"], tmp_path)
    if missing.returncode != 1:
        failures.append(f"missing file: exit {missing.returncode}, expected 1")

    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    malformed = _run_cli(["detect", "--thread", str(bad)], tmp_path)
    if malformed.returncode != 2:
        failures.append(f"malformed JSON: exit {malformed.returncode}, expected 2")

    frame = MessageFrame(topic_count=2, relevant_topic=1)
    shared = MassFunction(frame.frame, {frame.relevant_set(): 1.0})
    degenerate_thread = Thread(
        frame=frame,
        users=("U1", "U2"),
        messages=(
            Message(author="U1", rank=1, bba=shared),
            Message(author="U2", rank=2, bba=shared),
        ),
    )
    flat = tmp_path / "flat.json"
    flat.write_text(json.dumps(thread_to_dict(degenerate_thread)))
    degenerate = _run_cli(["detect", "--thread", str(flat)], tmp_path)
    if degenerate.returncode != 3:
        failures.append(f"degenerate: exit {degenerate.returncode}, expected 3")

    bad_rank = _run_cli(
        ["conflict", "--thread", str(first), "--a", "1", "--b", "99"], tmp_path
    )
    if bad_rank.returncode != 2:
        failures.append(f"bad rank: exit {bad_rank.returncode}, expected 2")

    missing_spec = _run_cli(
        ["simulate", "--spec", "no-such-spec.json", "--out", str(tmp_path / "x.json")],
        tmp_path,
    )
    if missing_spec.returncode != 1:
        failures.append(f"missing spec: exit {missing_spec.returncode}, expected 1")

    finish(9, "CLI byte-deterministic with documented exit codes", failures)
