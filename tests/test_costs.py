"""Deterministic costs held to stated bounds: what loading and scoring CI's
2 000-message thread, and scoring its ragged variant, allocate, by
``tracemalloc``.

Each bound is the value measured before this module existed times the slack
written beside it.  The values were measured on Linux x86-64 with Python
3.11.7 and numpy 2.4.6, one traced call each, as the tests below make it.
Loading allocates the same objects on every Python the package supports
(3.10.13 peaked 9 % higher, 3.12.1 and 3.13.0 3 % lower), and scoring's
peak is numpy arrays whose sizes the thread fixes.  A change that moves a
bound up says so, and why.
"""

import json
import random
import tracemalloc

import pytest

from trolldetect import generate, load_thread, pipeline, thread_from_dict, thread_to_json
from trolldetect.simulate import spec_from_dict

from helpers import bench_workloads

MB = 1_000_000
# load_thread: peaked at 3.24 MB (the decoded document) and retained 0.70 MB
# (the thread).  Slack 1.3 on the peak and 1.5 on the smaller retained size,
# which moved by up to 0.11 MB between repeated loads in one process.
LOAD_PEAK = 3.24 * MB * 1.3
LOAD_RETAINED = 0.70 * MB * 1.5
# _score_rows over every row: peaked at 1.05 MB (vocabulary packing, K = 4;
# the tiles are bounded by _BLOCK_ENTRIES).  Slack 1.3.
SCORE_PEAK = 1.05 * MB * 1.3
# _score_rows over every row of the ragged thread: peaked at 4.55 MB
# (vocabulary packing, K = 68; 4.555 MB in each of three runs).  Slack 1.3.
RAGGED_SCORE_PEAK = 4.55 * MB * 1.3


@pytest.fixture(scope="module")
def scaled_file(tmp_path_factory):
    """CI's 2 000-message thread, ``scaled_example1_spec(7, 2000, 125, 750,
    375)``, as ``thread_to_json`` writes it."""
    spec = bench_workloads().scaled_example1_spec(7, 2000, 125, 750, 375)
    path = tmp_path_factory.mktemp("costs") / "scaled.json"
    path.write_text(thread_to_json(generate(spec_from_dict(spec))))
    return path


@pytest.fixture(scope="module")
def ragged_thread():
    """CI's ``ragged.json``: the 2 000-message spec over 14 topics, with
    message 1 001's bba replaced by 64 random focal sets."""
    spec = bench_workloads().scaled_example1_spec(7, 2000, 125, 750, 375)
    spec["topic_count"] = 14
    document = json.loads(thread_to_json(generate(spec_from_dict(spec))))
    labels = ["Off-topic", "Senseless"] + [f"Topic_{j}" for j in range(1, 15)]
    rng = random.Random(64)
    subsets = rng.sample(range(1, 1 << 16), 64)
    weights = [rng.uniform(0.05, 1.0) for _ in subsets]
    document["messages"][1000]["bba"] = [
        {"set": [x for i, x in enumerate(labels) if s >> i & 1], "mass": w / sum(weights)}
        for s, w in zip(subsets, weights)
    ]
    return thread_from_dict(document)


def _traced(call):
    """``call()``'s result, and the bytes it left allocated and at its peak."""
    tracemalloc.start()
    try:
        result = call()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, retained, peak


def test_loading_the_2000_message_thread(scaled_file):
    thread, retained, peak = _traced(lambda: load_thread(scaled_file))
    assert len(thread.messages) == 2000
    assert peak <= LOAD_PEAK, f"peak {peak / MB:.2f} MB"
    assert retained <= LOAD_RETAINED, f"retained {retained / MB:.2f} MB"


def test_scoring_the_2000_message_thread(scaled_file):
    thread = load_thread(scaled_file)
    (_, scoring), _, peak = _traced(lambda: pipeline._score_rows(thread, range(1, 2001)))
    assert (scoring["packing"], scoring["vocabulary"]) == ("vocabulary", 4)
    assert peak <= SCORE_PEAK, f"peak {peak / MB:.2f} MB"


def test_scoring_the_ragged_thread(ragged_thread):
    (_, scoring), _, peak = _traced(lambda: pipeline._score_rows(ragged_thread, range(1, 2001)))
    assert (scoring["packing"], scoring["vocabulary"]) == ("vocabulary", 68)
    assert peak <= RAGGED_SCORE_PEAK, f"peak {peak / MB:.2f} MB"
