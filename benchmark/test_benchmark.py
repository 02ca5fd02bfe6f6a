"""Tests for the benchmark's own checkers and a small run of each workload.

    python3 -m pytest benchmark/test_benchmark.py -q
"""

import json
import os
import random

import pytest

import run

run.load_package()

from skyq import cpqa, oracle  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SMALL = {
    "skyline-churn": {"n": 3000, "swap": 30, "queries": 10},
    "queue-drift": {"warm": 60, "ops": 400},
}


def _bench_spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def _random_points(rng, n):
    return sorted(zip(rng.sample(range(10 * n), n), rng.sample(range(10 * n), n)))


def test_band_staircase_matches_oracle():
    rng = random.Random(3)
    for _ in range(200):
        pts = _random_points(rng, rng.randrange(1, 60))
        lo, hi = sorted(rng.randrange(-5, 10 * len(pts) + 5) for _ in range(2))
        y_min = rng.randrange(-5, 10 * len(pts))
        assert checks.band_staircase(pts, lo, hi, y_min) == oracle.naive_query3(pts, lo, hi, y_min)


def _real_answer():
    """(workload, op, answer): a query3 answer from the program over uniform points."""
    wl = workloads.SkylineChurn(8, n=2000)
    wl.setup()
    op = ("query3", wl.live[100][0], wl.live[1900][0], -1)
    answer = wl.call(op)
    assert len(answer) >= 3
    return wl, op, answer


def test_query_checker_accepts_the_right_answer():
    wl, op, answer = _real_answer()
    assert wl.check(op, answer, None) is None


def test_query_checker_flags_a_dropped_staircase_point():
    wl, op, answer = _real_answer()
    got = answer[:1] + answer[2:]
    assert checks.staircase_problem(got, *op[1:]) is None  # the shape alone cannot tell
    assert wl.check(op, got, None) is not None


def test_query_checker_flags_an_extra_dominated_point():
    wl, op, answer = _real_answer()
    dominated = next(p for p in wl.live if op[1] < p[0] < answer[-1][0] and p not in answer)
    got = sorted(answer + [dominated])
    assert checks.staircase_problem(got, *op[1:]) is not None
    assert wl.check(op, got, None) is not None


def test_query_checker_flags_a_point_outside_the_band():
    assert checks.staircase_problem([(5, 9), (20, 3)], 0, 10, 0) is not None
    assert checks.staircase_problem([(5, 9), (8, 3)], 0, 10, 4) is not None


def test_queue_checker_flags_a_wrong_delete_min_element():
    ref = [(1, "a"), (4, "b"), (9, "c")]
    want, rest = oracle.naive_delete_min(ref)
    assert checks.queue_problem(cpqa.Element(1, "a"), want, rest, rest) is None
    assert checks.queue_problem(cpqa.Element(4, "b"), want, rest, rest) is not None
    assert checks.queue_problem(cpqa.Element(1, "a"), want, rest[1:], rest) is not None


def test_drift_loop_counts_a_planted_wrong_element():
    wl = workloads.QueueDrift(0, **SMALL["queue-drift"])
    wl.setup()
    real = wl.call

    def off_by_one(op):
        res = real(op)
        return res._replace(payload=-1) if op[0] == "delete_min" else res

    wl.call = off_by_one
    loop = workloads.Loop(wl)
    loop.run(0)
    deletes = sum(1 for op in wl.ops if op[0] == "delete_min")
    assert deletes > 0
    assert loop.failed >= deletes


@pytest.mark.parametrize("name", sorted(SMALL))
def test_small_run_completes(name):
    spec = _bench_spec()
    res = run.run(name, 5, 0.2, False, SMALL[name], out_dir=None)
    assert res["attempted"] >= 1
    assert set(res["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    for m in spec["end_to_end"]:
        assert res["metrics"][m["name"]]["unit"] == m["unit"]
        assert res["metrics"][m["name"]]["value"] > 0
    if name == "skyline-churn":
        assert res["correct"] and res["failed"] == 0


@pytest.mark.parametrize("name", sorted(SMALL))
def test_small_traced_run_reports_every_layer(name):
    spec = _bench_spec()
    res = run.run(name, 6, 0.2, True, SMALL[name], out_dir=None)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracing.PER_LAYER
    assert list(res["metrics"]) == [n for n, _ in tracing.PER_LAYER]
    layer = res["metrics"]
    assert layer["pfdeque.calls_per_op"]["value"] > 0
    assert layer["blockio.operation.calls_per_op"]["value"] > 0
    assert layer["cpqa.self_us_per_op"]["value"] > 0
    if name == "skyline-churn":
        assert layer["skyline.self_us_per_op"]["value"] > 0
        assert res["correct"]
    # the wrappers come off again
    assert not hasattr(cpqa.bias, "__wrapped__")


def test_drift_failures_are_the_bias_buffer_prepend_and_do_not_depend_on_seed():
    """Every failed queue-drift op took the _bias_buffer branch that prepends
    the head of a multi-record buffer deque onto the first dirty record, and
    the failing ops are the same whatever the seed."""
    hits = []
    orig = cpqa._combine_pair

    def spy(account, l1p, r2, b, allow_takes):
        out = orig(account, l1p, r2, b, allow_takes)
        if l1p and not allow_takes and out[0] == "prepend":
            hits.append(1)
        return out

    failing = []
    cpqa._combine_pair = spy
    try:
        for seed in (1, 2):
            wl = workloads.QueueDrift(seed)
            wl.setup()
            bad = []
            wl.round(0)
            for i, op in enumerate(wl.ops):
                hits.clear()
                res = wl.call(op)
                if wl.check(op, res, None) is not None:
                    assert hits, "op %d failed without the _bias_buffer prepend" % i
                    bad.append(i)
            failing.append(bad)
    finally:
        cpqa._combine_pair = orig
    assert failing[0] and failing[0] == failing[1]


def test_drift_reaches_every_structural_path():
    seen = set()
    names = ("_cat_small_left", "_cat_small_right", "_cat_general", "_bias_buffer", "_bias_dirty_pair", "_bias_absorb", "_repair_head")
    saved = {n: getattr(cpqa, n) for n in names}

    def spy(n):
        def f(*a, **k):
            seen.add(n)
            return saved[n](*a, **k)

        return f

    for n in names:
        setattr(cpqa, n, spy(n))
    try:
        wl = workloads.QueueDrift(0)
        wl.setup()
        workloads.Loop(wl).run(0)
    finally:
        for n, f in saved.items():
            setattr(cpqa, n, f)
    assert seen == set(names)

