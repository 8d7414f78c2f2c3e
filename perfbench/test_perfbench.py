"""Self-tests of the benchmark itself.

    python3 -m pytest -q -p no:cacheprovider perfbench
"""

from __future__ import annotations

import math
from array import array
from collections import Counter

import pytest

import run
import spans
import workloads
from workloads import compositions, generate, is_convergent


def test_generator_is_deterministic_per_seed():
    assert generate("eval-direct", 7, 15) == generate("eval-direct", 7, 15)
    assert generate("eval-direct", 7, 15) != generate("eval-direct", 8, 15)
    # the lab workloads run one fixed order for every seed
    for name in ("lab-exact", "lab-recheck"):
        assert generate(name, 7, 15) == generate(name, 8, 15)


def test_eval_direct_inputs_are_in_the_domain():
    ops = generate("eval-direct", 3, 15)
    assert len({(op[1], op[2]) for op in ops}) == len(ops)  # every key is new
    # each round of 38 holds every convergent sequence of weight 2..7 once,
    # and the six monotangent indices a second time
    first_round = Counter(op[1] for op in ops[:38])
    assert len(first_round) == 32
    assert all(n == (2 if len(s) == 1 else 1) for s, n in first_round.items())
    for kind, parts, (x, y), target in ops:
        assert kind == "direct"
        assert is_convergent(parts) and 2 <= sum(parts) <= 7
        assert -2 < x < 3 and 0.05 <= x - math.floor(x) <= 0.95
        assert 0.1 <= abs(y) <= 2.0
        assert target in workloads.DIRECT_TARGETS


@pytest.mark.parametrize("name", ["lab-exact", "lab-recheck"])
def test_lab_inputs_are_in_the_domain(name):
    ops = generate(name, 3, 15)
    assert len(set(ops)) == len(ops)  # each operation once
    recheck = name == "lab-recheck"
    max_cleanse = 8 if recheck else 9
    for op in ops:
        kind, arg = op[0], op[1]
        if kind in ("kernel", "projection", "cleanse"):
            assert op[2] is recheck
        if kind == "kernel":
            assert (5 if recheck else 4) <= arg <= (8 if recheck else 9)
        elif kind == "projection":
            assert arg[0] >= 2 and 2 <= sum(arg) <= 7
        elif kind == "cleanse":
            assert 1 in arg and max(arg) >= 2 and 3 <= sum(arg) <= max_cleanse
        elif kind == "reduce":
            assert not recheck and 1 <= sum(arg) <= 9
        elif kind == "rank":
            assert not recheck and 2 <= arg <= 7
        else:
            assert kind == "suite" and recheck and arg in ("trifact", "flatness")
    # all-ones sequences have no unit-free form and are never generated
    assert not any(op[0] == "cleanse" and set(op[1]) == {1} for op in ops)
    assert len(ops) == (283 if recheck else 1034)


def test_compositions():
    assert compositions(3) == [(1, 1, 1), (1, 2), (2, 1), (3,)]
    assert all(len(compositions(w)) == 2 ** (w - 1) for w in range(1, 10))


@pytest.fixture(scope="module")
def program():
    return workloads.import_program()


def _fail_ratio(ops, results):
    failures = workloads.check(ops, results, seed=5)
    main = {
        "latencies": [0.01] * len(ops),
        "calibrations": [run.CAL_REFERENCE_S] * (len(ops) + 1),
        "within": [[]] * len(ops),
        "peak_rss_mb": 1.0,
        "check_s": 0.0,
        "failures": [[i, workloads.describe(ops[i]), r] for i, r in failures.items()],
    }
    setup = {"setup_s": 1.0, "setup_calibrations": [run.CAL_REFERENCE_S]}
    return failures, run.summary(main, [setup])[0]["fail_ratio"][0]


def test_planted_wrong_value_counts_in_fail_ratio(program):
    ops = generate("eval-direct", 5, 1)[:3]
    results = [workloads.prepare(op)() for op in ops]
    assert _fail_ratio(ops, results) == ({}, 0)
    results[1] += 1e-6
    failures, ratio = _fail_ratio(ops, results)
    assert list(failures) == [1] and ratio == pytest.approx(1 / 3)


def test_planted_wrong_exact_results_count_in_fail_ratio(program):
    ops = [("kernel", 6, False), ("cleanse", (3, 1, 2), False), ("reduce", (2, 1, 3))]
    results = [workloads.prepare(op)() for op in ops]
    assert _fail_ratio(ops, results) == ({}, 0)
    wrong = [results[0][1:], results[1].scale(2), results[2]]
    failures, ratio = _fail_ratio(ops, wrong)
    assert sorted(failures) == [0, 1] and ratio == pytest.approx(2 / 3)


def test_self_time_on_a_nested_span_tree():
    # a: 0..10 with children b: 1..4 and c: 5..9; c has child b: 6..7
    kind = array("H", [0, 1, 2, 1])
    parent = array("q", [-1, 0, 0, 2])
    start = array("d", [0, 1, 5, 6])
    end = array("d", [10, 4, 9, 7])
    calls, self_s = spans.self_times(kind, parent, start, end)
    assert dict(calls) == {0: 1, 1: 2, 2: 1}
    assert dict(self_s) == {0: 3, 1: 4, 2: 3}
    # from span 2 on: c and its child only
    calls, self_s = spans.self_times(kind, parent, start, end, lo=2)
    assert dict(calls) == {1: 1, 2: 1} and dict(self_s) == {1: 1, 2: 3}


def test_wrapper_records_parents_and_raises():
    tracer = spans.Tracer()

    def leaf(x):
        if x < 0:
            raise ValueError(x)
        return x

    leaf = tracer.wrap("leaf", leaf)
    outer = tracer.wrap("outer", lambda: leaf(1) + leaf(2))
    assert outer() == 3
    with pytest.raises(ValueError):
        leaf(-1)
    assert list(tracer.kind) == [1, 0, 0, 0]
    assert list(tracer.parent) == [-1, 0, 0, -1]
    assert list(tracer.raised) == [0, 0, 0, 1]
    assert all(e >= s for s, e in zip(tracer.start, tracer.end))


def test_speed_scaling_follows_the_calibrations_around_each_operation():
    ref = run.CAL_REFERENCE_S
    # the host runs at half speed around operation 2 and at full speed elsewhere
    cals = [ref, ref, ref, 2 * ref, 2 * ref, ref, ref]
    lat = [0.01, 0.01, 0.02, 0.02, 0.01, 0.01]
    # operation 1 is long, and the timer sampled the host at a third of its speed
    within = [[], [3 * ref] * 5, [], [], [], []]
    scaled = run.speed_scaled({"latencies": lat, "calibrations": cals, "within": within})
    assert scaled[0] == pytest.approx(0.01)
    assert scaled[1] == pytest.approx(0.01 / 3)
    assert scaled[2] == pytest.approx(0.02 / 1.5)  # median of ref, ref, 2ref, 2ref
    assert scaled[3] == pytest.approx(0.02 / 1.5)  # median of ref, 2ref, 2ref, ref
    assert scaled[4] == pytest.approx(0.01 / 1.5)  # median of 2ref, 2ref, ref, ref
    assert scaled[5] == pytest.approx(0.01)
    setup = {"setup_s": 6.0, "setup_calibrations": [2 * ref] * 3 + [ref]}
    assert run.setup_scaled(setup) == pytest.approx(3.0)


def test_calibration_allocates_no_tracked_objects_but_its_dict():
    import gc

    import worker

    worker.calibrate()
    gc.disable()
    try:
        before = gc.get_count()[0]
        worker.calibrate()
        assert gc.get_count()[0] - before <= 1
    finally:
        gc.enable()


def test_timer_calibrations_are_taken_off_the_latency():
    import time

    import worker

    phase = worker.timed_phase([lambda: time.sleep(0.35)], None, None)
    assert len(phase["within"][0]) >= 2
    # the handler ran inside the call, and its time is not in the latency
    assert phase["latencies"][0] == pytest.approx(0.35, abs=0.02)
    assert len(phase["calibrations"]) == 2


def test_tail_has_ten_samples_beyond():
    value, pct, beyond = run.tail([i / 100 for i in range(100, 0, -1)])
    assert (value, pct, beyond) == (0.9, 90.0, 10)
    assert run.tail([0.5, 0.2]) == (0.5, 100.0, 0)
