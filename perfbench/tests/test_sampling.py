"""The benchmark's input sampling and machine-speed calibration, on tiny
inputs.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""

import random
import time

import pytest

import speed
import worker
import workloads
from workloads import Op


# -- sampling -----------------------------------------------------------------

def test_stratified_sample_takes_one_from_each_run_of_neighbours():
    items = list(range(100))
    picked = workloads._stratified(random.Random(1), items, 10)
    assert [x // 10 for x in sorted(picked)] == list(range(10))


def test_stratified_sample_takes_every_item_when_asked_for_more():
    picked = workloads._stratified(random.Random(1), list(range(7)), 20)
    assert sorted(picked) == list(range(7))


def test_balanced_draws_each_item_equally_often():
    drawn = workloads._balanced(random.Random(1), "abc", 9)
    assert sorted(drawn) == sorted("abc" * 3)


def test_stream_holds_every_stratum_in_each_block():
    strata = [["a1", "a2"], ["b1"], ["c1", "c2", "c3"]]
    out = workloads._stream(random.Random(1), strata, 7)
    assert len(out) == 9  # three whole blocks
    blocks = [sorted(out[i:i + 3]) for i in range(0, 9, 3)]
    assert blocks == [["a1", "b1", "c1"], ["a2", "b1", "c2"],
                      ["a1", "b1", "c3"]]


# -- machine speed ------------------------------------------------------------

def test_speed_probe_weighs_samples_by_op_time():
    values = iter([speed.REFERENCE_S] + [3 * speed.REFERENCE_S] * 3)
    probe = speed.SpeedProbe(lambda: next(values), speed.REFERENCE_S,
                             speed.MAX_BURST)
    probe.after_op(0.02)
    assert probe.samples == 0
    probe.after_op(0.03)  # 0.05 of op time: one sample
    probe.after_op(0.15)  # three samples, each standing for 0.05
    assert probe.samples == 4
    # (0.05 * 1 + 0.15 * 3) / 0.2
    assert probe.slowdown() == pytest.approx(2.5)


def test_speed_probe_without_samples_has_no_slowdown():
    with pytest.raises(ValueError):
        speed.in_process_probe().slowdown()


def test_child_probe_takes_one_fresh_interpreter_per_op():
    probe = speed.child_probe(None)
    probe.after_op(1.0)
    probe.after_op(0.2)
    assert probe.samples == 2 and probe.slowdown() > 0


def test_sampling_time_is_left_out_of_the_wall_time():
    def slow_sample():
        time.sleep(0.05)
        return speed.REFERENCE_S

    ops = [Op("f", "sleep", lambda _span: time.sleep(0.06))]
    probe = speed.SpeedProbe(slow_sample, speed.REFERENCE_S, speed.MAX_BURST)
    records, wall, _extra = worker.run_in_process(ops, 3, probe=probe)
    assert probe.samples == 6 and probe.slowdown() == pytest.approx(1.0)
    op_time = sum(r.seconds for r in records)
    assert op_time <= wall < op_time + 0.2  # six samples took 0.3 s
