"""The speed probe's arithmetic, and its sampling in this process and in
forked pool workers.

    python3 -m pytest -q bench
"""

import time
from multiprocessing import Pool

import pytest

import speed


def busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass
    return seconds


def probe_with(ticks, samples):
    probe = speed.SpeedProbe()
    probe.ticks, probe.samples = ticks, samples
    return probe


def test_scaled_time_weights_each_slice_by_its_own_sample():
    ref = speed.REFERENCE_S
    # 1 s at the reference speed, then 1 s at half of it.
    probe = probe_with([(1.0, 1.0), (2.0, 1.0)], [(1.0, ref), (2.0, 2 * ref)])
    assert probe.work_s() == 2.0
    assert probe.scaled_s() == pytest.approx(1.5)
    assert probe.slowdown() == pytest.approx(1.5)


def test_slices_without_a_sample_take_the_nearest_one():
    ref = speed.REFERENCE_S
    # Two samples after the second tick; the first slice has none.
    probe = probe_with([(1.0, 1.0), (2.0, 1.0)], [(2.1, ref), (2.2, 3 * ref)])
    assert probe.slice_kernels() == pytest.approx([ref, 2 * ref])


def test_samples_in_this_process():
    with speed.SpeedProbe(interval_s=0.02) as probe:
        busy(0.3)
    assert len(probe.samples) >= 5
    assert probe.work_s() == pytest.approx(0.3, abs=0.05)
    assert probe.scaled_s() > 0


def test_samples_in_forked_workers_and_not_in_the_parent():
    with speed.SpeedProbe(interval_s=0.02, children=True) as probe:
        with Pool(processes=2) as pool:
            assert pool.map(busy, [0.4, 0.4]) == [0.4, 0.4]
    # Each tick while the pool runs samples in both workers.
    assert len(probe.samples) > len(probe.ticks) >= 10
    assert probe.scaled_s() > 0
