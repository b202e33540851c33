"""The host-speed sampler: samples are kept only inside a job's window and
their handler time is what the job's time is reduced by."""

import signal
import time

import hostclock


def busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_trimmed_mean_drops_both_ends():
    assert hostclock.trimmed_mean([5.0, 1.0, 2.0, 3.0, 4.0]) == 3.0
    values = [1.0] * 8 + [100.0, -100.0]
    assert hostclock.trimmed_mean(values) == 1.0


def test_claim_keeps_samples_inside_the_window():
    sampler = hostclock.HostSampler()
    previous = signal.getsignal(signal.SIGALRM)
    with sampler:
        busy(0.3)                    # outside any window: dropped
        sampler.claim(0.0, 0.0)
        start = time.perf_counter()
        busy(0.6)
        end = time.perf_counter()
        taken = sampler.claim(start, end)
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    kept = sampler.count()
    assert kept >= 3
    assert 0.0 < taken < end - start
    # Kernels take their turns, so no kernel has two samples more than
    # another.
    sizes = [len(s) for s in sampler.samples]
    assert max(sizes) - min(sizes) <= 1
    assert sum(sum(s) for s in sampler.samples) <= taken


def test_reference_times_kernels_no_job_sampled():
    sampler = hostclock.HostSampler()
    assert sampler.count() == 0
    reference = sampler.reference()
    assert reference > 0.0
    assert sampler.count() == len(sampler.kernels)
