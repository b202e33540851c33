"""Benchmark of the gark pipeline: one workload per process.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (see workloads.py): gs_estimate, bsvd_campaign and
calvo_converge.
Jobs run closed loop, one at a time, in this process.  After the first
job, jobs are started while the next one would likely end within
``--seconds``.  Every job's outputs are checked; a job that raises, fails a
check, or differs bitwise from the first job counts as failed.

``--trace 0`` reports the end-to-end metrics:
  setup_s                median over SETUP_PROBES fresh processes, half
                         started before the jobs and half after, of the
                         time from process start to the first job being
                         ready (imports, problem build, tableau validation)
  wall_rel               mean time of one job divided by the host's
                         reference time, which hostclock.HostSampler
                         samples during the jobs themselves; the sampler's
                         own time is taken out of the jobs' times
  unknown_steps_per_ref  sum of unknowns x steps over the job's forward
                         runs, divided by wall_rel
  peak_rss_mb            peak resident memory of this process and its
                         children, up to the end of the first job, less
                         the sampler's own resident memory
and prints beside them the raw wall_s (median job time without the
sampler's), unknown_steps_per_s, effectivity (estimate workloads; the final
stage's on the campaign), order_gap (calvo_converge) and fail_rate.  The
raw times are not gated: on a shared host their run-to-run spread is wider
than any bound a regression gate can use, while the ratio to the reference
sampled alongside the jobs cancels most of the host's speed changes.

``--trace 1`` alternates untraced and traced jobs and reports the per-layer
metrics of layers.py, medians over the traced jobs, plus trace_overhead =
traced wall_s / untraced wall_s - 1.  Its checks add: traced outputs equal
untraced ones bitwise, counts repeat exactly across traced jobs, and the
traced unknowns x steps equal the work the untraced run computes.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from hostclock import HostSampler

HERE = Path(__file__).resolve().parent
# Set-up probes run half before and half after the jobs, so that they see
# more than one of the host's speed phases.
SETUP_PROBES = 6
# No job after the first starts when it would likely end later than this,
# so a run stays well inside its time limit on a slow machine.
JOB_DEADLINE_S = 120.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


class JobLog:
    """Times and outcomes of the jobs of one run, with their verdicts."""

    def __init__(self):
        self.times = {False: [], True: []}   # traced? -> seconds per job
        self.outcomes = []
        self.failed = 0
        self.reference = None                # first good fingerprint

    def record(self, seconds, outcome, traced=False) -> bool:
        """Log one job; True when it passed its checks."""
        self.times[traced].append(seconds)
        if outcome is None:
            self.failed += 1
            return False
        self.outcomes.append(outcome)
        if self.reference is None and not outcome.problems:
            self.reference = outcome.fingerprint
        if outcome.fingerprint != self.reference:
            outcome.problems.append("outputs differ bitwise from the "
                                    "run's first job")
        self.reject(outcome.problems)
        return not outcome.problems

    def reject(self, problems) -> None:
        """Count one more failed job if there are problems."""
        for problem in problems:
            print(f"check failed: {problem}", file=sys.stderr)
        self.failed += bool(problems)

    @property
    def attempted(self) -> int:
        return len(self.times[False]) + len(self.times[True])

    def work(self) -> int:
        return next((o.work for o in self.outcomes if not o.problems), 0)


def run_job(workload, tracer=None, sampler=None):
    """(seconds, outcome) of one job; outcome is None if the job raised.
    With a sampler, the seconds leave out the time its handler took."""
    gc.collect()
    restore = None
    if tracer is not None:
        import layers
        restore = layers.install(tracer, workload.integrate_label)
        tracer.job += 1
    raised = False
    start = time.perf_counter()
    try:
        if tracer is None:
            result = workload.run()
        else:
            with tracer.span("job"):
                result = workload.run()
    except Exception:
        traceback.print_exc()
        raised = True
    finally:
        end = time.perf_counter()
        seconds = end - start
        if sampler is not None:
            seconds -= sampler.claim(start, end)
        if restore is not None:
            restore()
    if raised:
        return seconds, None
    try:
        return seconds, workload.digest(result)
    except Exception:
        traceback.print_exc()
        return seconds, None


def another_job(durations, started, seconds) -> bool:
    """Whether another job (or pair of jobs), lasting about the median of
    ``durations``, would end within the run's time."""
    ends_at = time.perf_counter() - started + statistics.median(durations)
    return ends_at <= min(seconds, JOB_DEADLINE_S)


def setup_seconds(workload, probes) -> list:
    """Set-up times of fresh processes, each measured from its start."""
    command = [sys.executable, str(HERE / "probe.py"), workload.name,
               str(workload.seed)] + (["smoke"] if workload.smoke else [])
    samples = []
    for _ in range(probes):
        start = time.monotonic()
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=60, check=True)
        samples.append(float(done.stdout.split()[-1]) - start)
    return samples


def peak_rss_mb() -> float:
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def resident_mb() -> float:
    """Current resident memory of this process."""
    pages = int(Path("/proc/self/statm").read_text().split()[1])
    return pages * resource.getpagesize() / 2.0 ** 20


def plain_run(workload, seconds):
    setups = setup_seconds(workload, SETUP_PROBES // 2)
    workload.setup()
    peak_before = peak_rss_mb()
    resident = resident_mb()
    sampler = HostSampler()
    sampler_mb = resident_mb() - resident
    log = JobLog()
    started = time.perf_counter()
    with sampler:
        while True:
            log.record(*run_job(workload, sampler=sampler))
            if len(log.times[False]) == 1:
                # Later jobs reuse a heap the first one fragmented, so only
                # the first job's peak is the peak of a fresh process.
                rss = max(peak_before, peak_rss_mb() - sampler_mb)
            if not another_job(log.times[False], started, seconds):
                break
    reference = sampler.reference()
    setups += setup_seconds(workload, SETUP_PROBES - len(setups))
    wall_rel = statistics.mean(log.times[False]) / reference
    wall = statistics.median(log.times[False])
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_rel": (wall_rel, "ratio"),
        "unknown_steps_per_ref": (log.work() / wall_rel, "1/ref"),
        "peak_rss_mb": (rss, "MB"),
    }
    notes = {"wall_s": f"{wall:.6g} s",
             "unknown_steps_per_s": f"{log.work() / wall:.6g} 1/s",
             "reference_s": f"{reference:.6g} s "
                            f"({sampler.count()} samples)",
             "reference kernels": sampler.breakdown(),
             "sampler_mb": f"{sampler_mb:.3g} MB",
             "setup_s samples": [round(s, 4) for s in setups],
             "wall_s samples": [round(t, 3) for t in log.times[False]],
             "work (unknowns x steps)": log.work()}
    quality = [o.quality for o in log.outcomes if not o.problems]
    if quality:
        notes.update(quality[0])
    notes["fail_rate"] = f"{log.failed}/{log.attempted}"
    return log, metrics, notes


def traced_run(workload, seconds):
    # Imported here so that untraced runs never load the wrapping code.
    import layers
    from tracer import SpanTable, Tracer

    tracer = Tracer()
    restore = layers.install(tracer, workload.integrate_label)
    try:
        with tracer.span("setup"):
            workload.setup()
    finally:
        restore()
    log = JobLog()
    traced_ok = []
    started = time.perf_counter()
    while True:
        log.record(*run_job(workload))
        traced_ok.append(log.record(*run_job(workload, tracer), traced=True))
        pairs = [a + b for a, b in zip(log.times[False], log.times[True])]
        if not another_job(pairs, started, seconds):
            break

    table = SpanTable(tracer.spans)
    per_job = [layers.layer_metrics(table, {0, job})
               for job in range(1, tracer.job + 1)]
    for ok, job_metrics in zip(traced_ok, per_job):
        problems = [f"{name} differs from the first traced job"
                    for name, (value, unit) in job_metrics.items()
                    if unit in ("count", "bytes")
                    and value != per_job[0][name][0]]
        traced_work = job_metrics["forward.unknown_steps"][0]
        if traced_work != log.work():
            problems.append(f"traced unknowns x steps {traced_work} != "
                            f"{log.work()}")
        if ok:
            log.reject(problems)
    metrics = {name: (statistics.median(m[name][0] for m in per_job), unit)
               for name, (_, unit) in per_job[0].items()}
    overhead = (statistics.median(log.times[True])
                / statistics.median(log.times[False]) - 1.0)
    metrics["trace_overhead"] = (overhead, "ratio")
    notes = {"untraced wall_s samples": [round(t, 3)
                                         for t in log.times[False]],
             "traced wall_s samples": [round(t, 3) for t in log.times[True]],
             "spans recorded": len(tracer.spans),
             "fail_rate": f"{log.failed}/{log.attempted}"}
    return log, metrics, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import workloads
    except ImportError as err:
        print(f"cannot load the program: {err}", file=sys.stderr)
        return 2
    workload = workloads.make(args.workload, args.seed)
    run = traced_run if args.trace else plain_run
    log, metrics, notes = run(workload, args.seconds)

    print(f"{workload.name} seed={workload.seed} ({workload.describe()}), "
          f"trace={args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:.6g} {unit}")
    for name, value in notes.items():
        print(f"  {name:<40} {value}")
    print(json.dumps({
        "correct": log.failed == 0,
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
