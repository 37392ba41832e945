#!/usr/bin/env python3
"""The d2dpc benchmark: one workload per process, a closed loop of jobs.

    python3 bench/run.py --workload decode_heavy --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
Set-up (import, instance construction, one warm-up job) is repeated and
its median reported as ``setup_s``.  Then the workload's batch of jobs
runs again and again, one job at a time, until ``--seconds`` have passed.
Every time is scaled by a calibration run next to it, so that it reads in
seconds at the reference speed of the host (see ``calibrate``).
With ``--trace 1`` untraced and traced batches run instead, and the
per-layer metrics of the traced ones are reported.  The last line of
standard output is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it print every metric by
name with its unit.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter

sys.dont_write_bytecode = True  # leave the checkout as it was found

import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_REPEATS = 7
TRACE_OUT = BENCH_DIR / "out"

END_TO_END = {
    "wall_s": "s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "cpu_s": "s",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}


# The calibration's time on the machine the benchmark was tuned on when no
# other tenant slowed it; only the scale of the reported times depends on it.
CAL_SECONDS = 0.0005
SAMPLE_SECONDS = 0.1


def _calibration_work():
    """Fixed pure-Python work of the kinds d2dpc does: tuple-keyed dicts,
    shifts and masks of a big int, exact fractions.  It uses nothing from
    d2dpc, so a change to the library never changes its time."""
    table = {}
    buf = (1 << 4096) - 12345
    acc = 0
    for i in range(1000):
        key = (i % 97, i)
        table[key] = (buf >> (i % 512)) & 0xFFFF
        acc ^= table[key]
    total = Fraction(0)
    for i in range(1, 80):
        total += Fraction(i, i + 7)
    return acc, total


def calibrate() -> float:
    """Seconds the calibration work takes now, best of three.

    The host shares its cores with other tenants, and its speed swings by
    up to 2x in phases of seconds to minutes.  Dividing a job's time by
    the calibration time measured around and during it cancels most of
    that swing; multiplying by CAL_SECONDS gives seconds at the reference
    speed.
    """
    best = float("inf")
    for _ in range(3):
        start = perf_counter()
        _calibration_work()
        best = min(best, perf_counter() - start)
    return best


class SpeedSampler:
    """Calibrates every SAMPLE_SECONDS while a job runs, from a timer signal.

    A long job's speed changes while it runs, far from the calibrations at
    its two ends.  The handler runs between bytecodes of the job; its own
    time is recorded so that it can be taken out of the job's time.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def _sample(self, signum, frame):
        start = perf_counter()
        self.samples.append(calibrate())
        self.spent += perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_SECONDS, SAMPLE_SECONDS)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


@dataclass
class JobResult:
    wall: float
    cpu: float
    ok: bool
    fingerprint: object = None
    samples: tuple = ()  # calibration times taken while the job ran
    sampling: float = 0.0  # seconds those took, already out of ``wall``
    scale: float = 1.0  # CAL_SECONDS over the mean calibration time around and during the job


def _cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


class Runner:
    """Runs jobs one at a time, checks each output and counts failures.

    A job fails when it raises, when its check rejects its output, or when
    its output differs from the one the same job gave the first time.
    """

    def __init__(self, lib, jobs):
        self.lib = lib
        self.jobs = jobs
        self.reference: dict[int, object] = {}
        self.attempted = 0
        self.failed = 0
        self._reported = 0

    def run_job(self, index: int, tracer=None) -> JobResult:
        job = self.jobs[index]
        self.attempted += 1
        with SpeedSampler() as sampler:
            cpu0, start = _cpu(), perf_counter()
            try:
                if tracer is not None:
                    tracer.job = index
                out = job.run(self.lib)
            except Exception:
                out = None
                self._report(job, traceback.format_exc())
            finally:
                wall, cpu = perf_counter() - start, _cpu() - cpu0
                if tracer is not None:
                    tracer.job = None
        result = JobResult(wall - sampler.spent, cpu - sampler.spent, False,
                           samples=tuple(sampler.samples), sampling=sampler.spent)
        if out is not None:
            try:
                result.ok = bool(job.check(self.lib, out))
                result.fingerprint = job.fingerprint(out)
            except Exception:
                result.ok = False
                self._report(job, traceback.format_exc())
        if result.ok:
            expected = self.reference.setdefault(index, result.fingerprint)
            if result.fingerprint != expected:
                result.ok = False
                self._report(job, "output differs from the first run of the same job\n")
        elif out is not None:
            self._report(job, "output failed its exactness check\n")
        self.failed += not result.ok
        return result

    def run_batch(self, tracer=None) -> list[JobResult]:
        """Run every job once, with a calibration before and after each."""
        before = calibrate()
        results = []
        for i in range(len(self.jobs)):
            result = self.run_job(i, tracer)
            after = calibrate()
            around = [before, *result.samples, after]
            result.scale = CAL_SECONDS * len(around) / sum(around)
            before = after
            results.append(result)
        return results

    def _report(self, job, text: str) -> None:
        self._reported += 1
        if self._reported <= 5:
            print(f"job failed: {job.kind}\n{text}", file=sys.stderr, end="")


def set_up(workload: str, seed: int):
    """Import, build the instances and run the warm-up job, several times.

    Returns the runner of the last set-up and the median set-up time.
    """
    times, attempted, failed = [], 0, 0
    for _ in range(SETUP_REPEATS):
        before = calibrate()
        start = perf_counter()
        lib = workloads.load_library(ROOT)
        runner = Runner(lib, workloads.build_batch(lib, workload, seed))
        runner.run_job(0)
        elapsed = perf_counter() - start
        times.append(elapsed * 2 * CAL_SECONDS / (before + calibrate()))
        attempted += runner.attempted
        failed += runner.failed
    runner.attempted, runner.failed = attempted, failed
    return runner, statistics.median(times)


def job_times(batches: list[list[JobResult]]) -> tuple[list[float], list[float]]:
    """Each job's median wall and CPU time over the batches of a run, in
    seconds at the reference speed."""
    jobs = range(len(batches[0]))
    walls = [statistics.median(b[i].wall * b[i].scale for b in batches) for i in jobs]
    cpus = [statistics.median(b[i].cpu * b[i].scale for b in batches) for i in jobs]
    return walls, cpus


def timed_run(runner: Runner, seconds: float, setup_s: float) -> dict:
    batches = []
    start = perf_counter()
    while len(batches) < 2 or perf_counter() - start < seconds:
        batches.append(runner.run_batch())
    walls, cpus = job_times(batches)
    by_kind: dict[str, list[float]] = {}
    for job, wall in zip(runner.jobs, walls):
        by_kind.setdefault(job.kind, []).append(wall)
    slowest = max(by_kind, key=lambda kind: statistics.mean(by_kind[kind]))
    raw_wall = statistics.median(sum(r.wall for r in b) for b in batches)
    metrics = {
        "wall_s": sum(walls),
        "job_p50_s": statistics.median(walls),
        "job_tail_s": statistics.mean(by_kind[slowest]),
        "cpu_s": sum(cpus),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
    }
    jobs = len(runner.jobs)
    notes = {
        "wall_s": f"sum over {jobs} jobs of each one's median of {len(batches)} runs; "
                  f"unscaled median batch {raw_wall:.3f} s",
        "job_p50_s": f"median of the {jobs} job times",
        "job_tail_s": f"mean time of the slowest kind: {len(by_kind[slowest])} x {slowest}",
        "cpu_s": "user+system, summed like wall_s",
        "peak_rss_mib": "ru_maxrss of this process",
        "setup_s": f"median of {SETUP_REPEATS} set-ups",
    }
    for name, value in metrics.items():
        print(f"{name:<14} {value:>14.6f} {END_TO_END[name]:<4} ({notes[name]})")
    return {name: {"value": value, "unit": END_TO_END[name]} for name, value in metrics.items()}


def traced_run(runner: Runner, workload: str, seed: int, seconds: float) -> tuple[dict, bool]:
    """Run untraced and traced batches; report per-layer metrics.

    One untraced batch, then two traced ones, then untraced and traced in
    turn until ``seconds`` have passed.  Counts must repeat exactly across
    the traced batches (same inputs).
    """
    tracer = tracing.Tracer(runner.lib)
    untraced, traced, times, counts = [], [], [], []
    start = perf_counter()
    untraced.append(runner.run_batch())
    while True:
        tracer.reset()
        tracer.install()
        try:
            traced.append(runner.run_batch(tracer))
        finally:
            tracer.remove()
        batch_times, batch_counts = tracer.batch_metrics()
        times.append(batch_times)
        counts.append(batch_counts)
        if len(traced) == 1:
            kinds = {i: job.kind for i, job in enumerate(runner.jobs)}
            spans_s = {i: r.wall + r.sampling for i, r in enumerate(traced[0])}
            shares = tracer.kind_shares(kinds, spans_s)
            tracer.write_spans(TRACE_OUT / f"trace-{workload}-seed{seed}.json.gz",
                               {"workload": workload, "seed": seed,
                                "jobs": [job.kind for job in runner.jobs]})
        elif perf_counter() - start >= seconds:
            break
        else:
            untraced.append(runner.run_batch())
    counts_repeat = all(c == counts[0] for c in counts[1:])
    if not counts_repeat:
        print("trace counts differ between traced batches of the same inputs", file=sys.stderr)
    metrics = tracing.layer_metrics(times, counts[0], sum(job_times(untraced)[0]),
                                     sum(job_times(traced)[0]))
    for kind, per in shares.items():
        top = sorted(per.items(), key=lambda kv: -kv[1])
        print(f"share  {kind}: " + ", ".join(f"{n} {v:.1%}" for n, v in top if v >= 0.01))
    for name, m in metrics.items():
        print(f"{name:<40} {m['value']:>16.6f} {m['unit']}")
    return metrics, counts_repeat


def run_all(args) -> int:
    """Each workload in its own process, so each peak RSS is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        print(f"== {workload}", flush=True)
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode not in (0, 1) or not lines:
            return proc.returncode or 2
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    try:
        runner, setup_s = set_up(args.workload, args.seed)
    except workloads.LibraryMissing as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"jobs/batch={len(runner.jobs)}")
    counts_repeat = True
    if args.trace:
        metrics, counts_repeat = traced_run(runner, args.workload, args.seed, args.seconds)
    else:
        metrics = timed_run(runner, args.seconds, setup_s)
    correct = runner.failed == 0 and counts_repeat
    print(f"attempted={runner.attempted} failed={runner.failed} "
          f"failed_frac={runner.failed / runner.attempted:g} correct={correct}")
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
