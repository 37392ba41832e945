"""Tests of the benchmark itself: python -m pytest bench -q"""

import json
import signal
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import pytest

import run
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def lib():
    return workloads.load_library(ROOT)


def _modules(lib):
    return list(vars(lib).values())


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_seed_changes_inputs_not_the_mix(lib, name):
    first = workloads.build_batch(lib, name, 1)
    again = workloads.build_batch(lib, name, 1)
    other = workloads.build_batch(lib, name, 2)
    assert [j.kind for j in first] == [j.kind for j in other]
    assert [j.inputs for j in first] == [j.inputs for j in again]
    assert [j.inputs for j in first] != [j.inputs for j in other]


def test_unknown_workload_is_refused(lib):
    with pytest.raises(ValueError):
        workloads.build_batch(lib, "nope", 1)


def test_missing_library_is_refused(tmp_path):
    with pytest.raises(workloads.LibraryMissing):
        workloads.load_library(tmp_path)


def test_wrappers_restore_every_patched_name(lib):
    before = {(id(m), k): v for m in _modules(lib) for k, v in vars(m).items()}
    tracer = tracing.Tracer(lib)
    tracer.install()
    try:
        patched = {(id(m), k) for m in _modules(lib) for k, v in vars(m).items()
                   if v is not before[(id(m), k)]}
        # every traced function is replaced in its own module, and also
        # under the names other modules import it by
        assert all((id(getattr(lib, m)), a) in patched for m, a, _ in tracing.TRACED)
        assert (id(lib.bounds), "upper_envelope_of_lines") in patched
        assert (id(lib.scheme_b), "decode_from_messages") in patched
    finally:
        tracer.remove()
    after = {(id(m), k): v for m in _modules(lib) for k, v in vars(m).items()}
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def _small_jobs(lib):
    A, B = lib.scheme_a.params_for, lib.scheme_b.params_for
    return [
        workloads.simulate_job("A", A(3, 2, 3, seed=5), (1, 2, 2), round_trip=False),
        workloads.simulate_job("B", B(4, 2, seed=6, b_target=4096), (3, 1), round_trip=True),
        workloads.privacy_exact_job("A", A(2, 2, 1, seed=7)),
        workloads.privacy_exact_job("A", A(2, 2, 2, seed=7), derandomized=True),
        workloads.privacy_mc_job("A", A(3, 2, 2, seed=8), trials=20, base_seed=9,
                                 derandomized=True),
        workloads.gap_job(2, 8, "schemeB", "conv2u", 40),
        workloads.curve_job("conv2u", 2, 8, 50),
    ]


def test_traced_counts_repeat_and_outputs_match_untraced(lib):
    runner = run.Runner(lib, _small_jobs(lib))
    runner.run_batch()
    tracer = tracing.Tracer(lib)
    counts = []
    for _ in range(2):
        tracer.reset()
        tracer.install()
        try:
            runner.run_batch(tracer)
        finally:
            tracer.remove()
        counts.append(tracer.batch_metrics()[1])
    runner.run_batch()
    assert runner.failed == 0 and runner.attempted == 4 * len(runner.jobs)
    assert counts[0] == counts[1]
    for name in ("gf2.equations", "sim.payload_bits", "verify.protocol_runs",
                 "bounds.gap.grid_points", "core.transcript_bytes"):
        assert counts[0][name] > 0, name


def test_flipped_decoded_bit_is_counted_failed(lib, monkeypatch):
    job = _small_jobs(lib)[0]
    runner = run.Runner(lib, [job])
    runner.run_batch()
    assemble = lib.core.assemble_file
    monkeypatch.setattr(lib.core, "assemble_file", lambda layout, slots: assemble(layout, slots) ^ 1)
    runner.run_batch()
    assert (runner.attempted, runner.failed) == (2, 1)


def test_wrong_load_and_changed_output_are_counted_failed(lib):
    job = _small_jobs(lib)[0]
    runner = run.Runner(lib, [job])
    runner.run_batch()
    real = job.run

    def off_by_one(lib_):
        out = real(lib_)
        out.load += 1
        return out

    job.run = off_by_one
    runner.run_batch()
    job.run = real
    runner.reference[0] = "something else"  # as if the first run had differed
    runner.run_batch()
    assert (runner.attempted, runner.failed) == (3, 2)


def test_privacy_verdicts_are_checked(lib):
    private, baseline = _small_jobs(lib)[2:4]
    assert private.check(lib, private.run(lib))
    assert baseline.check(lib, baseline.run(lib))
    assert not private.check(lib, baseline.run(lib))


def test_bound_checks_reject_changed_numbers(lib):
    gap, curve = _small_jobs(lib)[5:7]
    gap_out, curve_out = gap.run(lib), curve.run(lib)
    assert gap.check(lib, gap_out) and curve.check(lib, curve_out)
    gap_out.stdout = gap_out.stdout.replace("6/5", "7/5")
    assert not gap.check(lib, gap_out)
    header, first, *rows = curve_out.stdout.splitlines()
    interpolated = next(i for i, r in enumerate(rows) if r.endswith(",interpolated"))
    fields = rows[interpolated].split(",")
    r = Fraction(fields[2]) + Fraction(1, 1000)  # off the chord, consistently printed
    fields[2:4] = [str(r), f"{float(r):.12g}"]
    rows[interpolated] = ",".join(fields)
    curve_out.stdout = "\n".join([header, first, *rows]) + "\n"
    assert not curve.check(lib, curve_out)


def test_job_times_are_scaled_medians():
    batches = [[run.JobResult(3.0, 2.0, True, scale=1.0), run.JobResult(1.0, 1.5, True, scale=0.5)],
               [run.JobResult(2.0, 2.5, True, scale=1.0), run.JobResult(4.0, 1.0, True, scale=0.5)],
               [run.JobResult(9.0, 1.0, True, scale=0.5), run.JobResult(3.0, 1.0, True, scale=0.5)]]
    assert run.job_times(batches) == ([3.0, 1.5], [2.0, 0.5])


def test_calibration_takes_time():
    assert 0 < run.calibrate() < 1


def test_layer_metrics_cover_the_declared_list(lib):
    tracer = tracing.Tracer(lib)
    metrics = tracing.layer_metrics([{}], tracer.batch_metrics()[1], 1.0, 1.1)
    assert list(metrics) == list(tracing.LAYER_METRICS)


def test_benchmark_json_lists_what_the_runs_report():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == tracing.LAYER_METRICS


def _spin(seconds):
    end = perf_counter() + seconds
    while perf_counter() < end:
        pass
    return True


def test_speed_sampler_takes_its_time_out_of_the_job(lib):
    handler = signal.getsignal(signal.SIGALRM)
    job = workloads.Job("spin", (), lambda lib_: _spin(0.35), lambda lib_, out: out, lambda out: 0)
    result = run.Runner(lib, [job]).run_batch()[0]
    assert result.ok and len(result.samples) >= 2
    assert 0.3 < result.wall < 0.35  # the handler's time is not the job's
    assert signal.getsignal(signal.SIGALRM) is handler
