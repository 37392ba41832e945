"""Workloads of the d2dpc benchmark: library loading, jobs and their checks.

A workload is a fixed mix of jobs.  ``build_batch(lib, name, seed)``
draws every input of the mix (demand vectors, ``SystemParams.seed``,
Monte Carlo base seeds, grid densities) from one ``random.Random(seed)``,
so the same seed always gives the same batch and a different seed changes
only the drawn values, never the instances or the kinds of job.

Every job returns an output that ``Job.check`` verifies exactly against
values computed here, independently of the library, or pinned from the
seed commit.  ``Job.fingerprint`` reduces an output to a small value that
must repeat whenever the same job runs again (with or without tracing).
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import itertools
import math
import random
import re
import sys
import warnings
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable

MODULES = ("core", "combinat", "scheme_a", "scheme_b", "bounds", "sim", "gf2", "verify", "cli")


class LibraryMissing(RuntimeError):
    """The checkout has no importable ``src/d2dpc`` package."""


def load_library(root: Path) -> SimpleNamespace:
    """Import (or re-import) ``d2dpc`` from ``root/src`` and return its modules.

    Any copy already imported is dropped first, so that repeated calls
    measure a full import.  A package found anywhere but ``root/src`` is
    refused: the benchmark must measure the checkout it runs in.
    """
    src = (root / "src").resolve()
    package_dir = src / "d2dpc"
    if not (package_dir / "__init__.py").is_file():
        raise LibraryMissing(f"no d2dpc package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "d2dpc" or m.startswith("d2dpc.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    package = importlib.import_module("d2dpc")
    if Path(package.__file__).resolve().parent != package_dir:
        raise LibraryMissing(f"d2dpc was imported from {package.__file__}, not {package_dir}")
    return SimpleNamespace(
        package=package, **{m: importlib.import_module(f"d2dpc.{m}") for m in MODULES}
    )


@dataclass
class Job:
    """One unit of closed-loop work: ``run`` is timed, ``check`` is not."""

    kind: str
    inputs: tuple  # the values drawn from the workload seed
    run: Callable[[SimpleNamespace], Any]
    check: Callable[[SimpleNamespace, Any], bool]
    fingerprint: Callable[[Any], Any]


# ---------------------------------------------------------------------------
# simulate jobs: run_protocol + measure_load + check_decodability
# ---------------------------------------------------------------------------


def closed_form_load(scheme: str, K: int, N: int, param: int) -> Fraction:
    """The scheme's load at its corner point, computed here from the formula."""
    if scheme == "A":
        U = (K - 1) * N
        return Fraction(math.comb(U, param) - math.comb(U - N, param), math.comb(U, param - 1))
    return Fraction(N * (N - 1), (param + 1) * (N + param - 1))


@dataclass
class SimOutput:
    transcript: Any
    load: Fraction
    decoded: dict
    text: str | None = None
    parsed: Any = None


def simulate_job(scheme: str, params, demands: tuple, round_trip: bool) -> Job:
    """A ``simulate`` run; with ``round_trip`` the transcript is written as
    text, read back, and the users decode from the parsed copy (the
    ``simulate --out`` path)."""
    base = params.base
    param = params.t if scheme == "A" else params.tprime
    kind = f"simulate {_instance(scheme, params)}"
    if round_trip:
        kind += " 1MiB+text"

    def run(lib):
        tr = lib.sim.run_protocol(scheme, params, demands)
        load = lib.sim.measure_load(tr)
        if not round_trip:
            return SimOutput(tr, load, lib.verify.check_decodability(tr))
        text = lib.core.transcript_to_text(tr)
        parsed = lib.core.transcript_from_text(text)
        return SimOutput(tr, load, lib.verify.check_decodability(parsed), text, parsed)

    def check(lib, out: SimOutput) -> bool:
        if out.load != closed_form_load(scheme, base.K, base.N, param):
            return False
        if sorted(out.decoded) != list(range(1, base.K + 1)) or not all(
            ok is True for ok in out.decoded.values()
        ):
            return False
        if round_trip:
            if out.parsed.library != out.transcript.library:
                return False
            if lib.core.transcript_to_text(out.parsed) != out.text:
                return False
        return True

    def fingerprint(out: SimOutput):
        digest = hashlib.sha256()
        for m in out.transcript.all_messages():
            digest.update(f"{m.sender}|{m.composition}|{m.payload}\n".encode())
        for i in sorted(out.transcript.library):
            digest.update(f"{i}:{out.transcript.library[i]:x}\n".encode())
        if out.text is not None:
            digest.update(out.text.encode())
        return (str(out.load), tuple(sorted(out.decoded.items())), digest.hexdigest())

    return Job(kind, (base.seed, demands), run, check, fingerprint)


# ---------------------------------------------------------------------------
# privacy jobs
# ---------------------------------------------------------------------------


def privacy_exact_job(scheme: str, params, derandomized: bool = False) -> Job:
    """Exact check (paranoid) for every single-user coalition.  Private
    instances must PASS for all of them, the derandomized baseline FAIL."""
    coalitions = [(u,) for u in range(1, params.base.K + 1)]
    label = _instance(scheme, params)
    kind = f"exact {label}" + (" baseline" if derandomized else "")

    def run(lib):
        return lib.verify.check_privacy_exact_all(
            scheme, params, coalitions, derandomized=derandomized, paranoid=True
        )

    return Job(kind, (params.base.seed,), run, _verdict_check(coalitions, derandomized),
               _report_fingerprint)


def privacy_mc_job(scheme: str, params, trials: int, base_seed: int, derandomized: bool = False) -> Job:
    """Monte Carlo check for every nonempty coalition of fewer than K users."""
    K = params.base.K
    coalitions = [c for r in range(1, K) for c in itertools.combinations(range(1, K + 1), r)]
    label = _instance(scheme, params)
    kind = f"mc {label}" + (" baseline" if derandomized else "")

    def run(lib):
        return lib.verify.check_privacy_mc_all(
            scheme, params, coalitions, trials=trials, base_seed=base_seed,
            derandomized=derandomized,
        )

    return Job(kind, (params.base.seed, base_seed), run, _verdict_check(coalitions, derandomized),
               _report_fingerprint)


def _instance(scheme: str, params) -> str:
    base = params.base
    if scheme == "A":
        return f"A({base.K},{base.N},{params.t})"
    return f"B({base.N},{params.tprime})"


def _verdict_check(coalitions, derandomized: bool):
    def check(lib, reports) -> bool:
        if sorted(reports) != sorted(coalitions):
            return False
        return all(r.private is (not derandomized) for r in reports.values())

    return check


def _report_fingerprint(reports):
    return tuple(
        (c, r.verdict(), r.max_tv, r.max_tv_debiased, r.witness) for c, r in sorted(reports.items())
    )


# ---------------------------------------------------------------------------
# bound jobs: d2dpc.cli.main in-process, stdout captured
# ---------------------------------------------------------------------------

# (K, N, achievable, converse, min_m, max_m) -> (max ratio, argmax M), as the
# seed commit prints them; every gap grid holds the corners of both curves,
# where the ratio extrema sit, so the grid density drawn from the seed must
# not change these values.
GAP_PINS = {
    (2, 8, "schemeB", "conv2u", None, None): ("6/5", "16/3"),
    (2, 12, "schemeB", "conv2u", None, None): ("26/21", "8"),
    (2, 16, "schemeB", "conv2u", None, None): ("34/27", "32/3"),
    (2, 20, "schemeB", "conv2u", None, None): ("14/11", "40/3"),
    (2, 24, "schemeB", "conv2u", None, None): ("50/39", "16"),
    (2, 28, "schemeB", "conv2u", None, None): ("58/45", "56/3"),
    (2, 32, "schemeB", "conv2u", None, None): ("22/17", "64/3"),
    (2, 36, "schemeB", "conv2u", None, None): ("74/57", "24"),
    (2, 40, "schemeB", "conv2u", None, None): ("82/63", "80/3"),
    (2, 44, "schemeB", "conv2u", None, None): ("30/23", "88/3"),
    (2, 48, "schemeB", "conv2u", None, None): ("98/75", "32"),
    (3, 6, "schemeA", "convKu,sharedlink", None, None): ("1004/165", "16/5"),
    (4, 8, "schemeA", "convKu,sharedlink", None, None): ("548791/97888", "68/19"),
    (5, 25, "schemeA", "convKu,sharedlink", None, None): (
        "98894312876081/12689765144760", "55/7"),
    (10, 40, "schemeA", "convKu,sharedlink", None, None): (
        "28195820058102306802159501435611263/3990726867100590003470039525316384", "328/49"),
    (8, 4, "schemeA", "sharedlink", "1/2", "4"): ("354112/61425", "3/2"),
    (40, 10, "schemeA", "sharedlink", "1/4", "10"): (
        "39517169428111895/8727788572283931", "3"),
}

# The curve CSVs of demos/tradeoff_curves.py: (K, N) -> curve names.
CURVE_CONFIGS = {
    (2, 8): ["schemeA", "schemeB", "schemeC", "conv2u", "sharedlink", "sharedlink-uncoded"],
    (10, 40): ["schemeA", "schemeC", "convKu", "sharedlink", "sharedlink-uncoded"],
    (40, 10): ["schemeA", "schemeC", "sharedlink", "sharedlink-uncoded"],
}

# (curve, K, N) -> curve_corner_digest of the CSV the seed commit prints;
# corners do not depend on --grid.
CURVE_PINS = {
    ("schemeA", 2, 8): "6d9657f7d6035a32",
    ("schemeB", 2, 8): "8d93b6f56151ba1c",
    ("schemeC", 2, 8): "3d8ca5ef4fff09a5",
    ("conv2u", 2, 8): "7745e5e5f20543bb",
    ("sharedlink", 2, 8): "39ac1bf145f67ce5",
    ("sharedlink-uncoded", 2, 8): "09556e2f3af0a6f0",
    ("schemeA", 10, 40): "1855e1c56b0ee80a",
    ("schemeC", 10, 40): "5101076ece886553",
    ("convKu", 10, 40): "85ddb057c985bbc6",
    ("sharedlink", 10, 40): "fea59ece006a88aa",
    ("sharedlink-uncoded", 10, 40): "6041dd544b68d8bf",
    ("schemeA", 40, 10): "d12d75ccbab8d3c0",
    ("schemeC", 40, 10): "a2d680c97ad3a1cb",
    ("sharedlink", 40, 10): "648c5a6273ac4282",
    ("sharedlink-uncoded", 40, 10): "71a36c98b7baf0a9",
}

CSV_HEADER = "M_rational,M_decimal,R_rational,R_decimal,curve,provenance"
_GAP_LINE = re.compile(r"^max ratio = (\S+) \(\S+\) at M = (\S+)$", re.M)


@dataclass
class CliOutput:
    code: int
    stdout: str
    warnings: int


def cli_job(kind: str, argv: list[str], check_stdout: Callable[[str], bool]) -> Job:
    def run(lib):
        buf = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(buf):
            warnings.simplefilter("always")
            code = lib.cli.main(list(argv))
        return CliOutput(code, buf.getvalue(), len(caught))

    def check(lib, out: CliOutput) -> bool:
        return out.code == 0 and check_stdout(out.stdout)

    def fingerprint(out: CliOutput):
        return (out.code, out.warnings, hashlib.sha256(out.stdout.encode()).hexdigest())

    return Job(kind, tuple(argv), run, check, fingerprint)


def gap_job(K: int, N: int, achievable: str, converse: str, density: int,
            min_m: str | None = None, max_m: str | None = None) -> Job:
    argv = ["gap", "--K", str(K), "--N", str(N), "--achievable", achievable,
            "--converse", converse, "--grid-density", str(density)]
    if min_m is not None:
        argv += ["--min-m", min_m, "--max-m", max_m]
    pin = GAP_PINS[(K, N, achievable, converse, min_m, max_m)]

    def check_stdout(stdout: str) -> bool:
        match = _GAP_LINE.search(stdout)
        if match is None:
            return False
        ratio, argmax = Fraction(match.group(1)), Fraction(match.group(2))
        return (ratio, argmax) == (Fraction(pin[0]), Fraction(pin[1]))

    return cli_job(f"gap K={K} N={N} {achievable}/{converse}", argv, check_stdout)


def curve_corner_digest(stdout: str) -> str:
    """Digest of the exact (M, R) corners of a curve CSV."""
    corners = [
        f"{fields[0]},{fields[2]}"
        for fields in (row.split(",") for row in stdout.splitlines()[1:])
        if fields[-1] != "interpolated"
    ]
    return hashlib.sha256("\n".join(corners).encode()).hexdigest()[:16]


def check_curve_csv(stdout: str, which: str, grid: int, pin: str) -> bool:
    """Corner rows match the pin; every interpolated row lies exactly on
    the chord between its neighbouring corners, at the even grid points."""
    lines = stdout.splitlines()
    if not lines or lines[0] != CSV_HEADER or curve_corner_digest(stdout) != pin:
        return False
    corners, inner = [], []
    for row in lines[1:]:
        m_s, m_dec, r_s, r_dec, name, tag = row.split(",", 5)
        m, r = Fraction(m_s), Fraction(r_s)
        if name != which or m_dec != f"{float(m):.12g}" or r_dec != f"{float(r):.12g}":
            return False
        (inner if tag == "interpolated" else corners).append((m, r))
    ms = [m for m, _ in corners]
    if ms != sorted(ms) or len(set(ms)) != len(ms):
        return False
    lo, hi = ms[0], ms[-1]
    expected = [lo + (hi - lo) * Fraction(j, grid + 1) for j in range(1, grid + 1)]
    if [m for m, _ in inner] != [m for m in expected if m not in set(ms)]:
        return False
    for m, r in inner:
        i = next(i for i, c in enumerate(ms) if c > m)
        (m0, r0), (m1, r1) = corners[i - 1], corners[i]
        if r != r0 + (r1 - r0) * (m - m0) / (m1 - m0):
            return False
    return True


def curve_job(which: str, K: int, N: int, grid: int) -> Job:
    argv = ["curve", "--which", which, "--K", str(K), "--N", str(N), "--grid", str(grid)]
    pin = CURVE_PINS[(which, K, N)]
    return cli_job(f"curve {which} K={K} N={N}", argv,
                   lambda stdout: check_curve_csv(stdout, which, grid, pin))


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

WORKLOADS = ("decode_heavy", "bulk_payload", "privacy", "bounds_sweep")

# Monte Carlo trial counts.  The private A(3,2,2) instance must PASS on
# every seed: at 2,000 trials one seed of 25 gave a debiased total
# variation of 0.0502 > 0.05 (a false alarm of the gate); at 3,000 trials
# 31 seeds passed, the largest at 0.037.  The derandomized baseline reads
# about 0.96 already at 200 trials.
MC_TRIALS = 3000
MC_BASELINE_TRIALS = 200


def _demands(rng: random.Random, K: int, N: int) -> tuple[int, ...]:
    return tuple(rng.randint(1, N) for _ in range(K))


def _seed(rng: random.Random) -> int:
    return rng.getrandbits(62)


def build_batch(lib, workload: str, seed: int) -> list[Job]:
    """The workload's fixed job mix with every input drawn from ``seed``.

    The first job also serves as the warm-up job of set-up.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"d2dpc-bench|{workload}|{seed}")
    A, B = lib.scheme_a.params_for, lib.scheme_b.params_for
    jobs: list[Job] = []
    if workload == "decode_heavy":
        for K, N, t, count in ((5, 3, 4, 4), (4, 4, 5, 3)):
            for _ in range(count):
                params = A(K, N, t, seed=_seed(rng))
                jobs.append(simulate_job("A", params, _demands(rng, K, N), round_trip=False))
    elif workload == "bulk_payload":
        for _ in range(2):
            params = A(4, 3, 4, seed=_seed(rng), b_target=2**20)
            jobs.append(simulate_job("A", params, _demands(rng, 4, 3), round_trip=True))
            params = B(8, 3, seed=_seed(rng), b_target=2**20)
            jobs.append(simulate_job("B", params, _demands(rng, 2, 8), round_trip=True))
    elif workload == "privacy":
        jobs.append(privacy_exact_job("A", A(2, 2, 1, seed=_seed(rng))))
        jobs.append(privacy_exact_job("A", A(2, 2, 2, seed=_seed(rng))))
        jobs.append(privacy_exact_job("A", A(2, 2, 2, seed=_seed(rng)), derandomized=True))
        jobs.append(privacy_exact_job("B", B(4, 3, seed=_seed(rng))))
        jobs.append(privacy_exact_job("B", B(5, 4, seed=_seed(rng))))
        mc = A(3, 2, 2, seed=_seed(rng))
        jobs.append(privacy_mc_job("A", mc, trials=MC_TRIALS, base_seed=_seed(rng)))
        jobs.append(privacy_mc_job("A", mc, trials=MC_BASELINE_TRIALS, base_seed=_seed(rng),
                                   derandomized=True))
    else:
        # grid sizes near the CLI defaults (64, 256): a curve job's time
        # grows with its grid, so a wide range would make seeds differ in work
        for key in GAP_PINS:
            K, N, ach, conv, lo, hi = key
            jobs.append(gap_job(K, N, ach, conv, rng.randint(60, 68), lo, hi))
        for (K, N), names in CURVE_CONFIGS.items():
            for which in names:
                jobs.append(curve_job(which, K, N, rng.randint(248, 264)))
    return jobs

