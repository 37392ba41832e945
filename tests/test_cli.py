import argparse
import contextlib
import hashlib
import inspect
import io
import os
import re
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from d2dpc import bounds, cli, sim, verify
from d2dpc.cli import main

ROOT = Path(__file__).resolve().parents[1]


def test_simulate_reports_matching_loads(capsys):
    rc = main(["simulate", "--scheme", "A", "--K", "2", "--N", "3", "--t", "3",
               "--demands", "1,1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "measured load   = 1/3" in out
    assert "decode: user1=ok user2=ok" in out


def test_simulate_scheme_b(capsys):
    rc = main(["simulate", "--scheme", "B", "--K", "2", "--N", "3", "--tprime", "2",
               "--demands", "1,2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "measured load   = 1/2" in out


def test_simulate_missing_demands():
    with pytest.raises(SystemExit):
        main(["simulate", "--scheme", "A", "--K", "2", "--N", "2", "--t", "1"])


def test_simulate_writes_transcript(tmp_path, capsys):
    out_file = tmp_path / "run.txt"
    rc = main(["simulate", "--scheme", "A", "--K", "2", "--N", "2", "--t", "2",
               "--demands", "1,2", "--seed", "42", "--out", str(out_file)])
    assert rc == 0
    from d2dpc.core import transcript_from_text

    tr = transcript_from_text(out_file.read_text())
    assert tr.demands == (1, 2)


def test_curve_csv_deterministic(capsys):
    args = ["curve", "--which", "schemeB", "--K", "2", "--N", "8", "--grid", "32"]
    main(args)
    first = capsys.readouterr().out
    main(args)
    second = capsys.readouterr().out
    assert first == second
    header, *rows = first.strip().splitlines()
    assert header == "M_rational,M_decimal,R_rational,R_decimal,curve,provenance"
    assert any(row.startswith("4,4,8,8,") for row in rows)  # (N/2, N) corner


def test_curve_scheme_a_low_memory_load(capsys):
    main(["curve", "--which", "schemeA", "--K", "40", "--N", "10", "--grid", "2"])
    out = capsys.readouterr().out
    assert out.splitlines()[1].startswith("1/4,0.25,10,10,")  # (N/K, N)


# sha256 of each curve CSV of demos/tradeoff_curves.py at the default
# --grid: corners, provenance tags and interpolated rows, byte for byte
CURVE_CSV_DIGESTS = {
    ("schemeA", 2, 8): "fcce94feb8a085329c4be650e38665f69aeea3c47f6527dc412558f48686138f",
    ("schemeB", 2, 8): "8235f4ece7d6a05d5e8f8b6fe70cca4f17f26203ab1a6453f57a67f95b504171",
    ("schemeC", 2, 8): "6ee8f44472ae997b9308c5f932d0ed05fc8878c57b8c6f96f56f2e4daa34d994",
    ("conv2u", 2, 8): "dab3305020453501c40951720f3324acf485191a7ab7a1ae2042196c1d250fbf",
    ("sharedlink", 2, 8): "4afd5aefb97136d7422ec4ed89b6ee42c2356759cf0909678d605e3e528cc6cf",
    ("sharedlink-uncoded", 2, 8): "b2158308b1cc5a1a72395811a793ca6bd1027fb334439f1ba9a7c8d4fcb778dd",
    ("schemeA", 10, 40): "e7969978752043a2c4a6e5d82a3f47a534bd3657f96e88615f18b783ebf7f82d",
    ("schemeC", 10, 40): "ca0110a0803308741b16cb18ba2af58720844aff7e2d75e8aa21974fde8ec109",
    ("convKu", 10, 40): "b82037076c6a413ea5e8b98bc6bd10f91769091af630e21e9a2392109612ffd7",
    ("sharedlink", 10, 40): "e6d2e4d606830baaa5d67d5f994fbf294de0f84c257358f3307c3f33d5c915f5",
    ("sharedlink-uncoded", 10, 40): "fbfa413676ccc8f7b6067d2e7d8a6149909dea0577e8abd80825f9304ed961bd",
    ("schemeA", 40, 10): "8a89cef0bf85c168692d46ca74938fc652233770e15caf9e035550ceae79ab84",
    ("schemeC", 40, 10): "78c95bbdf4f45b524c8575256bfc5f0b39cab6e4a40d94bc3194cd45603ab6a5",
    ("sharedlink", 40, 10): "0ad6cb8056443ee05badd77d25ee01a50b78889a10229bc6bf0cc60c9df0c295",
    ("sharedlink-uncoded", 40, 10): "07dee23cf27d0965edf0d930165786fd60271d48f8aaf7b5362fb58c0018a27f",
}


@pytest.mark.parametrize("which,K,N", sorted(CURVE_CSV_DIGESTS))
def test_figure_curve_csvs_pinned(which, K, N, tmp_path):
    out = tmp_path / f"{which}_K{K}_N{N}.csv"
    assert main(["curve", "--which", which, "--K", str(K), "--N", str(N), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == CURVE_CSV_DIGESTS[(which, K, N)]


def test_curve_rejects_bad_params(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["curve", "--which", "convKu", "--K", "4", "--N", "3"])
    assert exc.value.code == 2


def test_gap_command(capsys):
    rc = main(["gap", "--K", "2", "--N", "8", "--achievable", "schemeB",
               "--converse", "conv2u", "--bound", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "max ratio = 6/5" in out
    # the observed optimum is within the numerically suggested 4/3 as well
    rc = main(["gap", "--K", "2", "--N", "8", "--achievable", "schemeB",
               "--converse", "conv2u", "--bound", "4/3"])
    assert rc == 0


def test_gap_combined_converse(capsys):
    rc = main(["gap", "--K", "4", "--N", "8", "--achievable", "schemeA",
               "--converse", "convKu,sharedlink", "--bound", "18"])
    assert rc == 0


def test_gap_range_stays_inside_request(capsys):
    rc = main(["gap", "--K", "2", "--N", "8", "--achievable", "schemeB",
               "--converse", "conv2u", "--min-m", "5", "--max-m", "7", "--bound", "3/2"])
    out = capsys.readouterr().out
    assert rc == 0
    argmax = Fraction(out.split("at M = ")[1].split()[0])
    assert 5 <= argmax <= 7
    assert "bound 3/2: PASS" in out


def test_gap_identical(capsys):
    rc = main(["gap", "--K", "2", "--N", "5", "--achievable", "schemeB",
               "--converse", "schemeB", "--bound", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "max ratio = 1 " in out


@pytest.mark.parametrize("density", ["16", "64", "256"])
def test_gap_unbounded_fails_the_bound(capsys, density):
    # the converse is 0 from M = 2 on while scheme A's load is 3/4 there:
    # the gap is unbounded, whatever the grid (the ratio printed used to
    # read 286/15, 1006/15 and 3886/15 at these densities)
    rc = main(["gap", "--K", "3", "--N", "3", "--achievable", "schemeA", "--converse", "convKu",
               "--grid-density", density, "--bound", "20"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "max ratio = unbounded: the converse is 0 and the achievable load 3/4 at M = 2" in out
    assert "bound 20: FAIL" in out
    rc = main(["gap", "--K", "3", "--N", "3", "--achievable", "schemeA", "--converse", "convKu",
               "--grid-density", density])
    assert rc == 0
    assert "unbounded" in capsys.readouterr().out


def test_verify_exact_pass(capsys):
    rc = main(["verify", "--scheme", "A", "--K", "2", "--N", "2", "--t", "2",
               "--mode", "exact", "--coalition", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "verdict=PASS" in out


def test_verify_exact_reads_the_cap_at_each_call(monkeypatch, capsys):
    # the parser is built before the cap drops below A(2,2,2)'s space
    argv = ["verify", "--scheme", "A", "--K", "2", "--N", "2", "--t", "2", "--coalition", "1"]
    assert main(argv) == 0
    capsys.readouterr()
    monkeypatch.setattr(verify, "EXACT_ENUMERATION_CAP", 1)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert re.fullmatch(r"d2dpc: error: argument --mode: randomness space has \d+ outcomes > cap 1; "
                        r".*Monte Carlo check", err.strip().splitlines()[-1])


@pytest.mark.parametrize("trials,flagged", [(300, True), (3000, False)])
def test_verify_mc_flags_low_confidence_below_3000_trials(trials, flagged, capsys):
    # at 300 trials the private A(3,2,2) check FAILs coalition {1} with a
    # witness: a false alarm, which the report must flag as such
    rc = main(["verify", "--scheme", "A", "--K", "3", "--N", "2", "--t", "2",
               "--mode", "mc", "--trials", str(trials), "--coalition", "1", "--seed", "0"])
    out = capsys.readouterr().out
    assert ("low-confidence" in out) is flagged
    if flagged:
        assert rc == 1 and "verdict=FAIL" in out and "witness=" in out
    else:
        assert rc == 0 and "verdict=PASS" in out


def test_verify_baseline_fails(capsys):
    rc = main(["verify", "--scheme", "A", "--K", "2", "--N", "2", "--t", "1",
               "--mode", "exact", "--coalition", "1", "--baseline", "nonprivate"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "verdict=FAIL" in out


def test_verify_mc(capsys):
    rc = main(["verify", "--scheme", "A", "--K", "2", "--N", "2", "--t", "2",
               "--mode", "mc", "--coalition", "2", "--trials", "500", "--seed", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "max_tv" in out


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def _run_limited(argv, timeout=60):
    """``python -m d2dpc argv`` in a child capped at 1 GiB of address space."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, "-m", "d2dpc", *argv],
        env=env, preexec_fn=_limit_address_space, capture_output=True, text=True,
        timeout=timeout, check=False,
    )


def test_verify_exact_too_large_exits_2_under_memory_limit():
    # A(2,10,2): each transmitter's position shuffle alone has 10! > 10^6
    # outcomes; exact mode must reject it from the size of its space,
    # before building any of it, so a child capped at 1 GiB exits 2 with
    # the cap message on stderr, as every other exit-2 refusal
    proc = _run_limited(["verify", "--scheme", "A", "--K", "2", "--N", "10", "--t", "2",
                         "--mode", "exact", "--coalition", "1"])
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert re.search(r"argument --mode: randomness space has \d+ outcomes > cap \d+",
                     proc.stderr.strip().splitlines()[-1])


def test_simulate_too_large_structure_exits_2_under_memory_limit():
    # A(3,14,14)'s subset ranks and position sets come to ~152 M entries;
    # the instance is rejected from their closed forms before any is
    # built, instead of ending in a MemoryError traceback
    proc = _run_limited(["simulate", "--scheme", "A", "--K", "3", "--N", "14", "--t", "14",
                         "--demands", "1,2,3"])
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "argument --t: instance too large" in proc.stderr.strip().splitlines()[-1]


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["--scheme", "A", "--K", "1000000", "--N", "2", "--t", "1000000"], "--t"),
        (["--scheme", "A", "--K", "4000000", "--N", "2", "--t", "1000000"], "--t"),
        (["--scheme", "B", "--K", "2", "--N", "3000000", "--tprime", "1500000"], "--tprime"),
    ],
)
def test_absurd_instance_is_rejected_at_once(argv, flag):
    # binom((K-1)N, t-1) has hundreds of thousands of digits here; the
    # structure is counted only up to a cap, so the instance is rejected
    # in well under a second instead of after building the binomial
    proc = _run_limited(["simulate", *argv, "--demands", "1,2"], timeout=20)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert f"argument {flag}: instance too large" in proc.stderr.strip().splitlines()[-1]


def test_simulate_many_files_at_full_memory_is_linear_in_n():
    # A(2,20000,20001) is admitted (two structure entries, a 40,000-bit
    # library); grouping 20,000 virtual demanders by file used to scan
    # the whole demand map once per file, about 21 s
    proc = _run_limited(["simulate", "--scheme", "A", "--K", "2", "--N", "20000", "--t", "20001",
                         "--demands", "1,2"], timeout=10)
    assert proc.returncode == 0, proc.stderr
    assert "verdict: PASS" in proc.stdout


def test_simulate_too_large_library_exits_2_under_memory_limit():
    # N * B = 1000 * (2**31 - 2) bits, about 250 GiB, is refused from its
    # size before the library is drawn, instead of ending in a MemoryError
    proc = _run_limited(["simulate", "--scheme", "A", "--K", "2", "--N", "1000", "--t", "1",
                         "--demands", "1,2", "--b-target", str(2**31 - 2)], timeout=20)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "argument --b-target: instance too large" in proc.stderr.strip().splitlines()[-1]


_SIMULATE_A = ["simulate", "--scheme", "A", "--K", "2", "--N", "2", "--t", "1", "--demands", "1,2"]
_VERIFY_A = ["verify", "--scheme", "A", "--K", "2", "--N", "2", "--t", "1", "--coalition", "1"]
_GAP_8 = ["gap", "--K", "2", "--N", "8", "--achievable", "schemeB", "--converse", "conv2u"]


@pytest.mark.parametrize(
    "flag,argv",
    [
        ("--tprime", ["simulate", "--scheme", "B", "--K", "2", "--N", "3",
                      "--tprime", "x", "--demands", "1,2"]),
        ("--demands", ["simulate", "--scheme", "A", "--K", "2", "--N", "2",
                       "--t", "1", "--demands", "1,x"]),
        ("--coalition", ["verify", "--scheme", "A", "--K", "2", "--N", "2",
                         "--t", "1", "--coalition", "1,x"]),
        ("--demands", ["simulate", "--scheme", "A", "--K", "2", "--N", "2",
                       "--t", "1", "--demands", "1,9"]),
        ("--demands", ["simulate", "--scheme", "A", "--K", "2", "--N", "2",
                       "--t", "1", "--demands", "1"]),
        ("--coalition", ["verify", "--scheme", "A", "--K", "2", "--N", "2",
                         "--t", "1", "--coalition", "5"]),
        ("--coalition", ["verify", "--scheme", "A", "--K", "2", "--N", "2",
                         "--t", "1", "--coalition", "0"]),
        ("--t", ["simulate", "--scheme", "A", "--K", "2", "--N", "2",
                 "--t", "9", "--demands", "1,2"]),
        ("--t", ["simulate", "--scheme", "A", "--K", "2", "--N", "2",
                 "--demands", "1,2"]),
        ("--tprime", ["verify", "--scheme", "B", "--K", "2", "--N", "2",
                      "--coalition", "1"]),
        ("--K", ["simulate", "--scheme", "B", "--K", "3", "--N", "2",
                 "--tprime", "1", "--demands", "1,2,1"]),
        # the other scheme's parameter is refused, not dropped
        ("--tprime", ["simulate", "--scheme", "A", "--K", "2", "--N", "2", "--t", "1",
                      "--tprime", "7", "--demands", "1,2"]),
        ("--t", ["verify", "--scheme", "B", "--K", "2", "--N", "3", "--tprime", "1",
                 "--t", "99", "--coalition", "1"]),
        ("--min-m", _GAP_8 + ["--min-m", "abc"]),
        ("--max-m", _GAP_8 + ["--max-m", "abc"]),
        ("--bound", _GAP_8 + ["--bound", "x"]),
        ("--bound", _GAP_8 + ["--bound", "1/0"]),
        ("--converse", ["gap", "--K", "2", "--N", "8", "--achievable", "schemeB",
                        "--converse", "bogus"]),
        ("--converse", ["gap", "--K", "2", "--N", "8", "--achievable", "schemeB",
                        "--converse", "conv2u,bogus"]),
        ("--which", ["curve", "--which", "schemeB", "--K", "3", "--N", "8"]),
        ("--which", ["curve", "--which", "conv2u", "--K", "3", "--N", "8"]),
        ("--which", ["curve", "--which", "conv2u", "--K", "2", "--N", "1"]),
        ("--achievable", ["gap", "--K", "3", "--N", "8", "--achievable", "schemeB",
                          "--converse", "convKu"]),
        ("--converse", ["gap", "--K", "4", "--N", "3", "--achievable", "schemeA",
                        "--converse", "convKu"]),
        ("--max-m", _GAP_8 + ["--min-m", "7", "--max-m", "5"]),
        ("--min-m", _GAP_8 + ["--min-m", "1"]),
        ("--max-m", _GAP_8 + ["--max-m", "9"]),
        ("--converse", _GAP_8 + ["--min-m", "8"]),
        ("--grid", ["curve", "--which", "schemeB", "--K", "2", "--N", "8", "--grid", "-1"]),
        ("--grid-density", _GAP_8 + ["--grid-density", "-3"]),
        # one exact Fraction per grid point: at most MAX_GRID_POINTS of them
        ("--grid", ["curve", "--which", "schemeB", "--K", "2", "--N", "8", "--grid", "10000000000"]),
        ("--grid", ["curve", "--which", "schemeB", "--K", "2", "--N", "8", "--grid", "100001"]),
        ("--grid-density", _GAP_8 + ["--grid-density", "10000000000"]),
        ("--grid-density", _GAP_8 + ["--grid-density", "100001"]),
        ("--K/--N", ["curve", "--which", "sharedlink", "--K", "0", "--N", "4"]),
        ("--trials", _VERIFY_A + ["--mode", "mc", "--trials", "0"]),
        ("--trials", _VERIFY_A + ["--mode", "mc", "--trials", "-3"]),
        # more than cli.MAX_TRIALS trials per demand vector: 10**20 of them looped for good
        ("--trials", _VERIFY_A + ["--mode", "mc", "--trials", str(cli.MAX_TRIALS + 1)]),
        ("--trials", _VERIFY_A + ["--mode", "mc", "--trials", "99999999999999999999"]),
        # 5,000 digits, past the int-from-str limit: the length is refused first
        ("--grid", ["curve", "--which", "schemeB", "--K", "2", "--N", "8", "--grid", "9" * 5000]),
        ("--grid-density", _GAP_8 + ["--grid-density", "9" * 5000]),
        ("--seed", _VERIFY_A + ["--seed", "9" * 5000]),
        ("--b-target", _SIMULATE_A + ["--b-target", "9" * 5000]),
        ("--trials", _VERIFY_A + ["--mode", "mc", "--trials", "9" * 5000]),
        ("--tol", _VERIFY_A + ["--mode", "mc", "--tol", "nan"]),
        ("--tol", _VERIFY_A + ["--mode", "mc", "--tol", "1.5"]),
        ("--tol", _VERIFY_A + ["--mode", "mc", "--tol", "-0.1"]),
        ("--seed", _VERIFY_A + ["--seed", "99999999999999999999"]),
        ("--seed", ["simulate", "--scheme", "A", "--K", "2", "--N", "2", "--t", "1",
                    "--demands", "1,2", "--seed", "-99999999999999999999"]),
        ("--out", ["simulate", "--scheme", "A", "--K", "2", "--N", "2", "--t", "1",
                   "--demands", "1,2", "--out", "/nonexistent/x.txt"]),
        ("--out", ["curve", "--which", "schemeB", "--K", "2", "--N", "8",
                   "--out", "/nonexistent/x.csv"]),
        # file sizes must fit random.getrandbits: 1..2**31 - 1 bits
        ("--b-target", _SIMULATE_A + ["--b-target", "10000000000"]),
        ("--b-target", _SIMULATE_A + ["--b-target", str(2**31)]),
        ("--b-target", _SIMULATE_A + ["--b-target", "-5"]),
        ("--b-target", _VERIFY_A + ["--b-target", "0"]),
        # a library over core.MAX_LIBRARY_BITS without --b-target: N is too large
        ("--N", ["simulate", "--scheme", "A", "--K", "2", "--N", "5000000000",
                 "--t", "5000000001", "--demands", "1,2"]),
        # over bounds.MAX_CURVE_PIECES pieces: refused before anything is built
        ("--which", ["curve", "--which", "schemeA", "--K", "300", "--N", "300"]),
        ("--which", ["curve", "--which", "convKu", "--K", "3", "--N", "3000000"]),
        ("--which", ["curve", "--which", "sharedlink", "--K", "3000000", "--N", "2"]),
        ("--which", ["curve", "--which", "schemeC", "--K", str(10**12), "--N", "2"]),
        ("--converse", ["gap", "--K", "3", "--N", "3000000", "--achievable", "schemeC",
                        "--converse", "convKu"]),
        # a repeated name would be built again: the list holds each curve once
        ("--converse", ["gap", "--K", "2", "--N", "999", "--achievable", "schemeB",
                        "--converse", "conv2u,sharedlink,conv2u"]),
        # more than cli.MAX_RATIONAL_DIGITS digits above or below the line, read off
        # the text: printing such a value passed the 4,300-digit int-to-str limit,
        # and building 10**10000000 took seconds
        ("--bound", _GAP_8 + ["--bound", "1e5000"]),
        ("--min-m", _GAP_8 + ["--min-m", "1e-5000"]),
        ("--max-m", _GAP_8 + ["--max-m", "1e5000"]),
        ("--min-m", _GAP_8 + ["--min-m", "1e-10000000"]),
        ("--max-m", _GAP_8 + ["--max-m", "1e" + "9" * 5000]),
        ("--bound", _GAP_8 + ["--bound", "1/" + "7" * 101]),
        ("--tol", _VERIFY_A + ["--mode", "mc", "--tol", "1e-100000000"]),
    ],
)
def test_bad_argument_exits_2_with_one_line_message(flag, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"argument {flag}:" in err.strip().splitlines()[-1]


def _int_in_flags():
    """(flag, parse) for every flag of every subcommand typed by ``cli._int_in``."""
    (commands,) = [a for a in cli._parser()._actions if isinstance(a, argparse._SubParsersAction)]
    for parser in commands.choices.values():
        for action in parser._actions:
            if getattr(action.type, "__qualname__", "") == "_int_in.<locals>.parse":
                yield action.option_strings[0], action.type


def test_every_bounded_integer_flag_refuses_one_past_its_bounds():
    flags = list(_int_in_flags())
    assert {flag for flag, _ in flags} == {"--seed", "--b-target", "--grid", "--grid-density", "--trials"}
    for flag, parse in flags:
        bound = inspect.getclosurevars(parse).nonlocals
        lo, hi = bound["lo"], bound["hi"]
        assert type(lo) is int and type(hi) is int and lo <= hi, flag
        assert parse(str(lo)) == lo and parse(str(hi)) == hi
        # past the 4,300-digit int-from-str limit int() itself fails, so the
        # length is checked first and the message still states the range;
        # int() reads "\u0663", the Arabic-Indic three, as 3, so a digit
        # outside ASCII is refused, as the transcript parser refuses it
        for text in (str(lo - 1), str(hi + 1), "9" * 5000, "-" + "9" * 5000, "\u0663"):
            with pytest.raises(argparse.ArgumentTypeError, match=f"expected an integer in {lo}..{hi}"):
                parse(text)


@pytest.mark.parametrize(
    "argv, names",
    [
        (["curve", "--which", "nope", "--K", "2", "--N", "2"], list(bounds.CURVES)),
        (["gap", "--K", "2", "--N", "2", "--achievable", "nope", "--converse", "conv2u"],
         [name for name, curve in bounds.CURVES.items() if curve.achievable]),
    ],
)
def test_curve_choices_are_the_table(argv, names, capsys):
    with pytest.raises(SystemExit):
        main(argv)
    last = capsys.readouterr().err.strip().splitlines()[-1]
    assert last.endswith("invalid choice: 'nope' (choose from " + ", ".join(map(repr, names)) + ")")


def test_parser_is_built_once():
    cli._parser.cache_clear()
    main(["curve", "--which", "sharedlink", "--K", "2", "--N", "2", "--grid", "0"])
    main(_GAP_8)
    assert cli._parser.cache_info().misses == 1


_MC_20 = ["verify", "--scheme", "A", "--K", "2", "--N", "2", "--t", "2", "--mode", "mc",
          "--trials", "20", "--coalition", "1"]


@pytest.mark.parametrize(
    "refused",
    [
        _MC_20 + ["--seed", "5", "--trials", "3", "--coalition", "7"],
        _MC_20 + ["--seed", "x"],
        _GAP_8 + ["--min-m", "1e5000"],
        ["simulate", "--scheme", "B", "--K", "2", "--N", "3", "--tprime", "1", "--demands", "1,9"],
    ],
)
def test_a_refused_call_leaves_the_next_call_as_a_fresh_one(refused, capsys):
    cli._parser.cache_clear()
    main(_MC_20)
    fresh = capsys.readouterr().out
    main(_MC_20 + ["--seed", "5"])
    assert capsys.readouterr().out != fresh  # the seed shows in the report
    with pytest.raises(SystemExit):
        main(refused)
    capsys.readouterr()
    main(_MC_20)
    assert capsys.readouterr().out == fresh


def test_commands_reach_library_functions_through_their_modules(monkeypatch, capsys):
    # the benchmark traces these by replacing module attributes after the
    # parser may already be built
    main(_GAP_8)
    seen = []
    for module, name in [(bounds, "gap"), (bounds, "named_curve"), (sim, "run_protocol"),
                         (verify, "check_privacy_exact_all"), (verify, "check_privacy_mc_all")]:
        def traced(*args, _real=getattr(module, name), _name=name, **kwargs):
            seen.append(_name)
            return _real(*args, **kwargs)
        monkeypatch.setattr(module, name, traced)
    main(_GAP_8)
    main(_SIMULATE_A)
    main(_VERIFY_A)
    main(_MC_20)
    assert set(seen) == {"gap", "named_curve", "run_protocol", "check_privacy_exact_all",
                         "check_privacy_mc_all"}


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--scheme", "A", "--K", "2", "--N", "2", "--t", "1", "--out", "OUT",
         "--demands", "1,9"],
        ["simulate", "--scheme", "A", "--K", "2", "--N", "2", "--t", "1", "--out", "OUT",
         "--demands", "1,2", "--seed", "x"],
        ["curve", "--out", "OUT", "--which", "convKu", "--K", "4", "--N", "3"],
        ["curve", "--out", "OUT", "--which", "schemeB", "--K", "2", "--N", "8", "--grid", "-1"],
    ],
)
def test_a_refused_argument_creates_no_out_file(argv, tmp_path, capsys):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([str(out) if a == "OUT" else a for a in argv])
    assert exc.value.code == 2
    assert not out.exists()


# Tokens for the CLI fuzzer: boundary, negative, non-numeric, huge-digit,
# exponent-form and p/q values.  Every admitted run stays tiny: K, N <= 3,
# exact verify only at K = 2, Monte Carlo at most 20 trials, small files.
_HUGE = "9" * 5000
_BIG = "1" + "0" * 4999  # 5,000 digits, over every integer flag's bound
_SMALL = ["2", "3", "1"]  # the first, which hypothesis favours, is admitted most
_BAD_INTS = ["0", "-1", "x", "", "1.5", "3/2", "1e3", _HUGE, "99999999999999999999"]
_BAD_RATIONALS = ["1e5000", "1e-5000", "1e-10000000", "1e" + "9" * 20, _HUGE, "1/" + _HUGE, "1/0",
                  "x", "nan", "inf", ""]
_GRID = (["0", "1", "7"], ["-1", "100001", "x", _HUGE, _BIG])


@st.composite
def cli_argv(draw):
    """A subcommand's argv: at most one flag takes a bad token (in about half
    the draws), the others valid ones, and each optional flag is left out
    half the time."""
    command = draw(st.sampled_from(["simulate", "curve", "gap", "verify"]))
    mode = draw(st.sampled_from(["exact", "mc"]))
    scheme = draw(st.sampled_from(["A", "B", "b"]))
    specs = []  # (flag, valid tokens, bad tokens, optional)
    if command in ("curve", "gap"):
        specs += [("--K", _SMALL, _BAD_INTS, False), ("--N", _SMALL, _BAD_INTS, False)]
    if command == "curve":
        specs += [("--which", list(bounds.CURVES), ["nope"], False), ("--grid", *_GRID, True)]
    if command == "gap":
        specs += [
            ("--achievable", [n for n, c in bounds.CURVES.items() if c.achievable], ["nope"], False),
            ("--converse", ["sharedlink", "conv2u", "convKu", "convKu,sharedlink", "schemeA"],
             ["conv2u,conv2u", "bogus", ""], False),
            ("--grid-density", *_GRID, True),
        ]
        specs += [(flag, ["1", "5", "0", "3/2", "-1", "1e-3", "0.5e1", "1_0"], _BAD_RATIONALS, True)
                  for flag in ("--bound", "--min-m", "--max-m")]
    if command in ("simulate", "verify"):
        exact = command == "verify" and mode == "exact"
        specs += [
            ("--scheme", [scheme], ["C", ""], False),
            ("--K", ["2"] if exact else _SMALL, _BAD_INTS, False),
            ("--N", _SMALL, _BAD_INTS, False),
            ("--tprime", ["1", "2", "full"], _BAD_INTS, False) if scheme in "Bb"
            else ("--t", ["2", "1", "3", "4", "7"], _BAD_INTS + ["full"], False),
            ("--tprime" if scheme == "A" else "--t", [None], ["1"], False),  # the other scheme's flag
            ("--seed", ["0", "-1", str(-2**63), str(2**63 - 1)], [str(2**63), "x", _HUGE, _BIG], True),
            ("--b-target", ["1", "8"], ["0", "-5", "x", "1e3", str(2**31), _HUGE, _BIG], True),
        ]
    if command == "simulate":
        specs += [("--demands", ["1,2", "1,1", "2,1,3", "3,3,3"],
                   ["1", "1,x", "", "0,1", "-1,2", "1,9"], False)]
    if command == "verify":
        specs += [
            ("--mode", [mode], ["bogus"], False),
            ("--coalition", ["1", "2", "1,2", "3"], ["0", "5", "1,x", "", "-1"], False),
            ("--baseline", ["nonprivate"], ["other"], True),
        ]
        if mode == "mc":  # the default trial count is far above the fuzzer's budget
            specs += [("--trials", ["1", "20"],
                       ["0", "-3", "x", "1e3", _HUGE, _BIG, str(cli.MAX_TRIALS + 1)], False),
                      ("--tol", ["0", "1", "0.05", "1/2"],
                       ["-0.1", "1.5", "1e-5000", "1e-100000000", "nan", "x"], True)]
    flags = [spec[0] for spec in specs]
    spoiled = draw(st.sampled_from([None] * len(flags) + ["--bogus", "extra", *flags]))  # half clean
    argv = [command]
    for flag, valid, bad, optional in specs:
        token = draw(st.sampled_from(bad if flag == spoiled else valid + [None] * (len(valid) * optional)))
        argv += [] if token is None else [flag, token]
    return argv + ([spoiled] if spoiled in ("--bogus", "extra") else [])


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(cli_argv())
def test_cli_fuzzer_sees_only_exit_codes_0_1_2(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), (argv, code)
    if code == 2:
        assert "Traceback" not in err.getvalue()
