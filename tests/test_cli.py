from fractions import Fraction

import pytest

from d2dpc.cli import main


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


def test_verify_exact_pass(capsys):
    rc = main(["verify", "--scheme", "A", "--K", "2", "--N", "2", "--t", "2",
               "--mode", "exact", "--coalition", "1", "--paranoid"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "verdict=PASS" in out


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
        ("--K/--N", ["curve", "--which", "sharedlink", "--K", "0", "--N", "4"]),
        ("--trials", _VERIFY_A + ["--mode", "mc", "--trials", "0"]),
        ("--trials", _VERIFY_A + ["--mode", "mc", "--trials", "-3"]),
        ("--tol", _VERIFY_A + ["--mode", "mc", "--tol", "nan"]),
        ("--tol", _VERIFY_A + ["--mode", "mc", "--tol", "1.5"]),
        ("--tol", _VERIFY_A + ["--mode", "mc", "--tol", "-0.1"]),
        ("--seed", _VERIFY_A + ["--seed", "99999999999999999999"]),
        ("--seed", ["simulate", "--scheme", "A", "--K", "2", "--N", "2", "--t", "1",
                    "--demands", "1,2", "--seed", "-99999999999999999999"]),
    ],
)
def test_bad_argument_exits_2_with_one_line_message(flag, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"argument {flag}:" in err.strip().splitlines()[-1]


def test_bad_seed_environment_exits_2(monkeypatch, capsys):
    monkeypatch.setenv("D2DPC_SEED", "abc")
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--scheme", "A", "--K", "2", "--N", "2", "--t", "1",
              "--demands", "1,2"])
    assert exc.value.code == 2
    last = capsys.readouterr().err.strip().splitlines()[-1]
    assert "D2DPC_SEED" in last and "'abc'" in last


def test_out_of_range_seed_environment_exits_2(monkeypatch, capsys):
    monkeypatch.setenv("D2DPC_SEED", "-99999999999999999999")
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--scheme", "A", "--K", "2", "--N", "2", "--t", "1",
              "--demands", "1,2"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "environment variable D2DPC_SEED:" in err.strip().splitlines()[-1]
