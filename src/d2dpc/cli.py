"""Command-line surface: simulate runs, emit curves, report gaps, verify.

Exit code is 0 iff every requested check passed.  Environment overrides:
D2DPC_SEED (default seed), D2DPC_ENUM_CAP (exact-mode enumeration cap).
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

from . import bounds, scheme_a, scheme_b, sim, verify
from .combinat import curve_max, even_grid
from .core import check_seed, demand_vector, transcript_to_text


def _env_int(parser: argparse.ArgumentParser, name: str, default: int) -> int:
    value = os.environ.get(name)
    if not value:
        return default
    try:
        return int(value)
    except ValueError:
        parser.error(f"environment variable {name} must be an integer, got {value!r}")


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, e.g. 1,2, got {text!r}"
        ) from None


def _parse_tprime(text: str):
    if text == "full":
        return text
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer or 'full', got {text!r}") from None


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"expected a rational number, e.g. 3/2, got {text!r}"
        ) from None


def _parse_count(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return int(text)


def _parse_trials(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _parse_tolerance(text: str) -> float:
    tol = _parse_rational(text)
    if not 0 <= tol <= 1:
        raise argparse.ArgumentTypeError(f"expected a number in [0, 1], got {text!r}")
    return float(tol)


def _named_curve(parser: argparse.ArgumentParser, flag: str, which: str, K: int, N: int):
    """``bounds.named_curve``; a curve undefined at (K, N) ends in ``parser.error``."""
    try:
        return bounds.named_curve(which, K, N)
    except ValueError as err:
        parser.error(f"argument {flag}: {err}")


def _gap_inputs(parser: argparse.ArgumentParser, args):
    """The achievable curve, the converse and the grid the gap arguments name."""
    achievable = _named_curve(parser, "--achievable", args.achievable, args.K, args.N)
    converse = None
    for name in args.converse.split(","):
        curve = _named_curve(parser, "--converse", name, args.K, args.N)
        try:
            converse = curve if converse is None else curve_max(converse, curve)
        except ValueError as err:
            parser.error(f"argument --converse: {name}: {err}")
    lo = max(achievable.min_m, converse.min_m)
    hi = min(achievable.max_m, converse.max_m)
    if lo >= hi:
        parser.error(f"argument --converse: its domain [{converse.min_m}, {converse.max_m}] "
                     f"and the achievable curve's [{achievable.min_m}, {achievable.max_m}] "
                     "do not overlap")
    for flag, m in (("--min-m", args.min_m), ("--max-m", args.max_m)):
        if m is not None and not lo <= m <= hi:
            parser.error(f"argument {flag}: {m} lies outside the curves' shared domain [{lo}, {hi}]")
    lo = lo if args.min_m is None else args.min_m
    hi = hi if args.max_m is None else args.max_m
    if lo > hi:
        parser.error(f"argument --max-m: {hi} lies below --min-m {lo}")
    # the converse is non-increasing, so zero at lo means zero on [lo, hi]
    if converse(lo) == 0:
        parser.error(f"argument --converse: zero on the whole range [{lo}, {hi}]")
    grid = sorted(
        {m for m in achievable.corner_ms() + converse.corner_ms() if lo <= m <= hi}
        | set(even_grid(lo, hi, args.grid_density)) | {lo, hi}
    )
    return achievable, converse, grid


def _scheme_params(parser: argparse.ArgumentParser, args):
    """The instance the arguments name; bad values end in ``parser.error``."""
    if min(args.K, args.N) < 2:
        parser.error(f"argument --K/--N: need min(K, N) >= 2, got K={args.K}, N={args.N}")
    if args.scheme == "A":
        flag, value = "--t", args.t
    else:
        flag, value = "--tprime", args.tprime
        if args.K != 2:
            parser.error(f"argument --K: scheme B runs with --K 2, got {args.K}")
    if value is None:
        parser.error(f"argument {flag}: required for scheme {args.scheme}")
    try:
        if args.scheme == "A":
            return scheme_a.params_for(args.K, args.N, value, args.seed, args.b_target)
        tp = None if value == "full" else value
        return scheme_b.params_for(args.N, tp, args.seed, args.b_target)
    except ValueError as err:
        parser.error(f"argument {flag}: {err}")


def _fmt(x) -> str:
    return f"{float(x):.12g}"


def cmd_simulate(args) -> int:
    tr = sim.run_protocol(args.scheme, args.params, args.demands)
    measured = sim.measure_load(tr)
    theoretical = sim.theoretical_load(tr)
    decode = verify.check_decodability(tr)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(transcript_to_text(tr))
        print(f"transcript written to {args.out}")
    print(f"scheme={tr.scheme} K={tr.params.K} N={tr.params.N} B={tr.params.B} "
          f"param={tr.scheme_param} M={tr.memory_point} demands={','.join(map(str, args.demands))}")
    print(f"measured load   = {measured} ({_fmt(measured)})")
    print(f"theoretical load = {theoretical} ({_fmt(theoretical)})")
    print(f"payload bits = {tr.payload_bits}, metadata bytes = {tr.metadata_bytes} "
          f"(metadata never counts toward load)")
    print("decode: " + " ".join(f"user{u}={'ok' if ok else 'FAIL'}" for u, ok in sorted(decode.items())))
    ok = measured == theoretical and all(decode.values())
    print("verdict:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def _curve_rows(curve, which: str, grid_points: int):
    corner_ms = set(curve.corner_ms())
    rows = [
        (pt.M, pt.R_lower, pt.provenance or "corner")
        for pt in bounds.curve_bound_points(curve)
    ]
    for m in even_grid(curve.min_m, curve.max_m, grid_points):
        if m not in corner_ms:
            rows.append((m, curve(m), "interpolated"))
    rows.sort(key=lambda row: row[0])
    return rows


def cmd_curve(args) -> int:
    lines = ["M_rational,M_decimal,R_rational,R_decimal,curve,provenance"]
    for m, r, tag in _curve_rows(args.curve, args.which, args.grid):
        lines.append(f"{m},{_fmt(m)},{r},{_fmt(r)},{args.which},{tag}")
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_gap(args) -> int:
    report = bounds.gap(args.achievable_curve, args.converse_curve, args.gap_grid)
    print(f"achievable={args.achievable} converse={args.converse} K={args.K} N={args.N}")
    print(f"max ratio = {report.max_ratio} ({_fmt(report.max_ratio)}) at M = {report.argmax_m}")
    if report.skipped:
        print(f"skipped zero-converse grid points: {[str(m) for m in report.skipped]}")
    if args.bound is not None:
        ok = report.max_ratio <= args.bound
        print(f"bound {args.bound}: {'PASS' if ok else 'FAIL'}")
        return 0 if ok else 1
    return 0


def cmd_verify(args) -> int:
    derandomized = args.baseline == "nonprivate"
    if args.mode == "exact":
        try:
            reports = verify.check_privacy_exact_all(
                args.scheme, args.params, [args.coalition],
                cap=args.enum_cap, derandomized=derandomized, paranoid=args.paranoid,
            )
        except verify.ExactModeTooLarge as err:
            print(err)
            return 2
    else:
        reports = verify.check_privacy_mc_all(
            args.scheme, args.params, [args.coalition],
            trials=args.trials, tolerance=args.tol,
            base_seed=args.seed,
            derandomized=derandomized,
        )
    (report,) = reports.values()
    print(report.text())
    return 0 if report.private else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="d2dpc",
        description="Simulator and bound evaluator for D2D private coded caching "
        "with a trusted server.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common_instance(p, need_demands=False):
        p.add_argument("--scheme", required=True, type=str.upper, choices=["A", "B"])
        p.add_argument("--K", type=int, required=True)
        p.add_argument("--N", type=int, required=True)
        p.add_argument("--t", type=int, help="scheme A parameter t")
        p.add_argument("--tprime", type=_parse_tprime,
                       help="scheme B parameter t' (or 'full')")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--b-target", type=int, default=None, dest="b_target",
                       help="minimum file size in bits (rounded up to the subpacketization)")
        if need_demands:
            p.add_argument("--demands", required=True, type=_parse_int_list,
                           help="comma-separated, e.g. 1,2")

    p_sim = sub.add_parser("simulate", help="run one protocol instance")
    common_instance(p_sim, need_demands=True)
    p_sim.add_argument("--out", help="write the transcript to this path")
    p_sim.set_defaults(func=cmd_simulate)

    p_curve = sub.add_parser("curve", help="emit a memory-load curve as CSV")
    p_curve.add_argument("--which", required=True, choices=list(bounds.CURVE_NAMES))
    p_curve.add_argument("--K", type=int, required=True)
    p_curve.add_argument("--N", type=int, required=True)
    p_curve.add_argument("--grid", type=_parse_count, default=256)
    p_curve.add_argument("--out")
    p_curve.set_defaults(func=cmd_curve)

    p_gap = sub.add_parser("gap", help="multiplicative gap between two curves")
    p_gap.add_argument("--K", type=int, required=True)
    p_gap.add_argument("--N", type=int, required=True)
    p_gap.add_argument("--achievable", required=True,
                       choices=["schemeA", "schemeB", "schemeC"])
    p_gap.add_argument("--converse", required=True,
                       help="curve name or comma-list (pointwise max), e.g. convKu,sharedlink")
    p_gap.add_argument("--grid-density", type=_parse_count, default=64, dest="grid_density")
    p_gap.add_argument("--bound", type=_parse_rational,
                       help="assert max ratio <= this rational")
    p_gap.add_argument("--min-m", dest="min_m", type=_parse_rational,
                       help="restrict the grid to M >= this")
    p_gap.add_argument("--max-m", dest="max_m", type=_parse_rational,
                       help="restrict the grid to M <= this")
    p_gap.set_defaults(func=cmd_gap)

    p_ver = sub.add_parser("verify", help="decodability/privacy verification")
    common_instance(p_ver)
    p_ver.add_argument("--mode", choices=["exact", "mc"], default="exact")
    p_ver.add_argument("--coalition", required=True, type=_parse_int_list,
                       help="comma-separated user indices")
    p_ver.add_argument("--trials", type=_parse_trials, default=verify.DEFAULT_TRIALS)
    p_ver.add_argument("--tol", type=_parse_tolerance, default=verify.DEFAULT_TOLERANCE)
    p_ver.add_argument("--paranoid", action="store_true",
                       help="exact mode: include the payload-relation fingerprint")
    p_ver.add_argument("--baseline", choices=["nonprivate"],
                       help="check the derandomized non-private baseline instead")
    p_ver.set_defaults(func=cmd_verify)

    args = parser.parse_args(argv)
    if args.command in ("curve", "gap") and min(args.K, args.N) < 1:
        parser.error(f"argument --K/--N: need min(K, N) >= 1, got K={args.K}, N={args.N}")
    if args.command == "curve":
        args.curve = _named_curve(parser, "--which", args.which, args.K, args.N)
    if args.command == "gap":
        args.achievable_curve, args.converse_curve, args.gap_grid = _gap_inputs(parser, args)
    if args.command in ("simulate", "verify"):
        seed_from = "argument --seed"
        if args.seed is None:
            args.seed = _env_int(parser, "D2DPC_SEED", 0)
            seed_from = "environment variable D2DPC_SEED"
        try:
            check_seed(args.seed)
        except ValueError as err:
            parser.error(f"{seed_from}: {err}")
        args.params = _scheme_params(parser, args)
    if args.command == "simulate":
        try:
            demand_vector(args.demands, args.params.base)
        except ValueError as err:
            parser.error(f"argument --demands: {err}")
    if args.command == "verify":
        if any(not 1 <= u <= args.K for u in args.coalition):
            parser.error(f"argument --coalition: users must lie in 1..{args.K}")
        args.enum_cap = _env_int(parser, "D2DPC_ENUM_CAP", verify.EXACT_ENUMERATION_CAP)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
