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
from .core import demand_vector, transcript_to_text


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
    curve = bounds.named_curve(args.which, args.K, args.N)
    lines = ["M_rational,M_decimal,R_rational,R_decimal,curve,provenance"]
    for m, r, tag in _curve_rows(curve, args.which, args.grid):
        lines.append(f"{m},{_fmt(m)},{r},{_fmt(r)},{args.which},{tag}")
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_gap(args) -> int:
    achievable = bounds.named_curve(args.achievable, args.K, args.N)
    names = args.converse.split(",")
    converse = bounds.named_curve(names[0], args.K, args.N)
    for name in names[1:]:
        converse = curve_max(converse, bounds.named_curve(name, args.K, args.N))
    if args.min_m is not None or args.max_m is not None:
        lo = Fraction(args.min_m) if args.min_m else max(achievable.min_m, converse.min_m)
        hi = Fraction(args.max_m) if args.max_m else min(achievable.max_m, converse.max_m)
        grid = sorted(
            {m for m in achievable.corner_ms() + converse.corner_ms() if lo <= m <= hi}
            | set(even_grid(lo, hi, args.grid_density)) | {lo, hi}
        )
    else:
        grid = bounds.default_gap_grid(achievable, converse, args.grid_density)
    report = bounds.gap(achievable, converse, grid)
    print(f"achievable={args.achievable} converse={args.converse} K={args.K} N={args.N}")
    print(f"max ratio = {report.max_ratio} ({_fmt(report.max_ratio)}) at M = {report.argmax_m}")
    if report.skipped:
        print(f"skipped zero-converse grid points: {[str(m) for m in report.skipped]}")
    if args.bound is not None:
        ok = report.max_ratio <= Fraction(args.bound)
        print(f"bound {args.bound}: {'PASS' if ok else 'FAIL'}")
        return 0 if ok else 1
    return 0


def cmd_verify(args) -> int:
    derandomized = args.baseline == "nonprivate"
    if args.mode == "exact":
        try:
            report = verify.check_privacy_exact(
                args.scheme, args.params, args.coalition,
                cap=args.enum_cap, derandomized=derandomized, paranoid=args.paranoid,
            )
        except verify.ExactModeTooLarge as err:
            print(err)
            return 2
    else:
        report = verify.check_privacy_mc(
            args.scheme, args.params, args.coalition,
            trials=args.trials, tolerance=args.tol,
            base_seed=args.seed,
            derandomized=derandomized,
        )
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
    p_curve.add_argument("--grid", type=int, default=256)
    p_curve.add_argument("--out")
    p_curve.set_defaults(func=cmd_curve)

    p_gap = sub.add_parser("gap", help="multiplicative gap between two curves")
    p_gap.add_argument("--K", type=int, required=True)
    p_gap.add_argument("--N", type=int, required=True)
    p_gap.add_argument("--achievable", required=True,
                       choices=["schemeA", "schemeB", "schemeC"])
    p_gap.add_argument("--converse", required=True,
                       help="curve name or comma-list (pointwise max), e.g. convKu,sharedlink")
    p_gap.add_argument("--grid-density", type=int, default=64, dest="grid_density")
    p_gap.add_argument("--bound", help="assert max ratio <= this rational")
    p_gap.add_argument("--min-m", dest="min_m", help="restrict the grid to M >= this")
    p_gap.add_argument("--max-m", dest="max_m", help="restrict the grid to M <= this")
    p_gap.set_defaults(func=cmd_gap)

    p_ver = sub.add_parser("verify", help="decodability/privacy verification")
    common_instance(p_ver)
    p_ver.add_argument("--mode", choices=["exact", "mc"], default="exact")
    p_ver.add_argument("--coalition", required=True, type=_parse_int_list,
                       help="comma-separated user indices")
    p_ver.add_argument("--trials", type=int, default=verify.DEFAULT_TRIALS)
    p_ver.add_argument("--tol", type=float, default=verify.DEFAULT_TOLERANCE)
    p_ver.add_argument("--paranoid", action="store_true",
                       help="exact mode: include the payload-relation fingerprint")
    p_ver.add_argument("--baseline", choices=["nonprivate"],
                       help="check the derandomized non-private baseline instead")
    p_ver.set_defaults(func=cmd_verify)

    args = parser.parse_args(argv)
    if args.command in ("simulate", "verify"):
        if args.seed is None:
            args.seed = _env_int(parser, "D2DPC_SEED", 0)
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
