"""Command-line surface: simulate runs, emit curves, report gaps, verify.

``main`` parses with one parser, built once, and runs the subcommand's
``cmd_*`` with that subcommand's parser, which checks its own arguments
first: a bad one exits 2 with a one-line message under the subcommand's
usage.  Otherwise the exit code is 0 iff every requested check
passed.  Commands reach library functions through their modules.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import re
import sys
from fractions import Fraction

from . import bounds, sim, verify
from .combinat import curve_max, even_grid, shared_domain
from .core import MAX_FILE_BITS, SchemeParams, demand_vector, scheme_class, transcript_to_text

# the most points of `curve --grid` and `gap --grid-density`, one exact Fraction each
MAX_GRID_POINTS = 100_000

# the most trials of `verify --mode mc`, per demand vector: 10**5 trials of
# A(2,2,1) take under a second in-process, so the cap is seconds there
MAX_TRIALS = 1_000_000

# the most digits a rational flag may have above or below its fraction line,
# read off the text before the value is built: 10**exponent is never built
# for a huge exponent, and all the CLI prints stays far inside Python's
# 4,300-digit int-to-str limit
MAX_RATIONAL_DIGITS = 100
_D = r"\d+(?:_\d+)*"  # ``Fraction``'s grammar: integer, then /denominator or .fraction and exponent
_RATIONAL = re.compile(rf"\s*[-+]?(\d*|{_D})(?:/({_D})|(?:\.(\d*|{_D}))?(?:e([-+]?{_D}))?)\s*", re.I)


def _parse_int_list(text: str) -> tuple[int, ...]:
    """Comma-separated decimal integers of ASCII digits, each with an
    optional minus sign; ``int`` alone would also read other scripts'
    digits."""
    items = text.split(",")
    if all(x.removeprefix("-").isascii() and x.removeprefix("-").isdecimal() for x in items):
        try:
            return tuple(map(int, items))
        except ValueError:  # past the int-from-str digit limit
            pass
    raise argparse.ArgumentTypeError(f"expected comma-separated integers, e.g. 1,2, got {text!r}")


def _parse_tprime(text: str):
    if text == "full":
        return text
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer or 'full', got {text!r}") from None


def _parse_rational(text: str) -> Fraction:
    match = _RATIONAL.fullmatch(text)
    if match:
        whole, denominator, fraction, exponent = ((g or "").replace("_", "") for g in match.groups())
        shift = int(exponent or 0) - len(fraction) if len(exponent.lstrip("+-0")) < 10 else math.inf
        if max(len(whole + fraction) + max(shift, 0),
               len(denominator or "1") + max(-shift, 0)) > MAX_RATIONAL_DIGITS:
            raise argparse.ArgumentTypeError(f"expected at most {MAX_RATIONAL_DIGITS} digits above "
                                             f"and below the fraction line, got {text!r}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"expected a rational number, e.g. 3/2, got {text!r}"
        ) from None


def _int_in(lo: int, hi: int):
    """An argparse type: a decimal integer of ASCII digits, with an
    optional minus sign, in lo..hi.  A text longer than both bounds is
    refused before ``int`` reads it, so none reaches the int-from-str
    limit."""
    width = max(len(str(lo)), len(str(hi)))

    def parse(text: str) -> int:
        digits = text.removeprefix("-")
        if not (digits.isascii() and digits.isdecimal() and len(text) <= width and lo <= int(text) <= hi):
            raise argparse.ArgumentTypeError(f"expected an integer in {lo}..{hi}, got {text!r}")
        return int(text)

    return parse


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
    names = args.converse.split(",")
    if len(set(names)) < len(names):
        parser.error(f"argument --converse: {args.converse} names a curve twice")
    achievable = _named_curve(parser, "--achievable", args.achievable, args.K, args.N)
    converse = None
    for name in names:
        curve = _named_curve(parser, "--converse", name, args.K, args.N)
        try:
            converse = curve if converse is None else curve_max(converse, curve)
        except ValueError as err:
            parser.error(f"argument --converse: {name}: {err}")
    try:
        lo, hi = shared_domain(converse, achievable)
    except ValueError as err:
        parser.error(f"argument --converse: {err}")
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
    return achievable, converse, bounds.gap_grid(achievable, converse, lo, hi, args.grid_density)


def _param_name(cls: type[SchemeParams]) -> str:
    """The scheme's parameter field, its one field besides ``base``; its
    flag is ``--`` and the name."""
    (field,) = [f for f in dataclasses.fields(cls) if f.name != "base"]
    return field.name


def _check_out(parser: argparse.ArgumentParser, path) -> None:
    """Fail before the run, not after it, when ``--out`` cannot be written."""
    try:
        if path:
            open(path, "a").close()
    except OSError as err:
        parser.error(f"argument --out: cannot write {path!r}: {err.strerror}")


def _scheme_params(parser: argparse.ArgumentParser, args):
    """The instance the arguments name; bad values end in ``parser.error``."""
    if min(args.K, args.N) < 2:
        parser.error(f"argument --K/--N: need min(K, N) >= 2, got K={args.K}, N={args.N}")
    cls = scheme_class(args.scheme)
    name = _param_name(cls)
    for other in map(_param_name, SchemeParams.__subclasses__()):
        if other != name and getattr(args, other) is not None:
            parser.error(f"argument --{other}: not a parameter of scheme {args.scheme}")
    if cls.fixed_K not in (None, args.K):
        parser.error(f"argument --K: scheme {args.scheme} runs with --K {cls.fixed_K}, got {args.K}")
    flag, value = "--" + name, getattr(args, name)
    if value is None:
        parser.error(f"argument {flag}: required for scheme {args.scheme}")
    param = None if value == "full" else value
    try:
        cls.admit(args.K, args.N, param)
    except ValueError as err:
        parser.error(f"argument {flag}: {err}")
    try:
        return cls.sized(args.K, args.N, param, args.seed, args.b_target)
    except ValueError as err:  # the file size or the library it makes
        parser.error(f"argument {'--N' if args.b_target is None else '--b-target'}: {err}")


def _fmt(x) -> str:
    return f"{float(x):.12g}"


def cmd_simulate(parser: argparse.ArgumentParser, args) -> int:
    params = _scheme_params(parser, args)
    try:
        demand_vector(args.demands, params.base)
    except ValueError as err:
        parser.error(f"argument --demands: {err}")
    _check_out(parser, args.out)
    tr = sim.run_protocol(args.scheme, params, args.demands)
    measured = sim.measure_load(tr)
    theoretical = sim.theoretical_load(tr)
    decode = verify.check_decodability(tr)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(transcript_to_text(tr))
        print(f"transcript written to {args.out}")
    sp = tr.scheme_params
    print(f"scheme={sp.scheme} K={sp.base.K} N={sp.base.N} B={sp.base.B} "
          f"param={sp.param} M={sp.memory_point()} demands={','.join(map(str, args.demands))}")
    print(f"measured load   = {measured} ({_fmt(measured)})")
    print(f"theoretical load = {theoretical} ({_fmt(theoretical)})")
    print(f"payload bits = {tr.payload_bits}, metadata bytes = {tr.metadata_bytes} "
          f"(metadata never counts toward load)")
    print("decode: " + " ".join(f"user{u}={'ok' if ok else 'FAIL'}" for u, ok in sorted(decode.items())))
    ok = measured == theoretical and all(decode.values())
    print("verdict:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def _curve_rows(curve, grid_points: int):
    """The corner rows and the interpolated even-grid rows merged by M; a
    grid point at a corner keeps only the corner row.  The grid lies
    inside the domain, so a corner at or above each point remains."""
    tags = curve.provenance or ("",) * len(curve.corners)
    corners = [(m, r, tag or "corner") for (m, r), tag in zip(curve.corners, tags)]
    grid = even_grid(curve.min_m, curve.max_m, grid_points)
    rows, k = [], 0
    for m, r in zip(grid, curve.values(grid)):
        while corners[k][0] < m:
            rows.append(corners[k])
            k += 1
        if corners[k][0] != m:
            rows.append((m, r, "interpolated"))
    return rows + corners[k:]


def cmd_curve(parser: argparse.ArgumentParser, args) -> int:
    if min(args.K, args.N) < 1:
        parser.error(f"argument --K/--N: need min(K, N) >= 1, got K={args.K}, N={args.N}")
    curve = _named_curve(parser, "--which", args.which, args.K, args.N)
    _check_out(parser, args.out)
    lines = ["M_rational,M_decimal,R_rational,R_decimal,curve,provenance"]
    for m, r, tag in _curve_rows(curve, args.grid):
        lines.append(f"{m},{_fmt(m)},{r},{_fmt(r)},{args.which},{tag}")
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_gap(parser: argparse.ArgumentParser, args) -> int:
    if min(args.K, args.N) < 1:
        parser.error(f"argument --K/--N: need min(K, N) >= 1, got K={args.K}, N={args.N}")
    achievable, converse, grid = _gap_inputs(parser, args)
    report = bounds.gap(achievable, converse, grid)
    print(f"achievable={args.achievable} converse={args.converse} K={args.K} N={args.N}")
    if report.max_ratio is None:
        load = achievable(report.argmax_m)
        ratio = f"unbounded: the converse is 0 and the achievable load {load}"
    else:
        ratio = f"{report.max_ratio} ({_fmt(report.max_ratio)})"
    print(f"max ratio = {ratio} at M = {report.argmax_m}")
    if report.skipped:
        print(f"skipped zero-converse grid points: {[str(m) for m in report.skipped]}")
    if args.bound is not None:
        ok = report.max_ratio is not None and report.max_ratio <= args.bound
        print(f"bound {args.bound}: {'PASS' if ok else 'FAIL'}")
        return 0 if ok else 1
    return 0


def cmd_verify(parser: argparse.ArgumentParser, args) -> int:
    params = _scheme_params(parser, args)
    if any(not 1 <= u <= args.K for u in args.coalition):
        parser.error(f"argument --coalition: users must lie in 1..{args.K}")
    if len(set(args.coalition)) != len(args.coalition):
        parser.error(f"argument --coalition: a user is listed twice in {','.join(map(str, args.coalition))}")
    if len(args.coalition) == args.K:
        parser.error(f"argument --coalition: all {args.K} users leave no demand to vary")
    derandomized = args.baseline == "nonprivate"
    if args.mode == "exact":
        try:
            reports = verify.check_privacy_exact_all(args.scheme, params, [args.coalition],
                                                     derandomized=derandomized)
        except verify.ExactModeTooLarge as err:
            parser.error(f"argument --mode: {err}")
    else:
        reports = verify.check_privacy_mc_all(
            args.scheme, params, [args.coalition], trials=args.trials, tolerance=args.tol,
            base_seed=args.seed, derandomized=derandomized)
    (report,) = reports.values()
    print(report.text())
    return 0 if report.private else 1


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call rather than at import."""
    parser = argparse.ArgumentParser(
        prog="d2dpc",
        description="Simulator and bound evaluator for D2D private coded caching "
        "with a trusted server.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common_instance(p):
        p.add_argument("--scheme", required=True, type=str.upper,
                       choices=sorted(cls.scheme for cls in SchemeParams.__subclasses__()))
        p.add_argument("--K", type=int, required=True)
        p.add_argument("--N", type=int, required=True)
        p.add_argument("--t", type=int, help="scheme A parameter t")
        p.add_argument("--tprime", type=_parse_tprime,
                       help="scheme B parameter t' (or 'full')")
        # the signed 64 bits of ``core.check_seed``
        p.add_argument("--seed", type=_int_in(-(2**63), 2**63 - 1), default=0)
        p.add_argument("--b-target", type=_int_in(1, MAX_FILE_BITS), dest="b_target",
                       help="minimum file size in bits (rounded up to the subpacketization)")

    p_sim = sub.add_parser("simulate", help="run one protocol instance")
    common_instance(p_sim)
    p_sim.add_argument("--demands", required=True, type=_parse_int_list, help="comma-separated, e.g. 1,2")
    p_sim.add_argument("--out", help="write the transcript to this path")
    p_sim.set_defaults(func=functools.partial(cmd_simulate, p_sim))

    p_curve = sub.add_parser("curve", help="emit a memory-load curve as CSV")
    p_curve.add_argument("--which", required=True, choices=list(bounds.CURVES))
    p_curve.add_argument("--K", type=int, required=True)
    p_curve.add_argument("--N", type=int, required=True)
    p_curve.add_argument("--grid", type=_int_in(0, MAX_GRID_POINTS), default=256)
    p_curve.add_argument("--out")
    p_curve.set_defaults(func=functools.partial(cmd_curve, p_curve))

    p_gap = sub.add_parser("gap", help="multiplicative gap between two curves")
    p_gap.add_argument("--K", type=int, required=True)
    p_gap.add_argument("--N", type=int, required=True)
    p_gap.add_argument("--achievable", required=True,
                       choices=[name for name, c in bounds.CURVES.items() if c.achievable])
    p_gap.add_argument("--converse", required=True,
                       help="curve name or comma-list (pointwise max), e.g. convKu,sharedlink")
    p_gap.add_argument("--grid-density", type=_int_in(0, MAX_GRID_POINTS), default=64, dest="grid_density")
    p_gap.add_argument("--bound", type=_parse_rational,
                       help="assert max ratio <= this rational")
    p_gap.add_argument("--min-m", dest="min_m", type=_parse_rational,
                       help="restrict the grid to M >= this")
    p_gap.add_argument("--max-m", dest="max_m", type=_parse_rational,
                       help="restrict the grid to M <= this")
    p_gap.set_defaults(func=functools.partial(cmd_gap, p_gap))

    p_ver = sub.add_parser("verify", help="decodability/privacy verification")
    common_instance(p_ver)
    p_ver.add_argument("--mode", choices=["exact", "mc"], default="exact")
    p_ver.add_argument("--coalition", required=True, type=_parse_int_list,
                       help="comma-separated user indices")
    p_ver.add_argument("--trials", type=_int_in(1, MAX_TRIALS), default=verify.DEFAULT_TRIALS)
    p_ver.add_argument("--tol", type=_parse_tolerance, default=verify.DEFAULT_TOLERANCE)
    p_ver.add_argument("--baseline", choices=["nonprivate"],
                       help="check the non-private baseline instead, the first outcome of every "
                       "delivery draw (scheme B draws none, so its baseline is B itself)")
    p_ver.set_defaults(func=functools.partial(cmd_verify, p_ver))

    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
