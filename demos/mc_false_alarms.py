#!/usr/bin/env python3
"""How often the Monte Carlo privacy gate is wrong, measured.

Exact mode certifies A(3,2,2) private for every coalition, and its
derandomized baseline leaky for every coalition.  So a FAIL of the
Monte Carlo check on the private instance is a false alarm of the
debiased-TV gate (``verify.DEFAULT_TOLERANCE``), and a PASS on the
baseline is a miss.  This demo runs the check on all six coalitions of
fewer than three users over many base seeds and counts both.

    PYTHONPATH=src python demos/mc_false_alarms.py [--seeds 200]

A check FAILs when any of its six coalitions does; the coalition column
counts FAILed coalitions over all checks.
"""

import argparse
import itertools

from d2dpc import scheme_a, verify

COALITIONS = [c for r in (1, 2) for c in itertools.combinations((1, 2, 3), r)]
PRIVATE_TRIALS = (300, 1000, 3000, 10_000)
BASELINE_TRIALS = (50, 200)


def tally(params, trials: int, seeds: int, derandomized: bool):
    """(checks FAILed, coalitions FAILed, largest debiased TV, smallest)."""
    checks = coalitions = 0
    largest, smallest = 0.0, 1.0
    for base_seed in range(seeds):
        reports = verify.check_privacy_mc_all("A", params, COALITIONS, trials=trials,
                                              base_seed=base_seed, derandomized=derandomized)
        failed = sum(not r.private for r in reports.values())
        checks += failed > 0
        coalitions += failed
        tvs = [r.max_tv_debiased for r in reports.values()]
        largest, smallest = max(largest, *tvs), min(smallest, *tvs)
    return checks, coalitions, largest, smallest


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=200, help="base seeds 0..SEEDS-1")
    seeds = parser.parse_args().seeds
    if seeds < 1:
        parser.error("--seeds must be >= 1")
    params = scheme_a.params_for(3, 2, 2)
    print(f"A(3,2,2), {len(COALITIONS)} coalitions, tolerance {verify.DEFAULT_TOLERANCE}, "
          f"base seeds 0..{seeds - 1}")
    print("| instance | trials | checks FAILed | coalitions FAILed | debiased TV range |")
    print("|---|---|---|---|---|")
    for derandomized, trial_counts in ((False, PRIVATE_TRIALS), (True, BASELINE_TRIALS)):
        label = "baseline" if derandomized else "private"
        for trials in trial_counts:
            checks, coalitions, largest, smallest = tally(params, trials, seeds, derandomized)
            print(f"| {label} | {trials:,} | {checks}/{seeds} ({checks / seeds:.1%}) "
                  f"| {coalitions}/{seeds * len(COALITIONS)} | {smallest:.4f}..{largest:.4f} |")


if __name__ == "__main__":
    main()
