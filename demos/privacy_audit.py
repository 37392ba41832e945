#!/usr/bin/env python3
"""Demand-privacy auditing, exact and statistical.

Exact mode enumerates every placement permutation, position shuffle and
leader choice, and compares the full distribution of what an observer
sees across all demands of the other users.  The derandomized baseline
(identity shuffle, lowest-index leaders) demonstrates what failure looks
like.  Monte Carlo mode handles the instances whose randomness space is
too large to enumerate.
"""

import time

from d2dpc import scheme_a, scheme_b, verify

print("=== exact enumeration, small instances ===")
for label, scheme, params in [
    ("A(K=2,N=2,t=1)", "A", scheme_a.params_for(2, 2, 1)),
    ("A(K=2,N=2,t=2)", "A", scheme_a.params_for(2, 2, 2)),
    ("B(N=2,t'=1)", "B", scheme_b.params_for(2, 1)),
    ("B(N=3,t'=0)", "B", scheme_b.params_for(3, 0)),
]:
    for coalition, report in verify.check_privacy_exact_all(
        scheme, params, [[1], [2]], paranoid=True
    ).items():
        print(f"  {report.text()}")

print()
print("=== the derandomized baseline leaks ===")
for t in (1, 2):
    (report,) = verify.check_privacy_exact_all(
        "A", scheme_a.params_for(2, 2, t), [[1]], derandomized=True, paranoid=True
    ).values()
    print(f"  {report.text()}")
    if report.witness:
        fixing, da, db = report.witness
        print(f"    observer demands {fixing}: views distinguish full demands {da} vs {db}")

print()
print("=== Monte Carlo, three users (too large to enumerate) ===")
params = scheme_a.params_for(3, 2, 2)
start = time.time()
reports = verify.check_privacy_mc_all(
    "A", params, [[1], [2], [3], [1, 2], [1, 3], [2, 3]], trials=4000, base_seed=1
)
for coalition, report in reports.items():
    print(f"  {report.text()}")
print(f"  ({time.time() - start:.1f}s for 6 coalitions sharing one set of runs)")
