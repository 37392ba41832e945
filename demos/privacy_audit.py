#!/usr/bin/env python3
"""Demand-privacy auditing, exact and statistical.

Exact mode compares the full distribution of what a coalition sees
across all demands of the other users.  It runs one placement, since a
canonical view does not depend on the placement draw, and enumerates
each transmitter's position shuffle and leader choices on their own,
since the view is a product of per-transmitter blocks; that reaches
three users and colluding pairs.  The derandomized baseline (identity
shuffle, lowest-index leaders) demonstrates what failure looks like.
Monte Carlo mode samples the deliveries instead, which is how instances
too large to enumerate are checked; here it runs on a three-user
instance that exact mode has just certified.
"""

import time

from d2dpc import scheme_a, scheme_b, verify

THREE_USERS = [[1], [2], [3], [1, 2], [1, 3], [2, 3]]

print("=== exact enumeration, small instances ===")
for label, scheme, params, coalitions in [
    ("A(K=2,N=2,t=1)", "A", scheme_a.params_for(2, 2, 1), [[1], [2]]),
    ("A(K=2,N=2,t=2)", "A", scheme_a.params_for(2, 2, 2), [[1], [2]]),
    ("B(N=2,t'=1)", "B", scheme_b.params_for(2, 1), [[1], [2]]),
    ("B(N=3,t'=0)", "B", scheme_b.params_for(3, 0), [[1], [2]]),
    ("A(K=3,N=2,t=2)", "A", scheme_a.params_for(3, 2, 2), THREE_USERS),
]:
    for coalition, report in verify.check_privacy_exact_all(scheme, params, coalitions).items():
        print(f"  {report.text()}")

print()
print("=== the derandomized baseline leaks ===")
for params in (scheme_a.params_for(2, 2, 1), scheme_a.params_for(2, 2, 2),
               scheme_a.params_for(3, 2, 2)):
    (report,) = verify.check_privacy_exact_all("A", params, [[1]], derandomized=True).values()
    print(f"  {report.text()}")
    if report.witness:
        fixing, da, db = report.witness
        print(f"    observer demands {fixing}: views distinguish full demands {da} vs {db}")

print()
print("=== Monte Carlo, three users (the sampled check of the same instance) ===")
params = scheme_a.params_for(3, 2, 2)
start = time.time()
reports = verify.check_privacy_mc_all("A", params, THREE_USERS, trials=4000, base_seed=1)
for coalition, report in reports.items():
    print(f"  {report.text()}")
print(f"  ({time.time() - start:.1f}s for 6 coalitions sharing one set of runs)")
