#!/usr/bin/env python3
"""Walk through one protocol run of each scheme, end to end.

Shows the pieces a run produces: the per-user caches filled during
placement, the queries the trusted server hands out, the XOR broadcasts,
the exact measured load, and bit-exact decoding at every user.
"""

from d2dpc import scheme_a, scheme_b, sim, verify
from d2dpc.core import transcript_to_text
from d2dpc.scheme_a import decode_from_messages, index_messages


def show(tr):
    sp = tr.scheme_params
    print(f"  scheme {sp.scheme}, K={sp.base.K}, N={sp.base.N}, "
          f"B={sp.base.B} bits, M={sp.memory_point()}, demands={tr.demands}")
    for cache in tr.caches:
        per_file = {}
        for sid in cache.slots:
            per_file.setdefault(sid.file, []).append(sid.slot)
        desc = "; ".join(f"F{f}:{sorted(s)}" for f, s in sorted(per_file.items()))
        print(f"  user {cache.owner} caches {desc}")
    for per in tr.broadcasts:
        for m in per:
            comp = " + ".join(f"S{sid.file}:{sid.slot}" for sid in m.composition)
            print(f"  user {m.sender} broadcasts {comp} = {m.payload:0{sp.layout.subfile_bits}b}")
    print(f"  measured load {sim.measure_load(tr)} "
          f"(formula {sim.theoretical_load(tr)}), "
          f"metadata {tr.metadata_bytes} bytes (never counted)")
    print(f"  decoding: {verify.check_decodability(tr)}")


print("=== virtual-user scheme, two users, three files, t=3 ===")
params = scheme_a.params_for(2, 3, 3, seed=7)
tr = sim.run_protocol("A", params, (1, 1))
show(tr)

print()
print("=== virtual-user scheme, three users (leader filtering active) ===")
params = scheme_a.params_for(3, 2, 2, seed=7)
tr = sim.run_protocol("A", params, (1, 2, 1))
show(tr)
# one slot of the demanded file is only reachable through the XOR of
# several broadcasts; the solver recovers it anyway
user = 1
layout = tr.scheme_params.layout
got = decode_from_messages(
    user, index_messages(tr.all_messages(), layout), tr.caches[user - 1], tr.demands[user - 1], layout
)
print(f"  user {user} reassembled file {tr.demands[user - 1]} bit-exactly:",
      got == tr.library[tr.demands[user - 1]])

print()
print("=== two-user redundancy-free scheme at (9/4, 1/2) ===")
params = scheme_b.params_for(3, 2, seed=7)
tr = sim.run_protocol("B", params, (1, 1))
show(tr)

print()
print("=== transcript wire format ===")
print(transcript_to_text(sim.run_protocol("A", scheme_a.params_for(2, 2, 2, seed=1), (1, 2))))
