"""Adversarial traffic and the per-node load budget rho*|tau| + b.

Generates admissible traffic and verifies it; the generator and the
verifier share one exact per-node load envelope, and the all-intervals
oracle checks the verdict.  Then a burst that exceeds the single-round
budget is appended, and the verifier names the node, interval and load
that break it.
"""

from fractions import Fraction

from radiosim import (AdversaryType, InjectionTrace, Tour, format_trace,
                      gen_balanced, make_clique, verify_admissible,
                      verify_admissible_all_intervals)

net = make_clique(5)
adv = AdversaryType(Fraction(1, 3), 2, 2)
trace = gen_balanced(net, adv, seed=7, horizon=30)

print(f"type {adv} on K{net.n}: generated {len(trace.injections)} tours")
print("head of the trace file format:")
for line in format_trace(adv, trace).splitlines()[:6]:
    print("   ", line)

print("\nfast verifier:", verify_admissible(net, trace, adv) or "ok")
print("all-intervals oracle:",
      verify_admissible_all_intervals(net, trace, adv) or "ok")

# burstiness b caps what one round may carry: b+1 copies must trip it
burst = tuple(Tour(900 + i, 31, (1, 2, 3)) for i in range(adv.b + 1))
mutated = InjectionTrace(trace.injections + burst, 31)
violation = verify_admissible(net, mutated, adv)
print(f"\nafter appending {adv.b + 1} simultaneous copies of a tour:")
print("   ", violation)
assert violation is not None
