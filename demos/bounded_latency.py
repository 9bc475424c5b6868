"""Old-Go-First keeps every packet's latency under 2u.

Windows of u = ceil((S(n) + b*L) / (1 - rho*L)) rounds alternate a gossip
phase (every node learns the tours that just became old) with colored
super-rounds (color i transmits in round i, so nothing ever collides).
A tour injected in one window is delivered by the end of the next, hence
the 2u bound.  The demo prints the per-window plans and the latency
distribution against the bound.
"""

from collections import Counter
from fractions import Fraction

from radiosim import (AdversaryType, GossipConfig, compute_window_bound,
                      gen_balanced, make_path, run_ogf)

net = make_path(6)
adv = AdversaryType(Fraction(1, 4), 1, 2)          # rho*L = 1/2, balanced
gossip = GossipConfig.oracle(20)                   # study S(n) = 20
u = compute_window_bound(adv, gossip.rounds(net.n))
horizon = 12 * u

# generate admissible traffic with headroom: the 2u guarantee needs the
# realized conflict degrees to respect the window budget (see README)
gen_type = AdversaryType(adv.rho / 2, adv.b, adv.L)
trace = gen_balanced(net, gen_type, seed=99, horizon=horizon)

res = run_ogf(net, adv, gossip, trace, horizon)
m = res.metrics

print(f"path of {net.n} nodes, type {adv}, S(n) = {res.s_n}")
print(f"window u = {u}, latency bound 2u = {2 * u}, horizon {horizon}\n")
print(f"{'window':>7} {'old':>4} {'L-prime':>8} {'Delta':>6} {'phase2':>7}")
for ws in res.windows[:8]:
    print(f"{ws.index:>7} {ws.old_count:>4} {ws.l_prime:>8} "
          f"{ws.delta:>6} {ws.phase2_length:>7}")
print("     ...")

print(f"\ninjected {m.injected_total}, delivered {m.delivered_total}, "
      f"max queue {m.max_queue}")
hist = Counter(d.latency // 10 * 10 for d in m.deliveries)
for bucket in sorted(hist):
    print(f"  latency {bucket:>3}-{bucket + 9:>3}: {'#' * hist[bucket]}")
# strict run_ogf raises GuaranteeError for a latency above 2u
print(f"\nmax latency {m.max_latency} <= {2 * u} = 2u  "
      f"({res.invariant_checks} per-round residency checks, all clean)")
