"""The TDMA gossip phase: one transmitter per round, nothing collides.

Node ((r-1) mod n) + 1 owns phase-round r and transmits there the rumors
it learned since its previous transmission, if it learned any; its
neighbors heard all earlier ones, so each of them ends up holding its
whole rumor set.  Within a sweep of n rounds every node with news speaks
once, so every rumor crosses at least one more hop per sweep; after n-1 sweeps (S(n) = n(n-1) rounds) every node knows
every rumor on any connected topology.  `tdma_gossip` runs Old-Go-First's
own phase 1, here with one rumor per node.
"""

from radiosim import GossipConfig, make_path, make_random_connected, tdma_gossip


def rumor_counts(net):
    knowledge = tdma_gossip(net, {v: {v: None} for v in net.nodes()})
    return [len(knowledge[v]) for v in net.nodes()]


net = make_path(5)
counts = rumor_counts(net)
print(f"path of 5 nodes, rumor counts after {GossipConfig.tdma().rounds(net.n)} "
      f"rounds: {counts}")
assert counts == [net.n] * net.n

print("random connected topologies, n=7:")
for seed in (1, 2, 3):
    net = make_random_connected(7, 0.3, seed)
    counts = rumor_counts(net)
    print(f"  seed={seed}: {len(net.edges)} edges, rumor counts {counts}")
    assert counts == [net.n] * net.n
