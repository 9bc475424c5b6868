"""radiosim: deterministic multi-hop radio network simulation.

Synchronous rounds with the single-transmitting-neighbor hearing rule,
interference conflict graphs, static link scheduling, adversarial
(rho, b, L) traffic, and the Old-Go-First bounded-latency routing policy.
"""

from .adversary import (AdversaryError, AdversaryType, Balance,
                        InjectionTrace, LoadLedger, Violation, classify,
                        format_trace, gen_balanced, gen_unbalanced_clique,
                        node_load, parse_trace, verify_admissible,
                        verify_admissible_all_intervals)
from .coloring import (Coloring, ColoringError, exact_chromatic, greedy_color,
                       is_proper, optimal_sls_length, schedule_from_coloring,
                       verify_schedule)
from .conflict import (ConflictGraph, Tour, TourError, build_conflict_graph,
                       conflict_node_set, format_tour, max_degree,
                       node_link_conflicts, node_tour_conflicts,
                       parse_tour_line, tours_conflict, validate_tour)
from .engine import (COLLISION, LISTEN, SILENCE, EngineError, Heard, Message,
                     Metrics, NodeState, RoundRobin, RoutingAlgorithm, run,
                     step)
from .network import (Network, NetworkError, build_network, format_network,
                      make_clique, make_cycle, make_path,
                      make_random_connected, parse_network)
from .ogf import (GossipConfig, GuaranteeError, OgfError, OgfResult,
                  OldGoFirst, WindowOverflowError, WindowPlan,
                  compute_window_bound, plan_window, run_ogf, tdma_gossip)

__version__ = "0.1.0"
