// Compacted auxiliary-graph construction — a test-only reference.
//
// The routers' AuxGraphBuilder keeps every graph in a stable arena where
// arcs the §3.3.1 / §4.1 / §4.2 recipe leaves out carry weight +inf. This
// function builds the same graph the textbook way: only usable links get
// edge-nodes, only convertible pairs get transit arcs, and node/arc ids are
// handed out in construction order. It keeps no cache (every link cost and
// conversion mean is recomputed), so it shares no state with the builder;
// the fuzz suite checks that the builder's finite arcs map one-to-one onto
// this graph's arcs with bit-identical weights.
#pragma once

#include "rwa/aux_graph.hpp"
#include "wdm/network.hpp"

namespace wdm::fuzz {

/// Builds the compacted G' / G_c / G_rc for s -> t over the residual
/// network. Edge-nodes come in link order (u_out^e, then v_in^e), then s'
/// and t''; in protect mode a node's gadget (hub_in, hub_out) is created
/// while its transit arcs are. Arcs: link arcs in link order, then transit
/// structures node by node, then the s' arcs and the t'' arcs.
rwa::AuxGraph build_compact_aux_graph(const net::WdmNetwork& net,
                                      net::NodeId s, net::NodeId t,
                                      const rwa::AuxGraphOptions& opt = {});

}  // namespace wdm::fuzz
