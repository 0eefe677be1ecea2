#include "graph/suurballe.hpp"

#include <algorithm>
#include <vector>

#include "graph/dijkstra.hpp"
#include "graph/heaps.hpp"
#include "support/check.hpp"

namespace wdm::graph {

namespace {

bool edge_on(std::span<const std::uint8_t> mask, EdgeId e) {
  return mask.empty() || mask[static_cast<std::size_t>(e)] != 0;
}

}  // namespace

DisjointPair suurballe(const Digraph& g, std::span<const double> w, NodeId s,
                       NodeId t) {
  SuurballeEngine engine;
  return engine.solve(g, w, s, t);
}

DisjointPair suurballe_node_disjoint(
    const Digraph& g, std::span<const double> w, NodeId s, NodeId t,
    std::span<const std::uint8_t> edge_enabled) {
  WDM_CHECK(g.valid_node(s) && g.valid_node(t));
  WDM_CHECK(s != t);
  // Split every node v into v_in (id v) and v_out (id v + n); internal arc
  // v_in -> v_out carries zero weight; original edges run u_out -> v_in.
  // The split graph lives in a thread-local arena recycled across calls via
  // clear_keep_capacity(): repeated node-disjoint queries over same-sized
  // graphs (the simulator's steady state) rebuild it allocation-free.
  const NodeId n = g.num_nodes();
  struct SplitArena {
    Digraph split;
    std::vector<double> sw;
    std::vector<EdgeId> orig;  // original edge id per split edge, -1 = internal
    SuurballeEngine engine;
  };
  thread_local SplitArena arena;
  Digraph& split = arena.split;
  std::vector<double>& sw = arena.sw;
  std::vector<EdgeId>& orig = arena.orig;
  split.clear_keep_capacity();
  sw.clear();
  orig.clear();
  for (NodeId v = 0; v < 2 * n; ++v) split.add_node();
  for (NodeId v = 0; v < n; ++v) {
    split.add_edge(v, v + n);
    sw.push_back(0.0);
    orig.push_back(kInvalidEdge);
  }
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (!edge_on(edge_enabled, e)) continue;
    split.add_edge(g.tail(e) + n, g.head(e));
    sw.push_back(w[static_cast<std::size_t>(e)]);
    orig.push_back(e);
  }
  DisjointPair sp = arena.engine.solve(split, sw, s + n, t);
  if (!sp.found) return sp;
  auto project = [&](const Path& p) {
    Path out;
    out.found = true;
    for (EdgeId e : p.edges) {
      const EdgeId oe = orig[static_cast<std::size_t>(e)];
      if (oe != kInvalidEdge) out.edges.push_back(oe);
    }
    out.cost = path_weight(out, w);
    return out;
  };
  DisjointPair result;
  result.found = true;
  result.first = project(sp.first);
  result.second = project(sp.second);
  if (result.second.cost < result.first.cost) {
    std::swap(result.first, result.second);
  }
  return result;
}

DisjointPair naive_two_step(const Digraph& g, std::span<const double> w,
                            NodeId s, NodeId t,
                            std::span<const std::uint8_t> edge_enabled) {
  WDM_CHECK(g.valid_node(s) && g.valid_node(t));
  WDM_CHECK(s != t);
  DisjointPair result;
  const Path p1 = shortest_path(g, w, s, t, edge_enabled);
  if (!p1.found) return result;
  std::vector<std::uint8_t> mask;
  if (edge_enabled.empty()) {
    mask.assign(static_cast<std::size_t>(g.num_edges()), 1);
  } else {
    mask.assign(edge_enabled.begin(), edge_enabled.end());
  }
  for (EdgeId e : p1.edges) mask[static_cast<std::size_t>(e)] = 0;
  const Path p2 = shortest_path(g, w, s, t, mask);
  if (!p2.found) return result;
  result.found = true;
  result.first = p1;
  result.second = p2;
  if (result.second.cost < result.first.cost) {
    std::swap(result.first, result.second);
  }
  return result;
}

void SuurballeEngine::bind(const Digraph& g) {
  const NodeId n = g.num_nodes();
  const EdgeId m = g.num_edges();
  if (n == n_ && m == m_) return;
  n_ = n;
  m_ = m;
  heap_.emplace(static_cast<std::size_t>(n));
  const auto ns = static_cast<std::size_t>(n);
  const auto ms = static_cast<std::size_t>(m);
  dist_.assign(ns, kInf);
  r2_dist_.assign(ns, kInf);
  r2_pred_.assign(ns, kInvalidEdge);
  r2_pred_rev_.assign(ns, 0);
  r2_touched_.clear();
  r2_touched_.reserve(ns);
  on_p1_.assign(ms, 0);
  in_flow_.assign(ms, 0);
  flow_cand_.clear();
  flow_cand_.reserve(2 * ns + 2);
  decomp_slot_.assign(2 * ns, kInvalidEdge);
  decomp_cnt_.assign(ns, 0);
}

void SuurballeEngine::round_two(const Digraph& g, std::span<const double> w,
                                NodeId s, NodeId t, DisjointPair* out) {
  // p1: the canonical round-1 shortest path. From t, repeatedly take the
  // minimum arc id with exact fp tightness dist[tail] ⊕ w == dist[v] — a
  // pure function of (structure, w, dist).
  p1_edges_.clear();
  for (NodeId v = t; v != s;) {
    const double dv = dist_[static_cast<std::size_t>(v)];
    EdgeId best = kInvalidEdge;
    for (EdgeId e : g.in_edges(v)) {
      const auto u = static_cast<std::size_t>(g.tail(e));
      if (dist_[u] == kInf) continue;
      if (dist_[u] + w[static_cast<std::size_t>(e)] != dv) continue;
      if (best == kInvalidEdge || e < best) best = e;
    }
    WDM_CHECK_MSG(best != kInvalidEdge, "round-1 labels lost tightness");
    p1_edges_.push_back(best);
    WDM_CHECK_MSG(p1_edges_.size() <= static_cast<std::size_t>(m_),
                  "canonical p1 walk cycled (zero-weight cycle?)");
    v = g.tail(best);
  }
  std::reverse(p1_edges_.begin(), p1_edges_.end());
  for (EdgeId e : p1_edges_) on_p1_[static_cast<std::size_t>(e)] = 1;

  // Round 2: Dijkstra over reduced costs w'(e) = w(e) + d(tail) - d(head),
  // with p1's arcs usable only backwards at cost 0 (the paper's E_reserve),
  // then interlacing cancellation (E_intersect) and 2-flow decomposition.
  // The r2_* arrays are clean outside r2_touched_ (bind() establishes that,
  // the epilogue below restores it), so nothing here is O(n) or O(m) in the
  // quiescent graph.
  r2_touched_.clear();
  auto r2_label = [&](std::size_t v, double dv, EdgeId pe, std::uint8_t rev) {
    if (r2_dist_[v] == kInf) r2_touched_.push_back(static_cast<NodeId>(v));
    r2_dist_[v] = dv;
    r2_pred_[v] = pe;
    r2_pred_rev_[v] = rev;
  };
  r2_label(static_cast<std::size_t>(s), 0.0, kInvalidEdge, 0);
  heap_->push(static_cast<std::size_t>(s), 0.0);
  auto reduced = [&](EdgeId e) {
    const double r = w[static_cast<std::size_t>(e)] +
                     dist_[static_cast<std::size_t>(g.tail(e))] -
                     dist_[static_cast<std::size_t>(g.head(e))];
    return r < 0.0 ? 0.0 : r;
  };
  while (!heap_->empty()) {
    const auto [uid, du] = heap_->pop_min();
    const auto u = static_cast<NodeId>(uid);
    if (u == t) break;
    for (EdgeId e : g.out_edges(u)) {
      if (on_p1_[static_cast<std::size_t>(e)]) continue;
      if (dist_[static_cast<std::size_t>(g.head(e))] == kInf) continue;
      const auto v = static_cast<std::size_t>(g.head(e));
      const double dv = du + reduced(e);
      if (dv < r2_dist_[v]) {
        r2_label(v, dv, e, 0);
        heap_->push_or_decrease(v, dv);
      }
    }
    for (EdgeId e : g.in_edges(u)) {
      if (!on_p1_[static_cast<std::size_t>(e)]) continue;
      const auto v = static_cast<std::size_t>(g.tail(e));
      const double dv = du;
      if (dv < r2_dist_[v]) {
        r2_label(v, dv, e, 1);
        heap_->push_or_decrease(v, dv);
      }
    }
  }
  // Reset the heap for the next solve (entries past the early exit).
  while (!heap_->empty()) heap_->pop_min();

  if (r2_dist_[static_cast<std::size_t>(t)] != kInf) {  // else: no pair
    // The 2-flow is p1 plus the r2 path with reversed p1 arcs cancelled;
    // only arcs on p1 or on the r2 walk can carry flow, so those are the
    // only in_flow_ entries ever written (and cleared below).
    flow_cand_.assign(p1_edges_.begin(), p1_edges_.end());
    for (EdgeId e : p1_edges_) in_flow_[static_cast<std::size_t>(e)] = 1;
    for (NodeId v = t; v != s;) {
      const EdgeId e = r2_pred_[static_cast<std::size_t>(v)];
      WDM_CHECK(e != kInvalidEdge);
      if (r2_pred_rev_[static_cast<std::size_t>(v)]) {
        in_flow_[static_cast<std::size_t>(e)] = 0;  // already a candidate
        v = g.head(e);
      } else {
        in_flow_[static_cast<std::size_t>(e)] = 1;
        flow_cand_.push_back(e);
        v = g.tail(e);
      }
    }

    // Ascending unique arc ids.
    std::sort(flow_cand_.begin(), flow_cand_.end());
    flow_cand_.erase(std::unique(flow_cand_.begin(), flow_cand_.end()),
                     flow_cand_.end());
    flow_edges_.clear();
    for (const EdgeId e : flow_cand_) {
      if (in_flow_[static_cast<std::size_t>(e)]) flow_edges_.push_back(e);
    }

    // Decompose the 2-flow: per-node out-choices filled in ascending arc
    // order, consumed from the back. A node carries at most 2 units of
    // outgoing flow, so two slots suffice.
    for (const EdgeId e : flow_edges_) {
      const auto v = static_cast<std::size_t>(g.tail(e));
      WDM_CHECK_MSG(decomp_cnt_[v] < 2, "flow decomposition: out-degree > 2");
      decomp_slot_[2 * v + decomp_cnt_[v]++] = e;
    }
    Path* paths[2] = {&out->first, &out->second};
    for (Path* p : paths) {
      NodeId v = s;
      while (v != t) {
        const auto vi = static_cast<std::size_t>(v);
        WDM_CHECK_MSG(decomp_cnt_[vi] > 0,
                      "flow decomposition stuck — not a 2-flow");
        const EdgeId e = decomp_slot_[2 * vi + --decomp_cnt_[vi]];
        p->edges.push_back(e);
        v = g.head(e);
        WDM_CHECK_MSG(p->edges.size() <= flow_edges_.size(),
                      "flow decomposition cycled");
      }
      p->found = true;
      p->cost = path_weight(*p, w);
    }
    out->found = true;
    if (out->second.cost < out->first.cost) {
      std::swap(out->first, out->second);
    }

    // Touched-only cleanup: the decomposition consumed every counter it
    // incremented (guard against zero-cost leftovers anyway), and in_flow_
    // was only written at candidates.
    for (const EdgeId e : flow_edges_) {
      decomp_cnt_[static_cast<std::size_t>(g.tail(e))] = 0;
    }
    for (const EdgeId e : flow_cand_) in_flow_[static_cast<std::size_t>(e)] = 0;
  }

  for (EdgeId e : p1_edges_) on_p1_[static_cast<std::size_t>(e)] = 0;
  for (const NodeId v : r2_touched_) {
    const auto vi = static_cast<std::size_t>(v);
    r2_dist_[vi] = kInf;
    r2_pred_[vi] = kInvalidEdge;
    r2_pred_rev_[vi] = 0;
  }
}

void SuurballeEngine::solve_into(const Digraph& g, std::span<const double> w,
                                 NodeId s, NodeId t, DisjointPair* out) {
  WDM_CHECK(g.valid_node(s) && g.valid_node(t));
  WDM_CHECK_MSG(s != t, "suurballe requires distinct endpoints");
  WDM_CHECK(w.size() == static_cast<std::size_t>(g.num_edges()));
  bind(g);

  out->found = false;
  out->first.edges.clear();
  out->first.cost = 0.0;
  out->first.found = false;
  out->second.edges.clear();
  out->second.cost = 0.0;
  out->second.found = false;

  // Round 1: full Dijkstra from s with strict-improvement relaxation, so
  // +inf arcs never relax. Only the labels are kept; p1 comes from the
  // canonical walk in round_two, not from a predecessor tree.
  std::fill(dist_.begin(), dist_.end(), kInf);
  dist_[static_cast<std::size_t>(s)] = 0.0;
  heap_->push(static_cast<std::size_t>(s), 0.0);
  while (!heap_->empty()) {
    const auto [uid, du] = heap_->pop_min();
    for (EdgeId e : g.out_edges(static_cast<NodeId>(uid))) {
      const auto v = static_cast<std::size_t>(g.head(e));
      const double dv = du + w[static_cast<std::size_t>(e)];
      if (dv < dist_[v]) {
        dist_[v] = dv;
        heap_->push_or_decrease(v, dv);
      }
    }
  }

  if (dist_[static_cast<std::size_t>(t)] == kInf) return;
  round_two(g, w, s, t, out);
}

}  // namespace wdm::graph
