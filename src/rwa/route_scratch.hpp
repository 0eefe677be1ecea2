// Pooled per-route scratch state — the allocation-free routing hot path.
//
// RouteScratch bundles everything a route() needs per request: the
// stable-arena aux-graph builder, the Suurballe engine (heap, round-1
// labels, round-2 arrays), projection vectors, induced-subgraph masks, the
// DisjointPair result and the Liang–Shen path-DP buffers, all recycled via
// the clear_keep_capacity idiom, so a steady-state route() touches the heap
// zero times (verified by tests/test_route_alloc.cpp's counting hook).
//
// The pool is a thread-safe LIFO: lease(net) prefers a scratch whose
// builder caches are already bound to the same network uid. sim::replicate
// shares one router across parallel_for replicas, each routing its own
// network copy; the uid key hands each replica its own warm builder without
// any caller-side threading. A single-threaded caller always gets the same
// warm scratch back.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "graph/suurballe.hpp"
#include "rwa/aux_graph.hpp"
#include "rwa/layered_graph.hpp"
#include "wdm/semilightpath.hpp"

namespace wdm::rwa {

struct RouteScratch {
  AuxGraphBuilder builder;
  graph::SuurballeEngine suurballe;
  graph::DisjointPair pair;
  std::vector<graph::EdgeId> links1;
  std::vector<graph::EdgeId> links2;
  std::vector<std::uint8_t> mask1;
  std::vector<std::uint8_t> mask2;
  /// Liang–Shen path-DP buffers for the §3.3.2 refinement.
  PathDpScratch dp;

  /// uid() of the network the builder caches are bound to (0 = unbound).
  std::uint64_t bound_uid() const { return builder.bound_uid(); }
};

/// Thread-safe LIFO pool of scratches, keyed on the bound network uid.
class RouteScratchPool {
 public:
  class Lease {
   public:
    Lease(RouteScratchPool* pool, std::unique_ptr<RouteScratch> scratch)
        : pool_(pool), scratch_(std::move(scratch)) {}
    Lease(Lease&& other) noexcept = default;
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    Lease& operator=(Lease&&) = delete;
    ~Lease();

    RouteScratch& operator*() { return *scratch_; }
    RouteScratch* operator->() { return scratch_.get(); }
    RouteScratch* get() { return scratch_.get(); }

   private:
    RouteScratchPool* pool_;
    std::unique_ptr<RouteScratch> scratch_;
  };

  RouteScratchPool() = default;
  RouteScratchPool(const RouteScratchPool&) = delete;
  RouteScratchPool& operator=(const RouteScratchPool&) = delete;

  /// Keyed lease: exact uid match first (warm builder caches), then a
  /// never-bound scratch, then LIFO; allocates only when the pool is empty.
  Lease lease(const net::WdmNetwork& net);
  std::size_t idle_count() const;

 private:
  friend class Lease;
  void put(std::unique_ptr<RouteScratch> scratch);

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<RouteScratch>> idle_;
};

}  // namespace wdm::rwa
