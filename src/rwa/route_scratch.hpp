// Pooled per-route scratch state — the allocation-free routing hot path.
//
// Every router used to lease only an AuxGraphBuilder; the remaining
// per-request allocations (Suurballe's dist/pred/heap arrays, projection
// vectors, induced-subgraph masks, the DisjointPair result) were rebuilt
// per call. RouteScratch bundles all of them, recycled via the
// clear_keep_capacity idiom, so a steady-state route() touches the heap
// zero times (verified by tests/test_route_alloc.cpp's counting hook).
//
// Pooling follows AuxGraphBuilderPool exactly: lease(net) prefers a
// scratch whose builder (and with it the warm Suurballe trees, which live
// against that builder's stable arena) is already bound to the same
// network uid. sim::replicate shares one router across parallel_for
// replicas, each routing its own network copy; the uid key hands each
// replica its own warm scratch without any caller-side threading.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "graph/suurballe.hpp"
#include "graph/suurballe_warm.hpp"
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

  /// Warm trees in `suurballe` are only meaningful while the builder's
  /// stable-arena arc ids keep their meaning. Call after every build(): drops
  /// the trees iff the structure was rebuilt since the last solve (different
  /// network leased this scratch, topology changed, protect flag flipped...).
  /// Engine-side shape checks can't catch this — two different topologies
  /// with equal node/arc counts produce identically-shaped universes.
  void sync_suurballe_generation() {
    const std::uint64_t gen = builder.stable_structure_generation();
    if (gen != suurballe_gen_) {
      suurballe.invalidate();
      suurballe_gen_ = gen;
    }
  }

 private:
  std::uint64_t suurballe_gen_ = 0;
};

/// Thread-safe LIFO pool of scratches, keyed like AuxGraphBuilderPool.
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

  Lease lease();
  /// Keyed lease: exact uid match first (warm builder caches and Suurballe
  /// trees), then a never-bound scratch, then LIFO.
  Lease lease(const net::WdmNetwork& net);
  std::size_t idle_count() const;

 private:
  friend class Lease;
  void put(std::unique_ptr<RouteScratch> scratch);

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<RouteScratch>> idle_;
};

}  // namespace wdm::rwa
