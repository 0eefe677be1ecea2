// The zero-allocation guarantee of the routing hot path, enforced by a
// counting global operator new: after a warmup request has sized the stable
// arena, the warm Suurballe trees, and every pooled scratch buffer, a
// steady-state ApproxDisjointRouter::route_into (kFull policy, refinement
// off or on) must touch the heap ZERO times, and so must the θ search's
// feasibility probe (AuxGraphBuilder::has_disjoint_pair). The hook counts
// every global new while armed; any regression — a stray std::vector
// rebuild, a std::function capture, a string in a telemetry label — fails
// loudly with the exact count.
//
// Debug builds run the same scenarios without the zero bar (WDM_DCHECK
// machinery and libstdc++ debug containers allocate freely); the strict
// assertions are NDEBUG-only, as documented in DESIGN.md.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "graph/suurballe_warm.hpp"
#include "rwa/approx_router.hpp"
#include "rwa/aux_graph.hpp"
#include "topology/network_builder.hpp"

namespace {

std::atomic<std::uint64_t> g_armed{0};
std::atomic<std::uint64_t> g_allocations{0};

void count_alloc() {
  if (g_armed.load(std::memory_order_relaxed) != 0) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
}

/// Counts allocations while alive; read the delta via count().
class AllocationProbe {
 public:
  AllocationProbe() : start_(g_allocations.load()) {
    g_armed.fetch_add(1, std::memory_order_relaxed);
  }
  ~AllocationProbe() { g_armed.fetch_sub(1, std::memory_order_relaxed); }
  std::uint64_t count() const { return g_allocations.load() - start_; }

 private:
  std::uint64_t start_;
};

}  // namespace

// Counting replacements for the whole binary. Deletes never count — only
// acquisition matters for the steady-state bar.
void* operator new(std::size_t size) {
  count_alloc();
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t al) {
  count_alloc();
  const std::size_t a = static_cast<std::size_t>(al);
  void* p = nullptr;
  if (posix_memalign(&p, a < sizeof(void*) ? sizeof(void*) : a,
                     size ? size : 1) != 0) {
    throw std::bad_alloc();
  }
  return p;
}
void* operator new[](std::size_t size, std::align_val_t al) {
  return ::operator new(size, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace wdm {
namespace {

#ifdef NDEBUG
constexpr bool kStrict = true;
#else
constexpr bool kStrict = false;
#endif

TEST(RouteAlloc, HookCountsWhileArmedOnly) {
  // Explicit operator-new calls: a `new int` expression may legally be
  // elided by the optimizer, the direct function call may not.
  const std::uint64_t before = g_allocations.load();
  ::operator delete(::operator new(16));  // unarmed: invisible
  EXPECT_EQ(g_allocations.load(), before);
  AllocationProbe probe;
  ::operator delete(::operator new(16));
  EXPECT_GE(probe.count(), 1u);
}

TEST(RouteAlloc, SteadyStateRouteIntoIsAllocationFree) {
  net::WdmNetwork net = topo::nsfnet_network(/*W=*/8, 0.25);
  const rwa::ApproxDisjointRouter router(/*refine=*/false);
  rwa::RouteResult out;

  // Deterministic query mix; routing never mutates the network, so the
  // armed pass replays the warmup pass exactly.
  const std::pair<net::NodeId, net::NodeId> queries[] = {
      {0, 7}, {3, 12}, {5, 9}, {1, 13}, {0, 7}, {10, 2}};

  // Warmup: size the arena, the warm trees (one per source), the pooled
  // scratch buffers, and `out`'s hop vectors.
  for (const auto& [s, t] : queries) router.route_into(net, s, t, &out);

  AllocationProbe probe;
  for (const auto& [s, t] : queries) router.route_into(net, s, t, &out);
  if (kStrict) {
    EXPECT_EQ(probe.count(), 0u)
        << "steady-state route_into touched the heap";
  } else {
    GTEST_SKIP() << "zero-allocation bar is NDEBUG-only (ran "
                 << probe.count() << " allocations unasserted)";
  }
}

TEST(RouteAlloc, SteadyStateRefinedRouteIntoIsAllocationFree) {
  // With refinement on, each request runs two Liang–Shen solves; on NSFNET
  // every projected mask is a simple path, so both take the path DP, whose
  // buffers live in the pooled scratch and whose hops land in `out`.
  net::WdmNetwork net = topo::nsfnet_network(/*W=*/8, 0.25);
  const rwa::ApproxDisjointRouter router(/*refine=*/true);
  rwa::RouteResult out;
  const std::pair<net::NodeId, net::NodeId> queries[] = {
      {0, 7}, {3, 12}, {5, 9}, {1, 13}, {0, 7}, {10, 2}};

  for (const auto& [s, t] : queries) router.route_into(net, s, t, &out);

  AllocationProbe probe;
  for (const auto& [s, t] : queries) {
    router.route_into(net, s, t, &out);
    ASSERT_TRUE(out.found);
  }
  if (kStrict) {
    EXPECT_EQ(probe.count(), 0u)
        << "steady-state refined route_into touched the heap";
  } else {
    GTEST_SKIP() << "zero-allocation bar is NDEBUG-only (ran "
                 << probe.count() << " allocations unasserted)";
  }
}

TEST(RouteAlloc, StableArenaRebuildAndWarmSolveAreAllocationFree) {
  net::WdmNetwork net = topo::nsfnet_network(/*W=*/8, 0.25);
  rwa::AuxGraphBuilder builder;
  graph::SuurballeEngine engine;
  graph::DisjointPair pair;
  rwa::AuxGraphOptions opt;
  opt.stable_arena = true;

  auto one_request = [&](net::NodeId s, net::NodeId t) {
    const rwa::AuxGraph& aux = builder.build(net, s, t, opt);
    engine.solve_into(aux.g, aux.w, aux.s_prime, aux.t_second,
                      static_cast<std::uint64_t>(s), &pair);
  };
  // A state-neutral churn cycle: reserve, route, release, route. Each cycle
  // ends with the network back in its starting state, so every cycle after
  // the first replays identical weight diffs through identically-sized
  // repair scratch buffers.
  auto cycle = [&] {
    const net::Wavelength l0 = net.available(0).lowest();
    net.reserve(0, l0);
    one_request(0, 7);
    const net::Wavelength l1 = net.available(1).lowest();
    net.reserve(1, l1);
    one_request(3, 12);
    net.release(0, l0);
    one_request(0, 7);
    net.release(1, l1);
    one_request(3, 12);
  };
  cycle();  // sizes the arena, trees, and repair scratch
  cycle();  // confirms the steady state is reachable

  AllocationProbe probe;
  cycle();
  if (kStrict) {
    EXPECT_EQ(probe.count(), 0u)
        << "arena rebuild / warm solve touched the heap";
  } else {
    GTEST_SKIP() << "zero-allocation bar is NDEBUG-only";
  }
}

TEST(RouteAlloc, FeasibilityProbeIsAllocationFree) {
  // The θ search's probe over a ladder of thresholds, both filters, and a
  // state-neutral churn cycle (so transit-cache entries go stale and are
  // recomputed): once the first cycle has sized the universe, no probe may
  // touch the heap.
  net::WdmNetwork net = topo::nsfnet_network(/*W=*/8, 0.25);
  for (graph::EdgeId e = 0; e < net.num_links(); e += 3) {
    net.reserve(e, net.available(e).lowest());
  }
  rwa::AuxGraphBuilder builder;
  rwa::AuxGraphOptions opt;
  opt.weighting = rwa::AuxWeighting::kLoadExponential;
  const std::pair<net::NodeId, net::NodeId> queries[] = {
      {0, 7}, {3, 12}, {5, 9}, {1, 13}};

  long feasible = 0;
  auto ladder = [&] {
    for (const auto& [s, t] : queries) {
      for (const double theta : {0.1, 0.125, 0.2, 0.5, 1.0}) {
        for (const bool inclusive : {false, true}) {
          opt.theta = theta;
          opt.include_at_threshold = inclusive;
          feasible += builder.has_disjoint_pair(net, s, t, opt) ? 1 : 0;
        }
      }
    }
  };
  auto cycle = [&] {
    const net::Wavelength l0 = net.available(1).lowest();
    net.reserve(1, l0);
    ladder();
    net.release(1, l0);
    ladder();
  };
  cycle();

  feasible = 0;
  AllocationProbe probe;
  cycle();
  EXPECT_GT(feasible, 0);
  if (kStrict) {
    EXPECT_EQ(probe.count(), 0u) << "feasibility probe touched the heap";
  } else {
    GTEST_SKIP() << "zero-allocation bar is NDEBUG-only";
  }
}

}  // namespace
}  // namespace wdm
