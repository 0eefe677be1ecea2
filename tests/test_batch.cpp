#include <gtest/gtest.h>

#include <limits>

#include "rwa/approx_router.hpp"
#include "rwa/batch.hpp"
#include "support/rng.hpp"
#include "topology/network_builder.hpp"

namespace wdm::rwa {
namespace {

std::vector<BatchRequest> random_batch(int count, int n, std::uint64_t seed) {
  support::Rng rng(seed);
  std::vector<BatchRequest> batch;
  for (int i = 0; i < count; ++i) {
    BatchRequest r;
    r.s = static_cast<net::NodeId>(rng.uniform_int(0, n - 1));
    r.t = r.s;
    while (r.t == r.s) {
      r.t = static_cast<net::NodeId>(rng.uniform_int(0, n - 1));
    }
    batch.push_back(r);
  }
  return batch;
}

TEST(Batch, AcceptsEverythingOnIdleNetwork) {
  net::WdmNetwork n = topo::nsfnet_network(16, 0.5);
  ApproxDisjointRouter router;
  const auto batch = random_batch(10, 14, 1);
  const BatchOutcome out = provision_batch(n, router, batch);
  EXPECT_EQ(out.accepted, 10);
  EXPECT_EQ(out.dropped, 0);
  EXPECT_GT(out.total_cost, 0.0);
  EXPECT_GT(out.final_network_load, 0.0);
  // Every accepted route is recorded at its original index.
  for (std::size_t i = 0; i < batch.size(); ++i) {
    ASSERT_TRUE(out.routes[i].has_value());
    EXPECT_EQ(out.routes[i]->primary.source(n), batch[i].s);
    EXPECT_EQ(out.routes[i]->primary.destination(n), batch[i].t);
  }
}

TEST(Batch, ReleaseRestoresIdleNetwork) {
  net::WdmNetwork n = topo::nsfnet_network(8, 0.5);
  ApproxDisjointRouter router;
  const BatchOutcome out = provision_batch(n, router, random_batch(8, 14, 2));
  EXPECT_GT(n.total_usage(), 0);
  release_batch(n, out);
  EXPECT_EQ(n.total_usage(), 0);
}

TEST(Batch, DropsUnderContention) {
  net::WdmNetwork n = topo::nsfnet_network(2, 0.5);  // tiny capacity
  ApproxDisjointRouter router;
  const BatchOutcome out =
      provision_batch(n, router, random_batch(60, 14, 3));
  EXPECT_GT(out.dropped, 0);
  EXPECT_GT(out.accepted, 0);
  EXPECT_EQ(out.accepted + out.dropped, 60);
}

TEST(Batch, OrderingChangesProcessingNotIndexing) {
  net::WdmNetwork n1 = topo::nsfnet_network(4, 0.5);
  net::WdmNetwork n2 = topo::nsfnet_network(4, 0.5);
  ApproxDisjointRouter router;
  const auto batch = random_batch(30, 14, 4);
  support::Rng rng(5);
  const BatchOutcome a = provision_batch(n1, router, batch,
                                         BatchOrder::kArrival);
  const BatchOutcome b = provision_batch(n2, router, batch,
                                         BatchOrder::kRandom, &rng);
  EXPECT_EQ(a.routes.size(), batch.size());
  EXPECT_EQ(b.routes.size(), batch.size());
  EXPECT_EQ(a.accepted + a.dropped, 30);
  EXPECT_EQ(b.accepted + b.dropped, 30);
}

TEST(Batch, RandomOrderNeedsRng) {
  net::WdmNetwork n = topo::nsfnet_network(4, 0.5);
  ApproxDisjointRouter router;
  EXPECT_THROW(
      provision_batch(n, router, random_batch(3, 14, 6), BatchOrder::kRandom),
      std::logic_error);
}

TEST(Batch, ShortestAndLongestAreValidPermutations) {
  for (BatchOrder order :
       {BatchOrder::kShortestFirst, BatchOrder::kLongestFirst}) {
    net::WdmNetwork n = topo::nsfnet_network(8, 0.5);
    ApproxDisjointRouter router;
    const auto batch = random_batch(20, 14, 7);
    const BatchOutcome out = provision_batch(n, router, batch, order);
    EXPECT_EQ(out.accepted + out.dropped, 20);
    // Reservations consistent with the recorded routes.
    long long expected = 0;
    for (const auto& r : out.routes) {
      if (r) {
        expected += static_cast<long long>(r->primary.length() +
                                           r->backup.length());
      }
    }
    EXPECT_EQ(n.total_usage(), expected);
  }
}

TEST(Batch, HopOrderingObservableUnderContention) {
  // W=1 multigraph: two parallel links 0->1 and two parallel 1->2, plus an
  // isolated node 3. The 1-hop request (0,1) and the 2-hop request (0,2)
  // both need BOTH 0->1 links (disjoint pair), so whichever is processed
  // first wins and the other drops; (0,3) is unreachable.
  auto make_net = [] {
    net::WdmNetwork n(4, 1);
    const net::WavelengthSet l0 = net::WavelengthSet::all(1);
    n.add_link(0, 1, l0, 1.0);
    n.add_link(0, 1, l0, 1.0);
    n.add_link(1, 2, l0, 1.0);
    n.add_link(1, 2, l0, 1.0);
    return n;
  };
  const std::vector<BatchRequest> batch = {
      {0, 2},  // 2 hops
      {0, 3},  // unreachable: kUnreachableHops
      {0, 1},  // 1 hop
  };
  ApproxDisjointRouter router;

  net::WdmNetwork ns = make_net();
  const BatchOutcome shortest =
      provision_batch(ns, router, batch, BatchOrder::kShortestFirst);
  EXPECT_TRUE(shortest.routes[2].has_value()) << "1-hop first, must win";
  EXPECT_FALSE(shortest.routes[0].has_value()) << "2-hop starved of 0->1";
  EXPECT_FALSE(shortest.routes[1].has_value()) << "unreachable always drops";

  net::WdmNetwork nl = make_net();
  const BatchOutcome longest =
      provision_batch(nl, router, batch, BatchOrder::kLongestFirst);
  EXPECT_TRUE(longest.routes[0].has_value()) << "2-hop first, must win";
  EXPECT_FALSE(longest.routes[2].has_value()) << "1-hop starved of 0->1";
  EXPECT_FALSE(longest.routes[1].has_value());
}

TEST(Batch, UnreachableSortsLastUnderShortestFirst) {
  // Documented sentinel semantics: kUnreachableHops = INT_MAX, so the
  // stable sort keeps unreachable requests at the back (shortest-first) /
  // front (longest-first) — they can never starve a routable request of
  // capacity under shortest-first.
  EXPECT_EQ(kUnreachableHops, std::numeric_limits<int>::max());
  net::WdmNetwork n(3, 1);
  n.add_link(0, 1, net::WavelengthSet::all(1), 1.0);
  n.add_link(0, 1, net::WavelengthSet::all(1), 1.0);
  // 40 unreachable requests ahead of one routable one in arrival order.
  std::vector<BatchRequest> batch;
  for (int i = 0; i < 40; ++i) batch.push_back({0, 2});
  batch.push_back({0, 1});
  ApproxDisjointRouter router;
  const BatchOutcome out =
      provision_batch(n, router, batch, BatchOrder::kShortestFirst);
  EXPECT_EQ(out.accepted, 1);
  EXPECT_TRUE(out.routes[40].has_value());
}

TEST(Batch, OrderNamesDistinct) {
  EXPECT_STRNE(batch_order_name(BatchOrder::kArrival),
               batch_order_name(BatchOrder::kRandom));
  EXPECT_STRNE(batch_order_name(BatchOrder::kShortestFirst),
               batch_order_name(BatchOrder::kLongestFirst));
}

}  // namespace
}  // namespace wdm::rwa
