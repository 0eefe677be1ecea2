// Protection-policy differential no-regression suite.
//
// The tentpole guarantee of the SRLG work: on a network with no SRLG
// annotations, ProtectPolicy::full and ProtectPolicy::srlg are *bit-for-bit*
// the pre-SRLG behavior — same routes, same accept/drop decisions, same
// reservation ledgers — for every router and every batch ordering policy.
// ProtectPolicy::full is additionally bit-for-bit unchanged even when the
// network does carry SRLGs (annotations are inert unless opted into).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "rwa/approx_router.hpp"
#include "rwa/batch.hpp"
#include "rwa/loadcost_router.hpp"
#include "rwa/mincog.hpp"
#include "rwa/node_disjoint_router.hpp"
#include "support/rng.hpp"
#include "topology/network_builder.hpp"

namespace wdm::rwa {
namespace {

using RouterSet = std::vector<std::pair<const char*, std::unique_ptr<Router>>>;

RouterSet routers_with(net::ProtectPolicy policy) {
  RouterSet v;
  v.emplace_back("approx", std::make_unique<ApproxDisjointRouter>(true, policy));
  v.emplace_back("node-disjoint",
                 std::make_unique<NodeDisjointRouter>(policy));
  v.emplace_back("load+cost",
                 std::make_unique<LoadCostRouter>(MinCogOptions{}, false,
                                                  policy));
  v.emplace_back("min-load",
                 std::make_unique<MinLoadRouter>(MinCogOptions{}, policy));
  return v;
}

RouterSet default_routers() {
  RouterSet v;
  v.emplace_back("approx", std::make_unique<ApproxDisjointRouter>());
  v.emplace_back("node-disjoint", std::make_unique<NodeDisjointRouter>());
  v.emplace_back("load+cost", std::make_unique<LoadCostRouter>());
  v.emplace_back("min-load", std::make_unique<MinLoadRouter>());
  return v;
}

std::vector<BatchRequest> random_batch(int count, net::NodeId n,
                                       std::uint64_t seed) {
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

net::WdmNetwork churned_network(int W, std::uint64_t seed, bool with_srlgs) {
  net::WdmNetwork n = topo::nsfnet_network(W, 0.5);
  support::Rng rng(seed);
  for (graph::EdgeId e = 0; e < n.num_links(); ++e) {
    n.available(e).for_each([&](net::Wavelength l) {
      if (rng.uniform() < 0.25) n.reserve(e, l);
    });
  }
  if (with_srlgs) {
    n.add_srlg({0, 1}, 0.3);
    n.add_srlg({2, 3, 4}, 0.1);
  }
  return n;
}

constexpr BatchOrder kAllOrders[] = {
    BatchOrder::kArrival, BatchOrder::kShortestFirst,
    BatchOrder::kLongestFirst, BatchOrder::kRandom};

void expect_identical_outcomes(const BatchOutcome& a, const BatchOutcome& b,
                               const net::WdmNetwork& net_a,
                               const net::WdmNetwork& net_b,
                               const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(a.accepted, b.accepted);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_EQ(a.total_cost, b.total_cost);  // exact: identical fp sum order
  ASSERT_EQ(a.routes.size(), b.routes.size());
  for (std::size_t i = 0; i < a.routes.size(); ++i) {
    ASSERT_EQ(a.routes[i].has_value(), b.routes[i].has_value())
        << "request " << i;
    if (!a.routes[i].has_value()) continue;
    EXPECT_TRUE(a.routes[i]->primary.hops == b.routes[i]->primary.hops)
        << "primary of request " << i;
    EXPECT_TRUE(a.routes[i]->backup.hops == b.routes[i]->backup.hops)
        << "backup of request " << i;
  }
  EXPECT_EQ(net_a.usage_snapshot(), net_b.usage_snapshot());
}

void run_policy_matrix(net::ProtectPolicy policy, bool with_srlgs,
                       const char* tag) {
  const auto batch = random_batch(32, 14, 11);
  const RouterSet base = default_routers();
  const RouterSet variant = routers_with(policy);
  ASSERT_EQ(base.size(), variant.size());
  for (std::size_t r = 0; r < base.size(); ++r) {
    for (BatchOrder order : kAllOrders) {
      net::WdmNetwork net_base = churned_network(8, 5, /*with_srlgs=*/false);
      net::WdmNetwork net_variant = churned_network(8, 5, with_srlgs);
      support::Rng rng_base(99), rng_variant(99);
      const BatchOutcome a = provision_batch(net_base, *base[r].second, batch,
                                             order, &rng_base);
      const BatchOutcome b = provision_batch(net_variant, *variant[r].second,
                                             batch, order, &rng_variant);
      expect_identical_outcomes(
          a, b, net_base, net_variant,
          std::string(tag) + " / " + base[r].first + " / " +
              batch_order_name(order));
    }
  }
}

TEST(ProtectPolicyDifferential, FullPolicyIsDefaultOnSrlgFreeNetworks) {
  run_policy_matrix(net::ProtectPolicy::full(), /*with_srlgs=*/false, "full");
}

TEST(ProtectPolicyDifferential, SrlgPolicyIsDefaultOnSrlgFreeNetworks) {
  run_policy_matrix(net::ProtectPolicy::srlg(), /*with_srlgs=*/false, "srlg");
}

TEST(ProtectPolicyDifferential, FullPolicyIgnoresAnnotations) {
  // kFull on an annotated network must still match the pre-SRLG baseline
  // exactly: annotations are inert until a policy opts in.
  run_policy_matrix(net::ProtectPolicy::full(), /*with_srlgs=*/true,
                    "full+annotations");
}

TEST(ProtectPolicyDifferential, SingleRouteIdentityAcrossPolicies) {
  // Route-level (non-batch) sweep over every ordered pair: the kFull and
  // kSrlg routers agree with the default router on SRLG-free networks.
  const net::WdmNetwork net = churned_network(8, 17, /*with_srlgs=*/false);
  const RouterSet base = default_routers();
  for (const net::ProtectPolicy policy :
       {net::ProtectPolicy::full(), net::ProtectPolicy::srlg()}) {
    const RouterSet variant = routers_with(policy);
    for (std::size_t r = 0; r < base.size(); ++r) {
      for (net::NodeId s = 0; s < net.num_nodes(); ++s) {
        for (net::NodeId t = 0; t < net.num_nodes(); ++t) {
          if (s == t) continue;
          const RouteResult a = base[r].second->route(net, s, t);
          const RouteResult b = variant[r].second->route(net, s, t);
          ASSERT_EQ(a.found, b.found)
              << base[r].first << " (" << s << "," << t << ")";
          if (!a.found) continue;
          EXPECT_TRUE(a.route.primary.hops == b.route.primary.hops)
              << base[r].first << " (" << s << "," << t << ")";
          EXPECT_TRUE(a.route.backup.hops == b.route.backup.hops)
              << base[r].first << " (" << s << "," << t << ")";
        }
      }
    }
  }
}

}  // namespace
}  // namespace wdm::rwa
