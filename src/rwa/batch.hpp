// Batch provisioning — §2's operating model verbatim: "the network accepts
// user connection requests periodically. At a given time interval, suppose
// a set of requests is given. The algorithm processes these requests one by
// one. Once a request is processed and there is a solution for it, the
// algorithm establishes the routes for it immediately. Otherwise, the
// request is dropped."
//
// The processing *order* within a batch is unspecified by the paper and
// materially changes acceptance under contention; the ordering policies
// here are the standard candidates, compared in bench_policies.
#pragma once

#include <limits>
#include <optional>
#include <vector>

#include "rwa/router.hpp"
#include "support/rng.hpp"

namespace wdm::rwa {

struct BatchRequest {
  net::NodeId s = 0;
  net::NodeId t = 0;
};

/// Hop value assigned to requests whose destination is unreachable from the
/// source. The stable hop sort therefore places them *after* every reachable
/// request under kShortestFirst and *before* them under kLongestFirst (where
/// they waste one route() attempt each but cannot reserve anything).
inline constexpr int kUnreachableHops = std::numeric_limits<int>::max();

enum class BatchOrder {
  kArrival,        // as given
  kShortestFirst,  // fewest physical hops (BFS distance) first
  kLongestFirst,   // farthest pairs first (they have the fewest options)
  kRandom,         // uniformly shuffled
};

const char* batch_order_name(BatchOrder order);

struct BatchOutcome {
  /// Indexed like the *input* batch (original order); nullopt = dropped.
  std::vector<std::optional<net::ProtectedRoute>> routes;
  int accepted = 0;
  int dropped = 0;
  double total_cost = 0.0;
  double final_network_load = 0.0;
};

/// Routes and reserves the batch against `net` (mutated: accepted routes
/// stay reserved). `rng` is required for kRandom ordering.
BatchOutcome provision_batch(net::WdmNetwork& net, const Router& router,
                             const std::vector<BatchRequest>& batch,
                             BatchOrder order = BatchOrder::kArrival,
                             support::Rng* rng = nullptr);

/// Releases every route a batch reserved (undo helper for sweeps).
void release_batch(net::WdmNetwork& net, const BatchOutcome& outcome);

}  // namespace wdm::rwa
