#include "e2e.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <memory>
#include <numeric>
#include <queue>
#include <sstream>

#include "rwa/approx_router.hpp"
#include "rwa/exact_router.hpp"
#include "rwa/loadcost_router.hpp"
#include "rwa/mincog.hpp"
#include "sim/simulator.hpp"
#include "support/rng.hpp"
#include "support/telemetry.hpp"
#include "topology/network_builder.hpp"
#include "topology/topologies.hpp"

namespace bench_e2e {

namespace net = wdm::net;
namespace rwa = wdm::rwa;
namespace sim = wdm::sim;
namespace tel = wdm::support::telemetry;
namespace topo = wdm::topo;
using Clock = std::chrono::steady_clock;

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> kWorkloads = [] {
    std::vector<Workload> v;
    Workload a;
    a.name = "nsfnet-approx-uniform";
    a.topology = "nsfnet";
    a.wavelengths = 32;
    a.router = RouterArm::kApprox;
    a.erlang = 160.0;
    a.window_requests = 8000;
    a.exact_samples = 300;
    v.push_back(a);

    Workload b;
    b.name = "waxman500-loadcost-zipf";
    b.topology = "waxman500";
    b.wavelengths = 32;
    b.router = RouterArm::kLoadCost;
    b.erlang = 110.0;
    b.zipf_alpha = 1.5;
    b.ranking_seed = 6;
    b.window_requests = 650;
    v.push_back(b);

    Workload c;
    c.name = "geo100-minload-cuts";
    c.topology = "geo10x10";
    c.wavelengths = 16;
    c.router = RouterArm::kMinLoad;
    c.erlang = 400.0;
    c.failure_rate = 0.05;
    c.mean_repair = 0.5;
    c.reprovision_backup = true;
    c.window_requests = 3000;
    v.push_back(c);
    return v;
  }();
  return kWorkloads;
}

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

namespace {

// The topology and the Zipf source ranking are part of a workload's
// definition (fixed seeds); --seed drives the traffic and failure process.
constexpr std::uint64_t kTopologySeed = 1;
// Warm-up before the timed window, in mean holding times: ~86% of the
// steady-state occupancy of an uncongested loss system.
constexpr double kRampHoldingTimes = 2.0;
// Traffic slots (distinct traffic seeds) an untraced run cycles through; a
// round that repeats a slot must reproduce its counts. More distinct slots
// average more of the traffic and failure processes into one run.
constexpr int kSlots = 8;
// Slots every untraced run covers: the deterministic counts (offered,
// blocked, cost, service time) sum over the first round of each.
constexpr std::size_t kCountedSlots = 3;
// Traced-round share of route time the splits may leave unattributed.
constexpr double kMaxUnattributedShare = 0.05;
constexpr std::size_t kMaxFailureMessages = 8;
// Program time between two host-speed calibration slices.
constexpr double kSliceEveryS = 0.04;
// Reference host: one calibration slice takes this long on it. Reported
// timings are scaled to it (see HostClock).
constexpr double kReferenceSliceS = 1e-3;
// Slices on each side of a segment that set its host speed.
constexpr int kSliceNeighbours = 2;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Proper median (mean of the middle two for an even count).
double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t h = xs.size() / 2;
  return xs.size() % 2 ? xs[h] : 0.5 * (xs[h - 1] + xs[h]);
}

/// Measures a round's program time at the speed of a reference host.
///
/// The host is a shared VM whose speed drifts by tens of percent within
/// minutes and by a few percent from one second to the next. So the round's
/// program time is cut into segments of about kSliceEveryS, and after each
/// segment the clock runs one calibration slice: fixed reference work, a
/// binary-heap Dijkstra over a fixed random graph (fixed seed, independent
/// of --seed). That is the same kind of work as the router's inner loops,
/// but code of the benchmark's own, so no change to the library can move
/// it. A segment's times are then scaled by kReferenceSliceS over the median
/// of the slices around it: a slower or faster host moves the slices and
/// the program alike, and the scaled time stays put. Slices and decorator
/// work lie outside every segment.
class HostClock {
 public:
  HostClock() {
    std::uint64_t state = 0x5EEDCA11B0A7ull;
    first_.assign(kNodes + 1, 0);
    head_.resize(static_cast<std::size_t>(kNodes) * kDegree);
    weight_.resize(head_.size());
    for (int v = 0; v < kNodes; ++v) {
      first_[static_cast<std::size_t>(v) + 1] = (v + 1) * kDegree;
      for (int k = 0; k < kDegree; ++k) {
        const std::size_t a = static_cast<std::size_t>(v) * kDegree + k;
        head_[a] = static_cast<int>(wdm::support::splitmix64(state) % kNodes);
        weight_[a] = 1 + static_cast<int>(wdm::support::splitmix64(state) % 1000);
      }
    }
    dist_.resize(kNodes);
  }

  /// Starts a round: forgets the last one and opens segment 0 at `t`.
  void begin(Clock::time_point t) {
    wall_s_.clear();
    slice_s_.clear();
    open(t);
  }

  /// Takes `s` seconds of the benchmark's own work out of the open segment.
  void exclude(double s) { excluded_s_ += s; }

  /// Index of the open segment.
  int segment() const { return static_cast<int>(wall_s_.size()); }

  /// Closes the open segment at `t` once it holds kSliceEveryS of program
  /// time (or at once, with `force`), runs a slice and opens the next
  /// segment.
  void cut(Clock::time_point t, bool force) {
    if (force || seconds_between(seg_t0_, t) - excluded_s_ >= kSliceEveryS) {
      close(t);
      open(Clock::now());
    }
  }

  /// Closes the last segment at `t`. Returns each segment's factor from this
  /// host's time to the reference host's.
  std::vector<double> end(Clock::time_point t) {
    close(t);
    const int n = segment();
    std::vector<double> to_ref(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      const auto lo = slice_s_.begin() + std::max(0, i - kSliceNeighbours);
      const auto hi = slice_s_.begin() + std::min(n, i + kSliceNeighbours + 1);
      to_ref[static_cast<std::size_t>(i)] =
          kReferenceSliceS / median(std::vector<double>(lo, hi));
    }
    return to_ref;
  }

  /// Program time of each closed segment, on this host.
  const std::vector<double>& wall_s() const { return wall_s_; }

 private:
  void open(Clock::time_point t) {
    seg_t0_ = t;
    excluded_s_ = 0.0;
  }

  void close(Clock::time_point t) {
    wall_s_.push_back(seconds_between(seg_t0_, t) - excluded_s_);
    slice_s_.push_back(slice());
  }

  /// Runs the reference work once; returns how long it took.
  double slice() {
    const auto t0 = Clock::now();
    std::fill(dist_.begin(), dist_.end(), kUnreached);
    using Item = std::pair<long, int>;
    std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
    const int src = static_cast<int>(++slices_run_ * 7919 % kNodes);
    dist_[static_cast<std::size_t>(src)] = 0;
    heap.emplace(0, src);
    while (!heap.empty()) {
      const auto [d, v] = heap.top();
      heap.pop();
      if (d > dist_[static_cast<std::size_t>(v)]) continue;
      for (int a = first_[static_cast<std::size_t>(v)];
           a < first_[static_cast<std::size_t>(v) + 1]; ++a) {
        const std::size_t au = static_cast<std::size_t>(a);
        const long nd = d + weight_[au];
        long& dh = dist_[static_cast<std::size_t>(head_[au])];
        if (nd < dh) {
          dh = nd;
          heap.emplace(nd, head_[au]);
        }
      }
    }
    checksum_ = checksum_ + std::accumulate(dist_.begin(), dist_.end(), 0L);
    return seconds_between(t0, Clock::now());
  }

  static constexpr int kNodes = 4096;
  static constexpr int kDegree = 6;
  static constexpr long kUnreached = 1L << 60;
  std::vector<int> first_, head_, weight_;
  std::vector<long> dist_;
  long slices_run_ = 0;
  volatile long checksum_ = 0;  // keeps the reference work observable
  std::vector<double> wall_s_, slice_s_;
  Clock::time_point seg_t0_{};
  double excluded_s_ = 0.0;
};

/// Nearest-rank quantile of an unsorted sample (0 when empty).
double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const auto n = static_cast<double>(xs.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * n));
  rank = std::clamp<std::size_t>(rank, 1, xs.size());
  return xs[rank - 1];
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

void append(std::vector<double>* dst, const std::vector<double>& src) {
  dst->insert(dst->end(), src.begin(), src.end());
}

double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

struct Inputs {
  topo::Topology topology;
  net::WdmNetwork network;
  std::vector<double> pair_weight;
};

Inputs make_inputs(const Workload& w) {
  wdm::support::Rng rng(kTopologySeed);
  topo::NetworkOptions nopt;
  nopt.num_wavelengths = w.wavelengths;
  topo::Topology topology;
  if (w.topology == "nsfnet") {
    topology = topo::nsfnet();
  } else if (w.topology == "waxman500") {
    topology = topo::waxman(500, /*alpha=*/0.08, /*beta=*/0.12, rng);
    nopt.cost_model = topo::CostModel::kLength;
  } else {
    topology = topo::geo_grid(10, 10, /*chord_p=*/0.3, rng);
  }
  net::WdmNetwork network = topo::build_network(topology, nopt, rng);
  std::vector<double> pair_weight;
  if (w.zipf_alpha > 0.0) {
    const int n = topology.num_nodes();
    std::vector<int> rank(static_cast<std::size_t>(n));
    std::iota(rank.begin(), rank.end(), 0);
    wdm::support::Rng rank_rng(w.ranking_seed);
    rank_rng.shuffle(std::span<int>(rank));
    pair_weight.assign(static_cast<std::size_t>(n) * n, 0.0);
    for (int s = 0; s < n; ++s) {
      const double ws =
          std::pow(static_cast<double>(rank[static_cast<std::size_t>(s)] + 1),
                   -w.zipf_alpha);
      for (int t = 0; t < n; ++t) {
        if (t != s) pair_weight[static_cast<std::size_t>(s) * n + t] = ws;
      }
    }
  }
  return {std::move(topology), std::move(network), std::move(pair_weight)};
}

std::unique_ptr<rwa::Router> make_router(RouterArm arm) {
  switch (arm) {
    case RouterArm::kApprox:
      return std::make_unique<rwa::ApproxDisjointRouter>(/*refine=*/true);
    case RouterArm::kLoadCost:
      return std::make_unique<rwa::LoadCostRouter>();
    case RouterArm::kMinLoad:
      return std::make_unique<rwa::MinLoadRouter>();
  }
  return nullptr;
}

const char* telemetry_prefix(RouterArm arm) {
  switch (arm) {
    case RouterArm::kApprox: return "rwa.approx.";
    case RouterArm::kLoadCost: return "rwa.loadcost.";
    case RouterArm::kMinLoad: return "rwa.minload.";
  }
  return "";
}

/// Empty when `rr` is a valid protected route from s to t in the residual
/// network `net`; otherwise what is wrong with it.
std::string verify_route(const net::WdmNetwork& net, net::NodeId s,
                         net::NodeId t, const rwa::RouteResult& rr) {
  const net::ProtectedRoute& r = rr.route;
  if (!r.found || !r.primary.found || !r.backup.found ||
      r.primary.hops.empty() || r.backup.hops.empty()) {
    return "found result without a primary and a backup";
  }
  if (r.primary.source(net) != s || r.primary.destination(net) != t ||
      r.backup.source(net) != s || r.backup.destination(net) != t) {
    return "route endpoints do not match the request";
  }
  if (!r.primary.fits_residual(net)) return "primary does not fit residual";
  if (!r.feasible(net)) return "protected route infeasible";
  if (!net::edge_disjoint(r.primary, r.backup)) {
    return "primary and backup share a link";
  }
  return {};
}

struct FailureLog {
  long count = 0;
  std::vector<std::string> messages;
  void add(std::string msg) {
    ++count;
    if (messages.size() < kMaxFailureMessages) messages.push_back(std::move(msg));
  }
};

/// Exact-router quality probe state for one traced round.
struct ExactProbe {
  wdm::support::Rng rng{1};
  double sample_p = 0.0;
  bool theorem2 = false;
  std::vector<double> latency_us;
  std::vector<double> cost_ratio;
};

/// The benchmark's Router decorator: times every route() call, verifies
/// every found route, and marks the start of the timed window. Its own work
/// after each call (verification, bookkeeping, the exact probe) is taken out
/// of the round's program time, and it lets the host clock cut a segment
/// between calls.
class TimedRouter final : public rwa::Router {
 public:
  TimedRouter(const rwa::Router& inner, long window_start, bool traced,
              ExactProbe* probe, HostClock* clock, FailureLog* failures)
      : inner_(inner),
        window_start_(window_start),
        traced_(traced),
        probe_(probe),
        clock_(clock),
        failures_(failures) {}

  using rwa::Router::route;
  rwa::RouteResult route(const net::WdmNetwork& net, net::NodeId s,
                         net::NodeId t) const override {
    const long index = calls_++;
    const bool in_window = index >= window_start_;
    if (index == window_start_) {
      // Set-up ends here; the window starts with a segment of its own.
      clock_->cut(Clock::now(), /*force=*/true);
      window_segment_ = clock_->segment();
      // Telemetry then covers exactly the window's route calls.
      if (traced_) tel::reset();
    }
    const int segment = clock_->segment();
    rwa::RouteResult rr;
    const auto t0 = Clock::now();
    try {
      rr = inner_.route(net, s, t);
    } catch (const std::exception& e) {
      rr = rwa::RouteResult{};
      failures_->add(std::string("router threw: ") + e.what());
    }
    const auto t1 = Clock::now();
    const double us = std::chrono::duration<double, std::micro>(t1 - t0).count();

    bool accepted = false;
    if (rr.found) {
      const std::string bad = verify_route(net, s, t, rr);
      if (bad.empty()) {
        accepted = true;
      } else {
        failures_->add("request " + std::to_string(index) + ": " + bad);
      }
    }
    double cost = 0.0;
    if (accepted) {
      cost = rr.route.primary.cost(net) + rr.route.backup.cost(net);
      cost_sum_all_ += cost;
    } else {
      ++blocked_all_;
    }
    if (in_window) {
      route_s_ += us * 1e-6;
      (accepted ? found_us_ : blocked_us_).push_back(us);
      (accepted ? found_segment_ : blocked_segment_).push_back(segment);
      if (accepted) {
        cost_sum_ += cost;
      } else {
        ++blocked_;
      }
      if (probe_ != nullptr && probe_->rng.bernoulli(probe_->sample_p)) {
        run_exact(net, s, t, accepted ? cost : -1.0);
      }
    }
    const auto t2 = Clock::now();
    clock_->exclude(seconds_between(t1, t2));
    if (in_window) overhead_s_ += seconds_between(t1, t2);
    clock_->cut(t2, /*force=*/false);
    return rr;
  }

  std::string name() const override { return inner_.name(); }

  long calls() const { return calls_; }
  long window_calls() const { return std::max(0L, calls_ - window_start_); }
  long window_blocked() const { return blocked_; }
  double window_cost_sum() const { return cost_sum_; }
  double window_route_s() const { return route_s_; }
  double window_overhead_s() const { return overhead_s_; }
  /// Host-clock segment the window starts with.
  int window_segment() const { return window_segment_; }
  long blocked_all() const { return blocked_all_; }
  double cost_sum_all() const { return cost_sum_all_; }
  const std::vector<double>& found_us() const { return found_us_; }
  const std::vector<double>& blocked_us() const { return blocked_us_; }
  /// Host-clock segment of each found_us() / blocked_us() sample.
  const std::vector<int>& found_segment() const { return found_segment_; }
  const std::vector<int>& blocked_segment() const { return blocked_segment_; }

 private:
  /// Routes the request exactly against the same residual state. Runs
  /// outside the timed call, with telemetry paused so no layer sees it.
  void run_exact(const net::WdmNetwork& net, net::NodeId s, net::NodeId t,
                 double approx_cost) const {
    const bool was_on = tel::enabled();
    tel::set_enabled(false);
    const auto t0 = Clock::now();
    const rwa::ExactResult ex = rwa::exact_disjoint_pair(net, s, t);
    const auto t1 = Clock::now();
    tel::set_enabled(was_on);
    probe_->latency_us.push_back(
        std::chrono::duration<double, std::micro>(t1 - t0).count());
    if (!ex.proven_optimal) return;
    const bool exact_found = ex.result.found;
    if (approx_cost < 0.0) return;  // approx blocked: nothing to compare
    if (!exact_found) {
      if (probe_->theorem2) {
        failures_->add("exact router found no pair where approx did");
      }
      return;
    }
    const double exact_cost = ex.result.total_cost(net);
    const double r = approx_cost / exact_cost;
    probe_->cost_ratio.push_back(r);
    if (probe_->theorem2 && (r > 2.0 + 1e-9 || r < 1.0 - 1e-9)) {
      failures_->add("approx/exact cost ratio " + std::to_string(r) +
                     " outside [1, 2] under the Theorem 2 assumption");
    }
  }

  const rwa::Router& inner_;
  long window_start_;
  bool traced_;
  ExactProbe* probe_;
  HostClock* clock_;
  FailureLog* failures_;
  mutable long calls_ = 0;
  mutable long blocked_ = 0;
  mutable long blocked_all_ = 0;
  mutable double cost_sum_ = 0.0;
  mutable double cost_sum_all_ = 0.0;
  mutable double route_s_ = 0.0;
  mutable double overhead_s_ = 0.0;
  mutable int window_segment_ = 0;
  mutable std::vector<double> found_us_;
  mutable std::vector<double> blocked_us_;
  mutable std::vector<int> found_segment_;
  mutable std::vector<int> blocked_segment_;
};

/// Per-layer split of one traced window, read from the library telemetry.
struct Layers {
  double aux_s = 0.0;       // aux-graph builds (router stage + θ probes)
  double suurballe_s = 0.0; // Suurballe solves (router stage + θ probes)
  double liang_shen_s = 0.0;
  double mincog_s = 0.0;    // θ search minus its nested builds and solves
  std::uint64_t builds = 0, probes = 0, liang_shen_stages = 0, found = 0;
  std::uint64_t suurballe_solves = 0;
  std::uint64_t cache_hits = 0, cache_lookups = 0;
  std::uint64_t warm_solves = 0, warm_reused = 0;
  std::uint64_t dropped_spans = 0;
  std::vector<double> aux_us, suurballe_us, liang_shen_us, theta_us;
  double split_s() const { return aux_s + suurballe_s + liang_shen_s + mincog_s; }

  void merge(const Layers& o) {
    aux_s += o.aux_s;
    suurballe_s += o.suurballe_s;
    liang_shen_s += o.liang_shen_s;
    mincog_s += o.mincog_s;
    builds += o.builds;
    probes += o.probes;
    liang_shen_stages += o.liang_shen_stages;
    found += o.found;
    suurballe_solves += o.suurballe_solves;
    cache_hits += o.cache_hits;
    cache_lookups += o.cache_lookups;
    warm_solves += o.warm_solves;
    warm_reused += o.warm_reused;
    dropped_spans += o.dropped_spans;
    append(&aux_us, o.aux_us);
    append(&suurballe_us, o.suurballe_us);
    append(&liang_shen_us, o.liang_shen_us);
    append(&theta_us, o.theta_us);
  }
};

Layers harvest_layers(RouterArm arm) {
  const std::string p = telemetry_prefix(arm);
  auto hist_s = [](const std::string& name) {
    return static_cast<double>(tel::histogram(name).sum_ns()) * 1e-9;
  };
  auto count = [](const std::string& name) { return tel::counter(name).value(); };
  Layers l;
  const double probe_aux = hist_s("rwa.mincog.aux_build_ns");
  const double probe_suurballe = hist_s("rwa.mincog.suurballe_ns");
  l.aux_s = hist_s(p + "aux_build_ns") + probe_aux;
  l.suurballe_s = hist_s(p + "suurballe_ns") + probe_suurballe;
  l.liang_shen_s = hist_s(p + "liang_shen_ns");
  l.mincog_s = std::max(
      0.0, hist_s(p + "theta_search_ns") - probe_aux - probe_suurballe);
  l.builds = count("rwa.aux_builder.builds");
  l.probes = count("rwa.mincog.probes");
  l.found = count(p + "found");
  l.cache_hits = count("rwa.aux_builder.conv_hits") +
                 count("rwa.aux_builder.link_hits");
  l.cache_lookups = l.cache_hits + count("rwa.aux_builder.conv_misses") +
                    count("rwa.aux_builder.link_misses");
  const std::uint64_t warm_hits = count("rwa.approx.warm_hits");
  const std::uint64_t warm_repairs = count("rwa.approx.warm_repairs");
  l.warm_reused = warm_hits + warm_repairs;
  l.warm_solves = l.warm_reused + count("rwa.approx.warm_builds");
  l.dropped_spans = count("tel.dropped_spans");

  const std::uint32_t build_id = tel::intern("rwa.aux_builder.build");
  const std::uint32_t suurballe_id = tel::intern(p + "suurballe");
  const std::uint32_t probe_suurballe_id = tel::intern("rwa.mincog.suurballe");
  const std::uint32_t liang_shen_id = tel::intern(p + "liang_shen");
  const std::uint32_t theta_id = tel::intern(p + "theta_search");
  for (const tel::SpanSnapshot& snap : tel::span_snapshot()) {
    const std::uint32_t id = snap.span.name;
    const double us = static_cast<double>(snap.span.dur_ns) * 1e-3;
    if (id == build_id) {
      l.aux_us.push_back(us);
    } else if (id == suurballe_id || id == probe_suurballe_id) {
      l.suurballe_us.push_back(us);
    } else if (id == liang_shen_id) {
      l.liang_shen_us.push_back(us);
    } else if (id == theta_id) {
      l.theta_us.push_back(us);
    }
  }
  l.suurballe_solves = l.suurballe_us.size();
  l.liang_shen_stages = l.liang_shen_us.size();
  return l;
}

/// One round. Every time in it is at the reference host's speed (HostClock).
struct Round {
  double setup_s = 0.0;
  double window_wall_s = 0.0;  // program time of the window
  double window_route_s = 0.0;
  double to_ref = 1.0;  // window program time: reference host / this host
  double overhead_share = 0.0;  // decorator work / (program + decorator)
  long calls = 0;
  long window_calls = 0;
  long window_blocked = 0;
  double window_cost_sum = 0.0;
  std::vector<double> found_us, blocked_us;
  sim::SimMetrics sm;
  Layers layers;
  ExactProbe probe;
};

/// Takes the round's times from `router` and `clock` (on this host) to the
/// reference host's speed: program time and route samples segment by
/// segment, the traced splits (parts of route time) and the exact probe with
/// the factor the window's route time got as a whole.
void scale_times(const TimedRouter& router, const HostClock& clock,
                 const std::vector<double>& to_ref, Round* rd) {
  const std::vector<double>& wall = clock.wall_s();
  const auto window = static_cast<std::size_t>(router.window_segment());
  double window_raw_s = 0.0;
  for (std::size_t i = 0; i < wall.size(); ++i) {
    (i < window ? rd->setup_s : rd->window_wall_s) += wall[i] * to_ref[i];
    if (i >= window) window_raw_s += wall[i];
  }
  rd->to_ref = ratio(rd->window_wall_s, window_raw_s);
  rd->overhead_share = ratio(router.window_overhead_s(),
                             window_raw_s + router.window_overhead_s());
  auto scale_samples = [&](const std::vector<double>& us,
                           const std::vector<int>& segment,
                           std::vector<double>* out) {
    out->resize(us.size());
    for (std::size_t k = 0; k < us.size(); ++k) {
      (*out)[k] = us[k] * to_ref[static_cast<std::size_t>(segment[k])];
      rd->window_route_s += (*out)[k] * 1e-6;
    }
  };
  scale_samples(router.found_us(), router.found_segment(), &rd->found_us);
  scale_samples(router.blocked_us(), router.blocked_segment(), &rd->blocked_us);
  const double route_to_ref = ratio(rd->window_route_s, router.window_route_s());
  for (double* t : {&rd->layers.aux_s, &rd->layers.suurballe_s,
                    &rd->layers.liang_shen_s, &rd->layers.mincog_s}) {
    *t *= route_to_ref;
  }
  for (std::vector<double>* v :
       {&rd->probe.latency_us, &rd->layers.aux_us, &rd->layers.suurballe_us,
        &rd->layers.liang_shen_us, &rd->layers.theta_us}) {
    for (double& t : *v) t *= route_to_ref;
  }
}

std::uint64_t traffic_seed(std::uint64_t seed, int slot) {
  std::uint64_t state = seed * 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(slot);
  return wdm::support::splitmix64(state);
}

Round run_round(const Workload& w, const RunOptions& opt, int slot,
                bool traced, HostClock* clock, FailureLog* failures) {
  Round out;
  tel::set_enabled(traced);
  if (traced) tel::reset();

  clock->begin(Clock::now());
  Inputs in = make_inputs(w);
  const std::unique_ptr<rwa::Router> inner = make_router(w.router);
  const double ramp_arrivals =
      std::max(1.0, std::round(kRampHoldingTimes * w.erlang * opt.scale));
  const double window = std::max(10.0, std::round(
      static_cast<double>(w.window_requests) * opt.scale));
  if (traced && w.exact_samples > 0) {
    out.probe.rng = wdm::support::Rng(traffic_seed(opt.seed, slot) ^ 0xE1ACull);
    out.probe.sample_p = std::min(1.0, w.exact_samples / window);
    out.probe.theorem2 = topo::satisfies_theorem2_assumption(in.network);
  }
  TimedRouter router(*inner, static_cast<long>(ramp_arrivals), traced,
                     out.probe.sample_p > 0.0 ? &out.probe : nullptr,
                     clock, failures);

  sim::SimOptions so;
  so.traffic.arrival_rate = w.erlang;
  so.traffic.mean_holding = 1.0;
  so.traffic.pair_weight = std::move(in.pair_weight);
  so.failures.duplex_failure_rate = w.failure_rate;
  so.failures.mean_repair = w.mean_repair;
  so.failures.reprovision_backup = w.reprovision_backup;
  so.restoration = sim::RestorationMode::kActive;
  so.duration = (ramp_arrivals + window) / w.erlang;
  so.seed = traffic_seed(opt.seed, slot);
  so.reverse_of = in.topology.reverse_of;
  so.series_interval = -1.0;  // no time series: same sim work traced or not
  sim::Simulator simulator(std::move(in.network), router, std::move(so));
  out.sm = simulator.run();
  const std::vector<double> to_ref = clock->end(Clock::now());
  tel::set_enabled(false);

  out.calls = router.calls();
  out.window_calls = router.window_calls();
  if (out.window_calls == 0) {
    failures->add("round ended before its timed window began");
    return out;
  }
  out.window_blocked = router.window_blocked();
  out.window_cost_sum = router.window_cost_sum();

  // The decorator and the simulator must agree on what happened.
  const double sim_cost_sum = out.sm.route_cost.sum();
  if (out.sm.offered != out.calls || out.sm.blocked != router.blocked_all() ||
      std::abs(sim_cost_sum - router.cost_sum_all()) >
          1e-9 * std::max(1.0, std::abs(sim_cost_sum))) {
    failures->add("simulator metrics disagree with the route decorator");
  }
  if (traced) {
    out.layers = harvest_layers(w.router);
    const double route_s = router.window_route_s();
    const double unattributed = route_s - out.layers.split_s();
    if (out.layers.dropped_spans != 0) {
      failures->add("traced round dropped " +
                    std::to_string(out.layers.dropped_spans) + " spans");
    }
    if (unattributed < 0.0 || unattributed > kMaxUnattributedShare * route_s) {
      failures->add("layer splits do not reconcile with decorator route time: "
                    "splits " + std::to_string(out.layers.split_s()) +
                    " s vs route " + std::to_string(route_s) + " s");
    }
  }
  scale_times(router, *clock, to_ref, &out);
  return out;
}

bool same_counts(const Round& a, const Round& b) {
  return a.window_calls == b.window_calls &&
         a.window_blocked == b.window_blocked &&
         a.window_cost_sum == b.window_cost_sum;
}

/// Calls on_round(0), on_round(1), ... until the time budget is spent: at
/// least `min_rounds` run, and another starts only if an average round
/// still fits in the budget.
template <class OnRound>
void run_rounds(const RunOptions& opt, int min_rounds, OnRound on_round) {
  const auto t0 = Clock::now();
  for (int r = 0;; ++r) {
    const double elapsed = seconds_between(t0, Clock::now());
    if (r >= min_rounds && elapsed * (r + 1) / r > opt.seconds) break;
    on_round(r);
  }
}

void add(std::vector<Metric>* m, std::string name, double value,
         std::string unit, long samples = 0) {
  m->push_back({std::move(name), value, std::move(unit), samples});
}

long size_of(const std::vector<double>& v) { return static_cast<long>(v.size()); }

/// Untraced rounds pooled: the end-to-end view of the request path.
struct Pooled {
  double rounds = 0.0;
  long calls = 0, window_calls = 0;
  double wall_s = 0.0, route_s = 0.0;
  std::vector<double> found_us, blocked_us, setup_s;
  long reprovisioned = 0, recomputed = 0, primary_failures = 0;

  void add(const Round& rd) {
    rounds += 1.0;
    calls += rd.calls;
    window_calls += rd.window_calls;
    wall_s += rd.window_wall_s;
    route_s += rd.window_route_s;
    append(&found_us, rd.found_us);
    append(&blocked_us, rd.blocked_us);
    setup_s.push_back(rd.setup_s);
    reprovisioned += rd.sm.backups_reprovisioned;
    recomputed += rd.sm.recompute_recoveries;
    primary_failures += rd.sm.primary_failures;
  }
  std::vector<double> all_us() const {
    std::vector<double> v = found_us;
    append(&v, blocked_us);
    return v;
  }
};

void end_to_end_metrics(const Pooled& u, const Report& rep, double availability,
                        double peak_rss_mb, std::vector<Metric>* m) {
  const std::vector<double> all = u.all_us();
  const long accepted = rep.det_offered - rep.det_blocked;
  add(m, "requests_per_s", ratio(static_cast<double>(u.window_calls), u.wall_s),
      "req/s", u.window_calls);
  add(m, "route_p50_us", quantile(all, 0.50), "us", size_of(all));
  add(m, "route_p99_us", quantile(all, 0.99), "us", size_of(all));
  add(m, "route_cost_mean", ratio(rep.det_cost_sum, static_cast<double>(accepted)),
      "cost", accepted);
  add(m, "availability", availability, "ratio");
  add(m, "setup_s", median(u.setup_s), "s", size_of(u.setup_s));
  add(m, "peak_rss_mb", peak_rss_mb, "MiB");
}

/// Per-layer table. `u`: untraced rounds; `traced`: traced rounds of the
/// same traffic slot; `twin_route_s`: route time of the untraced round run
/// right after each traced one (the telemetry overhead baseline).
void per_layer_metrics(const Pooled& u, const std::vector<Round>& traced,
                       double twin_route_s, const Report& rep,
                       std::vector<Metric>* m) {
  const double n = u.rounds;
  const double nt = static_cast<double>(traced.size());
  Layers l;  // traced rounds summed
  double troute = 0.0, tcalls = 0.0;
  std::vector<double> exact_us, cost_ratio;
  bool theorem2 = false;
  for (const Round& rd : traced) {
    l.merge(rd.layers);
    append(&exact_us, rd.probe.latency_us);
    append(&cost_ratio, rd.probe.cost_ratio);
    troute += rd.window_route_s;
    tcalls += static_cast<double>(rd.window_calls);
    theorem2 = theorem2 || rd.probe.theorem2;
  }
  auto layer = [&](const std::string& p, double self_s,
                   const std::vector<double>& us) {
    add(m, p + ".self_s", self_s / nt, "s");
    add(m, p + ".share", ratio(self_s, troute), "ratio");
    add(m, p + ".p50_us", quantile(us, 0.5), "us", size_of(us));
    add(m, p + ".p99_us", quantile(us, 0.99), "us", size_of(us));
  };
  auto per_round = [&](std::uint64_t c) { return static_cast<double>(c) / nt; };

  add(m, "sim.blocking_ratio",
      ratio(static_cast<double>(rep.det_blocked), static_cast<double>(rep.det_offered)),
      "ratio", rep.det_offered);
  add(m, "sim.self_s", (u.wall_s - u.route_s) / n, "s");
  add(m, "sim.self_share", ratio(u.wall_s - u.route_s, u.wall_s), "ratio");
  add(m, "sim.backups_reprovisioned", u.reprovisioned / n, "count");
  add(m, "sim.recompute_recoveries", u.recomputed / n, "count");
  add(m, "sim.primary_failures", u.primary_failures / n, "count");
  add(m, "rwa.router.calls", static_cast<double>(u.window_calls) / n, "count");
  add(m, "rwa.router.busy_s", u.route_s / n, "s");
  add(m, "rwa.router.found_p50_us", quantile(u.found_us, 0.5), "us", size_of(u.found_us));
  add(m, "rwa.router.blocked_p50_us", quantile(u.blocked_us, 0.5), "us",
      size_of(u.blocked_us));
  add(m, "rwa.router.unattributed_s", (troute - l.split_s()) / nt, "s");

  add(m, "rwa.aux_graph.builds", per_round(l.builds), "count");
  add(m, "rwa.aux_graph.builds_per_request", ratio(static_cast<double>(l.builds), tcalls),
      "count");
  layer("rwa.aux_graph", l.aux_s, l.aux_us);
  add(m, "rwa.aux_graph.cache_hit_ratio",
      ratio(static_cast<double>(l.cache_hits), static_cast<double>(l.cache_lookups)),
      "ratio", static_cast<long>(l.cache_lookups));
  add(m, "rwa.aux_graph.cache_lookups", per_round(l.cache_lookups), "count");

  add(m, "graph.suurballe.solves", per_round(l.suurballe_solves), "count");
  layer("graph.suurballe", l.suurballe_s, l.suurballe_us);
  add(m, "graph.suurballe.tree_reuse_ratio",
      ratio(static_cast<double>(l.warm_reused), static_cast<double>(l.warm_solves)),
      "ratio", static_cast<long>(l.warm_solves));

  add(m, "rwa.layered_graph.calls", per_round(l.liang_shen_stages), "count");
  layer("rwa.layered_graph", l.liang_shen_s, l.liang_shen_us);
  add(m, "rwa.layered_graph.infeasible_pairs",
      per_round(l.liang_shen_stages - std::min(l.liang_shen_stages, l.found)), "count");

  add(m, "rwa.mincog.probes", per_round(l.probes), "count");
  add(m, "rwa.mincog.probes_per_request", ratio(static_cast<double>(l.probes), tcalls),
      "count");
  layer("rwa.mincog", l.mincog_s, l.theta_us);

  add(m, "support.telemetry.overhead_ratio", ratio(troute, twin_route_s) - 1.0, "ratio");
  add(m, "support.telemetry.dropped_spans", static_cast<double>(l.dropped_spans), "count");

  add(m, "rwa.exact_router.samples", static_cast<double>(exact_us.size()), "count");
  add(m, "rwa.exact_router.p50_us", quantile(exact_us, 0.5), "us", size_of(exact_us));
  add(m, "rwa.exact_router.cost_ratio_p50", quantile(cost_ratio, 0.5), "ratio",
      size_of(cost_ratio));
  add(m, "rwa.exact_router.cost_ratio_max",
      cost_ratio.empty() ? 0.0 : *std::max_element(cost_ratio.begin(), cost_ratio.end()),
      "ratio", size_of(cost_ratio));
  add(m, "rwa.exact_router.theorem2", theorem2 ? 1.0 : 0.0, "bool");
}

}  // namespace

Report run(const Workload& w, const RunOptions& opt) {
  Report rep;
  rep.workload = w.name;
  FailureLog failures;
  HostClock clock;

  // The deterministic counts come from the first round of every slot; each
  // later round of a slot must reproduce them exactly.
  std::vector<Round> first_of_slot;
  Pooled untraced;
  double peak_rss_mb = 0.0;  // after the first round: the sample logs grow later
  auto untraced_round = [&](int slot) {
    Round rd = run_round(w, opt, slot, /*traced=*/false, &clock, &failures);
    const double rps = ratio(static_cast<double>(rd.window_calls), rd.window_wall_s);
    std::fprintf(stderr,
                 "round slot %d: %ld window calls, %.1f req/s on this host = "
                 "%.1f req/s at reference speed (x %.3f), setup %.3f s, "
                 "found p50 %.1f us, decorator overhead %.1f%%\n",
                 slot, rd.window_calls, rps * rd.to_ref, rps, 1.0 / rd.to_ref,
                 rd.setup_s, quantile(rd.found_us, 0.5),
                 100.0 * rd.overhead_share);
    untraced.add(rd);
    if (peak_rss_mb == 0.0) peak_rss_mb = peak_rss_mib();
    if (static_cast<std::size_t>(slot) < first_of_slot.size()) {
      if (!same_counts(rd, first_of_slot[static_cast<std::size_t>(slot)])) {
        failures.add("repeat of traffic slot " + std::to_string(slot) +
                     " changed the deterministic counts");
      }
    } else {
      first_of_slot.push_back(std::move(rd));
    }
  };

  std::vector<Round> traced;
  double twin_route_s = 0.0;
  if (!opt.trace) {
    run_rounds(opt, static_cast<int>(kCountedSlots),
               [&](int r) { untraced_round(r % kSlots); });
  } else {
    // Slot 0 only: one untraced round, then (traced, untraced) pairs, so each
    // traced round has a warm untraced twin to measure tracing overhead on.
    untraced_round(0);
    run_rounds(opt, 1, [&](int) {
      traced.push_back(run_round(w, opt, 0, /*traced=*/true, &clock, &failures));
      if (!same_counts(traced.back(), first_of_slot[0])) {
        failures.add("tracing changed the deterministic counts");
      }
      const double before = untraced.route_s;
      untraced_round(0);
      twin_route_s += untraced.route_s - before;
    });
  }

  double requested = 0.0, delivered = 0.0;
  for (std::size_t i = 0; i < std::min(kCountedSlots, first_of_slot.size()); ++i) {
    const Round& rd = first_of_slot[i];
    rep.det_offered += rd.window_calls;
    rep.det_blocked += rd.window_blocked;
    rep.det_cost_sum += rd.window_cost_sum;
    requested += rd.sm.service_requested;
    delivered += rd.sm.service_delivered;
  }
  if (opt.scale >= 1.0 && untraced.window_calls < 1000) {
    failures.add("timed windows hold fewer than 1000 route calls");
  }

  if (!opt.trace) {
    end_to_end_metrics(untraced, rep,
                       requested > 0.0 ? delivered / requested : 1.0,
                       peak_rss_mb, &rep.metrics);
  } else {
    per_layer_metrics(untraced, traced, twin_route_s, rep, &rep.metrics);
  }

  rep.attempted = untraced.calls;
  for (const Round& rd : traced) rep.attempted += rd.calls;
  rep.failed = failures.count;
  rep.failures = std::move(failures.messages);
  return rep;
}

namespace {

std::string num(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

std::string result_json(const Report& r) {
  std::ostringstream o;
  o << "{\"correct\": " << (r.correct() ? "true" : "false")
    << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
    << ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    o << (i ? ", " : "") << '"' << m.name << "\": {\"value\": " << num(m.value)
      << ", \"unit\": \"" << m.unit << "\"}";
  }
  o << "}}";
  return o.str();
}

std::string deterministic_json(const Report& r) {
  std::ostringstream o;
  o << "{\"workload\": \"" << r.workload << "\", \"offered\": " << r.det_offered
    << ", \"blocked\": " << r.det_blocked
    << ", \"cost_sum\": " << num(r.det_cost_sum) << "}";
  return o.str();
}

std::string metric_table(const Report& r) {
  std::ostringstream o;
  char line[160];
  std::snprintf(line, sizeof line, "%-40s %16s  %-6s %s\n", "metric", "value",
                "unit", "samples");
  o << "# " << r.workload << "\n" << line;
  for (const Metric& m : r.metrics) {
    std::snprintf(line, sizeof line, "%-40s %16.6g  %-6s %s\n", m.name.c_str(),
                  m.value, m.unit.c_str(),
                  m.samples > 0 ? std::to_string(m.samples).c_str() : "-");
    o << line;
  }
  for (const std::string& f : r.failures) o << "FAILURE: " << f << "\n";
  return o.str();
}

}  // namespace bench_e2e
