// Random WDM instance generator for the differential fuzz harness.
//
// Every instance is a deterministic function of a single 64-bit seed: the
// seed picks a topology family, sizes, the wavelength universe, per-link
// installed sets Λ(e), per-(link, λ) costs w(e, λ), per-node conversion
// tables c_v, background reservations (so the residual network is
// non-trivial), and occasionally failed links. Re-running with the same seed
// reproduces the instance bit-for-bit — the replay contract the corpus and
// shrinker rely on.
#pragma once

#include <optional>

#include "fuzz/instance.hpp"
#include "support/rng.hpp"

namespace wdm::fuzz {

struct GenOptions {
  /// Node-count range for the sized families (random digraph / connected /
  /// ring / grid). Fixed-shape families (backbone, trap, bridge) ignore it.
  int min_nodes = 4;
  int max_nodes = 10;
  /// Wavelength-universe range.
  int min_wavelengths = 2;
  int max_wavelengths = 5;
  /// Probability each non-request wavelength-link is pre-reserved (background
  /// traffic shaping the residual network).
  double preload_probability = 0.08;
  /// Probability an instance carries one failed (cut) fiber.
  double failure_probability = 0.1;
  /// When true, only generate instances satisfying the Theorem 2 regime:
  /// full per-node uniform conversion with cost ≤ every incident link cost,
  /// wavelength-independent link costs.
  bool theorem2_regime_only = false;

  /// SRLG annotation knobs. The default 0 disables SRLG generation entirely
  /// and draws nothing from the RNG, so every pre-SRLG seed reproduces its
  /// instance byte-for-byte. When > 0 it is the probability an instance
  /// carries shared-risk groups (drawn after everything else so the physical
  /// instance for a seed is the same with or without annotations), and the
  /// adversarial srlg-trap family joins the topology mix.
  double srlg_probability = 0.0;
  int max_srlg_groups = 3;
  int max_srlg_size = 3;

  /// Forces the topology family instead of drawing it from the mix, for
  /// suites that must cover every family within a small budget. The family
  /// roll is still drawn, so everything else about the seed's RNG stream is
  /// consumed as usual.
  std::optional<TopoFamily> family;
};

/// Generates the instance for `seed`. Deterministic; never returns a network
/// without at least one link, and s != t always holds.
FuzzInstance generate_instance(std::uint64_t seed, const GenOptions& opt = {});

/// True when the network is inside the §3.3 / Theorem 2 assumptions: every
/// node has full conversion at one uniform cost, every link's cost is
/// wavelength-independent, and each node's conversion cost is bounded by the
/// traversal cost of its incident links. Invariants that encode Theorem 2 or
/// Lemma 2 are gated on this predicate.
bool in_theorem2_regime(const net::WdmNetwork& net);

/// True when every node has a full (all pairs allowed) conversion table —
/// the regime where the auxiliary graph G' is exact on *existence* of a
/// disjoint pair, enabling the two-sided approx-vs-exact agreement check.
bool all_nodes_full_conversion(const net::WdmNetwork& net);

}  // namespace wdm::fuzz
