// Per-node wavelength-conversion capability and cost — the paper's switch
// converter with cost factors c_v(λp, λq). The table accommodates the general
// case where conversion capability and cost depend on the node and on both
// wavelengths; c_v(λ, λ) is identically 0 and always allowed (no switching).
#pragma once

#include <vector>

#include "wdm/wavelength.hpp"

namespace wdm::net {

class ConversionTable {
 public:
  /// Identity-only table: no conversion capability (λ -> λ only).
  explicit ConversionTable(int num_wavelengths);

  /// Full conversion: any λp -> λq allowed at `uniform_cost` (0 on identity).
  /// This is the paper's assumption (i) in §3.3.
  static ConversionTable full(int num_wavelengths, double uniform_cost);

  /// No conversion at all (alias of the identity-only constructor, for
  /// readability at call sites modeling the Lemma 1 special case).
  static ConversionTable none(int num_wavelengths);

  /// Limited-range conversion: λp -> λq allowed iff |p - q| <= range, cost
  /// `cost_per_step * |p - q|` — models shared-per-node converter pools with
  /// bounded tuning range.
  static ConversionTable limited_range(int num_wavelengths, int range,
                                       double cost_per_step);

  int num_wavelengths() const { return w_; }

  /// Allows a conversion and sets its cost. Identity entries are fixed
  /// (allowed, cost 0) and must not be overridden with a nonzero cost.
  void set(Wavelength from, Wavelength to, double cost);

  void forbid(Wavelength from, Wavelength to);

  bool allowed(Wavelength from, Wavelength to) const {
    return from == to || allowed_[index(from, to)] != 0;
  }

  /// Requires allowed(from, to).
  double cost(Wavelength from, Wavelength to) const;

  /// cost() without its allowed() check, for inner loops that test
  /// allowed() themselves (the path DP of rwa::optimal_semilightpath).
  double cost_unchecked(Wavelength from, Wavelength to) const {
    return cost_[index(from, to)];
  }

  /// True when every pair is allowed.
  bool is_full() const;

  /// Maximum conversion cost over allowed non-identity pairs (0 if none) —
  /// used to check the Theorem 2 assumption.
  double max_cost() const;

  /// Wavelengths in `to_set` reachable from some wavelength in `from_set`.
  WavelengthSet reachable(WavelengthSet from_set, WavelengthSet to_set) const;

 private:
  std::size_t index(Wavelength a, Wavelength b) const {
    WDM_DCHECK(a >= 0 && a < w_ && b >= 0 && b < w_);
    return static_cast<std::size_t>(a) * static_cast<std::size_t>(w_) +
           static_cast<std::size_t>(b);
  }

  int w_;
  std::vector<double> cost_;
  std::vector<std::uint8_t> allowed_;
};

}  // namespace wdm::net
