// Radial binning of triangle side lengths (paper §3.1: secondaries are
// binned into spherical shells around each primary; shells = bins in r1, r2).
#pragma once

#include <cmath>
#include <string>
#include <vector>

#include "util/check.hpp"

namespace galactos::core {

enum class BinSpacing { kLinear, kLog };

class RadialBins {
 public:
  RadialBins() = default;
  RadialBins(double rmin, double rmax, int nbins,
             BinSpacing spacing = BinSpacing::kLinear);

  int count() const { return nbins_; }
  double rmin() const { return rmin_; }
  double rmax() const { return rmax_; }
  BinSpacing spacing() const { return spacing_; }
  // 1 / bin width of linear bins: bin_of's scale factor.
  double inv_width() const { return inv_width_; }

  // Bin index for distance r, or -1 if outside [rmin, rmax) or NaN.
  int bin_of(double r) const {
    if (!(r >= rmin_ && r < rmax_)) return -1;
    if (spacing_ == BinSpacing::kLinear) {
      int b = static_cast<int>((r - rmin_) * inv_width_);
      return b >= nbins_ ? nbins_ - 1 : b;  // guard FP edge at r ~ rmax
    }
    int b = static_cast<int>(std::log(r * inv_rmin_) * inv_logw_);
    if (b < 0) b = 0;
    return b >= nbins_ ? nbins_ - 1 : b;
  }

  double edge(int i) const {
    GLX_DCHECK(i >= 0 && i <= nbins_);
    return edges_[i];
  }
  double center(int i) const { return 0.5 * (edges_[i] + edges_[i + 1]); }

  // Volume of shell i: (4/3) pi (r_hi^3 - r_lo^3). Used for normalization.
  double shell_volume(int i) const;

  std::string describe() const;

 private:
  double rmin_ = 0, rmax_ = 1;
  int nbins_ = 1;
  BinSpacing spacing_ = BinSpacing::kLinear;
  double inv_width_ = 1, inv_rmin_ = 1, inv_logw_ = 1;
  std::vector<double> edges_;
};

}  // namespace galactos::core
