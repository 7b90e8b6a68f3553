// Shared helpers for the benchmark harnesses that regenerate the paper's
// tables and figures, and for the benchmark suite (perfsuite/suite.cpp).
//
// Every bench binary runs standalone with no arguments (modest laptop-scale
// defaults) and takes bench-specific flags (--n, --rmax, ...). Output is
// aligned text tables mirroring the paper's rows; several benches also
// write a JSON artifact (--json) for the CI regression gates.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "sim/generators.hpp"
#include "util/timer.hpp"

namespace galactos::bench {

// Paper-like dataset scaled to laptop size: uniform random galaxies at the
// Outer Rim number density (Table 1), so pairs-per-primary depends only on
// rmax exactly as in the paper.
inline sim::Catalog outer_rim_scaled(std::size_t n, std::uint64_t seed) {
  const double side = sim::outer_rim_box_side(n);
  return sim::uniform_box(n, sim::Aabb::cube(side), seed);
}

// Expected secondaries per primary at Outer Rim density within rmax.
inline double pairs_per_primary(double rmax) {
  return sim::kOuterRimDensity * 4.0 / 3.0 * M_PI * rmax * rmax * rmax;
}

// The engine configuration used by the scaling benches: lmax = 10 (the
// paper's choice: 286 power sums) with an R_max scaled down so that
// per-primary work is laptop-sized; all other knobs at paper defaults.
inline core::EngineConfig paper_engine_config(double rmax, int nbins = 10,
                                              int threads = 0) {
  core::EngineConfig cfg;
  cfg.bins = core::RadialBins(rmax / nbins, rmax, nbins);
  cfg.lmax = 10;
  cfg.threads = threads;
  cfg.tree.precision = core::TreePrecision::kMixed;  // paper's fast mode
  return cfg;
}

inline void print_header(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

inline void print_kv(const char* key, const std::string& value) {
  std::printf("  %-34s %s\n", key, value.c_str());
}

inline std::string fmt(double v, const char* f = "%.3f") {
  char buf[64];
  std::snprintf(buf, sizeof(buf), f, v);
  return buf;
}

// Minimal JSON object builder for machine-readable bench output (the CI
// uploads these as artifacts so the perf trajectory is tracked over time).
// Values are either numbers, strings, or nested objects added as raw JSON.
class JsonObject {
 public:
  JsonObject& add(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return add_raw(key, buf);
  }
  JsonObject& add(const std::string& key, std::uint64_t value) {
    return add_raw(key, std::to_string(value));
  }
  JsonObject& add(const std::string& key, int value) {
    return add_raw(key, std::to_string(value));
  }
  JsonObject& add(const std::string& key, const std::string& value) {
    std::string esc = "\"";
    for (char ch : value) {
      if (ch == '"' || ch == '\\') esc += '\\';
      esc += ch;
    }
    esc += '"';
    return add_raw(key, esc);
  }
  JsonObject& add_raw(const std::string& key, const std::string& json) {
    entries_.emplace_back(key, json);
    return *this;
  }

  std::string str(int indent = 0) const {
    const std::string pad(indent + 2, ' ');
    std::ostringstream os;
    os << "{";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      os << (i ? "," : "") << "\n" << pad << "\"" << entries_[i].first
         << "\": " << entries_[i].second;
    }
    os << "\n" << std::string(indent, ' ') << "}";
    return os.str();
  }

 private:
  std::vector<std::pair<std::string, std::string>> entries_;
};

// JSON object of the engine's phase breakdown plus throughput — the
// machine-readable mirror of PhaseTimer::report().
inline JsonObject phases_json(const core::EngineStats& stats) {
  JsonObject o;
  for (const auto& [phase, seconds] : stats.phases.sorted())
    o.add(phase, seconds);
  o.add("total_seconds", stats.phases.total());
  o.add("wall_seconds", stats.wall_seconds);
  o.add("pairs", stats.pairs);
  o.add("candidates", stats.candidates);
  // Gather over-fetch: block entries scanned per kernel pair. The shared
  // leaf blocks overfetch by geometry, and the regression gate ceilings
  // this so pruning regressions fail CI.
  o.add("candidate_ratio",
        stats.pairs > 0 ? static_cast<double>(stats.candidates) /
                              static_cast<double>(stats.pairs)
                        : 0.0);
  const double kern = stats.phases.get("multipole kernel");
  o.add("pairs_per_second",
        stats.wall_seconds > 0
            ? static_cast<double>(stats.pairs) / stats.wall_seconds
            : 0.0);
  o.add("kernel_gflops", kern > 0 ? stats.kernel_flop_count / kern / 1e9 : 0.0);
  return o;
}

inline void write_json_file(const std::string& path,
                            const std::string& content) {
  std::ofstream out(path);
  out << content << "\n";
  out.flush();
  if (!out.good()) {
    std::fprintf(stderr, "error: could not write %s\n", path.c_str());
    std::exit(1);
  }
  std::printf("  wrote %s\n", path.c_str());
}

// Simple aligned table printer.
class Table {
 public:
  explicit Table(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  void add_row(std::vector<std::string> row) { rows_.push_back(std::move(row)); }

  void print() const {
    std::vector<std::size_t> width(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c)
      width[c] = headers_[c].size();
    for (const auto& r : rows_)
      for (std::size_t c = 0; c < r.size() && c < width.size(); ++c)
        width[c] = std::max(width[c], r[c].size());
    auto line = [&](const std::vector<std::string>& r) {
      for (std::size_t c = 0; c < r.size(); ++c)
        std::printf("%-*s  ", static_cast<int>(width[c]), r[c].c_str());
      std::printf("\n");
    };
    line(headers_);
    std::size_t total = 0;
    for (std::size_t c = 0; c < width.size(); ++c) total += width[c] + 2;
    std::printf("%s\n", std::string(total, '-').c_str());
    for (const auto& r : rows_) line(r);
  }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace galactos::bench
