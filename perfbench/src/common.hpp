// Shared definitions of the end-to-end reveal benchmark: the workload
// table, the trace manifest, clocks and small statistics helpers.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "pipeline/stage.hpp"
#include "pipeline/window_policy.hpp"
#include "service/merge.hpp"
#include "util/sim_time.hpp"

namespace perfbench {

/// Report cadence of every workload: the collector's epoch grid.
inline constexpr std::int64_t kStepNs = 1'000'000'000;
/// Trailing window of the sliding workload.
inline constexpr std::int64_t kSlidingWindowNs = 10'000'000'000;

/// The measurement a vantage runs.
enum class StageKind {
  kShardedExact,  ///< make_sharded_exact_engine(byte_granularity, 4)
  kExact,         ///< make_exact_engine — the single-thread baseline
  kRhhh,          ///< the engine registry's "rhhh" configuration
  kMemento,       ///< MementoHhhDetector{window = 10 s}
};

/// One benchmark workload (see NOTES.md for why each exists).
struct Workload {
  std::string name;
  std::string scenario;        ///< scenario-library preset
  std::size_t vantages = 1;    ///< pcap files / pipelines / sockets
  StageKind stage = StageKind::kExact;
  bool sliding = false;        ///< sliding 10 s / 1 s policy, else disjoint 1 s
  std::int64_t trace_seconds = 0;
  double background_pps = 0;   ///< scenario rate parameter
  /// Relative phi (single vantage) or, with absolute_threshold, the share
  /// of the mean per-epoch volume that becomes the absolute threshold.
  double phi = 0.05;
  bool absolute_threshold = false;

  /// Epochs one replay reveals.
  std::int64_t epochs() const {
    return sliding ? trace_seconds - kSlidingWindowNs / kStepNs + 1 : trace_seconds;
  }
};

/// Every workload, in BENCHMARK.json order.
const std::vector<Workload>& workloads();
/// Workload by name, or nullptr.
const Workload* find_workload(const std::string& name);

/// A fresh measurement stage of `kind`.
std::unique_ptr<hhh::pipeline::MeasurementStage> make_stage(StageKind kind);
/// The workload's report schedule.
std::unique_ptr<hhh::pipeline::WindowPolicy> make_policy(const Workload& wl);

/// What `perfbench gen` wrote next to the pcaps (key=value lines).
struct Manifest {
  std::map<std::string, std::string> values;
  double number(const std::string& key) const;
  void write(const std::string& path) const;
  static Manifest read(const std::string& path);
};

/// The thresholds the vantages' pipelines and the collector apply.
hhh::service::Thresholds thresholds_of(const Workload& wl, const Manifest& manifest);

/// Path of vantage `v`'s pcap inside a data directory.
std::string pcap_path(const std::string& dir, std::size_t v);

/// Monotonic wall clock in ns.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::size_t samples = 0;
};

/// Linear-interpolated quantile (q in [0,1]) — the same rule as numpy's
/// default; 0 for an empty sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

}  // namespace perfbench
