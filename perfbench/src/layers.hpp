// The traced run's per-layer metrics: span self times and counts at each
// layer boundary, aggregated over the traced replays.
#pragma once

#include <vector>

#include "common.hpp"
#include "deploy.hpp"
#include "spans.hpp"

namespace perfbench {

/// Every per-layer metric of BENCHMARK.json, from the traced replays, the
/// untraced replays (for trace.overhead_pct) and the spans of the
/// collector-merge replay. Also prints the "layers explain the total"
/// line and the program's own series beside the benchmark's spans.
std::vector<Metric> layer_metrics(const std::vector<ReplayResult>& traced,
                                  const std::vector<ReplayResult>& plain,
                                  const SpanRecorder& collector_spans);

}  // namespace perfbench
