#include "common.hpp"

#include <fstream>
#include <stdexcept>

#include "core/engine_registry.hpp"
#include "core/memento_hhh.hpp"
#include "core/sharded_engine.hpp"
#include "net/hierarchy.hpp"

namespace perfbench {

using namespace hhh;

const std::vector<Workload>& workloads() {
  // Trace sizes: each replay must reveal >= 100 epochs on its own (so the
  // latency p90 of one replay already has >= 10 samples beyond it), and
  // the rates are chosen so one replay takes 1-3 s on a 4-core host.
  static const std::vector<Workload> list = {
      {.name = "sharded_exact_close",
       .scenario = "zipf_mild",
       .vantages = 1,
       .stage = StageKind::kShardedExact,
       .sliding = false,
       .trace_seconds = 40,
       .background_pps = 20000,
       .phi = 0.05,
       .absolute_threshold = false},
      {.name = "rhhh_carpet_fleet",
       .scenario = "ddos_carpet",
       .vantages = 3,
       .stage = StageKind::kRhhh,
       .sliding = false,
       .trace_seconds = 120,
       .background_pps = 15000,
       .phi = 0.05,
       .absolute_threshold = true},
      {.name = "memento_sliding_fleet",
       .scenario = "zipf_steep",
       .vantages = 2,
       .stage = StageKind::kMemento,
       .sliding = true,
       .trace_seconds = 120,
       .background_pps = 20000,
       .phi = 0.05,
       .absolute_threshold = true},
  };
  return list;
}

const Workload* find_workload(const std::string& name) {
  for (const auto& wl : workloads()) {
    if (wl.name == name) return &wl;
  }
  return nullptr;
}

std::unique_ptr<pipeline::MeasurementStage> make_stage(StageKind kind) {
  switch (kind) {
    case StageKind::kShardedExact:
      return pipeline::make_engine_stage(
          make_sharded_exact_engine(Hierarchy::byte_granularity(), 4));
    case StageKind::kExact:
      return pipeline::make_engine_stage(make_exact_engine(Hierarchy::byte_granularity()));
    case StageKind::kRhhh:
      return pipeline::make_engine_stage(find_engine("rhhh")->make());
    case StageKind::kMemento:
      return pipeline::make_memento_stage(std::make_unique<MementoHhhDetector>(
          MementoHhhParams{.window = Duration::nanos(kSlidingWindowNs)}));
  }
  throw std::logic_error("make_stage: unknown stage kind");
}

std::unique_ptr<pipeline::WindowPolicy> make_policy(const Workload& wl) {
  if (wl.sliding) {
    return pipeline::make_sliding_policy(Duration::nanos(kSlidingWindowNs),
                                         Duration::nanos(kStepNs));
  }
  return pipeline::make_disjoint_policy(Duration::nanos(kStepNs));
}

double Manifest::number(const std::string& key) const {
  const auto it = values.find(key);
  if (it == values.end()) throw std::runtime_error("manifest: missing key " + key);
  return std::stod(it->second);
}

void Manifest::write(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  for (const auto& [k, v] : values) out << k << '=' << v << '\n';
  if (!out) throw std::runtime_error("manifest: cannot write " + path);
}

Manifest Manifest::read(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("manifest: cannot read " + path);
  Manifest m;
  std::string line;
  while (std::getline(in, line)) {
    const auto eq = line.find('=');
    if (eq != std::string::npos) m.values[line.substr(0, eq)] = line.substr(eq + 1);
  }
  return m;
}

service::Thresholds thresholds_of(const Workload& wl, const Manifest& manifest) {
  service::Thresholds t;
  t.phi = wl.phi;
  if (wl.absolute_threshold) t.threshold_bytes = manifest.number("threshold_bytes");
  return t;
}

std::string pcap_path(const std::string& dir, std::size_t v) {
  return dir + "/vantage" + std::to_string(v) + ".pcap";
}

}  // namespace perfbench
