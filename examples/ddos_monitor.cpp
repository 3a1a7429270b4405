// DDoS detection timeline: windowed vs windowless alarms, as three
// pipeline runtimes racing over the same stream.
//
// The intro of the paper motivates HHH detection with DDoS defense. This
// example injects a spoofed-source attack episode into normal traffic and
// races three monitors — each one a pipeline composed from the same parts
// catalogue, differing only in stage + window policy:
//
//  * engine stage x disjoint policy (the deployed practice) — can only
//    raise an alarm when a window closes;
//  * exact sliding stage x sliding policy (step 1 s);
//  * the Memento sliding stage x the same sliding policy — the sliding
//    semantics at production (bounded-state, O(1)-update) cost;
//  * the windowless TDBF stage x a 250 ms query cadence — no boundaries
//    at all.
//
// Printed: the moment each monitor first reports an HHH covering the
// attack prefix, and the detection lag relative to the attack start.
#include <cstdio>
#include <memory>
#include <optional>

#include "core/exact_engine.hpp"
#include "core/memento_hhh.hpp"
#include "pipeline/pipeline.hpp"
#include "trace/synthetic_trace.hpp"
#include "util/strings.hpp"

using namespace hhh;

namespace {

bool covers_attack(const HhhSet& set, PrefixKey attack) {
  for (const auto& item : set.items()) {
    // The attack prefix itself, anything inside it, or a covering aggregate
    // no coarser than /8. The root (0.0.0.0/0) covers everything and must
    // not count as detection.
    if (attack.contains(item.prefix)) return true;
    if (item.prefix.contains(attack) && item.prefix.length() >= 8) return true;
  }
  return false;
}

/// Run one monitor pipeline over a fresh replay of `config`, returning
/// the end instant of the first report covering the attack prefix.
std::optional<TimePoint> first_alarm(const TraceConfig& config,
                                     std::unique_ptr<pipeline::MeasurementStage> stage,
                                     std::unique_ptr<pipeline::WindowPolicy> policy,
                                     double phi, PrefixKey attack) {
  std::optional<TimePoint> alarm;
  pipeline::PipelineConfig pc;
  pc.phi = phi;
  pc.finish_at = TimePoint() + config.duration;
  pipeline::Pipeline pipe(pipeline::make_synthetic_source(config), std::move(stage),
                          std::move(policy), pc);
  pipe.add_sink(pipeline::make_callback_sink([&](const WindowReport& r) {
    if (!alarm && covers_attack(r.hhhs, attack)) alarm = r.end;
  }));
  pipe.run();
  return alarm;
}

}  // namespace

int main() {
  const Duration window = Duration::seconds(10);
  const double phi = 0.05;

  // Normal traffic + an attack starting mid-window at t=33s: 6000 pps of
  // spoofed UDP from one /16 toward a single victim.
  TraceConfig config = TraceConfig::caida_like_day(2, Duration::seconds(60), 2000.0);
  DdosEpisode attack;
  attack.start = TimePoint::from_seconds(33.0);
  attack.duration = Duration::seconds(20);
  attack.pps = 6000.0;
  attack.source_prefix = *Ipv4Prefix::parse("198.18.0.0/16");
  attack.target = Ipv4Address::of(203, 0, 113, 10);
  config.episodes.push_back(attack);

  std::printf("attack: %s -> %s at %.0f pps, starts t=%.1fs (mid-window for W=10s)\n\n",
              attack.source_prefix.to_string().c_str(), attack.target.to_string().c_str(),
              attack.pps, attack.start.to_seconds());

  const PrefixKey attack_prefix{attack.source_prefix};

  // The synthetic generator is deterministic, so each monitor replays the
  // byte-identical stream from its own source.
  const auto t_disjoint = first_alarm(
      config,
      pipeline::make_engine_stage(make_exact_engine(Hierarchy::byte_granularity())),
      pipeline::make_disjoint_policy(window), phi, attack_prefix);

  const auto t_sliding = first_alarm(
      config,
      pipeline::make_sliding_exact_stage(
          {.window = window, .step = Duration::seconds(1), .phi = phi}),
      pipeline::make_sliding_policy(window, Duration::seconds(1)), phi, attack_prefix);

  const auto t_memento = first_alarm(
      config,
      pipeline::make_windowed_stage(std::make_unique<MementoHhhDetector>(
          MementoHhhParams{.window = window, .frames = 10})),
      pipeline::make_sliding_policy(window, Duration::seconds(1)), phi, attack_prefix);

  const auto t_tdbf = first_alarm(
      config, pipeline::make_tdbf_stage(TimeDecayingHhhDetector::for_window(window)),
      pipeline::make_query_cadence_policy(Duration::millis(250)), phi, attack_prefix);

  const auto report = [&](const char* name, const std::optional<TimePoint>& t) {
    if (t) {
      std::printf("%-28s first alarm at t=%6.2fs  (lag %5.2fs after attack start)\n", name,
                  t->to_seconds(), (*t - attack.start).to_seconds());
    } else {
      std::printf("%-28s never alarmed\n", name);
    }
  };
  report("disjoint windows (W=10s):", t_disjoint);
  report("sliding window (step 1s):", t_sliding);
  report("memento sliding (step 1s):", t_memento);
  report("tdbf windowless (250ms):", t_tdbf);

  std::printf("\nthe windowless monitor needs no boundary to close before it can react —\n"
              "its alarm lag is bounded by the query cadence plus the time the attack\n"
              "needs to accumulate phi of the decayed volume, not by window alignment.\n");
  return 0;
}
