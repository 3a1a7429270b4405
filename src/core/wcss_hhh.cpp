#include "core/wcss_hhh.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "net/key_domain.hpp"
#include "wire/codec.hpp"

namespace hhh {

WcssSlidingHhhDetector::WcssSlidingHhhDetector(const Params& params) : params_(params) {
  if (params_.hierarchy.family() != AddressFamily::kIpv4) {
    throw std::invalid_argument("WcssSlidingHhhDetector: IPv4 hierarchies only");
  }
  WindowedSpaceSaving::Params wp;
  wp.window = params.window;
  wp.frames = params.frames;
  wp.counters_per_frame = params.counters_per_level;
  levels_.reserve(params_.hierarchy.levels());
  for (std::size_t i = 0; i < params_.hierarchy.levels(); ++i) levels_.emplace_back(wp);
}

void WcssSlidingHhhDetector::offer(const PacketRecord& packet) {
  if (packet.family() != AddressFamily::kIpv4) return;
  for (std::size_t level = 0; level < levels_.size(); ++level) {
    levels_[level].update(V4Domain::key(packet.src(), params_.hierarchy.length_at(level)),
                          packet.ip_len, packet.ts);
  }
}

void WcssSlidingHhhDetector::offer_batch(std::span<const PacketRecord> packets) {
  // Same loop body as offer(): per-level hierarchy lengths resolve once
  // per packet inside a single TU-local loop the compiler can keep hot,
  // instead of one out-of-line call per packet from the stage.
  for (const PacketRecord& packet : packets) {
    if (packet.family() != AddressFamily::kIpv4) continue;
    for (std::size_t level = 0; level < levels_.size(); ++level) {
      levels_[level].update(V4Domain::key(packet.src(), params_.hierarchy.length_at(level)),
                            packet.ip_len, packet.ts);
    }
  }
}

HhhSet WcssSlidingHhhDetector::query(TimePoint now, double phi) {
  HhhSet result;
  const double total = levels_.front().window_total(now);
  result.total_bytes = static_cast<std::uint64_t>(total);
  const double threshold = std::max(phi * total, 1.0);
  result.threshold_bytes = static_cast<std::uint64_t>(std::ceil(threshold));

  ConditionedSelector select(result, threshold);
  for (auto& level : levels_) {
    // Candidates well below the threshold cannot become HHHs (conditioned
    // counts only shrink), so enumerate at half the threshold for margin
    // against per-frame estimation error.
    for (const auto& candidate : level.candidates_at_least(threshold * 0.5, now)) {
      select.consider(V4Domain::prefix(candidate.key), candidate.estimate);
    }
  }
  return result;
}

void WcssSlidingHhhDetector::merge_from(const WindowedDetector& other) {
  const auto* peer = dynamic_cast<const WcssSlidingHhhDetector*>(&other);
  if (peer == nullptr) {
    throw std::invalid_argument("WcssSlidingHhhDetector::merge_from: cannot merge '" +
                                other.name() + "' into 'wcss'");
  }
  if (peer->params_.hierarchy != params_.hierarchy ||
      peer->params_.window != params_.window || peer->params_.frames != params_.frames ||
      peer->params_.counters_per_level != params_.counters_per_level) {
    throw std::invalid_argument("WcssSlidingHhhDetector::merge_from: Params mismatch");
  }
  for (std::size_t level = 0; level < levels_.size(); ++level) {
    levels_[level].merge_from(peer->levels_[level]);
  }
}

std::size_t WcssSlidingHhhDetector::memory_bytes() const noexcept {
  std::size_t sum = 0;
  for (const auto& level : levels_) sum += level.memory_bytes();
  return sum;
}

TimePoint WcssSlidingHhhDetector::high_watermark() const noexcept {
  TimePoint latest;
  for (const auto& level : levels_) latest = std::max(latest, level.high_watermark());
  return latest;
}

void WcssSlidingHhhDetector::save_state(wire::Writer& w) const {
  wire::write_hierarchy(w, params_.hierarchy);
  w.i64(params_.window.ns());
  w.u64(params_.frames);
  w.u64(params_.counters_per_level);
  for (const auto& level : levels_) level.save_state(w);
}

WcssSlidingHhhDetector::Params WcssSlidingHhhDetector::read_params(wire::Reader& r) {
  Params p;
  p.hierarchy = wire::read_hierarchy(r);
  p.window = Duration::nanos(r.i64());
  p.frames = r.u64();
  p.counters_per_level = r.u64();
  // Bounds generous for real deployments but small enough that a crafted
  // frame cannot drive huge allocations at construction time.
  wire::check(p.window.ns() > 0 && p.frames > 0 && p.frames <= (1u << 12) &&
                  p.counters_per_level > 0 && p.counters_per_level <= (1u << 20),
              wire::WireError::kBadValue, "WcssSlidingHhhDetector params out of range");
  return p;
}

void WcssSlidingHhhDetector::load_state(wire::Reader& r) {
  const Params p = read_params(r);
  wire::check(p.hierarchy == params_.hierarchy && p.window == params_.window &&
                  p.frames == params_.frames &&
                  p.counters_per_level == params_.counters_per_level,
              wire::WireError::kParamsMismatch, "WcssSlidingHhhDetector params mismatch");
  for (auto& level : levels_) level.load_state(r);
}

std::unique_ptr<WcssSlidingHhhDetector> WcssSlidingHhhDetector::deserialize(
    wire::Reader& r) {
  auto detector = std::make_unique<WcssSlidingHhhDetector>(read_params(r));
  for (auto& level : detector->levels_) level.load_state(r);
  return detector;
}

}  // namespace hhh
