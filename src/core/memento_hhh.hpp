/// \file
/// Sliding-window HHH at production cost: per-level Memento summaries
/// plus RHHH-style level sampling (the paper's ref-[1] line of work,
/// continued by Memento/H-Memento — arXiv 1810.02899).
///
/// This detector lifts sketch/memento.hpp to HHHs exactly the way RHHH
/// lifts Space-Saving (core/rhhh.hpp): one windowed summary per hierarchy
/// level, ONE level sampled uniformly per packet (O(1) per packet
/// regardless of hierarchy depth — H-Memento's data-plane trick), level
/// estimates scaled by H at query time, and bottom-up conditioned-count
/// extraction across levels. Window totals stay exact: every packet lands
/// in a per-frame byte-total ring regardless of which level its update
/// sampled, so phi-relative thresholds are computed against the true
/// trailing volume.
///
/// Against WcssSlidingHhhDetector this keeps the same sharp window
/// semantics and epsilon class while replacing O(H) per-packet updates
/// with per-update frame-ring scans by one sampled amortized-O(1) update
/// — the `sliding` section of bench/throughput measures the gap. Unlike
/// WCSS (IPv4-only) it is family-generic: `MementoHhhDetector` (v4) and
/// `MementoHhhV6Detector` (v6) instantiate one template.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/hhh_types.hpp"
#include "core/windowed_detector.hpp"
#include "net/hierarchy.hpp"
#include "net/packet.hpp"
#include "sketch/memento.hpp"
#include "util/random.hpp"
#include "util/sim_time.hpp"
#include "wire/fwd.hpp"

namespace hhh {

/// Construction-time configuration shared by both family instantiations.
struct MementoHhhParams {
  Hierarchy hierarchy = Hierarchy::byte_granularity();  ///< prefix levels
  Duration window = Duration::seconds(10);  ///< trailing window length W
  std::size_t frames = 10;                  ///< sub-frames per window
  std::size_t counters_per_level = 512;     ///< summary capacity per level
  std::uint64_t seed = 0x3E3E'0001;         ///< level-sampler RNG seed
};

/// The concrete per-family detector (see file header); one
/// WindowedDetector implementation.
template <typename D>
class BasicMementoHhhDetector final : public WindowedDetector {
 public:
  /// Construction-time configuration (shared across families).
  using Params = MementoHhhParams;

  /// Detector with one BasicMementoSummary per hierarchy level. The
  /// hierarchy family must match the domain's; throws
  /// std::invalid_argument otherwise.
  explicit BasicMementoHhhDetector(const Params& params);

  void offer(const PacketRecord& packet) override;
  void offer_batch(std::span<const PacketRecord> packets) override;
  HhhSet query(TimePoint now, double phi) override;
  double window_total(TimePoint now) override;
  /// Throws std::invalid_argument unless `other` is a Memento detector
  /// of the same family and geometry (seeds may differ).
  void merge_from(const WindowedDetector& other) override;
  TimePoint high_watermark() const noexcept override;
  void save_state(wire::Writer& w) const override;
  void load_state(wire::Reader& r) override;
  std::size_t memory_bytes() const noexcept override;
  std::string name() const override;
  /// The construction parameters (merge compatibility checks).
  const MementoHhhParams& params() const noexcept { return params_; }

 private:
  friend std::unique_ptr<WindowedDetector> deserialize_memento_detector(wire::Reader& r);

  void note_packet(TimePoint ts, double bytes) noexcept;
  std::int64_t frame_of(TimePoint t) const noexcept { return t.ns() / frame_len_.ns(); }
  void read_state(wire::Reader& r);

  Params params_;
  Rng rng_;
  Duration frame_len_;
  std::vector<BasicMementoSummary<D>> levels_;
  // Exact per-frame byte totals (every packet, independent of the sampled
  // level): the threshold denominator is not subject to sampling noise.
  std::int64_t current_frame_ = -1;
  std::vector<std::int64_t> total_frame_ids_;
  std::vector<double> total_frame_bytes_;
};

/// The IPv4 detector (name "memento").
using MementoHhhDetector = BasicMementoHhhDetector<V4Domain>;
/// The IPv6 detector (name "memento_v6").
using MementoHhhV6Detector = BasicMementoHhhDetector<V6Domain>;

extern template class BasicMementoHhhDetector<V4Domain>;
extern template class BasicMementoHhhDetector<V6Domain>;

/// Construct a detector directly from a save_state() payload: reads the
/// params header and picks the family instantiation — the collector's and
/// frame ring's entry point for kMementoDetector snapshots.
std::unique_ptr<WindowedDetector> deserialize_memento_detector(wire::Reader& r);

}  // namespace hhh
