/// \file
/// Sliding-window HHH with bounded state: per-level WCSS-style summaries.
///
/// Reference [1] of the paper (Ben-Basat et al., INFOCOM 2016) gives
/// epsilon-approximate heavy hitters over sliding windows in constant
/// space. This detector lifts that building block to HHHs exactly the way
/// RHHH lifts Space-Saving: one windowed summary per hierarchy level and
/// conditioned-count extraction across levels at query time.
///
/// Against the exact sliding detector this trades ground-truth accuracy for
/// O(levels x frames x counters) state independent of traffic (compare
/// bench/resource); against TDBF-HHH it keeps the sharp window semantics
/// (an event fully expires after W) instead of the exponential taper.
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
#include "sketch/wcss.hpp"
#include "util/sim_time.hpp"
#include "wire/fwd.hpp"

namespace hhh {

/// Sliding-window HHH detector over per-level WCSS summaries; one
/// WindowedDetector implementation.
class WcssSlidingHhhDetector final : public WindowedDetector {
 public:
  /// Construction-time configuration.
  struct Params {
    Hierarchy hierarchy = Hierarchy::byte_granularity();  ///< prefix levels
    Duration window = Duration::seconds(10);  ///< trailing window length
    std::size_t frames = 10;                  ///< sub-frames per window
    std::size_t counters_per_level = 512;     ///< per-frame summary capacity
  };

  /// Detector with one WindowedSpaceSaving per hierarchy level.
  explicit WcssSlidingHhhDetector(const Params& params);

  /// Account one packet; timestamps must be non-decreasing.
  void offer(const PacketRecord& packet) override;

  /// Account a timestamp-ordered run of packets. Byte-identical state to
  /// offering each packet in order — one devirtualized tight loop per
  /// batch, the pipeline sliding stages' ingest path.
  void offer_batch(std::span<const PacketRecord> packets) override;

  /// HHHs of the trailing window as of `now`, at relative threshold `phi`
  /// (T = phi * window volume estimate). Like the exact sliding detector
  /// but computable at any instant with bounded state.
  HhhSet query(TimePoint now, double phi) override;

  /// Overestimate of the trailing window's total bytes.
  double window_total(TimePoint now) override { return levels_.front().window_total(now); }

  /// Fold another detector's per-level window summaries into this one
  /// (WindowedSpaceSaving::merge_from per level). Both detectors must
  /// share Params and be driven by the same simulated clock — the sharded
  /// sliding-window deployment, where each shard sees a hash-partition of
  /// the stream. Error bounds sum per level, exactly as for RHHH merges.
  /// Throws std::invalid_argument on a Params mismatch or when `other`
  /// is not a WCSS detector.
  void merge_from(const WindowedDetector& other) override;

  /// Latest instant every level's window state covers (max of the level
  /// summaries' high watermarks); TimePoint() before any traffic. The
  /// natural query instant for a restored or merged detector.
  TimePoint high_watermark() const noexcept override;

  /// Write params and every level's window state to the wire.
  void save_state(wire::Writer& w) const override;

  /// Restore state written by save_state() into a detector constructed
  /// with the same Params; throws wire::WireFormatError on mismatch.
  void load_state(wire::Reader& r) override;

  /// Construct a detector directly from a save_state() payload (reads
  /// Params from the wire) — the multi-vantage collector's entry point
  /// for sliding-window snapshots.
  static std::unique_ptr<WcssSlidingHhhDetector> deserialize(wire::Reader& r);

  /// Heap footprint of all level summaries (resource accounting).
  std::size_t memory_bytes() const noexcept override;

  /// "wcss".
  std::string name() const override { return "wcss"; }

 private:
  static Params read_params(wire::Reader& r);

  Params params_;
  std::vector<WindowedSpaceSaving> levels_;
};

}  // namespace hhh
