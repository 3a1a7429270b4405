/// \file
/// WindowedDetector — the one interface of the mergeable sliding-window
/// HHH detectors (the paper's Fig. 1b model): WcssSlidingHhhDetector
/// (per-level WCSS summaries, the paper's ref. [1]; core/wcss_hhh.hpp)
/// and the Memento family (one sampled level per packet, arXiv
/// 1810.02899; core/memento_hhh.hpp).
///
/// It is what the pipeline's windowed stage, the merge ledger's groups
/// and the frame ring hold, so one code path serves every sliding
/// snapshot kind; wire::save_windowed / wire::load_windowed frame it.
/// The per-packet hot loops live in the concrete offer_batch(): the
/// interface costs one virtual call per batch, not per packet.
///
/// The exact sliding detector and TDBF are not WindowedDetectors: neither
/// can merge a peer's state, which every holder of this interface needs.
#pragma once

#include <cstddef>
#include <span>
#include <string>

#include "core/hhh_types.hpp"
#include "net/packet.hpp"
#include "util/sim_time.hpp"
#include "wire/fwd.hpp"

namespace hhh {

/// A mergeable, serializable sliding-window HHH detector.
class WindowedDetector {
 public:
  /// Detectors are owned polymorphically by stages, ledgers and rings.
  virtual ~WindowedDetector() = default;

  /// Account one packet; timestamps must be non-decreasing. Packets of
  /// an address family the detector does not measure are ignored.
  virtual void offer(const PacketRecord& packet) = 0;

  /// Account a timestamp-ordered run of packets; same state (or, for
  /// sampling detectors, the same distribution) as the offer() loop.
  virtual void offer_batch(std::span<const PacketRecord> packets) = 0;

  /// HHHs of the trailing window as of `now`, at relative threshold `phi`
  /// (T = phi * window_total(now)), computable at any instant.
  virtual HhhSet query(TimePoint now, double phi) = 0;

  /// Total bytes within the trailing window as of `now` (exact for
  /// Memento, an overestimate for WCSS).
  virtual double window_total(TimePoint now) = 0;

  /// Fold another detector's window state into this one (sharded or
  /// multi-vantage sliding deployments; error bounds sum per level).
  /// Throws std::invalid_argument when `other` is of another kind or
  /// was built with other parameters.
  virtual void merge_from(const WindowedDetector& other) = 0;

  /// Latest instant the window state covers; TimePoint() before any
  /// traffic. The natural query instant for a restored or merged detector.
  virtual TimePoint high_watermark() const noexcept = 0;

  /// Write parameters and full window state to the wire.
  virtual void save_state(wire::Writer& w) const = 0;

  /// Restore state written by save_state() into a detector constructed
  /// with the same parameters; throws wire::WireFormatError on mismatch.
  virtual void load_state(wire::Reader& r) = 0;

  /// Heap footprint — bounded by the parameters, not by traffic volume.
  virtual std::size_t memory_bytes() const noexcept = 0;

  /// Stable kind name: "wcss", "memento" or "memento_v6". Doubles as the
  /// merge-compatibility key of collector groups.
  virtual std::string name() const = 0;
};

}  // namespace hhh
