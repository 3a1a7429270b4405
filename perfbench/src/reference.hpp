// The reference check behind epoch_error_ratio, reveal_f1 and hidden_f1.
//
//  * Exact reference: per epoch, exact HHH sets over the unsplit traffic
//    and over each vantage's share, computed straight from the pcaps with
//    PcapReader (not through the pipeline under test). Disjoint workloads
//    use the exact engine per 1 s window; the sliding workload uses the
//    rolling per-step buckets of SlidingWindowHhhDetector over the same
//    (end - 10 s, end] windows, extracted at the collector's threshold.
//  * Offline merge: per epoch, a MergeLedger over the frames the vantages
//    actually sent (captured by the sink), folded in the collector's
//    arrival order. The collector's output must equal it exactly.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"
#include "deploy.hpp"
#include "spans.hpp"

namespace perfbench {

/// Exact sets per epoch index.
struct ExactReference {
  std::vector<hhh::HhhSet> merged;                     ///< [epoch] unsplit traffic
  std::vector<std::vector<hhh::HhhSet>> local;         ///< [vantage][epoch]
  std::vector<std::vector<hhh::PrefixKey>> hidden;     ///< [epoch] merged - U local
};

/// Compute the exact reference of `wl` over its pcaps.
ExactReference exact_reference(const Workload& wl, const std::vector<std::string>& pcaps,
                               const hhh::service::Thresholds& thresholds);

/// The frames one capture replay sent, by vantage and epoch index.
struct Capture {
  std::vector<std::map<std::int64_t, std::vector<std::uint8_t>>> frames;  ///< [vantage]
  std::vector<std::map<std::int64_t, std::uint64_t>> hashes;              ///< xxhash64

  static Capture read(const std::string& dir, std::size_t vantages);
};

/// Offline merges of captured frames, memoized per (epoch, fold order).
class OfflineLedger {
 public:
  OfflineLedger(const Capture& capture, hhh::service::Thresholds thresholds,
                SpanRecorder* spans)
      : capture_(capture), thresholds_(thresholds), spans_(spans) {}

  struct Result {
    hhh::service::LedgerReport report;
    std::vector<hhh::HhhSet> local;  ///< fold() results, in fold order
    bool ok = false;                 ///< every frame present and decodable
  };

  /// The merge of epoch `index` folded in `order` (vantage names).
  const Result& merge(std::int64_t index, const std::vector<std::string>& order);

  /// Same, with `frame` standing in for vantage `v`'s frame (self-test).
  Result merge_with(std::int64_t index, const std::vector<std::string>& order,
                    std::size_t v, const std::vector<std::uint8_t>& frame) const;

 private:
  Result compute(std::int64_t index, const std::vector<std::string>& order,
                 const std::vector<std::uint8_t>* override_frame, std::size_t override_v,
                 SpanRecorder* spans) const;

  const Capture& capture_;
  hhh::service::Thresholds thresholds_;
  SpanRecorder* spans_;
  std::map<std::pair<std::int64_t, std::vector<std::string>>, Result> memo_;
};

/// Per-replay outcome of the check.
struct EpochCheck {
  std::size_t expected = 0;          ///< epochs the replay should reveal
  std::size_t errors = 0;            ///< missing, incomplete, extra or wrong
  std::vector<std::int64_t> bad;     ///< epoch indices in error
};

/// Check one replay's revealed epochs: against the captured frames and
/// their offline merge when `capture` is given, and against the exact
/// reference byte for byte when `exact` is given (exact stages).
EpochCheck check_replay(const Workload& wl, const ReplayResult& replay, const Capture* capture,
                        OfflineLedger* offline, const ExactReference* exact);

/// F1 over (epoch, prefix) pairs, pooled over every given replay.
/// Returns {reveal_f1, hidden_f1}; both-empty counts as 1.0.
std::pair<double, double> score_f1(const std::vector<const ReplayResult*>& replays,
                                   const ExactReference& ref);

/// F1 of each vantage's local (fold) sets against its exact local sets,
/// over the capture replay's fold order.
std::vector<double> local_f1(const ReplayResult& replay, OfflineLedger& offline,
                             const ExactReference& ref);

/// The checker's self-test: a dropped epoch and a corrupted frame value
/// must both be reported as errors. Returns "" when both are caught,
/// else what slipped through.
std::string self_test(const Workload& wl, const ReplayResult& replay, const Capture& capture,
                      OfflineLedger& offline, const ExactReference* exact);

/// One-sided 95% upper confidence bound (Clopper-Pearson) on a rate with
/// `errors` seen in `n` trials.
double upper_bound_95(std::size_t errors, std::size_t n);

}  // namespace perfbench
