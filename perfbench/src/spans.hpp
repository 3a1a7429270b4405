// Span recorder of the traced run. One recorder per thread (a vantage's
// pipeline thread, or the thread replaying the collector's merge), so
// recording takes no lock. Spans stay in memory and are written out once
// the run ends.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

/// The layer boundaries the benchmark times, one per call into a public
/// function of the library (plus the vantage root and the window close
/// that groups report, snapshot, send and reset).
enum class SpanName : std::uint8_t {
  kVantage,        ///< one vantage thread: Pipeline::run + VantageClient::finish
  kPipelineRun,    ///< Pipeline::run
  kSourceBatch,    ///< PacketSource::next_batch
  kIngest,         ///< MeasurementStage::ingest
  kClose,          ///< one window close: report .. sink .. reset
  kReport,         ///< MeasurementStage::report
  kSnapshot,       ///< MeasurementStage::snapshot
  kSend,           ///< VantageClient::send_epoch
  kReset,          ///< MeasurementStage::reset_state
  kFinish,         ///< VantageClient::finish
  kDecode,         ///< service::decode_scope (collector merge replay)
  kFold,           ///< MergeLedger::fold
  kLedgerReport,   ///< MergeLedger::report
  kCount,
};

/// Stable dotted name of a span ("core.ingest", ...).
const char* to_string(SpanName name);

/// One recorded interval.
struct Span {
  SpanName name = SpanName::kVantage;
  std::int32_t parent = -1;   ///< index of the enclosing span, -1 at the root
  std::int64_t epoch = -1;    ///< epoch grid index the work belongs to
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t items = 0;    ///< packets (source, ingest) or bytes (snapshot)
  std::int64_t children_ns = 0;  ///< summed durations of direct children

  std::int64_t duration_ns() const { return end_ns - start_ns; }
  /// The span minus the part of it its children cover.
  std::int64_t self_ns() const { return duration_ns() - children_ns; }
};

/// Single-thread stack of open spans plus the closed record.
class SpanRecorder {
 public:
  /// Open a span nested in the innermost open one; returns its index.
  std::size_t open(SpanName name, std::int64_t epoch = -1);
  /// Close span `index` and any span still open inside it.
  void close(std::size_t index, std::uint64_t items = 0);

  const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Append every span as one TSV row tagged with `who`.
  void write_tsv(std::FILE* out, const std::string& who) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
};

/// RAII span on a possibly-null recorder (null = tracing off).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, SpanName name, std::int64_t epoch = -1)
      : rec_(rec), index_(rec ? rec->open(name, epoch) : 0) {}
  ~ScopedSpan() {
    if (rec_) rec_->close(index_, items_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_items(std::uint64_t items) { items_ = items; }

 private:
  SpanRecorder* rec_;
  std::size_t index_;
  std::uint64_t items_ = 0;
};

/// Per-name aggregate over a set of recorders.
struct SpanStats {
  std::vector<double> durations_ms;  ///< one entry per span
  std::vector<double> item_counts;   ///< one entry per span
  double self_ns = 0;                ///< summed self time
  double total_ns = 0;               ///< summed duration
  double items = 0;                  ///< summed items
};

/// Aggregate every span of `name` across `recorders`.
SpanStats span_stats(const std::vector<const SpanRecorder*>& recorders, SpanName name);

}  // namespace perfbench
