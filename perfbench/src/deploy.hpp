// One replay of a workload, deployed the way a fleet runs it: per vantage
// make_pcap_source -> Pipeline (stage + window policy) -> a sink calling
// VantageClient::send_epoch over a Unix-domain socket -> an in-process
// CollectorService whose epoch callback is the reveal.
//
// Closed loop: each vantage's pipeline pulls its next batch only after the
// previous one is accounted (Pipeline::run is synchronous), one thread and
// one socket per vantage. Vantage 0 runs on the calling thread and the
// collector's poll loop on one more, so a replay uses at most
// vantages + 1 threads of its own (shard workers belong to the engine).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "pipeline/source.hpp"
#include "service/collectord.hpp"
#include "spans.hpp"

namespace perfbench {

/// How a replay is run.
struct ReplayConfig {
  const Workload* wl = nullptr;
  StageKind stage = StageKind::kExact;  ///< usually wl->stage
  std::vector<std::string> pcaps;       ///< one per vantage
  hhh::service::Thresholds thresholds;
  std::string socket_path;              ///< collector's Unix socket
  bool traced = false;                  ///< wrap the layers in span decorators
  std::string capture_dir;              ///< write every sent frame here ("" = off)
  bool setup_only = false;              ///< build everything, time it, tear down
};

/// What one vantage did during a replay.
struct VantageRecord {
  SpanRecorder spans;                       ///< traced replays only
  hhh::pipeline::PcapSourceStats source;    ///< decode accounting
  std::uint64_t packets = 0;                ///< packets handed to the pipeline
  std::int64_t first_handover_ns = 0;       ///< wall time of the first batch
  /// Per 1 s step: wall time the source handed over the last batch that
  /// held a packet of that step.
  std::vector<std::int64_t> handover_ns;
  /// Per epoch index: wall time send_epoch returned.
  std::vector<std::int64_t> send_done_ns;
  /// Per epoch index: xxhash64 of the frame sent.
  std::vector<std::uint64_t> frame_hash;
  std::size_t max_state_bytes = 0;          ///< memory_bytes() at close (traced)
  std::uint64_t frames_sent = 0;
  std::uint64_t reconnects = 0;
  bool acked = false;                       ///< finish() saw the collector's ack
  std::string error;                        ///< exception text, "" when clean
};

/// One epoch as the collector revealed it.
struct EpochOutcome {
  std::int64_t index = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t reveal_ns = 0;               ///< wall time of the epoch callback
  bool grace_expired = false;
  std::size_t missing = 0;                  ///< vantages that never contributed
  std::vector<std::string> arrival;         ///< contributing vantages, fold order
  hhh::service::LedgerReport report;
};

/// Sum and count of one of the program's own histogram series.
struct ProgramSeries {
  double sum = 0;
  double count = 0;
  double mean_ms() const { return count > 0 ? sum / count * 1e-6 : 0.0; }
};

/// Everything a replay measured.
struct ReplayResult {
  double setup_s = 0;
  std::int64_t first_ns = 0;        ///< first packet handed to any pipeline
  std::int64_t last_reveal_ns = 0;  ///< collector revealed the last epoch
  std::uint64_t packets = 0;
  std::vector<EpochOutcome> epochs;
  std::vector<VantageRecord> vantages;
  hhh::service::CollectorStats collector;
  ProgramSeries window_close;       ///< hhh_pipeline_window_close_ns
  ProgramSeries sharded_snapshot;   ///< hhh_sharded_snapshot_ns
  ProgramSeries epoch_close;        ///< hhh_collector_epoch_close_latency_ns

  double wall_s() const { return static_cast<double>(last_reveal_ns - first_ns) * 1e-9; }
  double e2e_pps() const { return wall_s() > 0 ? static_cast<double>(packets) / wall_s() : 0; }
  /// Per revealed epoch: handover of its last packet's batch (latest
  /// across vantages) to the epoch callback, in ms.
  std::vector<double> reveal_latency_ms() const;
  /// Per revealed epoch: first vantage's send_epoch return to the epoch
  /// callback, in ms.
  std::vector<double> straggler_wait_ms() const;
};

/// e2e_pps of each replay.
std::vector<double> e2e_rates(const std::vector<ReplayResult>& runs);

/// Name of vantage `v` in the collector's stream protocol.
std::string vantage_name(std::size_t v);
/// Path of vantage `v`'s captured frame stream.
std::string capture_path(const std::string& dir, std::size_t v);

/// Run one replay.
ReplayResult replay(const ReplayConfig& config);

}  // namespace perfbench
