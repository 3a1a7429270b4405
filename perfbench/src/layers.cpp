#include "layers.hpp"

#include <algorithm>
#include <cstdio>
#include <map>

namespace perfbench {

namespace {

/// Per-epoch sums of one collector-side span, in ms.
std::vector<double> per_epoch_ms(const SpanRecorder& rec, SpanName name) {
  std::map<std::int64_t, double> sums;
  for (const Span& s : rec.spans()) {
    if (s.name == name) sums[s.epoch] += static_cast<double>(s.duration_ns()) * 1e-6;
  }
  std::vector<double> out;
  for (const auto& [epoch, ms] : sums) out.push_back(ms);
  return out;
}

void add(ProgramSeries& to, const ProgramSeries& from) {
  to.sum += from.sum;
  to.count += from.count;
}

double mean_ms(const SpanStats& s) {
  return s.durations_ms.empty() ? 0.0
                                : s.total_ns * 1e-6 / static_cast<double>(s.durations_ms.size());
}

}  // namespace

std::vector<Metric> layer_metrics(const std::vector<ReplayResult>& traced,
                                  const std::vector<ReplayResult>& plain,
                                  const SpanRecorder& collector_spans) {
  std::vector<const SpanRecorder*> recs;
  double packets = 0, skipped = 0, decoded = 0, frames_sent = 0, frames_accepted = 0,
         reconnects = 0, hidden = 0, epochs = 0;
  std::size_t state_bytes = 0;
  std::vector<double> straggler;
  ProgramSeries close_prog, snapshot_prog, epoch_close_prog;
  for (const ReplayResult& r : traced) {
    for (const VantageRecord& v : r.vantages) {
      recs.push_back(&v.spans);
      packets += static_cast<double>(v.packets);
      skipped += static_cast<double>(v.source.skipped_non_ip + v.source.skipped_malformed);
      decoded += static_cast<double>(v.source.decoded_v4 + v.source.decoded_v6);
      frames_sent += static_cast<double>(v.frames_sent);
      reconnects += static_cast<double>(v.reconnects);
      state_bytes = std::max(state_bytes, v.max_state_bytes);
    }
    frames_accepted += static_cast<double>(r.collector.frames_received);
    for (const EpochOutcome& e : r.epochs) hidden += static_cast<double>(e.report.hidden.size());
    epochs += static_cast<double>(r.epochs.size());
    const auto w = r.straggler_wait_ms();
    straggler.insert(straggler.end(), w.begin(), w.end());
    add(close_prog, r.window_close);
    add(snapshot_prog, r.sharded_snapshot);
    add(epoch_close_prog, r.epoch_close);
  }
  const auto st = [&](SpanName n) { return span_stats(recs, n); };
  const SpanStats source = st(SpanName::kSourceBatch), run = st(SpanName::kPipelineRun),
                  ingest = st(SpanName::kIngest), close = st(SpanName::kClose),
                  report = st(SpanName::kReport), reset = st(SpanName::kReset),
                  snapshot = st(SpanName::kSnapshot), send = st(SpanName::kSend),
                  finish = st(SpanName::kFinish), vantage = st(SpanName::kVantage);
  const auto n_of = [](const SpanStats& s) { return s.durations_ms.size(); };
  const auto per_pkt = [&](double ns) { return packets > 0 ? ns / packets : 0.0; };
  const auto share = [&](double ns) {
    return vantage.total_ns > 0 ? 100.0 * ns / vantage.total_ns : 0.0;
  };
  const std::vector<double> decode_ms = per_epoch_ms(collector_spans, SpanName::kDecode);
  const std::vector<double> fold_ms = per_epoch_ms(collector_spans, SpanName::kFold);
  const std::vector<double> merge_report_ms =
      per_epoch_ms(collector_spans, SpanName::kLedgerReport);
  const double traced_pps = median(e2e_rates(traced)), plain_pps = median(e2e_rates(plain));

  // Layers explain the total: what of the vantage wall time the named
  // layers' self times do not cover. The rest is the close span's own glue
  // (the sink's bookkeeping) and time outside Pipeline::run and finish().
  const double explained = source.self_ns + run.self_ns + ingest.self_ns + report.self_ns +
                           reset.self_ns + snapshot.self_ns + send.self_ns + finish.self_ns;
  const double unexplained_pct = share(vantage.total_ns - explained);
  std::printf("layers explain the total: vantage wall %.1f ms over %zu vantage run(s); "
              "unexplained %.3f%% (close glue %.3f%%, outside run+finish %.3f%%)\n",
              vantage.total_ns * 1e-6, n_of(vantage), unexplained_pct, share(close.self_ns),
              share(vantage.self_ns));
  std::printf("  self-time shares: source %.1f%%  pipeline %.1f%%  ingest %.1f%%  "
              "report %.1f%%  snapshot %.1f%%  send %.1f%%  reset %.1f%%  finish %.1f%%\n",
              share(source.self_ns), share(run.self_ns), share(ingest.self_ns),
              share(report.self_ns), share(snapshot.self_ns), share(send.self_ns),
              share(reset.self_ns), share(finish.self_ns));
  std::printf("bench vs program: close span mean %.3f ms (n=%zu) | "
              "hhh_pipeline_window_close_ns mean %.3f ms (n=%.0f)\n",
              mean_ms(close), n_of(close), close_prog.mean_ms(), close_prog.count);
  std::printf("bench vs program: report span mean %.3f ms (n=%zu) | "
              "hhh_sharded_snapshot_ns mean %.3f ms (n=%.0f)\n",
              mean_ms(report), n_of(report), snapshot_prog.mean_ms(), snapshot_prog.count);
  double straggler_sum = 0;
  for (double w : straggler) straggler_sum += w;
  std::printf("bench vs program: straggler wait mean %.3f ms (n=%zu) | "
              "hhh_collector_epoch_close_latency_ns mean %.3f ms (n=%.0f)\n",
              straggler.empty() ? 0.0 : straggler_sum / static_cast<double>(straggler.size()),
              straggler.size(), epoch_close_prog.mean_ms(), epoch_close_prog.count);

  return {
      {"source.decode_ns_per_pkt", per_pkt(source.total_ns), "ns", n_of(source)},
      {"source.skipped_ratio", skipped + decoded > 0 ? skipped / (skipped + decoded) : 0.0,
       "fraction", static_cast<std::size_t>(decoded + skipped)},
      {"pipeline.self_ns_per_pkt", per_pkt(run.self_ns), "ns", n_of(run)},
      {"core.ingest_ns_per_pkt", per_pkt(ingest.total_ns), "ns", n_of(ingest)},
      {"core.report_ms_p50", quantile(report.durations_ms, 0.5), "ms", n_of(report)},
      {"core.report_ms_p90", quantile(report.durations_ms, 0.9), "ms", n_of(report)},
      {"core.reset_ms_p50", quantile(reset.durations_ms, 0.5), "ms", n_of(reset)},
      {"core.close_share", share(close.total_ns) / 100.0, "fraction", n_of(close)},
      {"core.state_mib", static_cast<double>(state_bytes) / (1024.0 * 1024.0), "MiB",
       n_of(report)},
      {"wire.snapshot_ms_p50", quantile(snapshot.durations_ms, 0.5), "ms", n_of(snapshot)},
      {"wire.frame_kib_p50", quantile(snapshot.item_counts, 0.5) / 1024.0, "KiB",
       n_of(snapshot)},
      {"wire.serialize_mb_s",
       snapshot.total_ns > 0 ? snapshot.items / snapshot.total_ns * 1e3 : 0.0, "MB/s",
       n_of(snapshot)},
      {"service.vantage.send_ms_p50", quantile(send.durations_ms, 0.5), "ms", n_of(send)},
      {"service.vantage.reconnects", reconnects, "count", recs.size()},
      {"service.collector.decode_ms_p50", quantile(decode_ms, 0.5), "ms", decode_ms.size()},
      {"service.collector.fold_ms_p50", quantile(fold_ms, 0.5), "ms", fold_ms.size()},
      {"service.collector.report_ms_p50", quantile(merge_report_ms, 0.5), "ms",
       merge_report_ms.size()},
      {"service.collector.straggler_wait_ms_p90", quantile(straggler, 0.9), "ms",
       straggler.size()},
      {"service.collector.frames_accepted_ratio",
       frames_sent > 0 ? frames_accepted / frames_sent : 0.0, "fraction",
       static_cast<std::size_t>(frames_sent)},
      {"service.collector.hidden_per_epoch", epochs > 0 ? hidden / epochs : 0.0, "count",
       static_cast<std::size_t>(epochs)},
      {"trace.overhead_pct", traced_pps > 0 ? 100.0 * (plain_pps / traced_pps - 1.0) : 0.0,
       "%", traced.size() + plain.size()},
      {"trace.unexplained_pct", unexplained_pct, "%", n_of(vantage)},
  };
}

}  // namespace perfbench
