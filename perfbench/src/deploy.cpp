#include "deploy.hpp"

#include <atomic>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <thread>

#include "obs/metrics.hpp"
#include "pipeline/pipeline.hpp"
#include "pipeline/sink.hpp"
#include "service/vantage_client.hpp"
#include "util/hash.hpp"

namespace perfbench {

using namespace hhh;

namespace {

std::int64_t step_of(TimePoint t) { return t.ns() / kStepNs; }

void store_at(std::vector<std::int64_t>& v, std::int64_t i, std::int64_t value) {
  if (i < 0) return;
  const auto idx = static_cast<std::size_t>(i);
  if (idx >= v.size()) v.resize(idx + 1, 0);
  v[idx] = value;
}

/// The benchmark's source: hands batches through and stamps, per 1 s
/// step, when the last batch holding a packet of that step was handed
/// over (the start of every reveal-latency sample). Traced replays also
/// time the call.
class BenchSource final : public pipeline::PacketSource {
 public:
  BenchSource(std::unique_ptr<pipeline::PacketSource> inner, VantageRecord& rec,
              SpanRecorder* spans)
      : inner_(std::move(inner)), rec_(rec), spans_(spans) {}

  std::optional<PacketRecord> next() override { return inner_->next(); }

  std::size_t next_batch(std::span<PacketRecord> out) override {
    const std::size_t span = spans_ ? spans_->open(SpanName::kSourceBatch) : 0;
    const std::size_t n = inner_->next_batch(out);
    const std::int64_t t = now_ns();
    if (n > 0) {
      if (rec_.packets == 0) rec_.first_handover_ns = t;
      rec_.packets += n;
      const std::int64_t last = step_of(out[n - 1].ts);
      for (std::int64_t s = step_of(out[0].ts); s <= last; ++s) store_at(rec_.handover_ns, s, t);
    }
    if (spans_) spans_->close(span, n);
    return n;
  }

  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<pipeline::PacketSource> inner_;
  VantageRecord& rec_;
  SpanRecorder* spans_;
};

/// Per-vantage tracing state shared by the stage decorator and the sink:
/// the window-close span opens in report() and closes after the sink
/// (sliding) or after reset_state() (disjoint).
struct CloseTracker {
  SpanRecorder* spans = nullptr;
  bool resets = false;
  std::size_t open_close = 0;
  bool close_open = false;

  void end_close() {
    if (close_open) spans->close(open_close);
    close_open = false;
  }
};

/// Times every call the pipeline makes into the measurement stage.
class TracedStage final : public pipeline::MeasurementStage {
 public:
  TracedStage(std::unique_ptr<pipeline::MeasurementStage> inner, CloseTracker& close,
              VantageRecord& rec)
      : inner_(std::move(inner)), close_(close), rec_(rec) {}

  void ingest(std::span<const PacketRecord> run) override {
    ScopedSpan s(close_.spans, SpanName::kIngest, step_of(run.back().ts));
    s.set_items(run.size());
    inner_->ingest(run);
  }

  HhhSet report(const pipeline::WindowEvent& event, double phi) override {
    const std::int64_t epoch = event.start.ns() / kStepNs;
    close_.open_close = close_.spans->open(SpanName::kClose, epoch);
    close_.close_open = true;
    HhhSet out;
    {
      ScopedSpan s(close_.spans, SpanName::kReport, epoch);
      out = inner_->report(event, phi);
    }
    // After report(): the sharded engine's memory_bytes() drains its
    // shards, which report() has just done — asked first, it would move
    // that wait out of the report span.
    rec_.max_state_bytes = std::max(rec_.max_state_bytes, inner_->memory_bytes());
    return out;
  }

  void reset_state() override {
    {
      ScopedSpan s(close_.spans, SpanName::kReset);
      inner_->reset_state();
    }
    close_.end_close();
  }

  bool serializable() const override { return inner_->serializable(); }

  std::vector<std::uint8_t> snapshot() const override {
    ScopedSpan s(close_.spans, SpanName::kSnapshot);
    auto frame = inner_->snapshot();
    s.set_items(frame.size());
    return frame;
  }

  std::uint64_t total_bytes() const override { return inner_->total_bytes(); }
  std::size_t memory_bytes() const override { return inner_->memory_bytes(); }
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<pipeline::MeasurementStage> inner_;
  CloseTracker& close_;
  VantageRecord& rec_;
};

/// Ships each closed window to the collector as one epoch frame.
class VantageSink final : public pipeline::ReportSink {
 public:
  VantageSink(service::VantageClient& client, VantageRecord& rec, CloseTracker& close,
              std::FILE* capture)
      : client_(client), rec_(rec), close_(close), capture_(capture) {}

  void on_window(const WindowReport& report, pipeline::SinkContext& ctx) override {
    const std::vector<std::uint8_t>& frame = ctx.snapshot();
    const std::int64_t epoch = report.start.ns() / kStepNs;
    if (epoch >= 0) {
      if (static_cast<std::size_t>(epoch) >= rec_.frame_hash.size()) {
        rec_.frame_hash.resize(static_cast<std::size_t>(epoch) + 1, 0);
      }
      rec_.frame_hash[static_cast<std::size_t>(epoch)] = xxhash64(frame.data(), frame.size());
    }
    if (capture_) write_capture(report, frame);
    {
      ScopedSpan s(close_.spans, SpanName::kSend, epoch);
      client_.send_epoch(report.start.ns(), report.end.ns(), frame);
    }
    store_at(rec_.send_done_ns, epoch, now_ns());
    if (!close_.resets) close_.end_close();
  }

 private:
  void write_capture(const WindowReport& report, const std::vector<std::uint8_t>& frame) {
    const std::int64_t head[3] = {report.start.ns(), report.end.ns(),
                                  static_cast<std::int64_t>(frame.size())};
    if (std::fwrite(head, sizeof(head), 1, capture_) != 1 ||
        std::fwrite(frame.data(), 1, frame.size(), capture_) != frame.size()) {
      throw std::runtime_error("capture: short write");
    }
  }

  service::VantageClient& client_;
  VantageRecord& rec_;
  CloseTracker& close_;
  std::FILE* capture_;
};

struct FileCloser {
  void operator()(std::FILE* f) const { std::fclose(f); }
};

/// One vantage's composed pipeline and client.
struct Vantage {
  CloseTracker close;
  std::unique_ptr<service::VantageClient> client;
  std::unique_ptr<std::FILE, FileCloser> capture;
  std::unique_ptr<pipeline::Pipeline> pipe;
};

ProgramSeries series_of(const obs::MetricsSnapshot& snap, const std::string& name) {
  ProgramSeries out;
  for (const auto& s : snap.samples) {
    if (s.name != name || s.kind != obs::MetricKind::kHistogram) continue;
    out.sum += static_cast<double>(s.histogram.sum);
    out.count += static_cast<double>(s.histogram.count);
  }
  return out;
}

ProgramSeries minus(ProgramSeries a, const ProgramSeries& b) {
  a.sum -= b.sum;
  a.count -= b.count;
  return a;
}

/// Runs the collector's poll loop on its own thread; stops and joins it
/// on every exit path.
class CollectorThread {
 public:
  explicit CollectorThread(service::CollectorService& svc)
      : svc_(svc), thread_([this] { svc_.run(); }) {}
  ~CollectorThread() { join(); }
  CollectorThread(const CollectorThread&) = delete;
  CollectorThread& operator=(const CollectorThread&) = delete;

  void join() {
    if (!thread_.joinable()) return;
    svc_.stop();
    thread_.join();
  }

 private:
  service::CollectorService& svc_;
  std::thread thread_;
};

void run_vantage(Vantage& v, VantageRecord& rec) {
  SpanRecorder* spans = v.close.spans;
  try {
    ScopedSpan root(spans, SpanName::kVantage);
    {
      ScopedSpan s(spans, SpanName::kPipelineRun);
      v.pipe->run();
    }
    ScopedSpan s(spans, SpanName::kFinish);
    rec.acked = v.client->finish();
  } catch (const std::exception& e) {
    rec.error = e.what();
  }
  rec.frames_sent = v.client->frames_sent();
  rec.reconnects = v.client->reconnects();
}

}  // namespace

std::string vantage_name(std::size_t v) {
  std::string name = "v";  // (not "v" + to_string: GCC 12 -Wrestrict false positive)
  name += std::to_string(v);
  return name;
}

std::string capture_path(const std::string& dir, std::size_t v) {
  return dir + "/vantage" + std::to_string(v) + ".frames";
}

std::vector<double> e2e_rates(const std::vector<ReplayResult>& runs) {
  std::vector<double> out;
  for (const auto& r : runs) out.push_back(r.e2e_pps());
  return out;
}

std::vector<double> ReplayResult::reveal_latency_ms() const {
  std::vector<double> out;
  for (const EpochOutcome& e : epochs) {
    const std::int64_t step = e.end_ns / kStepNs - 1;
    std::int64_t handover = 0;
    for (const VantageRecord& v : vantages) {
      if (step >= 0 && static_cast<std::size_t>(step) < v.handover_ns.size()) {
        handover = std::max(handover, v.handover_ns[static_cast<std::size_t>(step)]);
      }
    }
    if (handover > 0) out.push_back(static_cast<double>(e.reveal_ns - handover) * 1e-6);
  }
  return out;
}

std::vector<double> ReplayResult::straggler_wait_ms() const {
  std::vector<double> out;
  for (const EpochOutcome& e : epochs) {
    std::int64_t first = 0;
    for (const VantageRecord& v : vantages) {
      if (e.index >= 0 && static_cast<std::size_t>(e.index) < v.send_done_ns.size()) {
        const std::int64_t t = v.send_done_ns[static_cast<std::size_t>(e.index)];
        if (t > 0 && (first == 0 || t < first)) first = t;
      }
    }
    if (first > 0) out.push_back(static_cast<double>(e.reveal_ns - first) * 1e-6);
  }
  return out;
}

ReplayResult replay(const ReplayConfig& config) {
  const Workload& wl = *config.wl;
  const std::size_t n = config.pcaps.size();
  ReplayResult result;
  result.vantages.resize(n);
  const auto expected = static_cast<std::size_t>(wl.epochs());
  const obs::MetricsSnapshot before = obs::MetricsRegistry::process().snapshot();

  // ---- set-up: collector start, stage/pipeline construction, clients.
  const auto endpoint = service::Endpoint::parse("unix:" + config.socket_path);
  if (!endpoint) throw std::invalid_argument("bad socket path " + config.socket_path);
  const std::int64_t setup_begin = now_ns();
  service::CollectorOptions copt;
  copt.listen = {*endpoint};
  copt.window_ns = kStepNs;
  copt.grace_ns = 10'000'000'000;
  copt.expected_vantages = n;
  copt.thresholds = config.thresholds;
  service::CollectorService svc(copt);
  std::atomic<std::size_t> revealed{0};
  svc.set_epoch_callback([&](const service::ReadyEpoch& e, const service::LedgerReport& r) {
    EpochOutcome o;
    o.reveal_ns = now_ns();
    o.index = e.index;
    o.start_ns = e.start_ns;
    o.end_ns = e.end_ns;
    o.grace_expired = e.grace_expired;
    o.missing = e.missing.size();
    for (const auto& c : e.frames) o.arrival.push_back(c.vantage);
    o.report = r;
    result.epochs.push_back(std::move(o));
    revealed.fetch_add(1, std::memory_order_release);
  });
  svc.start();
  CollectorThread collector(svc);

  std::vector<Vantage> vantages(n);
  for (std::size_t v = 0; v < n; ++v) {
    VantageRecord& rec = result.vantages[v];
    Vantage& van = vantages[v];
    van.close.spans = config.traced ? &rec.spans : nullptr;
    van.close.resets = !wl.sliding;
    auto source = std::make_unique<BenchSource>(
        pipeline::make_pcap_source(config.pcaps[v], /*rebase_timestamps=*/false, &rec.source),
        rec, van.close.spans);
    std::unique_ptr<pipeline::MeasurementStage> stage = make_stage(config.stage);
    if (config.traced) stage = std::make_unique<TracedStage>(std::move(stage), van.close, rec);
    pipeline::PipelineConfig pcfg;
    pcfg.phi = wl.absolute_threshold ? 1.0 : wl.phi;
    pcfg.threshold_bytes = config.thresholds.threshold_bytes;
    pcfg.finish_at = TimePoint::from_ns(wl.trace_seconds * kStepNs);
    van.pipe = std::make_unique<pipeline::Pipeline>(std::move(source), std::move(stage),
                                                    make_policy(wl), pcfg);
    van.client = std::make_unique<service::VantageClient>(service::VantageClientOptions{
        .endpoint = copt.listen.front(),
        .name = vantage_name(v),
        .window_ns = kStepNs,
        .retry_for_s = 10.0,
        .ack_timeout_s = 10.0});
    if (!config.capture_dir.empty()) {
      van.capture.reset(std::fopen(capture_path(config.capture_dir, v).c_str(), "wb"));
      if (!van.capture) throw std::runtime_error("capture: cannot open " + config.capture_dir);
    }
    van.pipe->add_sink(
        std::make_unique<VantageSink>(*van.client, rec, van.close, van.capture.get()));
  }
  result.setup_s = static_cast<double>(now_ns() - setup_begin) * 1e-9;
  if (config.setup_only) return result;

  // ---- the measured replay: vantage 0 on this thread, the rest on their own.
  std::vector<std::thread> threads;
  for (std::size_t v = 1; v < n; ++v) {
    threads.emplace_back([&, v] { run_vantage(vantages[v], result.vantages[v]); });
  }
  run_vantage(vantages[0], result.vantages[0]);
  for (auto& t : threads) t.join();
  const std::int64_t wait_until = now_ns() + copt.grace_ns + 2'000'000'000;
  while (revealed.load(std::memory_order_acquire) < expected && now_ns() < wait_until) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  collector.join();
  for (auto& van : vantages) van.capture.reset();

  for (const VantageRecord& rec : result.vantages) {
    result.packets += rec.packets;
    if (rec.packets > 0 && (result.first_ns == 0 || rec.first_handover_ns < result.first_ns)) {
      result.first_ns = rec.first_handover_ns;
    }
  }
  for (const EpochOutcome& e : result.epochs) {
    result.last_reveal_ns = std::max(result.last_reveal_ns, e.reveal_ns);
  }
  result.collector = svc.stats();
  const obs::MetricsSnapshot after = svc.metrics_snapshot();
  result.window_close = minus(series_of(after, "hhh_pipeline_window_close_ns"),
                              series_of(before, "hhh_pipeline_window_close_ns"));
  result.sharded_snapshot = minus(series_of(after, "hhh_sharded_snapshot_ns"),
                                  series_of(before, "hhh_sharded_snapshot_ns"));
  result.epoch_close = series_of(after, "hhh_collector_epoch_close_latency_ns");
  return result;
}

}  // namespace perfbench
