// perfbench — the end-to-end reveal benchmark's binary.
//
//   perfbench gen --workload=W --seed=N --out=DIR
//       Generate the workload's traffic from the seed and write one pcap
//       per vantage (PcapWriter) plus DIR/manifest.txt.
//   perfbench run --workload=W --data=DIR --seconds=S --trace=0|1 --socket=PATH
//       Replay DIR's pcaps through the deployed path for S seconds, check
//       the collector's output against the reference, print every metric
//       (name, value, unit, sample count) and, last, one JSON result line.
//
// perfbench/run.py builds this binary and drives both steps.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cinttypes>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common.hpp"
#include "deploy.hpp"
#include "layers.hpp"
#include "net/pcap.hpp"
#include "reference.hpp"
#include "spans.hpp"
#include "trace/scenarios.hpp"
#include "trace/synthetic_trace.hpp"
#include "util/hash.hpp"

namespace perfbench {
namespace {

using namespace hhh;

/// Every run reveals at least this many epochs in untraced replays, so the
/// latency p90 has >= 10 samples beyond it.
constexpr std::int64_t kMinEpochs = 100;
/// Set-ups timed by the child forked after each untraced replay.
constexpr int kSetupRepeats = 11;

using Flags = std::map<std::string, std::string>;

Flags parse_flags(int argc, char** argv) {
  Flags flags;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      throw std::invalid_argument("expected --key=value, got '" + arg + "'");
    }
    flags[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
  }
  return flags;
}

std::string need(const Flags& flags, const std::string& key) {
  const auto it = flags.find(key);
  if (it == flags.end()) throw std::invalid_argument("missing --" + key + "=");
  return it->second;
}

const Workload& workload_flag(const Flags& flags) {
  const Workload* wl = find_workload(need(flags, "workload"));
  if (wl == nullptr) throw std::invalid_argument("unknown workload " + need(flags, "workload"));
  return *wl;
}

/// Vantage of a packet: its 5-tuple hashed across the fleet.
std::size_t vantage_of(const PacketRecord& p, std::size_t vantages) {
  const IpAddress s = p.src(), d = p.dst();
  std::uint64_t h = mix64(s.hi() ^ 0x51ED270B27AC5C4DULL);
  h = mix64(h ^ s.lo());
  h = mix64(h ^ d.hi());
  h = mix64(h ^ d.lo());
  h = mix64(h ^ (std::uint64_t{p.src_port} << 24 | std::uint64_t{p.dst_port} << 8 |
                 static_cast<std::uint64_t>(p.proto)));
  return static_cast<std::size_t>(h % vantages);
}

int cmd_gen(const Flags& flags) {
  const Workload& wl = workload_flag(flags);
  const std::uint64_t seed = std::stoull(need(flags, "seed"));
  const std::string out = need(flags, "out");
  std::filesystem::create_directories(out);
  const std::string manifest_path = out + "/manifest.txt";
  Manifest m;
  m.values["workload"] = wl.name;
  m.values["seed"] = std::to_string(seed);
  m.values["scenario"] = wl.scenario;
  m.values["trace_seconds"] = std::to_string(wl.trace_seconds);
  m.values["background_pps"] = std::to_string(wl.background_pps);
  m.values["vantages"] = std::to_string(wl.vantages);
  if (std::filesystem::exists(manifest_path)) {
    // Same workload definition and seed: the pcaps on disk are this traffic.
    const Manifest old = Manifest::read(manifest_path);
    bool same = true;
    for (const auto& [k, v] : m.values) {
      same = same && old.values.count(k) > 0 && old.values.at(k) == v;
    }
    if (same) return 0;
    std::filesystem::remove(manifest_path);
  }

  const ScenarioSpec* spec = find_scenario(wl.scenario);
  if (spec == nullptr) throw std::logic_error("scenario " + wl.scenario + " is not registered");
  SyntheticTraceGenerator gen(
      spec->make(seed, Duration::seconds(wl.trace_seconds), wl.background_pps));
  std::vector<std::unique_ptr<PcapWriter>> writers;
  for (std::size_t v = 0; v < wl.vantages; ++v) {
    writers.push_back(std::make_unique<PcapWriter>(pcap_path(out, v)));
  }
  std::uint64_t v4_bytes = 0;
  while (const auto p = gen.next()) {
    writers[vantage_of(*p, wl.vantages)]->write(*p);
    if (p->family() == AddressFamily::kIpv4) v4_bytes += p->ip_len;
  }
  for (std::size_t v = 0; v < wl.vantages; ++v) {
    writers[v]->flush();
    m.values["packets_v" + std::to_string(v)] = std::to_string(writers[v]->packets_written());
  }
  writers.clear();

  // The collector's distributed convention: an absolute threshold of phi
  // times the mean per-epoch volume, where an epoch spans one window.
  // (The engines are IPv4; IPv6 bytes never enter a scope total.)
  const double window_ns = static_cast<double>(wl.sliding ? kSlidingWindowNs : kStepNs);
  const double mean_epoch_bytes = static_cast<double>(v4_bytes) * window_ns /
                                  (static_cast<double>(wl.trace_seconds) * kStepNs);
  char threshold[64];
  std::snprintf(threshold, sizeof(threshold), "%.0f",
                wl.absolute_threshold ? wl.phi * mean_epoch_bytes : 0.0);
  m.values["threshold_bytes"] = threshold;
  m.values["v4_bytes"] = std::to_string(v4_bytes);
  m.write(manifest_path);  // last: a manifest on disk means complete pcaps
  return 0;
}

void print_metric(const Metric& m) {
  std::printf("metric %-42s %.17g %s (n=%zu)\n", m.name.c_str(), m.value, m.unit.c_str(),
              m.samples);
}

std::string json_result(bool correct, std::size_t attempted, std::size_t failed,
                        const std::vector<Metric>& metrics) {
  std::string s = "{\"correct\": " + std::string(correct ? "true" : "false") +
                  ", \"attempted\": " + std::to_string(attempted) +
                  ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    s += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + value +
         ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return s + "}}";
}

/// Fork a child that runs `body` and exits with its return code; throws
/// unless it exited 0. Fork only while this process has no other thread.
template <typename Body>
rusage run_child(const char* what, Body body) {
  std::fflush(stdout);
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    int code = 4;
    try {
      code = body();
    } catch (...) {
    }
    std::_Exit(code);
  }
  int status = 0;
  rusage ru{};
  if (wait4(pid, &status, 0, &ru) != pid || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error(std::string(what) + " child failed (status " +
                             std::to_string(status) + ")");
  }
  return ru;
}

/// Peak resident set, in MiB, of a child process that runs exactly one
/// untraced replay (the trace stays on disk).
double child_peak_rss_mib(const ReplayConfig& config) {
  const rusage ru = run_child("peak-RSS replay", [&] {
    return replay(config).epochs.size() == static_cast<std::size_t>(config.wl->epochs()) ? 0 : 3;
  });
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// kSetupRepeats set-up times from one forked child. Set-up is small
/// against a replay, so it is timed on its own, in a fresh process: the
/// allocator and thread-stack state it starts from does not depend on how
/// many replays ran before. Fork only between replays, when every thread
/// a replay started has been joined.
std::vector<double> child_setup_s(const ReplayConfig& config) {
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  run_child("set-up", [&] {
    close(fds[0]);
    ReplayConfig cfg = config;
    cfg.setup_only = true;
    for (int i = 0; i < kSetupRepeats; ++i) {
      const double s = replay(cfg).setup_s;
      if (write(fds[1], &s, sizeof(s)) != static_cast<ssize_t>(sizeof(s))) return 5;
    }
    return 0;
  });
  close(fds[1]);
  std::vector<double> out;
  double s = 0;
  while (read(fds[0], &s, sizeof(s)) == static_cast<ssize_t>(sizeof(s))) out.push_back(s);
  close(fds[0]);
  if (out.size() != static_cast<std::size_t>(kSetupRepeats)) {
    throw std::runtime_error("set-up child sent too few samples");
  }
  return out;
}

double cpu_seconds(const rusage& ru) {
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

/// The measured replays of one run.
struct Measured {
  std::vector<ReplayResult> plain;   ///< untraced: the end-to-end numbers
  std::vector<ReplayResult> traced;  ///< span-decorated: the per-layer numbers
  std::vector<ReplayResult> single;  ///< single-thread exact baseline
  std::vector<double> setup_s;       ///< set-up samples, spread over the run
  double cpu_ms = 0;
  double wall_s = 0;
};

/// Whole replays until `seconds` have passed and >= kMinEpochs were
/// revealed untraced. A traced run alternates untraced and traced replays
/// (the overhead A/B) and, on the sharded workload, single-thread exact
/// replays of the same job. After each untraced replay a child times
/// set-up, so the set-up samples see the same host as the replays.
Measured measure(const ReplayConfig& base, double seconds, bool trace) {
  Measured m;
  const bool with_single = trace && base.stage == StageKind::kShardedExact;
  const std::size_t cycle = trace ? (with_single ? 3 : 2) : 1;
  rusage ru0{}, ru1{};
  getrusage(RUSAGE_SELF, &ru0);
  const std::int64_t begin = now_ns();
  for (std::size_t i = 0;; ++i) {
    const bool enough = static_cast<double>(now_ns() - begin) * 1e-9 >= seconds &&
                        static_cast<std::int64_t>(m.plain.size()) * base.wl->epochs() >=
                            kMinEpochs;
    if (enough && i % cycle == 0) break;
    ReplayConfig cfg = base;
    if (i % cycle == 0) {
      m.plain.push_back(replay(cfg));
      const std::vector<double> setup = child_setup_s(base);
      m.setup_s.insert(m.setup_s.end(), setup.begin(), setup.end());
    } else if (i % cycle == 1) {
      cfg.traced = true;
      m.traced.push_back(replay(cfg));
    } else {
      cfg.stage = StageKind::kExact;
      m.single.push_back(replay(cfg));
    }
  }
  getrusage(RUSAGE_SELF, &ru1);
  m.wall_s = static_cast<double>(now_ns() - begin) * 1e-9;
  m.cpu_ms = (cpu_seconds(ru1) - cpu_seconds(ru0)) * 1e3;
  return m;
}

/// What the reference check found over every checked replay.
struct Verdict {
  std::size_t attempted = 0;          ///< epochs expected
  std::size_t failed = 0;             ///< epochs in error
  std::set<std::int64_t> bad_slots;   ///< epoch indices in error in any replay
  double reveal_f1 = 0;
  double hidden_f1 = 0;
  std::vector<std::string> problems;  ///< why the run is not correct
};

Verdict check_all(const Workload& wl, const ReplayResult& capture_run, const Measured& m,
                  const ExactReference& ref, const Capture& capture, OfflineLedger& offline) {
  Verdict out;
  const bool exact_stage = wl.stage == StageKind::kShardedExact || wl.stage == StageKind::kExact;
  const ExactReference* exact = exact_stage ? &ref : nullptr;
  std::vector<const ReplayResult*> checked = {&capture_run};
  for (const auto* group : {&m.plain, &m.traced}) {
    for (const auto& r : *group) checked.push_back(&r);
  }
  std::size_t skipped = 0;
  for (const ReplayResult* r : checked) {
    const EpochCheck c = check_replay(wl, *r, &capture, &offline, exact);
    out.attempted += c.expected;
    out.failed += c.errors;
    out.bad_slots.insert(c.bad.begin(), c.bad.end());
    for (const VantageRecord& v : r->vantages) {
      skipped += v.source.skipped_non_ip + v.source.skipped_malformed;
      if (!v.error.empty()) out.problems.push_back("vantage error: " + v.error);
      if (v.error.empty() && !v.acked) out.problems.push_back("a vantage's bye was not acked");
    }
  }
  std::size_t single_errors = 0;
  for (const ReplayResult& r : m.single) {
    // Its frames serialize the same counters in another order, so only
    // the exact reference applies.
    single_errors += check_replay(wl, r, nullptr, nullptr, &ref).errors;
  }
  std::tie(out.reveal_f1, out.hidden_f1) = score_f1(checked, ref);
  const std::string self = self_test(wl, capture_run, capture, offline, exact);

  if (out.failed > 0) out.problems.push_back(std::to_string(out.failed) + " epoch(s) in error");
  if (single_errors > 0) out.problems.push_back("single-thread baseline epochs in error");
  if (!self.empty()) out.problems.push_back("checker self-test: " + self);
  if (skipped > 0) out.problems.push_back(std::to_string(skipped) + " pcap frame(s) skipped");

  std::printf("check: %zu replay(s), %zu epoch(s) checked, %zu in error (%zu distinct slot(s) "
              "of %" PRId64 ")%s\n",
              checked.size(), out.attempted, out.failed, out.bad_slots.size(), wl.epochs(),
              exact_stage ? "; merged sets byte-identical to the exact engine" : "");
  std::printf("check: self-test %s\n",
              self.empty() ? "caught the dropped epoch and the corrupted frame value"
                           : self.c_str());
  std::printf("check: local (per-vantage) F1 vs exact:");
  const std::vector<double> local = local_f1(capture_run, offline, ref);
  for (std::size_t v = 0; v < local.size(); ++v) {
    std::printf(" %s=%.4f", vantage_name(v).c_str(), local[v]);
  }
  std::size_t hidden = 0, ref_hidden = 0;
  for (const EpochOutcome& e : capture_run.epochs) hidden += e.report.hidden.size();
  for (const auto& h : ref.hidden) ref_hidden += h.size();
  std::printf("\ncheck: hidden HHHs revealed per replay %zu (exact reference %zu)\n", hidden,
              ref_hidden);
  for (const std::string& p : out.problems) std::printf("check: NOT CORRECT: %s\n", p.c_str());
  return out;
}

std::vector<Metric> e2e_metrics(const Workload& wl, const Measured& m, const Verdict& v,
                                double peak_rss_mib) {
  std::printf("setup_s deciles:");
  for (int d = 0; d <= 10; ++d) std::printf(" %.1fus", quantile(m.setup_s, d / 10.0) * 1e6);
  std::printf("\n");
  std::vector<double> latency;
  double packets = 0;
  std::printf("untraced replays e2e_pps:");
  for (const ReplayResult& r : m.plain) {
    const auto l = r.reveal_latency_ms();
    latency.insert(latency.end(), l.begin(), l.end());
    std::printf(" %.0f", r.e2e_pps());
  }
  for (const auto* group : {&m.plain, &m.traced, &m.single}) {
    for (const auto& r : *group) packets += static_cast<double>(r.packets);
  }
  const std::size_t replays = m.plain.size() + m.traced.size() + m.single.size();
  std::printf("\nmeasured %.2f s: %zu untraced replay(s), %zu traced, %zu single-thread; "
              "%.0f packets per replay\n",
              m.wall_s, m.plain.size(), m.traced.size(), m.single.size(),
              packets / static_cast<double>(replays));
  const auto epochs = static_cast<std::size_t>(wl.epochs());
  const std::size_t scored = (1 + m.plain.size() + m.traced.size()) * epochs;
  return {
      {"e2e_pps", median(e2e_rates(m.plain)), "1/s", m.plain.size()},
      {"reveal_latency_p50_ms", quantile(latency, 0.5), "ms", latency.size()},
      {"reveal_latency_p90_ms", quantile(latency, 0.9), "ms", latency.size()},
      {"cpu_ms_per_mpkt", m.cpu_ms / (packets * 1e-6), "ms", replays},
      {"peak_rss_mib", peak_rss_mib, "MiB", 1},
      {"setup_s", median(m.setup_s), "s", m.setup_s.size()},
      {"reveal_f1", v.reveal_f1, "ratio", scored},
      {"hidden_f1", v.hidden_f1, "ratio", scored},
      {"epoch_error_ratio", upper_bound_95(v.bad_slots.size(), epochs), "fraction", epochs},
  };
}

void write_spans(const std::string& path, const Measured& m, const SpanRecorder& collector) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  std::fprintf(f, "who\tid\tparent\tname\tepoch\tstart_ns\tend_ns\tself_ns\titems\n");
  for (std::size_t i = 0; i < m.traced.size(); ++i) {
    for (std::size_t v = 0; v < m.traced[i].vantages.size(); ++v) {
      m.traced[i].vantages[v].spans.write_tsv(
          f, "replay" + std::to_string(i) + "/" + vantage_name(v));
    }
  }
  collector.write_tsv(f, "collector_merge_replay");
  std::fclose(f);
  std::printf("spans written to %s\n", path.c_str());
}

int cmd_run(const Flags& flags) {
  const Workload& wl = workload_flag(flags);
  const std::string dir = need(flags, "data");
  const double seconds = std::stod(need(flags, "seconds"));
  const bool trace = need(flags, "trace") == "1";
  const Manifest manifest = Manifest::read(dir + "/manifest.txt");
  if (manifest.values.at("workload") != wl.name) {
    throw std::invalid_argument("data directory holds another workload's traffic");
  }

  ReplayConfig base;
  base.wl = &wl;
  base.stage = wl.stage;
  for (std::size_t v = 0; v < wl.vantages; ++v) base.pcaps.push_back(pcap_path(dir, v));
  base.thresholds = thresholds_of(wl, manifest);
  base.socket_path = need(flags, "socket");
  const std::string threshold = wl.absolute_threshold
                                    ? manifest.values.at("threshold_bytes") + " B absolute"
                                    : "phi " + std::to_string(wl.phi);
  std::printf("workload %s: %zu vantage(s), %" PRId64 " s of %s traffic, %" PRId64
              " epochs per replay, threshold %s\n",
              wl.name.c_str(), wl.vantages, wl.trace_seconds, wl.scenario.c_str(), wl.epochs(),
              threshold.c_str());

  // Forked before this process starts any thread.
  const double peak_rss_mib = child_peak_rss_mib(base);

  // Capture replay: warms caches and lazy set-up, and records the frames
  // every vantage sent for the offline-merge check. Not timed.
  const std::string capture_dir = dir + "/capture";
  std::filesystem::create_directories(capture_dir);
  ReplayConfig capture_cfg = base;
  capture_cfg.capture_dir = capture_dir;
  const ReplayResult capture_run = replay(capture_cfg);

  const Measured m = measure(base, seconds, trace);

  const ExactReference ref = exact_reference(wl, base.pcaps, base.thresholds);
  const Capture capture = Capture::read(capture_dir, wl.vantages);
  SpanRecorder collector_spans;
  OfflineLedger offline(capture, base.thresholds, trace ? &collector_spans : nullptr);
  const Verdict verdict = check_all(wl, capture_run, m, ref, capture, offline);

  const std::vector<Metric> e2e = e2e_metrics(wl, m, verdict, peak_rss_mib);
  for (const Metric& metric : e2e) print_metric(metric);
  std::vector<Metric> layers;
  if (trace) {
    layers = layer_metrics(m.traced, m.plain, collector_spans);
    for (const Metric& metric : layers) print_metric(metric);
    if (!m.single.empty()) {
      const double sharded = median(e2e_rates(m.plain)), one = median(e2e_rates(m.single));
      std::printf("sharded / single-thread e2e_pps = %.4f (sharded_exact_x4 %.0f pps over %zu "
                  "replay(s), exact %.0f pps over %zu replay(s))\n",
                  sharded / one, sharded, m.plain.size(), one, m.single.size());
    }
    write_spans(dir + "/spans.tsv", m, collector_spans);
  }
  std::printf("%s\n", json_result(verdict.problems.empty(), verdict.attempted, verdict.failed,
                                  trace ? layers : e2e)
                          .c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  // A collector that went away must surface as send_epoch's typed error,
  // not a SIGPIPE kill.
  std::signal(SIGPIPE, SIG_IGN);
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench gen|run --key=value ...\n");
    return 2;
  }
  try {
    const auto flags = perfbench::parse_flags(argc, argv);
    const std::string cmd = argv[1];
    if (cmd == "gen") return perfbench::cmd_gen(flags);
    if (cmd == "run") return perfbench::cmd_run(flags);
    std::fprintf(stderr, "perfbench: unknown command %s\n", cmd.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
  }
  return 1;
}
