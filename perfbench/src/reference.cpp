#include "reference.hpp"

#include <cmath>
#include <deque>
#include <fstream>
#include <optional>
#include <stdexcept>

#include "core/engine.hpp"
#include "core/exact_hhh.hpp"
#include "core/level_aggregates.hpp"
#include "net/pcap.hpp"
#include "util/hash.hpp"
#include "wire/snapshot.hpp"

namespace perfbench {

using namespace hhh;

namespace {

/// One vantage's pcap read back in 1 s steps.
class StepReader {
 public:
  explicit StepReader(const std::string& path) : reader_(path), pending_(reader_.next()) {}

  /// Every packet with ts < `boundary_ns` not yet returned.
  void take_until(std::int64_t boundary_ns, std::vector<PacketRecord>& out) {
    out.clear();
    while (pending_ && pending_->ts.ns() < boundary_ns) {
      out.push_back(*pending_);
      pending_ = reader_.next();
    }
  }

 private:
  PcapReader reader_;
  std::optional<PacketRecord> pending_;
};

std::vector<PrefixKey> hidden_of(const HhhSet& merged, const std::vector<HhhSet>& locals) {
  PrefixUnion seen;
  for (const HhhSet& s : locals) seen.add(s.prefixes());
  return prefix_difference(merged.prefixes(), seen.values());
}

void disjoint_reference(const Workload& wl, const std::vector<std::string>& pcaps,
                        const service::Thresholds& thr, ExactReference& ref) {
  const std::size_t n = pcaps.size();
  std::vector<StepReader> readers(pcaps.begin(), pcaps.end());
  std::vector<std::unique_ptr<HhhEngine>> local;
  for (std::size_t v = 0; v < n; ++v) {
    local.push_back(make_exact_engine(Hierarchy::byte_granularity()));
  }
  auto merged = make_exact_engine(Hierarchy::byte_granularity());
  std::vector<PacketRecord> buf;
  const auto extract = [&](const HhhEngine& e) {
    return e.extract(thr.scope_phi(static_cast<double>(e.total_bytes())));
  };
  for (std::int64_t k = 0; k < wl.epochs(); ++k) {
    const auto e = static_cast<std::size_t>(k);
    std::vector<HhhSet> locals;
    for (std::size_t v = 0; v < n; ++v) {
      readers[v].take_until((k + 1) * kStepNs, buf);
      local[v]->add_batch(buf);
      if (n > 1) merged->add_batch(buf);
      ref.local[v][e] = extract(*local[v]);
      locals.push_back(ref.local[v][e]);
      local[v]->reset();
    }
    ref.merged[e] = n > 1 ? extract(*merged) : ref.local[0][e];
    ref.hidden[e] = hidden_of(ref.merged[e], locals);
    merged->reset();
  }
}

/// SlidingWindowHhhDetector's rolling computation — per-step buckets
/// added to one LevelAggregates and removed whole as they leave the
/// window — extracted at the collector's (absolute) threshold instead of
/// the detector's fixed relative phi.
class RollingWindow {
 public:
  RollingWindow() : agg_(Hierarchy::byte_granularity()) {}

  void push_step(const std::vector<PacketRecord>& packets) {
    Bucket bucket;
    for (const PacketRecord& p : packets) {
      if (p.family() != AddressFamily::kIpv4) continue;
      agg_.add(p.src(), p.ip_len);
      bucket.emplace_back(p.src(), p.ip_len);
    }
    buckets_.push_back(std::move(bucket));
  }

  void pop_step() {
    for (const auto& [src, bytes] : buckets_.front()) agg_.remove(src, bytes);
    buckets_.pop_front();
  }

  HhhSet extract(const service::Thresholds& thr) const {
    return extract_hhh_relative(agg_, thr.scope_phi(static_cast<double>(agg_.total_bytes())));
  }

 private:
  using Bucket = std::vector<std::pair<IpAddress, std::uint64_t>>;
  LevelAggregates agg_;
  std::deque<Bucket> buckets_;
};

void sliding_reference(const Workload& wl, const std::vector<std::string>& pcaps,
                       const service::Thresholds& thr, ExactReference& ref) {
  const std::size_t n = pcaps.size();
  const std::int64_t steps_per_window = kSlidingWindowNs / kStepNs;
  std::vector<StepReader> readers(pcaps.begin(), pcaps.end());
  std::vector<RollingWindow> local(n);
  RollingWindow merged;
  std::vector<PacketRecord> buf;
  for (std::int64_t k = 0; k < wl.trace_seconds; ++k) {
    for (std::size_t v = 0; v < n; ++v) {
      readers[v].take_until((k + 1) * kStepNs, buf);
      local[v].push_step(buf);
      merged.push_step(buf);
    }
    if (k + 1 < steps_per_window) continue;
    const auto e = static_cast<std::size_t>(k + 1 - steps_per_window);
    std::vector<HhhSet> locals;
    for (std::size_t v = 0; v < n; ++v) {
      ref.local[v][e] = local[v].extract(thr);
      locals.push_back(ref.local[v][e]);
      local[v].pop_step();
    }
    ref.merged[e] = merged.extract(thr);
    ref.hidden[e] = hidden_of(ref.merged[e], locals);
    for (std::size_t v = 0; v < n; ++v) merged.pop_step();
  }
}

bool same_set(const HhhSet& a, const HhhSet& b) {
  return a.total_bytes == b.total_bytes && a.threshold_bytes == b.threshold_bytes &&
         a.items() == b.items();
}

bool same_report(const service::LedgerReport& a, const service::LedgerReport& b) {
  if (a.groups.size() != b.groups.size() || a.hidden != b.hidden) return false;
  for (std::size_t g = 0; g < a.groups.size(); ++g) {
    if (a.groups[g].key != b.groups[g].key || !same_set(a.groups[g].merged, b.groups[g].merged)) {
      return false;
    }
  }
  return true;
}

std::size_t vantage_index(const std::string& name) {
  return static_cast<std::size_t>(std::stoul(name.substr(1)));
}

struct F1Counts {
  double tp = 0, fp = 0, fn = 0;
  void add(const std::vector<PrefixKey>& got, const std::vector<PrefixKey>& want) {
    const double hit = static_cast<double>(got.size() - prefix_difference(got, want).size());
    tp += hit;
    fp += static_cast<double>(got.size()) - hit;
    fn += static_cast<double>(want.size()) - hit;
  }
  double f1() const { return tp + fp + fn == 0 ? 1.0 : 2 * tp / (2 * tp + fp + fn); }
};

std::vector<PrefixKey> merged_prefixes(const service::LedgerReport& r) {
  PrefixUnion u;
  for (const auto& g : r.groups) u.add(g.merged.prefixes());
  return u.values();
}

/// The same scope with one value changed: one extra 1500-byte packet
/// accounted at the scope's last instant, re-serialized as a valid frame.
std::vector<std::uint8_t> corrupt_frame(const std::vector<std::uint8_t>& frame,
                                        std::int64_t at_ns) {
  service::Scope scope = service::decode_scope(wire::parse_frame(frame), "corrupt");
  PacketRecord p;
  p.ts = TimePoint::from_ns(at_ns);
  p.ip_len = 1500;
  p.set_src(IpAddress(Ipv4Address(0xCB007107u)));  // 203.0.113.7
  p.set_dst(IpAddress(Ipv4Address(0xC0000250u)));  // 192.0.2.80
  if (scope.memento) {
    scope.memento->offer(p);
    std::vector<std::uint8_t> payload;
    wire::Writer w(payload);
    scope.memento->save_state(w);
    return wire::build_frame(wire::SnapshotKind::kMementoDetector, payload);
  }
  if (!scope.engine) throw std::logic_error("corrupt_frame: unexpected scope kind");
  scope.engine->add(p);
  return wire::save_engine(*scope.engine);
}

double binom_cdf(std::size_t x, std::size_t n, double p) {
  double sum = 0;
  for (std::size_t k = 0; k <= x; ++k) {
    const double log_pmf = std::lgamma(static_cast<double>(n) + 1) -
                           std::lgamma(static_cast<double>(k) + 1) -
                           std::lgamma(static_cast<double>(n - k) + 1) +
                           static_cast<double>(k) * std::log(p) +
                           static_cast<double>(n - k) * std::log1p(-p);
    sum += std::exp(log_pmf);
  }
  return sum;
}

}  // namespace

ExactReference exact_reference(const Workload& wl, const std::vector<std::string>& pcaps,
                               const service::Thresholds& thresholds) {
  ExactReference ref;
  const auto epochs = static_cast<std::size_t>(wl.epochs());
  ref.merged.resize(epochs);
  ref.hidden.resize(epochs);
  ref.local.assign(pcaps.size(), std::vector<HhhSet>(epochs));
  if (wl.sliding) {
    sliding_reference(wl, pcaps, thresholds, ref);
  } else {
    disjoint_reference(wl, pcaps, thresholds, ref);
  }
  return ref;
}

Capture Capture::read(const std::string& dir, std::size_t vantages) {
  Capture c;
  c.frames.resize(vantages);
  c.hashes.resize(vantages);
  for (std::size_t v = 0; v < vantages; ++v) {
    std::ifstream in(capture_path(dir, v), std::ios::binary);
    if (!in) throw std::runtime_error("capture: cannot read " + capture_path(dir, v));
    std::int64_t head[3];
    while (in.read(reinterpret_cast<char*>(head), sizeof(head))) {
      if (head[2] < 0) throw std::runtime_error("capture: bad frame length");
      std::vector<std::uint8_t> frame(static_cast<std::size_t>(head[2]));
      if (!in.read(reinterpret_cast<char*>(frame.data()), head[2])) {
        throw std::runtime_error("capture: truncated frame");
      }
      const std::int64_t epoch = head[0] / kStepNs;
      c.hashes[v][epoch] = xxhash64(frame.data(), frame.size());
      c.frames[v][epoch] = std::move(frame);
    }
  }
  return c;
}

const OfflineLedger::Result& OfflineLedger::merge(std::int64_t index,
                                                  const std::vector<std::string>& order) {
  const auto key = std::make_pair(index, order);
  auto it = memo_.find(key);
  if (it == memo_.end()) {
    it = memo_.emplace(key, compute(index, order, nullptr, 0, spans_)).first;
  }
  return it->second;
}

OfflineLedger::Result OfflineLedger::merge_with(std::int64_t index,
                                                const std::vector<std::string>& order,
                                                std::size_t v,
                                                const std::vector<std::uint8_t>& frame) const {
  return compute(index, order, &frame, v, nullptr);
}

OfflineLedger::Result OfflineLedger::compute(std::int64_t index,
                                             const std::vector<std::string>& order,
                                             const std::vector<std::uint8_t>* override_frame,
                                             std::size_t override_v, SpanRecorder* spans) const {
  Result res;
  service::MergeLedger ledger(thresholds_);
  try {
    for (const std::string& name : order) {
      const std::size_t v = vantage_index(name);
      if (v >= capture_.frames.size()) return res;
      const auto it = capture_.frames[v].find(index);
      if (it == capture_.frames[v].end()) return res;
      const std::vector<std::uint8_t>& bytes =
          override_frame && v == override_v ? *override_frame : it->second;
      service::Scope scope;
      {
        ScopedSpan s(spans, SpanName::kDecode, index);
        scope = service::decode_scope(wire::parse_frame(bytes), name);
      }
      ScopedSpan s(spans, SpanName::kFold, index);
      res.local.push_back(ledger.fold(std::move(scope)));
    }
    ScopedSpan s(spans, SpanName::kLedgerReport, index);
    res.report = ledger.report();
  } catch (const std::exception&) {
    return res;
  }
  res.ok = true;
  return res;
}

EpochCheck check_replay(const Workload& wl, const ReplayResult& replay, const Capture* capture,
                        OfflineLedger* offline, const ExactReference* exact) {
  EpochCheck c;
  c.expected = static_cast<std::size_t>(wl.epochs());
  std::vector<int> seen(c.expected, 0);
  const auto flag = [&c](std::int64_t index) {
    ++c.errors;
    c.bad.push_back(index);
  };
  for (const EpochOutcome& o : replay.epochs) {
    if (o.index < 0 || o.index >= wl.epochs()) {
      flag(o.index);
      continue;
    }
    const auto e = static_cast<std::size_t>(o.index);
    bool bad = seen[e]++ > 0;  // revealed twice
    bad = bad || (o.grace_expired && o.missing > 0) || o.arrival.size() != wl.vantages;
    for (std::size_t v = 0; capture != nullptr && v < replay.vantages.size() && !bad; ++v) {
      const auto& sent = replay.vantages[v].frame_hash;
      const auto it = capture->hashes[v].find(o.index);
      bad = e >= sent.size() || it == capture->hashes[v].end() || sent[e] != it->second;
    }
    if (!bad && offline != nullptr) {
      const OfflineLedger::Result& off = offline->merge(o.index, o.arrival);
      bad = !off.ok || !same_report(off.report, o.report);
    }
    if (!bad && exact != nullptr) {
      bad = o.report.groups.size() != 1 || !same_set(o.report.groups[0].merged, exact->merged[e]);
    }
    if (bad) flag(o.index);
  }
  for (std::size_t e = 0; e < c.expected; ++e) {
    if (seen[e] == 0) flag(static_cast<std::int64_t>(e));
  }
  return c;
}

std::pair<double, double> score_f1(const std::vector<const ReplayResult*>& replays,
                                   const ExactReference& ref) {
  F1Counts reveal, hidden;
  for (const ReplayResult* r : replays) {
    std::map<std::int64_t, const EpochOutcome*> by_index;
    for (const EpochOutcome& o : r->epochs) by_index.emplace(o.index, &o);
    for (std::size_t e = 0; e < ref.merged.size(); ++e) {
      const auto it = by_index.find(static_cast<std::int64_t>(e));
      const bool have = it != by_index.end();
      reveal.add(have ? merged_prefixes(it->second->report) : std::vector<PrefixKey>{},
                 ref.merged[e].prefixes());
      hidden.add(have ? it->second->report.hidden : std::vector<PrefixKey>{}, ref.hidden[e]);
    }
  }
  return {reveal.f1(), hidden.f1()};
}

std::vector<double> local_f1(const ReplayResult& replay, OfflineLedger& offline,
                             const ExactReference& ref) {
  std::vector<F1Counts> counts(ref.local.size());
  for (const EpochOutcome& o : replay.epochs) {
    if (o.index < 0 || static_cast<std::size_t>(o.index) >= ref.merged.size()) continue;
    const OfflineLedger::Result& off = offline.merge(o.index, o.arrival);
    if (!off.ok) continue;
    for (std::size_t i = 0; i < o.arrival.size(); ++i) {
      const std::size_t v = vantage_index(o.arrival[i]);
      if (v < counts.size()) {
        counts[v].add(off.local[i].prefixes(),
                      ref.local[v][static_cast<std::size_t>(o.index)].prefixes());
      }
    }
  }
  std::vector<double> out;
  for (const F1Counts& c : counts) out.push_back(c.f1());
  return out;
}

std::string self_test(const Workload& wl, const ReplayResult& replay, const Capture& capture,
                      OfflineLedger& offline, const ExactReference* exact) {
  if (replay.epochs.empty()) return "no epochs to test on";
  std::string missed;
  const EpochOutcome& victim = replay.epochs[replay.epochs.size() / 2];

  ReplayResult dropped;
  dropped.vantages = replay.vantages;
  for (const EpochOutcome& o : replay.epochs) {
    if (&o != &victim) dropped.epochs.push_back(o);
  }
  if (check_replay(wl, dropped, &capture, &offline, exact).errors == 0) {
    missed += "a dropped epoch passed the check; ";
  }

  const std::size_t v = vantage_index(victim.arrival.front());
  const std::vector<std::uint8_t> bad =
      corrupt_frame(capture.frames[v].at(victim.index), victim.end_ns - 1);
  const OfflineLedger::Result off = offline.merge_with(victim.index, victim.arrival, v, bad);
  if (off.ok && same_report(off.report, victim.report)) {
    missed += "a corrupted frame value passed the check; ";
  }
  return missed;
}

double upper_bound_95(std::size_t errors, std::size_t n) {
  if (n == 0 || errors >= n) return 1.0;
  double lo = 0.0, hi = 1.0;
  for (int i = 0; i < 100; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (binom_cdf(errors, n, mid) > 0.05) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return hi;
}

}  // namespace perfbench
