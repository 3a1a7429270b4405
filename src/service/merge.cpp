#include "service/merge.hpp"

#include <algorithm>
#include <utility>

#include "wire/codec.hpp"
#include "wire/wire.hpp"

namespace hhh::service {

double Thresholds::scope_phi(double scope_total) const {
  if (threshold_bytes <= 0.0) return phi;
  if (scope_total <= 0.0) return 1.0;
  return std::min(1.0, threshold_bytes / scope_total);
}

Scope decode_scope(const wire::FrameView& frame, std::string label) {
  Scope scope;
  scope.label = std::move(label);
  if (wire::is_windowed_kind(frame.kind)) {
    scope.windowed = wire::load_windowed(frame);
    if (frame.kind == wire::SnapshotKind::kMementoDetector) {
      scope.memento = scope.windowed.get();
    }
  } else {
    scope.engine = wire::load_engine(frame);
  }
  return scope;
}

namespace {

// The HHH set of one decoded state: engines extract, windowed detectors
// query their trailing window as of `watermark`.
HhhSet extract_state(HhhEngine* engine, WindowedDetector* windowed, TimePoint watermark,
                     const Thresholds& thresholds) {
  if (windowed) {
    return windowed->query(watermark,
                           thresholds.scope_phi(windowed->window_total(watermark)));
  }
  return engine->extract(thresholds.scope_phi(static_cast<double>(engine->total_bytes())));
}

}  // namespace

MergeLedger::MergeLedger(Thresholds thresholds) : thresholds_(thresholds) {}

void MergeLedger::merge_group(Group&& incoming) {
  const auto group = std::find_if(groups_.begin(), groups_.end(),
                                  [&](const Group& g) { return g.key == incoming.key; });
  if (group == groups_.end()) {
    groups_.push_back(std::move(incoming));
  } else if (group->windowed) {
    group->windowed->merge_from(*incoming.windowed);
    group->watermark = std::max(group->watermark, incoming.watermark);
  } else {
    group->engine->merge_from(*incoming.engine);
  }
}

HhhSet MergeLedger::fold(Scope scope) {
  // Extract the scope's local view BEFORE merging: what this single
  // vantage would report on its own is what defines "seen locally".
  const TimePoint watermark =
      scope.windowed ? scope.windowed->high_watermark() : TimePoint();
  Group incoming{.key = scope.windowed ? scope.windowed->name() : scope.engine->name(),
                 .engine = std::move(scope.engine),
                 .windowed = std::move(scope.windowed),
                 .watermark = watermark};
  HhhSet local = extract_state(incoming.engine.get(), incoming.windowed.get(),
                               incoming.watermark, thresholds_);
  seen_locally_.add(local.prefixes());
  merge_group(std::move(incoming));
  ++scopes_folded_;
  return local;
}

void MergeLedger::absorb(MergeLedger&& other) {
  for (Group& incoming : other.groups_) merge_group(std::move(incoming));
  seen_locally_.add(other.seen_locally_.values());
  scopes_folded_ += other.scopes_folded_;
  other.groups_.clear();
  other.scopes_folded_ = 0;
}

LedgerReport MergeLedger::report() {
  LedgerReport out;
  out.scopes_folded = scopes_folded_;
  PrefixUnion hidden;
  for (Group& g : groups_) {
    GroupReport group;
    group.key = g.key;
    group.merged = extract_state(g.engine.get(), g.windowed.get(), g.watermark, thresholds_);
    // The reveal: heavy in the merged view, reported by no single scope.
    hidden.add(prefix_difference(group.merged.prefixes(), seen_locally_.values()));
    out.groups.push_back(std::move(group));
  }
  out.hidden = hidden.values();
  return out;
}

std::vector<std::vector<std::uint8_t>> MergeLedger::save_group_frames() const {
  std::vector<std::vector<std::uint8_t>> frames;
  frames.reserve(groups_.size());
  for (const Group& g : groups_) {
    frames.push_back(g.windowed ? wire::save_windowed(*g.windowed)
                                : wire::save_engine(*g.engine));
  }
  return frames;
}

void MergeLedger::save_state(wire::Writer& w) const {
  const auto frames = save_group_frames();
  w.u64(groups_.size());
  for (std::size_t i = 0; i < groups_.size(); ++i) {
    w.str(groups_[i].key);
    wire::write_timepoint(w, groups_[i].watermark);
    w.u64(frames[i].size());
    w.raw(frames[i].data(), frames[i].size());
  }
  const auto& seen = seen_locally_.values();
  w.u64(seen.size());
  for (const PrefixKey& p : seen) wire::write_prefix(w, p);
  w.u64(scopes_folded_);
}

void MergeLedger::load_state(wire::Reader& r) {
  wire::check(groups_.empty() && scopes_folded_ == 0, wire::WireError::kBadValue,
              "ledger state restores only into an empty ledger");
  const std::uint64_t n_groups = r.count(1);
  for (std::uint64_t i = 0; i < n_groups; ++i) {
    const std::string key = r.str();
    const TimePoint watermark = wire::read_timepoint(r);
    const std::uint64_t len = r.count(1);
    const std::span<const std::uint8_t> rest = r.peek_rest();
    wire::check(len <= rest.size(), wire::WireError::kTruncated,
                "ledger group frame exceeds available bytes");
    const wire::FrameView frame = wire::parse_frame(rest.subspan(0, len));
    wire::check(frame.frame_size == len, wire::WireError::kTrailingBytes,
                "ledger group bytes continue past their frame");
    Scope scope = decode_scope(frame, key);
    r.skip(len);
    groups_.push_back(Group{.key = key,
                            .engine = std::move(scope.engine),
                            .windowed = std::move(scope.windowed),
                            .watermark = watermark});
  }
  const std::uint64_t n_seen = r.count(1);
  for (std::uint64_t i = 0; i < n_seen; ++i) seen_locally_.add(wire::read_prefix(r));
  scopes_folded_ = r.u64();
}

}  // namespace hhh::service
