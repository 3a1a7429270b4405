// The WindowedDetector axis: every mergeable sliding-window detector
// (WCSS, Memento v4, Memento v6) through the paths that hold the
// interface rather than a concrete class — the wire codec
// (save_windowed / load_windowed), the collector's MergeLedger and the
// pipeline's FrameRing — plus the cross-kind merge refusal.
#include "core/windowed_detector.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/memento_hhh.hpp"
#include "core/wcss_hhh.hpp"
#include "harness/golden.hpp"
#include "harness/trace_builder.hpp"
#include "pipeline/frame_ring.hpp"
#include "pipeline/pipeline.hpp"
#include "service/merge.hpp"
#include "wire/snapshot.hpp"

namespace hhh {
namespace {

const Duration kWindow = Duration::millis(100);
constexpr double kPhi = 0.05;
const std::vector<std::string> kKinds = {"wcss", "memento", "memento_v6"};

std::unique_ptr<WindowedDetector> make_detector(const std::string& kind,
                                                std::uint64_t seed = 0x3E3E'0001) {
  if (kind == "wcss") {
    return std::make_unique<WcssSlidingHhhDetector>(
        WcssSlidingHhhDetector::Params{.window = kWindow, .frames = 5});
  }
  MementoHhhParams params{.window = kWindow, .frames = 5, .seed = seed};
  if (kind == "memento_v6") {
    params.hierarchy = Hierarchy::v6_byte_granularity();
    return std::make_unique<MementoHhhV6Detector>(params);
  }
  return std::make_unique<MementoHhhDetector>(params);
}

std::vector<PacketRecord> traffic(const std::string& kind, std::uint64_t seed,
                                  std::size_t n) {
  return harness::TraceBuilder(seed)
      .compact_space()
      .v6_fraction(kind == "memento_v6" ? 1.0 : 0.0)
      .packets(n);
}

std::unique_ptr<WindowedDetector> reload(const WindowedDetector& detector) {
  return wire::load_windowed(wire::parse_frame(wire::save_windowed(detector)));
}

class WindowedDetectorAxis : public ::testing::TestWithParam<std::string> {};

TEST_P(WindowedDetectorAxis, WireRoundTripIsByteIdenticalAndAnswersTheSame) {
  const std::string kind = GetParam();
  auto original = make_detector(kind);
  original->offer_batch(traffic(kind, 0x3D01, 20000));

  const auto first = wire::save_windowed(*original);
  const wire::FrameView view = wire::parse_frame(first);
  EXPECT_TRUE(wire::is_windowed_kind(view.kind));
  EXPECT_EQ(view.kind, kind == "wcss" ? wire::SnapshotKind::kWcssDetector
                                      : wire::SnapshotKind::kMementoDetector);
  auto restored = wire::load_windowed(view);
  EXPECT_EQ(wire::save_windowed(*restored), first);
  EXPECT_EQ(restored->name(), kind);

  const TimePoint now = original->high_watermark();
  ASSERT_EQ(restored->high_watermark(), now);
  EXPECT_EQ(restored->window_total(now), original->window_total(now));
  const HhhSet expected = original->query(now, kPhi);
  ASSERT_FALSE(expected.empty());
  EXPECT_TRUE(harness::hhh_sets_equal(expected, restored->query(now, kPhi)));

  // The collector's decode keeps the Memento-only view in step.
  const service::Scope scope = service::decode_scope(view, "v");
  ASSERT_NE(scope.windowed, nullptr);
  EXPECT_EQ(scope.engine, nullptr);
  EXPECT_EQ(scope.memento, kind == "wcss" ? nullptr : scope.windowed.get());
}

TEST_P(WindowedDetectorAxis, LedgerFoldEqualsInProcessMerge) {
  const std::string kind = GetParam();
  const auto packets = traffic(kind, 0x3D02, 30000);
  auto a = make_detector(kind, 1);
  auto b = make_detector(kind, 2);
  for (std::size_t i = 0; i < packets.size(); ++i) (i % 2 == 0 ? a : b)->offer(packets[i]);

  service::MergeLedger ledger(service::Thresholds{.phi = kPhi});
  const auto frame_a = wire::save_windowed(*a);
  const auto frame_b = wire::save_windowed(*b);
  const HhhSet local_a = ledger.fold(service::decode_scope(wire::parse_frame(frame_a), "a"));
  ledger.fold(service::decode_scope(wire::parse_frame(frame_b), "b"));
  EXPECT_TRUE(harness::hhh_sets_equal(a->query(a->high_watermark(), kPhi), local_a));
  const service::LedgerReport report = ledger.report();

  const TimePoint watermark = std::max(a->high_watermark(), b->high_watermark());
  auto merged = reload(*a);
  merged->merge_from(*reload(*b));
  const HhhSet expected = merged->query(watermark, kPhi);

  ASSERT_EQ(report.groups.size(), 1u);
  EXPECT_EQ(report.groups[0].key, kind);
  EXPECT_EQ(report.scopes_folded, 2u);
  ASSERT_FALSE(expected.empty());
  EXPECT_TRUE(harness::hhh_sets_equal(expected, report.groups[0].merged));

  // The ledger's head survives its checkpoint encoding.
  std::vector<std::uint8_t> state;
  wire::Writer w(state);
  ledger.save_state(w);
  service::MergeLedger restored(service::Thresholds{.phi = kPhi});
  wire::Reader r(state);
  restored.load_state(r);
  EXPECT_TRUE(harness::hhh_sets_equal(expected, restored.report().groups[0].merged));
}

TEST_P(WindowedDetectorAxis, FrameRingIntervalEqualsOfflineMerge) {
  const std::string kind = GetParam();
  const auto packets = traffic(kind, 0x3D03, 20000);
  pipeline::PipelineConfig config;
  config.phi = kPhi;
  config.finish_at = packets.back().ts + Duration::millis(100);
  pipeline::FrameRing ring(1024);
  pipeline::Pipeline pipe(pipeline::make_vector_source(packets),
                          pipeline::make_windowed_stage(make_detector(kind)),
                          pipeline::make_sliding_policy(kWindow, Duration::millis(20)),
                          config);
  pipe.add_sink(pipeline::make_frame_ring_sink(&ring));
  pipe.run();

  const TimePoint t1 = ring.frames().front().start;
  const TimePoint t2 = ring.frames().back().end;
  const auto selected = ring.frames_in(t1, t2);
  ASSERT_GE(selected.size(), 2u);

  std::unique_ptr<WindowedDetector> offline;
  TimePoint watermark;
  for (const pipeline::RetainedFrame* f : selected) {
    auto detector = wire::load_windowed(wire::parse_frame(f->frame));
    watermark = std::max(watermark, detector->high_watermark());
    if (offline) {
      offline->merge_from(*detector);
    } else {
      offline = std::move(detector);
    }
  }
  const HhhSet expected = offline->query(watermark, kPhi);

  const pipeline::IntervalReport report = ring.query_interval(t1, t2, kPhi);
  EXPECT_EQ(report.group, kind);
  EXPECT_EQ(report.frames_merged, selected.size());
  ASSERT_FALSE(expected.empty());
  EXPECT_TRUE(harness::hhh_sets_equal(expected, report.hhhs));
}

TEST_P(WindowedDetectorAxis, CrossKindMergeThrows) {
  const std::string kind = GetParam();
  for (const std::string& other : kKinds) {
    if (other == kind) continue;
    auto detector = make_detector(kind);
    EXPECT_THROW(detector->merge_from(*make_detector(other)), std::invalid_argument)
        << kind << " <- " << other;
  }
}

INSTANTIATE_TEST_SUITE_P(Kinds, WindowedDetectorAxis, ::testing::ValuesIn(kKinds),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace hhh
