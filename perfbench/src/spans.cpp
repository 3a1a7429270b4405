#include "spans.hpp"

#include <cinttypes>

namespace perfbench {

const char* to_string(SpanName name) {
  switch (name) {
    case SpanName::kVantage: return "vantage";
    case SpanName::kPipelineRun: return "pipeline.run";
    case SpanName::kSourceBatch: return "source.next_batch";
    case SpanName::kIngest: return "core.ingest";
    case SpanName::kClose: return "core.close";
    case SpanName::kReport: return "core.report";
    case SpanName::kSnapshot: return "wire.snapshot";
    case SpanName::kSend: return "service.vantage.send_epoch";
    case SpanName::kReset: return "core.reset_state";
    case SpanName::kFinish: return "service.vantage.finish";
    case SpanName::kDecode: return "service.collector.decode_scope";
    case SpanName::kFold: return "service.collector.fold";
    case SpanName::kLedgerReport: return "service.collector.report";
    case SpanName::kCount: break;
  }
  return "?";
}

std::size_t SpanRecorder::open(SpanName name, std::int64_t epoch) {
  Span s;
  s.name = name;
  s.parent = stack_.empty() ? -1 : static_cast<std::int32_t>(stack_.back());
  s.epoch = epoch;
  s.start_ns = now_ns();
  spans_.push_back(s);
  stack_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void SpanRecorder::close(std::size_t index, std::uint64_t items) {
  // Spans still open inside `index` (an exception unwound past their
  // owner) end here too, so the nesting stays consistent.
  const std::int64_t t = now_ns();
  while (!stack_.empty()) {
    const std::size_t top = stack_.back();
    stack_.pop_back();
    Span& s = spans_[top];
    s.end_ns = t;
    if (top == index) s.items = items;
    if (s.parent >= 0) spans_[static_cast<std::size_t>(s.parent)].children_ns += s.duration_ns();
    if (top == index) break;
  }
}

void SpanRecorder::write_tsv(std::FILE* out, const std::string& who) const {
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out, "%s\t%zu\t%d\t%s\t%" PRId64 "\t%" PRId64 "\t%" PRId64 "\t%" PRId64
                      "\t%" PRIu64 "\n",
                 who.c_str(), i, s.parent, to_string(s.name), s.epoch, s.start_ns, s.end_ns,
                 s.self_ns(), s.items);
  }
}

SpanStats span_stats(const std::vector<const SpanRecorder*>& recorders, SpanName name) {
  SpanStats out;
  for (const SpanRecorder* rec : recorders) {
    for (const Span& s : rec->spans()) {
      if (s.name != name) continue;
      out.durations_ms.push_back(static_cast<double>(s.duration_ns()) * 1e-6);
      out.item_counts.push_back(static_cast<double>(s.items));
      out.self_ns += static_cast<double>(s.self_ns());
      out.total_ns += static_cast<double>(s.duration_ns());
      out.items += static_cast<double>(s.items);
    }
  }
  return out;
}

}  // namespace perfbench
