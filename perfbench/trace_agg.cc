#include "trace_agg.h"

namespace perfbench {

using samoyeds::obs::EventType;
using samoyeds::obs::TraceEvent;
using samoyeds::obs::TraceThread;

const SpanTotals& TraceSummary::span(const std::string& key) const {
  static const SpanTotals kEmpty;
  const auto it = spans.find(key);
  return it == spans.end() ? kEmpty : it->second;
}

int64_t TraceSummary::instant(const std::string& key) const {
  const auto it = instants.find(key);
  return it == instants.end() ? 0 : it->second;
}

TraceSummary Aggregate(const std::vector<TraceThread>& threads) {
  TraceSummary out;
  struct Open {
    const TraceEvent* begin;
    int64_t child_ns;
  };
  for (const TraceThread& thread : threads) {
    out.dropped_events += thread.dropped;
    std::vector<Open> stack;
    for (const TraceEvent& ev : thread.events) {
      switch (ev.type) {
        case EventType::kBegin:
          stack.push_back(Open{&ev, 0});
          break;
        case EventType::kEnd: {
          if (stack.empty()) {
            ++out.unmatched_events;
            break;
          }
          const Open open = stack.back();
          stack.pop_back();
          const int64_t dur_ns = ev.ts_ns - open.begin->ts_ns;
          SpanTotals& totals =
              out.spans[std::string(open.begin->category) + "/" + open.begin->name];
          ++totals.count;
          totals.total_ms += static_cast<double>(dur_ns) * 1e-6;
          totals.self_ms += static_cast<double>(dur_ns - open.child_ns) * 1e-6;
          totals.durations_ms.push_back(static_cast<double>(dur_ns) * 1e-6);
          if (!stack.empty()) {
            stack.back().child_ns += dur_ns;
          }
          break;
        }
        case EventType::kInstant:
        case EventType::kAsyncInstant:
          ++out.instants[std::string(ev.category) + "/" + ev.name];
          break;
        default:
          break;
      }
    }
    out.unmatched_events += static_cast<int64_t>(stack.size());
  }
  return out;
}

}  // namespace perfbench
