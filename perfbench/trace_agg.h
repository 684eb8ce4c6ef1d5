// Aggregates a flight-recorder capture (obs::Tracer::Snapshot) into per-span
// totals: count, inclusive time and self time, keyed "category/name".
//
// Self time is a span's duration minus the part of it covered by its child
// spans on the same thread. Spans that run on other threads (attention
// slices and expert tiles on the pool workers) are not children of the
// engine-thread span that waits for them, so that span's self time is its
// wall time.

#ifndef PERFBENCH_TRACE_AGG_H_
#define PERFBENCH_TRACE_AGG_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/obs/tracer.h"

namespace perfbench {

struct SpanTotals {
  int64_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
  std::vector<double> durations_ms;  // one per closed span
};

struct TraceSummary {
  std::map<std::string, SpanTotals> spans;      // "engine/step", "expert/tile", ...
  std::map<std::string, int64_t> instants;      // "request/admit", ... (async + thread)
  int64_t dropped_events = 0;
  int64_t unmatched_events = 0;  // ends without a begin (ring wrap)

  const SpanTotals& span(const std::string& key) const;
  int64_t instant(const std::string& key) const;
};

TraceSummary Aggregate(const std::vector<samoyeds::obs::TraceThread>& threads);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_AGG_H_
