// The repository benchmark: serves one workload, checks every output against
// DecoderStackForwardSamoyeds, and prints the metrics as one JSON line.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// serves half the time untraced and then a traced run with the flight
// recorder at full detail, aggregates the engine's spans into per-layer
// self times, replays the recorded expert loads through SamoyedsKernel::Run
// (the kernel ladder), and prints the per-layer metrics. Human-readable
// lines come first; the last line of stdout is the JSON result. Exit code:
// 0 on success, 1 on any output mismatch or unsupported percentile, 2 on
// bad arguments.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "alloc_counter.h"
#include "src/core/kernel_backend.h"
#include "src/core/samoyeds_kernel.h"
#include "src/obs/tracer.h"
#include "src/simgpu/device_spec.h"
#include "src/simgpu/timing_model.h"
#include "src/tensor/bf16.h"
#include "src/tensor/rng.h"
#include "stats.h"
#include "trace_agg.h"
#include "workloads.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using samoyeds::KernelBackend;
using samoyeds::SamoyedsDecoderLayerWeights;
using samoyeds::obs::TraceDetail;
using samoyeds::obs::Tracer;

constexpr int kSetupReps = 5;
// Speed probes run before and after each set-up repetition.
constexpr int kSetupProbes = 32;
constexpr double kMiB = 1024.0 * 1024.0;
// Rounds the traced run serves on a single engine; the flight recorder's
// default ring holds them without wrapping (trace.dropped_events checks).
constexpr int kTracedRounds = 2;
// Time the kernel ladder spends replaying the recorded shapes.
constexpr double kLadderSeconds = 0.5;
// Units in the last place an FMA kernel backend may differ by (the SIMD
// backends' accumulation contract); the scalar backend is compared bit-exactly.
constexpr int64_t kFmaMaxUlp = 4;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = 0;
};

bool ParseArgs(int argc, char** argv, Args* out, std::string* error) {
  bool have[4] = {false, false, false, false};
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      *error = "missing value for " + flag;
      return false;
    }
    const char* value = argv[i + 1];
    const char* end = value + std::char_traits<char>::length(value);
    if (flag == "--workload") {
      out->workload = value;
      have[0] = true;
    } else if (flag == "--seed") {
      have[1] = std::from_chars(value, end, out->seed).ptr == end;
    } else if (flag == "--seconds") {
      have[2] = std::from_chars(value, end, out->seconds).ptr == end && out->seconds > 0.0;
    } else if (flag == "--trace") {
      have[3] = std::from_chars(value, end, out->trace).ptr == end &&
                (out->trace == 0 || out->trace == 1);
    } else {
      *error = "unknown flag " + flag;
      return false;
    }
  }
  if (!(have[0] && have[1] && have[2] && have[3])) {
    *error = "need --workload <name> --seed <n> --seconds <s> --trace <0|1> (valid values)";
    return false;
  }
  return true;
}

// Restricts the process, and every thread it starts later, to the CPU it
// runs on now, so the speed probes run on the CPU that serves the workload
// (a server's driver thread included). Returns the CPU, or -1 when the
// process is left unpinned.
int PinToOneCpu() {
  const int cpu = sched_getcpu();
  if (cpu < 0) {
    return -1;
  }
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof(set), &set) == 0 ? cpu : -1;
}

double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

std::string Number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// Kernel ladder: SamoyedsKernel::Run (gate, up and down projections of one
// expert) replayed at the recorded tokens-per-expert loads.
struct LadderResult {
  int64_t calls = 0;
  double gflops = 0.0;           // dense-equivalent useful FLOPs per host second
  double bytes_mib = 0.0;        // computed bytes moved per call (from tensor sizes)
  double allocs_per_call = 0.0;
  double model_ms = 0.0;         // TimingModel estimate per call, modeled GPU
  double host_us = 0.0;          // measured host time per call
};

LadderResult RunKernelLadder(const SamoyedsDecoderLayerWeights& layer,
                             std::vector<int64_t> loads, uint64_t seed) {
  LadderResult result;
  if (loads.empty()) {
    return result;
  }
  // A bounded, evenly strided sample keeps the replay's shape mix.
  constexpr size_t kMaxShapes = 256;
  if (loads.size() > kMaxShapes) {
    std::vector<int64_t> sampled;
    for (size_t i = 0; i < kMaxShapes; ++i) {
      sampled.push_back(loads[i * loads.size() / kMaxShapes]);
    }
    loads = std::move(sampled);
  }
  const auto& expert = layer.moe.experts.front();
  const samoyeds::SamoyedsMatrix* projections[] = {&expert.gate, &expert.up, &expert.down};
  const samoyeds::DeviceSpec& device = samoyeds::DefaultDevice();
  const samoyeds::TimingModel model(device);

  struct Call {
    const samoyeds::SamoyedsMatrix* a;
    samoyeds::MatrixF b;
    samoyeds::Selection sel;
    double flops;
    double bytes;
    double model_ms;
  };
  samoyeds::Rng rng(seed);
  std::vector<Call> calls;
  for (int64_t n : loads) {
    for (const samoyeds::SamoyedsMatrix* a : projections) {
      samoyeds::MatrixF b = rng.GaussianMatrix(a->cols, n, 0.5f);
      samoyeds::RoundMatrixToBf16(b);
      const samoyeds::KernelProfile profile = samoyeds::SamoyedsKernel::Analyze(
          samoyeds::GemmShape{a->rows, a->cols, n}, n, a->config,
          samoyeds::SsmmConfig::Default(), device);
      calls.push_back(Call{a, std::move(b), samoyeds::Selection::All(n), profile.useful_flops,
                           profile.traffic.gmem_read_bytes + profile.traffic.gmem_write_bytes,
                           model.Estimate(profile.traffic).total_ms});
    }
  }
  samoyeds::SsmmWorkspace ws;
  samoyeds::MatrixF out;
  for (const Call& c : calls) {  // warm the workspace to its largest shape
    samoyeds::SamoyedsKernel::Run(*c.a, c.b, c.sel, ws, out);
  }
  double flops = 0.0;
  double bytes = 0.0;
  double model_ms = 0.0;
  const int64_t allocs0 = AllocCount();
  const Clock::time_point t0 = Clock::now();
  double elapsed_s = 0.0;
  while (elapsed_s < kLadderSeconds) {
    for (const Call& c : calls) {
      samoyeds::SamoyedsKernel::Run(*c.a, c.b, c.sel, ws, out);
      flops += c.flops;
      bytes += c.bytes;
      model_ms += c.model_ms;
    }
    result.calls += static_cast<int64_t>(calls.size());
    elapsed_s = std::chrono::duration<double>(Clock::now() - t0).count();
  }
  const double calls_d = static_cast<double>(result.calls);
  result.allocs_per_call = static_cast<double>(AllocCount() - allocs0) / calls_d;
  result.gflops = flops / elapsed_s * 1e-9;
  result.bytes_mib = bytes / calls_d / kMiB;
  result.model_ms = model_ms / calls_d;
  result.host_us = elapsed_s * 1e6 / calls_d;
  return result;
}

double ForwardMsPerRow(const ServedRun& run) {
  return run.forward_rows > 0 ? run.forward_ms / static_cast<double>(run.forward_rows) : 0.0;
}

// End-to-end metrics of an untraced run, pooled over all its rounds, with
// times at reference host speed. False when a reported percentile lacks
// kMinTail samples beyond it.
bool EndToEndMetrics(const WorkloadSpec& spec, const ServedRun& run, double setup_s,
                     double peak_rss_mib, int64_t failed, std::vector<Metric>* out) {
  const int64_t sent = static_cast<int64_t>(run.outcomes.size());
  double ms = 0.0;
  double wall_ms = 0.0;
  double probe_ms = 0.0;
  int64_t tokens = 0;
  for (const ServedRun::Round& r : run.round_log) {
    ms += r.ms;
    wall_ms += r.wall_ms;
    probe_ms += r.probe_ms;
    tokens += r.tokens;
  }
  const double rounds = static_cast<double>(std::max<int64_t>(1, run.rounds));
  std::printf("samples: ttft n=%zu, tpot n=%zu, requests n=%lld, rounds=%lld\n",
              run.ttft_ms.size(), run.tpot_gaps_ms.size(), static_cast<long long>(sent),
              static_cast<long long>(run.rounds));
  std::printf("host speed: mean probe %.4f ms (reference %.4f ms); wall clock %.1f tokens/s\n",
              probe_ms / rounds, kProbeRefMs, 1000.0 * static_cast<double>(tokens) / wall_ms);
  if (!PercentileSupported(static_cast<int64_t>(run.ttft_ms.size()), 90.0) ||
      !PercentileSupported(static_cast<int64_t>(run.tpot_gaps_ms.size()), 99.0)) {
    std::printf("error: too few samples for ttft p90 / tpot p99 (need %lld beyond each)\n",
                static_cast<long long>(kMinTail));
    return false;
  }
  *out = {
      {"setup_s", setup_s, "s"},
      {"tokens_per_s", 1000.0 * static_cast<double>(tokens) / ms, "1/s"},
      {"ttft_p50_ms", Percentile(run.ttft_ms, 50.0), "ms"},
      {"ttft_p90_ms", Percentile(run.ttft_ms, 90.0), "ms"},
      {"tpot_p50_ms", Percentile(run.tpot_gaps_ms, 50.0), "ms"},
      {"tpot_p99_ms", Percentile(run.tpot_gaps_ms, 99.0), "ms"},
      {"slo_attainment", SloAttainment(run.outcomes, spec.slo), "ratio"},
      {"success_share", sent > 0 ? static_cast<double>(sent - failed) / sent : 0.0, "ratio"},
      {"peak_rss_mib", peak_rss_mib, "MiB"},
  };
  return true;
}

std::vector<Metric> PerLayerMetrics(const WorkloadSpec& spec, const ServedRun& untraced,
                                    const ServedRun& traced, const TraceSummary& trace,
                                    const LadderResult& ladder) {
  const samoyeds::serving::ServingReport& rep = traced.report;
  const double rounds = static_cast<double>(std::max<int64_t>(1, traced.rounds));
  int64_t fwd_steps = 0;
  double kv_read = 0.0;
  double kv_write = 0.0;
  double wall_ms = 0.0;
  int64_t rows = 0;
  for (const auto& sm : traced.steps) {
    ++fwd_steps;
    kv_read += sm.kv_read_bytes;
    kv_write += sm.kv_write_bytes;
    wall_ms += sm.wall_ms;
    rows += sm.batch_rows;
  }
  const double per_step = 1.0 / static_cast<double>(std::max<int64_t>(1, fwd_steps));
  const SpanTotals& step = trace.span("engine/step");
  const SpanTotals& forward = trace.span("engine/forward");
  const double fwd_total = std::max(1e-12, forward.total_ms);
  const double gathered_rows =
      kv_read / (static_cast<double>(spec.hidden) * sizeof(float) * spec.layers);
  std::vector<double> queue_wait;
  for (const auto& [id, rm] : traced.requests) {
    if (rm.admit_step >= 0) {
      queue_wait.push_back(static_cast<double>(rm.admit_step - rm.arrival_step));
    }
  }
  const bool server = spec.via_server;
  const int64_t admits = trace.instant("request/admit");
  const double untraced_row_ms = ForwardMsPerRow(untraced);
  return {
      {"server.submit_us_p50", server ? Percentile(traced.submit_us, 50.0) : 0.0, "us"},
      {"server.poll_us_p50", server ? Percentile(traced.poll_us, 50.0) : 0.0, "us"},
      {"server.peak_mailbox_depth", static_cast<double>(traced.peak_mailbox_depth), "count"},
      {"server.shed_submits", static_cast<double>(traced.shed_submits), "count"},
      {"engine.step_ms_p50", Percentile(step.durations_ms, 50.0), "ms"},
      {"engine.step_ms_p99", Percentile(step.durations_ms, 99.0), "ms"},
      {"engine.steps", static_cast<double>(rep.steps) / rounds, "count/round"},
      {"engine.batch_rows_mean", rep.mean_batch_rows, "rows"},
      {"engine.occupancy", rep.mean_occupancy, "ratio"},
      {"engine.host_ms", (step.total_ms - wall_ms) * per_step, "ms/step"},
      {"sched.queue_wait_steps_p50", Percentile(queue_wait, 50.0), "steps"},
      {"sched.preemptions", static_cast<double>(rep.preemptions) / rounds, "count/round"},
      {"kv.peak_pages", static_cast<double>(rep.peak_used_pages), "pages"},
      {"kv.frag_tokens_mean", rep.mean_frag_tokens, "tokens"},
      {"kv.read_mib", kv_read / kMiB / rounds, "MiB/round"},
      {"kv.write_mib", kv_write / kMiB / rounds, "MiB/round"},
      {"kv.swap_out_mib", rep.swap_out_bytes / kMiB / rounds, "MiB/round"},
      {"kv.swap_in_mib", rep.swap_in_bytes / kMiB / rounds, "MiB/round"},
      {"kv.cow_splits", static_cast<double>(rep.cow_splits) / rounds, "count/round"},
      {"prefix.hit_rate",
       admits > 0 ? static_cast<double>(trace.instant("request/prefix_hit")) / admits : 0.0,
       "ratio"},
      {"prefix.hit_tokens", static_cast<double>(rep.prefix_hit_tokens) / rounds, "tokens/round"},
      {"prefix.evictions", static_cast<double>(traced.prefix_evictions) / rounds, "count/round"},
      {"attention.ms", trace.span("engine/attn").total_ms * per_step, "ms/step"},
      {"attention.share", trace.span("engine/attn").total_ms / fwd_total, "ratio"},
      {"attention.slices", static_cast<double>(trace.span("attn/slice").count) / rounds,
       "count/round"},
      {"attention.rows_computed_per_row_needed",
       rows > 0 ? (gathered_rows + static_cast<double>(rows)) / static_cast<double>(rows) : 0.0,
       "ratio"},
      {"moe.ms", trace.span("engine/moe").total_ms * per_step, "ms/step"},
      {"moe.share", trace.span("engine/moe").total_ms / fwd_total, "ratio"},
      {"moe.pool_barrier_ms", trace.span("pool/barrier").total_ms * per_step, "ms/step"},
      {"moe.expert_imbalance", rep.expert_imbalance, "ratio"},
      {"moe.shard_imbalance", rep.shard_imbalance, "ratio"},
      {"kernel.tile_ms", trace.span("expert/tile").total_ms * per_step, "ms/step"},
      {"kernel.gflops", ladder.gflops, "GFLOP/s"},
      {"kernel.bytes_mib", ladder.bytes_mib, "MiB/call"},
      {"kernel.allocs_per_call", ladder.allocs_per_call, "count"},
      {"kernel.model_ms", ladder.model_ms, "ms/call"},
      {"model.est_forward_ms", (rep.est_compute_ms + rep.est_alltoall_ms) / rounds, "ms/round"},
      {"model.alltoall_mib", rep.alltoall_bytes / kMiB / rounds, "MiB/round"},
      {"trace.unattributed_share", step.total_ms > 0.0 ? step.self_ms / step.total_ms : 0.0,
       "ratio"},
      {"trace.overhead_pct",
       untraced_row_ms > 0.0 ? 100.0 * (ForwardMsPerRow(traced) / untraced_row_ms - 1.0) : 0.0,
       "%"},
      {"trace.dropped_events", static_cast<double>(trace.dropped_events), "count"},
      {"gen.lag_ms_p99", Percentile(traced.gen_lag_ms, 99.0), "ms"},
      {"gen.poll_interval_ms", traced.poll_interval_ms, "ms"},
  };
}

// Share of engine step time per named phase (inclusive span time on the
// engine thread; "unattributed" is the step's own self time), printed so the
// profile is recorded beside the metrics.
void PrintPhaseShares(const TraceSummary& trace) {
  const SpanTotals& step = trace.span("engine/step");
  if (step.total_ms <= 0.0) {
    return;
  }
  std::printf("phase shares of step time (%.1f ms traced):", step.total_ms);
  for (const char* key : {"engine/plan", "engine/evict", "engine/admit", "engine/assemble",
                          "engine/attn", "engine/moe", "pool/barrier", "engine/retire"}) {
    std::printf(" %s=%.3f", key, trace.span(key).total_ms / step.total_ms);
  }
  std::printf(" unattributed=%.4f\n", step.self_ms / step.total_ms);
}

void PrintRequests(const ServedRun& run, int64_t failed) {
  std::printf("requests: sent=%zu succeeded=%lld failed=%lld\n", run.outcomes.size(),
              static_cast<long long>(static_cast<int64_t>(run.outcomes.size()) - failed),
              static_cast<long long>(failed));
}

int64_t CountFailed(const ServedRun& run) {
  int64_t failed = 0;
  for (const RequestOutcome& o : run.outcomes) {
    failed += o.ok ? 0 : 1;
  }
  return failed;
}

int Main(int argc, char** argv) {
  Args args;
  std::string error;
  if (!ParseArgs(argc, argv, &args, &error)) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return 2;
  }
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const int cpu = PinToOneCpu();
  const KernelBackend backend = samoyeds::ActiveKernelBackend();
  const int64_t max_ulp = backend == KernelBackend::kScalar ? 0 : kFmaMaxUlp;
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d backend=%s cpu=%d\n",
              spec->name.c_str(), static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace, samoyeds::KernelBackendName(backend), cpu);

  // Set-up: model build and encode, engine construction and warm-up, at
  // reference host speed (speed probes around each repetition).
  std::vector<double> setup_s;
  std::vector<SamoyedsDecoderLayerWeights> layers;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    double probe_ms = 0.0;
    for (int i = 0; i < kSetupProbes / 2; ++i) {
      probe_ms += SpeedProbeMs();
    }
    const Clock::time_point t0 = Clock::now();
    layers = SetUp(*spec, args.seed);
    const double wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
    for (int i = 0; i < kSetupProbes / 2; ++i) {
      probe_ms += SpeedProbeMs();
    }
    setup_s.push_back(AtReferenceSpeed(wall_s, probe_ms / kSetupProbes));
  }

  MeasureOptions options;
  options.seed = args.seed;
  std::vector<Metric> metrics;
  int64_t mismatches = 0;
  int64_t failed = 0;
  int64_t attempted = 0;
  bool ok = true;
  if (args.trace == 0) {
    options.seconds = args.seconds;
    options.support_tails = true;
    ServedRun run = Measure(*spec, layers, options);
    const double rss = PeakRssMib();
    mismatches = CheckOutputs(*spec, layers, args.seed, max_ulp, run);
    failed = CountFailed(run);
    attempted = static_cast<int64_t>(run.outcomes.size());
    PrintRequests(run, failed);
    ok = EndToEndMetrics(*spec, run, Median(setup_s), rss, failed, &metrics);
  } else {
    options.seconds = args.seconds / 2.0;
    ServedRun untraced = Measure(*spec, layers, options);
    options.record_layers = true;
    options.fixed_rounds = kTracedRounds;
    Tracer& tracer = Tracer::Get();
    tracer.Start(TraceDetail::kFull);
    // Registers this thread's ring now, so its allocation is not charged to
    // the first timed submit.
    samoyeds::obs::TraceInstant("bench", "start", TraceDetail::kStep);
    ServedRun traced = Measure(*spec, layers, options);
    tracer.Stop();
    const TraceSummary trace = Aggregate(tracer.Snapshot());
    std::printf("trace: events=%lld dropped=%lld unmatched=%lld\n",
                static_cast<long long>(tracer.total_events()),
                static_cast<long long>(trace.dropped_events),
                static_cast<long long>(trace.unmatched_events));
    PrintPhaseShares(trace);
    const LadderResult ladder = RunKernelLadder(layers.front(), traced.expert_loads, args.seed);
    std::printf("kernel ladder: %zu recorded loads, %lld calls, %.2f us/call host, "
                "%.4f ms/call modeled (TimingModel, not added to host time)\n",
                traced.expert_loads.size(), static_cast<long long>(ladder.calls),
                ladder.host_us, ladder.model_ms);
    mismatches = CheckOutputs(*spec, layers, args.seed, max_ulp, untraced) +
                 CheckOutputs(*spec, layers, args.seed, max_ulp, traced);
    failed = CountFailed(untraced) + CountFailed(traced);
    attempted = static_cast<int64_t>(untraced.outcomes.size() + traced.outcomes.size());
    PrintRequests(untraced, CountFailed(untraced));
    PrintRequests(traced, CountFailed(traced));
    metrics = PerLayerMetrics(*spec, untraced, traced, trace, ladder);
    ok = trace.dropped_events == 0 && trace.unmatched_events == 0;
  }
  std::printf("kv bytes are computed from tensor sizes (rows x hidden x 4 B x layers)\n");
  std::printf("output check: %lld mismatching requests (%s)\n",
              static_cast<long long>(mismatches), max_ulp == 0 ? "bit-exact" : "ULP-bounded");
  for (const Metric& m : metrics) {
    std::printf("  %-40s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  const bool correct = mismatches == 0;
  if (!ok) {
    std::printf("error: the run did not meet the benchmark's measurement contract\n");
    return 1;
  }
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
            Number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
