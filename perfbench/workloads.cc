#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <thread>
#include <utility>

#include "src/obs/tracer.h"
#include "src/serving/server.h"
#include "src/tensor/bf16.h"
#include "src/tensor/rng.h"

namespace perfbench {

using samoyeds::DecoderLayerWeights;
using samoyeds::MatrixF;
using samoyeds::MoeModelConfig;
using samoyeds::Rng;
using samoyeds::SamoyedsConfig;
using samoyeds::SamoyedsDecoderLayerWeights;
using samoyeds::obs::ScopedSpan;
using samoyeds::obs::TraceDetail;
using samoyeds::serving::AsyncServer;
using samoyeds::serving::Request;
using samoyeds::serving::RequestStatus;
using samoyeds::serving::ServerPollResult;
using samoyeds::serving::ServingEngine;
using samoyeds::serving::SessionHandle;

namespace {

using Clock = std::chrono::steady_clock;

constexpr uint64_t kModelSeed = 0x5a3070edull;
// Requests served before measuring, to start threads and fill workspaces;
// drawn from a salted seed so they share no prefix with the measured batch.
constexpr int kWarmupRequests = 2;
constexpr uint64_t kWarmupSalt = 0x9e3779b97f4a7c15ull;
// Server client: time between poll sweeps over the live sessions. The
// client shares its CPU with the server's driver thread, so every sweep
// (and its speed probe) preempts the engine.
constexpr double kPollIntervalMs = 1.0;
// Speed probes after each step the client drives itself (a server client
// probes once per poll sweep).
constexpr int kProbesPerStep = 4;

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// A round's clock at reference host speed. Probe(n) runs n speed probes on
// the benchmark's CPU, where they stall the served work, and advances the
// clock over the wall time served since its last advance, scaled
// AtReferenceSpeed by the mean of the last kProbeWindow probes; the probes'
// own time is left out. Now() extrapolates from the last advance at the
// latest speed.
class RoundClock {
 public:
  RoundClock() {
    for (int i = 0; i < kProbeWindow; ++i) {
      Record(SpeedProbeMs());
    }
    t0_ = last_ = Clock::now();
  }

  double Now() const { return ms_ + AtReferenceSpeed(MsSince(last_), WindowMean()); }
  // Wall ms served since the round started.
  double WallMs() const { return MsSince(t0_) - stalled_ms_; }
  double MeanProbeMs() const { return probe_total_ms_ / static_cast<double>(probes_); }

  void Probe(int n) {
    const Clock::time_point start = Clock::now();
    for (int i = 0; i < n; ++i) {
      Record(SpeedProbeMs());
    }
    const Clock::time_point end = Clock::now();
    ms_ += AtReferenceSpeed(std::chrono::duration<double, std::milli>(start - last_).count(),
                            WindowMean());
    stalled_ms_ += std::chrono::duration<double, std::milli>(end - start).count();
    last_ = end;
  }

 private:
  static constexpr int kProbeWindow = 8;

  void Record(double probe_ms) {
    window_[static_cast<size_t>(probes_ % kProbeWindow)] = probe_ms;
    probe_total_ms_ += probe_ms;
    ++probes_;
  }
  double WindowMean() const {
    double sum = 0.0;
    for (double p : window_) {
      sum += p;
    }
    return sum / kProbeWindow;
  }

  Clock::time_point t0_;
  Clock::time_point last_;
  double ms_ = 0.0;
  double stalled_ms_ = 0.0;
  double window_[kProbeWindow] = {};
  double probe_total_ms_ = 0.0;
  int64_t probes_ = 0;
};

// Every workload runs attention slices and experts inline on the thread that
// steps the engine (threads = 1): the benchmark runs on one CPU, where pool
// workers would only take turns with it.
constexpr int kEngineThreads = 1;

std::vector<WorkloadSpec> Specs() {
  std::vector<WorkloadSpec> specs;

  // Long prompts and long decodes on a small model: the attention slice
  // recomputes the whole cached prefix every step, so attention dominates
  // the forward pass. The page pool holds about half of what the resident
  // set needs, so sequences are preempted and swapped every round.
  WorkloadSpec decode;
  decode.name = "decode_long";
  decode.layers = 2;
  decode.hidden = 64;
  decode.inter = 256;
  decode.experts = 8;
  decode.requests = 16;
  decode.prompt_lo = 96;
  decode.prompt_hi = 192;
  decode.decode_lo = 32;
  decode.decode_hi = 64;
  decode.slo = SloLimits{10000.0, 150.0};
  decode.engine.top_k = 2;
  decode.engine.threads = kEngineThreads;
  decode.engine.shards = 2;
  decode.engine.swap = true;
  decode.engine.scheduler.policy = samoyeds::serving::SchedulerPolicy::kTokenBudget;
  decode.engine.scheduler.token_budget = 64;
  decode.engine.scheduler.chunk_tokens = 16;
  decode.engine.scheduler.page_tokens = 16;
  decode.engine.scheduler.max_pages = 96;
  decode.engine.scheduler.preempt = true;
  specs.push_back(decode);

  // Short one-shot prompts on a wider model with more experts: every
  // attention slice starts at prefix 0, so MoE (router, SSMM kernel) takes
  // the largest share of the forward pass.
  WorkloadSpec prefill;
  prefill.name = "prefill_moe";
  prefill.layers = 1;
  prefill.hidden = 128;
  prefill.inter = 512;
  prefill.experts = 16;
  prefill.requests = 96;
  prefill.prompt_lo = 16;
  prefill.prompt_hi = 48;
  prefill.decode_lo = 1;
  prefill.decode_hi = 2;
  prefill.slo = SloLimits{1500.0, 100.0};
  prefill.engine.top_k = 4;
  prefill.engine.threads = kEngineThreads;
  prefill.engine.shards = 1;
  prefill.engine.scheduler.policy = samoyeds::serving::SchedulerPolicy::kTokenBudget;
  prefill.engine.scheduler.token_budget = 256;
  prefill.engine.scheduler.max_resident_tokens = 1 << 20;
  specs.push_back(prefill);

  // Chat batch through the async front end: every prompt opens with the same
  // 32-row system block, so the prefix cache maps it from shared
  // copy-on-write pages, and the whole batch queues in the server mailbox
  // and the scheduler before it is admitted.
  WorkloadSpec chat;
  chat.name = "chat_batch";
  chat.via_server = true;
  chat.layers = 2;
  chat.hidden = 64;
  chat.inter = 256;
  chat.experts = 8;
  chat.requests = 48;
  chat.shared_rows = 32;
  chat.prompt_lo = 8;
  chat.prompt_hi = 32;
  chat.decode_lo = 8;
  chat.decode_hi = 24;
  chat.slo = SloLimits{2500.0, 100.0};
  chat.engine.top_k = 2;
  chat.engine.threads = kEngineThreads;
  chat.engine.shards = 2;
  chat.engine.prefix_cache = true;
  chat.engine.swap = true;
  chat.engine.scheduler.policy = samoyeds::serving::SchedulerPolicy::kTokenBudget;
  chat.engine.scheduler.token_budget = 64;
  chat.engine.scheduler.chunk_tokens = 16;
  chat.engine.scheduler.page_tokens = 16;
  chat.engine.scheduler.max_pages = 128;
  chat.engine.scheduler.preempt = true;
  specs.push_back(chat);
  return specs;
}

const std::vector<WorkloadSpec>& AllSpecs() {
  static const std::vector<WorkloadSpec> specs = Specs();
  return specs;
}

// `count` lengths spread evenly over [lo, hi] (the midpoints of equal-width
// strata). Request j takes stratum floor(frac(j * step) * count): a fixed
// low-discrepancy order, so long and short requests interleave.
std::vector<int64_t> EvenLengths(int count, int64_t lo, int64_t hi, double step) {
  const double width = static_cast<double>(hi - lo + 1) / static_cast<double>(count);
  std::vector<int> order(static_cast<size_t>(count));
  for (int j = 0; j < count; ++j) {
    order[static_cast<size_t>(j)] = j;
  }
  const auto key = [step](int j) {
    const double v = static_cast<double>(j) * step;
    return v - std::floor(v);
  };
  std::sort(order.begin(), order.end(), [&](int a, int b) { return key(a) < key(b); });
  std::vector<int64_t> out(static_cast<size_t>(count));
  for (int rank = 0; rank < count; ++rank) {
    const double mid = (static_cast<double>(rank) + 0.5) * width;
    out[static_cast<size_t>(order[static_cast<size_t>(rank)])] =
        std::min(hi, lo + static_cast<int64_t>(std::floor(mid)));
  }
  return out;
}

// Client-side record of one session's deliveries; times are ms since the
// round started, when every request of the round was due.
struct ClientView {
  int64_t delivered = 0;
  double first_token_ms = -1.0;
  double last_ms = 0.0;
  std::vector<float> rows;
};

// Folds `k` newly delivered rows (observed at `now_ms`) into the view; a
// delivery carrying several decode rows spreads its gap evenly over them.
void Observe(ClientView& view, const MatrixF& rows, int64_t prompt_len, double now_ms,
             ServedRun& run) {
  const int64_t k = rows.rows();
  if (k == 0) {
    return;
  }
  view.rows.insert(view.rows.end(), rows.data(), rows.data() + rows.size());
  const int64_t before = view.delivered;
  view.delivered += k;
  if (before < prompt_len) {
    if (view.delivered >= prompt_len) {
      view.first_token_ms = now_ms;
      run.ttft_ms.push_back(now_ms);
      for (int64_t i = prompt_len; i < view.delivered; ++i) {
        run.tpot_gaps_ms.push_back(0.0);
      }
      view.last_ms = now_ms;
    }
    return;
  }
  const double gap = (now_ms - view.last_ms) / static_cast<double>(k);
  for (int64_t i = 0; i < k; ++i) {
    run.tpot_gaps_ms.push_back(gap);
  }
  view.last_ms = now_ms;
}

RequestOutcome OutcomeOf(const ClientView& view, const Request& r, bool finished) {
  RequestOutcome o;
  o.ok = finished && view.delivered == r.total_tokens();
  o.ttft_ms = view.first_token_ms >= 0.0 ? view.first_token_ms : 0.0;
  o.tpot_ms = r.max_new_tokens > 0 && view.first_token_ms >= 0.0
                  ? (view.last_ms - view.first_token_ms) / static_cast<double>(r.max_new_tokens)
                  : 0.0;
  return o;
}

void CaptureEngine(const ServingEngine& engine, ServedRun& run) {
  run.report = engine.Report();
  run.steps = engine.metrics().steps();
  run.requests = engine.metrics().requests();
  run.prefix_evictions =
      engine.prefix_cache() != nullptr ? engine.prefix_cache()->evictions() : 0;
}

void AccumulateForward(const ServingEngine& engine, ServedRun& run) {
  for (const auto& sm : engine.metrics().steps()) {
    run.forward_ms += sm.wall_ms;
    run.forward_rows += sm.batch_rows;
  }
}

// Per-(step, layer) expert loads from consecutive cumulative snapshots; the
// engine exposes loads summed over layers, so a multi-layer step contributes
// its per-layer mean.
void RecordLoads(const std::vector<int64_t>& before, const std::vector<int64_t>& after,
                 int layers, ServedRun& run) {
  for (size_t e = 0; e < after.size(); ++e) {
    const int64_t prev = e < before.size() ? before[e] : 0;
    const int64_t load = (after[e] - prev + layers / 2) / layers;
    if (load > 0) {
      run.expert_loads.push_back(load);
    }
  }
}

// Steps the engine from this thread until the batch drains, polling every
// session after each step; returns which sessions finished.
std::vector<bool> DriveEngine(ServingEngine& engine, std::vector<Request>& batch,
                              const std::vector<Request>& templates, bool record_layers,
                              int layers, RoundClock& clock, std::vector<ClientView>& views,
                              ServedRun& run) {
  const size_t n = batch.size();
  std::vector<SessionHandle> handles(n);
  std::vector<int64_t> loads_before = record_layers ? engine.metrics().expert_tokens()
                                                    : std::vector<int64_t>{};
  for (size_t i = 0; i < n; ++i) {
    batch[i].arrival_step = engine.current_step();
    {
      ScopedSpan span("bench", "submit", TraceDetail::kStep);
      handles[i] = engine.Submit(std::move(batch[i]));
    }
    run.gen_lag_ms.push_back(clock.Now());
  }
  while (true) {
    bool more = false;
    {
      ScopedSpan span("bench", "step", TraceDetail::kStep);
      more = engine.Step();
    }
    if (!more) {
      break;
    }
    clock.Probe(kProbesPerStep);
    const double now_ms = clock.Now();
    {
      ScopedSpan span("bench", "poll", TraceDetail::kStep);
      for (size_t i = 0; i < n; ++i) {
        Observe(views[i], handles[i].NewRows(), templates[i].prompt_len, now_ms, run);
      }
    }
    if (record_layers) {
      std::vector<int64_t> loads_after = engine.metrics().expert_tokens();
      RecordLoads(loads_before, loads_after, layers, run);
      loads_before = std::move(loads_after);
    }
  }
  std::vector<bool> finished(n);
  for (size_t i = 0; i < n; ++i) {
    finished[i] = handles[i].status() == RequestStatus::kFinished;
  }
  return finished;
}

// Submits the batch through an AsyncServer (virtual clock: the whole mailbox
// drains into the engine at Start, so the schedule is the engine's own) and
// polls every live session from this thread until all are terminal.
std::vector<bool> DriveServer(ServingEngine& engine, std::vector<Request>& batch,
                              const std::vector<Request>& templates, bool record_layers,
                              RoundClock& clock, std::vector<ClientView>& views,
                              ServedRun& run) {
  const size_t n = batch.size();
  AsyncServer server(engine);
  for (size_t i = 0; i < n; ++i) {
    const Clock::time_point s0 = Clock::now();
    {
      ScopedSpan span("bench", "submit", TraceDetail::kStep);
      server.Submit(std::move(batch[i]));
    }
    if (record_layers) {
      run.submit_us.push_back(
          std::chrono::duration<double, std::micro>(Clock::now() - s0).count());
    }
    run.gen_lag_ms.push_back(clock.Now());
  }
  server.Start();
  std::vector<bool> finished(n, false);
  std::vector<size_t> live(n);
  for (size_t i = 0; i < n; ++i) {
    live[i] = i;
  }
  int64_t sweeps = 0;
  const double first_sweep_ms = clock.Now();
  double last_sweep_ms = first_sweep_ms;
  while (!live.empty()) {
    clock.Probe(1);
    last_sweep_ms = clock.Now();
    ++sweeps;
    {
      ScopedSpan span("bench", "poll", TraceDetail::kStep);
      for (size_t j = 0; j < live.size();) {
        const size_t i = live[j];
        const Clock::time_point p0 = Clock::now();
        const ServerPollResult res = server.Poll(templates[i].id);
        if (record_layers) {
          run.poll_us.push_back(
              std::chrono::duration<double, std::micro>(Clock::now() - p0).count());
        }
        Observe(views[i], res.new_rows, templates[i].prompt_len, clock.Now(), run);
        if (res.terminal) {
          finished[i] = res.status == RequestStatus::kFinished;
          live[j] = live.back();
          live.pop_back();
        } else {
          ++j;
        }
      }
    }
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(kPollIntervalMs));
  }
  server.Drain();
  server.Stop();
  if (sweeps > 1) {
    run.poll_interval_ms = (last_sweep_ms - first_sweep_ms) / static_cast<double>(sweeps - 1);
  }
  run.peak_mailbox_depth = std::max(run.peak_mailbox_depth, server.peak_mailbox_depth());
  run.shed_submits += server.shed_submits();
  return finished;
}

// Serves one round on `engine`: the whole batch is due at the round's start.
void ServeRound(const WorkloadSpec& spec, ServingEngine& engine,
                const std::vector<Request>& templates, bool record_layers, ServedRun& run) {
  const size_t n = templates.size();
  const int64_t id_base = run.rounds * static_cast<int64_t>(n);
  std::vector<Request> batch = templates;
  for (size_t i = 0; i < n; ++i) {
    batch[i].id = id_base + static_cast<int64_t>(i);
  }
  std::vector<Request> ids(n);  // templates with this round's ids, inputs dropped
  for (size_t i = 0; i < n; ++i) {
    ids[i].id = batch[i].id;
    ids[i].prompt_len = templates[i].prompt_len;
    ids[i].max_new_tokens = templates[i].max_new_tokens;
  }
  std::vector<ClientView> views(n);

  RoundClock clock;
  const std::vector<bool> finished =
      spec.via_server
          ? DriveServer(engine, batch, ids, record_layers, clock, views, run)
          : DriveEngine(engine, batch, ids, record_layers, spec.layers, clock, views, run);
  const double round_ms = clock.Now();
  const double wall_ms = clock.WallMs();

  const bool first_round = run.rounds == 0;
  int64_t tokens = 0;
  for (size_t i = 0; i < n; ++i) {
    RequestOutcome o = OutcomeOf(views[i], templates[i], finished[i]);
    if (first_round) {
      run.rows[i] = std::move(views[i].rows);
    } else if (o.ok) {
      // Later rounds serve the same inputs: their rows must equal round 0's,
      // which CheckOutputs compares against the reference.
      o.ok = views[i].rows.size() == run.rows[i].size() &&
             OutputsMatch(views[i].rows.data(), run.rows[i].data(),
                          static_cast<int64_t>(run.rows[i].size()), 0);
    }
    tokens += templates[i].total_tokens();
    run.outcomes.push_back(o);
    run.outcome_template.push_back(static_cast<int64_t>(i));
  }
  run.round_log.push_back(ServedRun::Round{round_ms, wall_ms, clock.MeanProbeMs(), tokens});
  run.measured_s += wall_ms / 1000.0;
  ++run.rounds;
}

std::vector<SamoyedsDecoderLayerWeights> BuildModel(const WorkloadSpec& spec) {
  MoeModelConfig cfg;
  cfg.name = spec.name;
  cfg.num_experts = spec.experts;
  cfg.hidden = spec.hidden;
  cfg.intermediate = spec.inter;
  cfg.top_k = spec.engine.top_k;
  const SamoyedsConfig fmt{1, 2, 32};
  Rng rng(kModelSeed);
  std::vector<SamoyedsDecoderLayerWeights> layers;
  for (int l = 0; l < spec.layers; ++l) {
    layers.push_back(
        SamoyedsDecoderLayerWeights::Encode(DecoderLayerWeights::Random(rng, cfg), fmt));
  }
  return layers;
}

}  // namespace

double SpeedProbeMs() {
  // Attention-shaped work, the kind that dominates every workload's forward
  // pass: scalar dot-product reductions of 64 query rows against 64 key rows
  // of width 64, then exp over the scores; the same work on every call, on
  // operands that stay in L1. (A vectorized multiply-add probe slowed up to
  // twice as much as the workloads under some neighbours' load.)
  constexpr int kRows = 64;
  constexpr int kDim = 64;
  static const std::vector<float> q(kRows * kDim, 0.01f);
  static const std::vector<float> k(kRows * kDim, 0.02f);
  static std::vector<float> scores(kRows);
  static volatile float sink = 0.0f;
  const Clock::time_point t0 = Clock::now();
  float total = 0.0f;
  for (int i = 0; i < kRows; ++i) {
    for (int j = 0; j < kRows; ++j) {
      float dot = 0.0f;
      for (int d = 0; d < kDim; ++d) {
        dot += q[i * kDim + d] * k[j * kDim + d];
      }
      scores[j] = dot;
    }
    for (int j = 0; j < kRows; ++j) {
      total += std::exp(scores[j] - 1.0f);
    }
  }
  const double ms = MsSince(t0);
  sink = sink + total;
  return ms;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : AllSpecs()) {
    if (spec.name == name) {
      return &spec;
    }
  }
  return nullptr;
}

std::vector<Request> MakeRequests(const WorkloadSpec& spec, uint64_t seed, int count) {
  Rng rng(seed);
  const MatrixF shared = rng.GaussianMatrix(spec.shared_rows, spec.hidden, 0.5f);
  // Different irrational steps keep prompt and decode lengths uncorrelated.
  const std::vector<int64_t> prompts =
      EvenLengths(count, spec.prompt_lo, spec.prompt_hi, 0.6180339887498949);
  const std::vector<int64_t> decodes =
      EvenLengths(count, spec.decode_lo, spec.decode_hi, 0.4142135623730951);
  std::vector<Request> out;
  out.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    Request r;
    r.id = i;
    r.prompt_len = spec.shared_rows + prompts[static_cast<size_t>(i)];
    r.max_new_tokens = decodes[static_cast<size_t>(i)];
    r.inputs = rng.GaussianMatrix(r.total_tokens(), spec.hidden, 0.5f);
    std::copy(shared.data(), shared.data() + shared.size(), r.inputs.data());
    samoyeds::RoundMatrixToBf16(r.inputs);
    out.push_back(std::move(r));
  }
  return out;
}

std::vector<SamoyedsDecoderLayerWeights> SetUp(const WorkloadSpec& spec, uint64_t seed) {
  std::vector<SamoyedsDecoderLayerWeights> layers = BuildModel(spec);
  ServingEngine engine(layers, spec.engine);
  // Warm-up ids sit far above any measured id.
  constexpr int64_t kWarmupIdBase = int64_t{1} << 40;
  for (Request& r : MakeRequests(spec, seed ^ kWarmupSalt, kWarmupRequests)) {
    r.id += kWarmupIdBase;
    engine.Submit(std::move(r));
  }
  engine.RunUntilDrained();
  return layers;
}

ServedRun Measure(const WorkloadSpec& spec, const std::vector<SamoyedsDecoderLayerWeights>& layers,
                  const MeasureOptions& options) {
  const std::vector<Request> templates = MakeRequests(spec, options.seed, spec.requests);
  ServedRun run;
  run.rows.resize(templates.size());
  std::unique_ptr<ServingEngine> engine;
  // Rounds repeat for the measured time and, when asked, beyond it until the
  // samples support the tail percentiles (every round adds one TTFT sample
  // per request).
  const auto more_rounds = [&] {
    if (options.fixed_rounds > 0) {
      return run.rounds < options.fixed_rounds;
    }
    return run.measured_s < options.seconds ||
           (options.support_tails &&
            !(PercentileSupported(static_cast<int64_t>(run.ttft_ms.size()), 90.0) &&
              PercentileSupported(static_cast<int64_t>(run.tpot_gaps_ms.size()), 99.0)));
  };
  while (more_rounds()) {
    // A fresh engine per round keeps every round's schedule (and the
    // process's memory) identical; fixed-round runs reuse one engine so
    // its report covers them all.
    if (engine == nullptr || options.fixed_rounds == 0) {
      engine = std::make_unique<ServingEngine>(layers, spec.engine);
    }
    ServeRound(spec, *engine, templates, options.record_layers, run);
    if (options.fixed_rounds == 0) {
      AccumulateForward(*engine, run);
    }
  }
  if (options.fixed_rounds > 0) {
    AccumulateForward(*engine, run);
  }
  CaptureEngine(*engine, run);
  if (options.record_layers && spec.via_server) {
    // The server's driver thread steps the engine, so per-step loads are not
    // observable here: replay each expert's mean load per (step, layer).
    const int64_t denom = std::max<int64_t>(1, run.report.steps * spec.layers);
    for (int64_t total : run.report.expert_tokens) {
      if (total / denom > 0) {
        run.expert_loads.push_back(total / denom);
      }
    }
  }
  return run;
}

int64_t CheckOutputs(const WorkloadSpec& spec,
                     const std::vector<SamoyedsDecoderLayerWeights>& layers, uint64_t seed,
                     int64_t max_ulp, ServedRun& run) {
  const std::vector<Request> requests =
      MakeRequests(spec, seed, static_cast<int>(run.rows.size()));
  std::vector<bool> bad(requests.size(), false);
  int64_t mismatches = 0;
  for (size_t i = 0; i < requests.size(); ++i) {
    const Request& r = requests[i];
    if (static_cast<int64_t>(run.rows[i].size()) != r.total_tokens() * spec.hidden) {
      continue;  // not delivered in full: already a failed outcome
    }
    const MatrixF want = samoyeds::DecoderStackForwardSamoyeds(
        r.inputs, layers, spec.engine.heads, spec.engine.top_k, spec.engine.activation);
    if (!OutputsMatch(run.rows[i].data(), want.data(), static_cast<int64_t>(want.size()),
                      max_ulp)) {
      bad[i] = true;
      ++mismatches;
    }
  }
  for (size_t k = 0; k < run.outcomes.size(); ++k) {
    if (bad[static_cast<size_t>(run.outcome_template[k])]) {
      run.outcomes[k].ok = false;
    }
  }
  return mismatches;
}

}  // namespace perfbench
