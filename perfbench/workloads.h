// The benchmark's workloads and the client loops that serve them.
//
// Every workload is an offline batch: the whole batch is submitted at once
// and is due at that moment; one batch is a *round*, and rounds repeat on
// fresh engines for the measured time. decode_long and prefill_moe submit
// on the engine's step clock and drive ServingEngine::Step() from this
// thread, polling every session after each step. chat_batch submits through
// an AsyncServer (virtual clock) and polls every live session from this
// thread while the server's driver thread steps the engine.
//
// Prompt and decode lengths are part of a workload's shape: spread evenly
// over their ranges in a fixed order, the same for every seed. The seed
// draws every input row, and so the routing and the outputs.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/moe/decoder_layer.h"
#include "src/serving/engine.h"
#include "stats.h"

namespace perfbench {

struct WorkloadSpec {
  std::string name;
  // Submit through an AsyncServer instead of stepping the engine here.
  bool via_server = false;
  // Model shape (weights come from a fixed model seed, not the workload seed).
  int layers = 2;
  int hidden = 64;
  int inter = 256;
  int experts = 8;
  // `requests` per round. Prompts are `shared_rows` rows common to every
  // request followed by [prompt_lo, prompt_hi] own rows.
  int requests = 0;
  int64_t shared_rows = 0;
  int64_t prompt_lo = 0;
  int64_t prompt_hi = 0;
  int64_t decode_lo = 0;
  int64_t decode_hi = 0;
  // The SLO slo_attainment is measured against, fixed from seed runs.
  SloLimits slo;
  samoyeds::serving::EngineConfig engine;
};

// Host speed probe: times a fixed dense matrix product (benchmark code, not
// the library's) and returns its wall time in ms. Every round runs it
// between client polls and reports its times AtReferenceSpeed (stats.h).
double SpeedProbeMs();

// The named workload, or nullptr.
const WorkloadSpec* FindWorkload(const std::string& name);

// Set-up as a user pays it: builds and encodes the model (fixed weights for
// a given spec), constructs an engine and serves the warm-up requests
// through it. Returns the model.
std::vector<samoyeds::SamoyedsDecoderLayerWeights> SetUp(const WorkloadSpec& spec, uint64_t seed);

// `count` requests drawn from `seed`, ids 0..count-1, arrival step 0.
std::vector<samoyeds::serving::Request> MakeRequests(const WorkloadSpec& spec, uint64_t seed,
                                                     int count);

// Everything one measurement observed. Client-side samples pool over every
// round; engine-side records come from the last engine served.
struct ServedRun {
  // One served round: its time at reference host speed and on the wall
  // clock, the mean time of the speed probes run during it, and the prompt +
  // decode rows it served.
  struct Round {
    double ms = 0.0;
    double wall_ms = 0.0;
    double probe_ms = 0.0;
    int64_t tokens = 0;
  };

  int64_t rounds = 0;
  double measured_s = 0.0;
  std::vector<Round> round_log;            // one per round, in serving order
  // Client-side latencies are at reference host speed (see SpeedProbeMs).
  std::vector<RequestOutcome> outcomes;    // one per sent request
  std::vector<int64_t> outcome_template;   // request index each outcome served
  std::vector<double> ttft_ms;             // finished requests
  std::vector<double> tpot_gaps_ms;        // every decode-row delivery gap
  std::vector<double> submit_us;           // AsyncServer::Submit calls
  std::vector<double> poll_us;             // AsyncServer::Poll calls
  std::vector<double> gen_lag_ms;          // submit time minus due time (round start)
  double poll_interval_ms = 0.0;           // mean time between poll sweeps
  double forward_ms = 0.0;                 // sum of StepMetrics::wall_ms
  int64_t forward_rows = 0;                // sum of StepMetrics::batch_rows
  // Output rows the client received, per request index (first round only).
  std::vector<std::vector<float>> rows;

  // Last engine's view (per-layer metrics).
  samoyeds::serving::ServingReport report;
  std::vector<samoyeds::serving::StepMetrics> steps;
  std::map<int64_t, samoyeds::serving::RequestMetrics> requests;
  int64_t prefix_evictions = 0;
  int64_t peak_mailbox_depth = 0;
  int64_t shed_submits = 0;
  // Tokens routed to one expert in one layer of one step: the shapes the
  // kernel ladder replays (recorded when `record_layers` is set).
  std::vector<int64_t> expert_loads;
};

struct MeasureOptions {
  double seconds = 1.0;
  uint64_t seed = 0;
  // Keep serving past `seconds` until the samples support the reported
  // tail percentiles (TTFT p90, TPOT p99).
  bool support_tails = false;
  // Record what only the per-layer metrics need: per-step expert loads and
  // the server's Submit / Poll call times.
  bool record_layers = false;
  // > 0: serve exactly this many rounds on one engine instead of fresh
  // engines for `seconds`.
  int fixed_rounds = 0;
};

ServedRun Measure(const WorkloadSpec& spec,
                  const std::vector<samoyeds::SamoyedsDecoderLayerWeights>& layers,
                  const MeasureOptions& options);

// Compares the rows the client received for every request against
// DecoderStackForwardSamoyeds over its inputs, marks mismatching outcomes
// failed, and returns the number of mismatching requests. `max_ulp` 0 is
// bit-exact.
int64_t CheckOutputs(const WorkloadSpec& spec,
                     const std::vector<samoyeds::SamoyedsDecoderLayerWeights>& layers,
                     uint64_t seed, int64_t max_ulp, ServedRun& run);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
