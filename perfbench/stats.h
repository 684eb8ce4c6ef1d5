// Statistics the benchmark reports, kept in one header so their contract is
// tested on its own (stats_test.cc):
//
//   * percentiles are nearest-rank over the sorted samples, and a percentile
//     is only *supported* when at least kMinTail samples lie beyond it — a
//     p90 needs 100 samples, a p99 needs 1000;
//   * times are reported at reference host speed: a time measured while the
//     benchmark's speed probe took `probe_ms` on average is scaled by
//     kProbeRefMs / probe_ms;
//   * SLO attainment is the share of *sent* requests that finished with a
//     correct output and met both latency limits: a failed, rejected, shed or
//     wrong request counts as a miss;
//   * outputs are compared bit-exactly under the scalar kernel backend and
//     within a ULP bound under the fused-multiply-add backends.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <vector>

namespace perfbench {

// Samples that must lie strictly beyond a reported percentile.
constexpr int64_t kMinTail = 10;

// 1-based nearest rank of percentile `p` (0 < p <= 100) among `n` samples.
inline int64_t NearestRank(int64_t n, double p) {
  const int64_t rank = static_cast<int64_t>(std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
  return std::clamp<int64_t>(rank, 1, n);
}

// Whether percentile `p` of `n` samples has at least kMinTail samples
// beyond it.
inline bool PercentileSupported(int64_t n, double p) {
  return n > 0 && n - NearestRank(n, p) >= kMinTail;
}

// Nearest-rank percentile; 0 for an empty sample.
inline double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) {
    return 0.0;
  }
  const int64_t n = static_cast<int64_t>(samples.size());
  const size_t idx = static_cast<size_t>(NearestRank(n, p) - 1);
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(idx),
                   samples.end());
  return samples[idx];
}

// Median as the mean of the two middle samples for an even count.
inline double Median(std::vector<double> samples) {
  if (samples.empty()) {
    return 0.0;
  }
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2] : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

// On a shared host the machine's speed drifts by tens of percent over
// seconds to minutes, and the benchmark's speed probe (SpeedProbeMs, run on
// the CPU that serves the workload) slows nearly in step with the workloads
// where wall-clock times do not (README.md, "Host speed"). Reported times
// are therefore at the host speed at which the probe takes kProbeRefMs.
constexpr double kProbeRefMs = 0.1;

inline double AtReferenceSpeed(double ms, double probe_ms) {
  return ms * kProbeRefMs / probe_ms;
}

// What the client saw of one sent request.
struct RequestOutcome {
  bool ok = false;        // finished, and its output matched the reference
  double ttft_ms = 0.0;   // due time -> first token observed
  double tpot_ms = 0.0;   // mean gap between its decode-row deliveries
};

struct SloLimits {
  double ttft_ms = 0.0;
  double tpot_ms = 0.0;
};

inline bool MeetsSlo(const RequestOutcome& o, const SloLimits& limits) {
  return o.ok && o.ttft_ms <= limits.ttft_ms && o.tpot_ms <= limits.tpot_ms;
}

// Share of sent requests meeting the SLO; 0 when nothing was sent.
inline double SloAttainment(const std::vector<RequestOutcome>& sent, const SloLimits& limits) {
  if (sent.empty()) {
    return 0.0;
  }
  int64_t met = 0;
  for (const RequestOutcome& o : sent) {
    met += MeetsSlo(o, limits) ? 1 : 0;
  }
  return static_cast<double>(met) / static_cast<double>(sent.size());
}

// Distance in units in the last place between two finite floats of the same
// sign convention (monotone integer mapping of the IEEE-754 bit pattern).
inline int64_t UlpDistance(float a, float b) {
  int32_t ia = 0;
  int32_t ib = 0;
  std::memcpy(&ia, &a, sizeof(a));
  std::memcpy(&ib, &b, sizeof(b));
  const int64_t ma = ia < 0 ? static_cast<int64_t>(INT32_MIN) - ia : ia;
  const int64_t mb = ib < 0 ? static_cast<int64_t>(INT32_MIN) - ib : ib;
  return std::llabs(ma - mb);
}

// True when every element matches: bit-exactly for max_ulp == 0, else
// within `max_ulp` units in the last place.
inline bool OutputsMatch(const float* got, const float* want, int64_t count, int64_t max_ulp) {
  if (max_ulp == 0) {
    return std::memcmp(got, want, static_cast<size_t>(count) * sizeof(float)) == 0;
  }
  for (int64_t i = 0; i < count; ++i) {
    if (!std::isfinite(got[i]) || UlpDistance(got[i], want[i]) > max_ulp) {
      return false;
    }
  }
  return true;
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
