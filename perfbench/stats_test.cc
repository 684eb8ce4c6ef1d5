// Tests of the benchmark's own statistics (stats.h): percentile selection
// and its sample-support rule, the reference-speed scaling of times, and SLO
// failure accounting. Built beside the
// benchmark; run as `perfbench_stats_test` (exit code 0 = pass).

#include <cstdio>
#include <vector>

#include "stats.h"

namespace {

int g_failures = 0;

void Check(bool cond, const char* what) {
  if (!cond) {
    std::printf("FAIL: %s\n", what);
    ++g_failures;
  }
}

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) {  // descending: selection must not rely on order
    v.push_back(static_cast<double>(i));
  }
  return v;
}

void PercentileSelection() {
  using perfbench::Percentile;
  using perfbench::PercentileSupported;
  // 100 samples: p90 is the 90th smallest, with exactly ten beyond it.
  Check(Percentile(OneTo(100), 90.0) == 90.0, "p90 of 1..100 is 90");
  Check(PercentileSupported(100, 90.0), "p90 supported at n=100");
  Check(!PercentileSupported(99, 90.0), "p90 unsupported at n=99 (nine beyond)");
  // 1000 samples: p99 is 990, ten beyond; 999 samples leave only nine.
  Check(Percentile(OneTo(1000), 99.0) == 990.0, "p99 of 1..1000 is 990");
  Check(PercentileSupported(1000, 99.0), "p99 supported at n=1000");
  Check(!PercentileSupported(999, 99.0), "p99 unsupported at n=999");
  // p50 nearest rank, and an odd/even median.
  Check(Percentile(OneTo(20), 50.0) == 10.0, "p50 of 1..20 is 10 (nearest rank)");
  Check(perfbench::Median(OneTo(20)) == 10.5, "median of 1..20 is 10.5");
  Check(perfbench::Median(OneTo(21)) == 11.0, "median of 1..21 is 11");
  Check(Percentile({}, 50.0) == 0.0, "empty sample percentile is 0");
  Check(!PercentileSupported(0, 50.0), "nothing supported at n=0");
}

void ReferenceSpeed() {
  using perfbench::AtReferenceSpeed;
  using perfbench::kProbeRefMs;
  // A round that took twice as long while the probe also took twice as long
  // ran at the same speed relative to the host.
  Check(AtReferenceSpeed(300.0, 1.5 * kProbeRefMs) == AtReferenceSpeed(600.0, 3.0 * kProbeRefMs),
        "a host twice as slow maps to the same reference time");
  Check(AtReferenceSpeed(42.0, kProbeRefMs) == 42.0, "at the reference probe time, wall time");
  Check(AtReferenceSpeed(40.0, 2.0 * kProbeRefMs) == 20.0, "a slow host's time shrinks");
}

void FailureAccounting() {
  using perfbench::RequestOutcome;
  const perfbench::SloLimits limits{10.0, 2.0};
  std::vector<RequestOutcome> sent = {
      {true, 5.0, 1.0},    // meets both
      {true, 12.0, 1.0},   // TTFT miss
      {true, 5.0, 3.0},    // TPOT miss
      {false, 1.0, 0.5},   // failed (shed / rejected / wrong output): a miss
  };
  Check(perfbench::SloAttainment(sent, limits) == 0.25, "one of four sent meets the SLO");
  sent.push_back({false, 0.0, 0.0});  // a request that never produced a token
  Check(perfbench::SloAttainment(sent, limits) == 0.2, "failed requests stay in the denominator");
  Check(perfbench::SloAttainment({}, limits) == 0.0, "nothing sent, nothing attained");
}

void OutputComparison() {
  const float a[] = {1.0f, -2.0f, 0.0f};
  float b[] = {1.0f, -2.0f, 0.0f};
  Check(perfbench::OutputsMatch(a, b, 3, 0), "identical rows match bit-exactly");
  b[2] = -0.0f;
  Check(!perfbench::OutputsMatch(a, b, 3, 0), "bit-exact compare distinguishes -0");
  Check(perfbench::OutputsMatch(a, b, 3, 4), "+0 and -0 are within 4 ULP");
  b[0] = 1.0000002f;  // two ULP above 1.0f
  Check(perfbench::UlpDistance(a[0], b[0]) == 2, "1.0000002f is 2 ULP from 1.0f");
  Check(!perfbench::OutputsMatch(a, b, 3, 1), "2 ULP exceeds a 1 ULP bound");
}

}  // namespace

int main() {
  PercentileSelection();
  ReferenceSpeed();
  FailureAccounting();
  OutputComparison();
  std::printf("%s (%d failures)\n", g_failures == 0 ? "PASS" : "FAIL", g_failures);
  return g_failures == 0 ? 0 : 1;
}
