#ifndef TENCENTREC_BENCH_BENCH_UTIL_H_
#define TENCENTREC_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

namespace tencentrec::bench {

/// Days of simulated traffic for the figure/table harnesses. The paper
/// measured one week (figures) and one month (Table 1); the defaults keep
/// `for b in build/bench/*; do $b; done` affordable while matching the
/// figures' one-week span. Override with TR_DAYS=n.
inline int DaysFromEnv(int fallback) {
  const char* env = std::getenv("TR_DAYS");
  if (env == nullptr) return fallback;
  int v = std::atoi(env);
  return v > 0 ? v : fallback;
}

inline uint64_t SeedFromEnv(uint64_t fallback = 42) {
  const char* env = std::getenv("TR_SEED");
  if (env == nullptr) return fallback;
  return static_cast<uint64_t>(std::strtoull(env, nullptr, 10));
}

/// Nearest-rank percentile (pct in [0,100]) over an unsorted sample set.
/// Copies and sorts; fine for the handful of reps a bench collects.
inline double SamplePercentile(std::vector<double> samples, double pct) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank =
      std::ceil(pct / 100.0 * static_cast<double>(samples.size()));
  const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return samples[std::min(idx, samples.size() - 1)];
}

/// Per-rep wall times reduced to the summary a tracking dashboard wants:
/// throughput from the fastest rep (least-noise estimate) and the rep
/// latency distribution.
struct BenchSummary {
  double ops_per_sec = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
};

inline BenchSummary Summarize(const std::vector<double>& rep_ms,
                              double ops_per_rep) {
  BenchSummary s;
  if (rep_ms.empty()) return s;
  const double best = *std::min_element(rep_ms.begin(), rep_ms.end());
  if (best > 0) s.ops_per_sec = ops_per_rep / (best / 1e3);
  s.p50_ms = SamplePercentile(rep_ms, 50);
  s.p95_ms = SamplePercentile(rep_ms, 95);
  s.p99_ms = SamplePercentile(rep_ms, 99);
  return s;
}

/// Writes `BENCH_<name>.json` into $TR_BENCH_OUT (default: the working
/// directory) so `scripts/run_bench.sh` can collect machine-readable
/// results next to the human-readable stdout. Every file records `cores`
/// (hardware threads of the host), which `scripts/check_bench.py` needs to
/// compare throughput only between like hosts. `extra_json`, when nonempty,
/// is spliced verbatim as additional top-level fields (caller supplies
/// valid `"key": value` pairs, comma-separated, no trailing comma).
inline bool WriteBenchJson(const std::string& name, const BenchSummary& s,
                           const std::string& extra_json = "") {
  const char* dir = std::getenv("TR_BENCH_OUT");
  std::string path = (dir != nullptr && dir[0] != '\0')
                         ? std::string(dir) + "/BENCH_" + name + ".json"
                         : "BENCH_" + name + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
    return false;
  }
  std::fprintf(f,
               "{\n"
               "  \"name\": \"%s\",\n"
               "  \"ops_per_sec\": %.1f,\n"
               "  \"cores\": %u,\n"
               "  \"p50_ms\": %.3f,\n"
               "  \"p95_ms\": %.3f,\n"
               "  \"p99_ms\": %.3f%s%s\n"
               "}\n",
               name.c_str(), s.ops_per_sec, std::thread::hardware_concurrency(),
               s.p50_ms, s.p95_ms, s.p99_ms,
               extra_json.empty() ? "" : ",\n  ", extra_json.c_str());
  std::fclose(f);
  std::printf("bench json -> %s\n", path.c_str());
  return true;
}

}  // namespace tencentrec::bench

#endif  // TENCENTREC_BENCH_BENCH_UTIL_H_
