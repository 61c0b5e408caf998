// Shared plumbing for the CoIC benchmark: options, the result record
// (metrics with units and sample counts, correctness checks), latency
// families, and the in-memory span log the traced run exports.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/client.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool traced = false;
  /// Traced run only: where the merged Chrome trace is written.
  std::string trace_out;
};

struct Metric {
  double value = 0;
  std::string unit;
  std::uint64_t samples = 0;
};

struct Check {
  std::string name;
  bool ok = true;
  std::string detail;
};

/// Everything one benchmark invocation reports.
struct Result {
  std::string workload;
  std::uint64_t attempted = 0;
  /// Errors plus issued-but-never-completed ops.
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  std::vector<Check> checks;
  /// Traced sim runs: the program's request-tracer Chrome JSON.
  std::string program_trace;

  void Set(const std::string& name, double value, const std::string& unit,
           std::uint64_t samples) {
    metrics[name] = Metric{value, unit, samples};
  }
  /// Records a correctness check. Repeated checks of one name fold into
  /// one entry that fails if any repetition failed, keeping the first
  /// failing detail.
  void Require(const std::string& name, bool ok, const std::string& detail) {
    for (Check& c : checks) {
      if (c.name != name) continue;
      if (c.ok && !ok) c = Check{name, ok, detail};
      return;
    }
    checks.push_back(Check{name, ok, detail});
  }
  [[nodiscard]] bool correct() const {
    for (const Check& c : checks) {
      if (!c.ok) return false;
    }
    return true;
  }
};

/// Seed of sub-trace `slot` of a run seeded with `seed` (splitmix64).
std::uint64_t SubSeed(std::uint64_t seed, int slot);

/// Linear-interpolated percentile (q in [0, 100]) of an unsorted sample.
double Percentile(std::vector<double> values, double q);
double Median(std::vector<double> values);

/// Per-request latencies split by task family (recognition, render,
/// panorama) — the paper's three IC task kinds.
struct FamilyLatencies {
  std::vector<double> recog_ms;
  std::vector<double> render_ms;
  std::vector<double> pano_ms;

  void Add(const coic::core::RequestOutcome& outcome);
  /// Sets {recog,render,pano}_{p50,p99}_ms, and checks that each family
  /// has at least ten samples beyond its p99.
  void Report(Result& result) const;
};

/// Recognition accuracy over scenes the cloud classifier knows (scene id
/// <= recognition_classes): private objects can never be labelled right,
/// so the unfiltered share is pinned at the co-located fraction.
struct KnownClassAccuracy {
  std::uint32_t known_classes = 0;
  std::uint64_t known = 0;
  std::uint64_t correct = 0;

  void Add(const coic::core::RequestOutcome& outcome);
  void Report(Result& result) const;
};

/// Wall-clock spans recorded around the benchmark's own calls into each
/// layer. Kept in memory; exported as Chrome trace events at the end of a
/// traced run. Disabled logs record nothing. Add is thread-safe (the live
/// clients record from their own threads).
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  /// Records [begin, now) under `layer` for request or workload `id`.
  void Add(const std::string& name, const std::string& layer, std::uint64_t id,
           Clock::time_point begin);

  /// Chrome "X" events, one JSON object per span, comma-separated.
  [[nodiscard]] std::string ChromeEvents() const;
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

 private:
  struct Span {
    std::string name;
    std::string layer;
    std::uint64_t id;
    double begin_us;
    double dur_us;
  };
  bool enabled_;
  Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
};

/// Peak resident set of this process, MB.
double PeakRssMb();

/// Restricts this process to the last CPU it may run on. Threads started
/// later inherit the restriction.
void PinToOneCpu();

/// Lifts PinToOneCpu for its lifetime (for threads that must run in
/// parallel, such as the sharded engine's workers), then re-pins.
class UnpinnedScope {
 public:
  UnpinnedScope();
  ~UnpinnedScope();
  UnpinnedScope(const UnpinnedScope&) = delete;
  UnpinnedScope& operator=(const UnpinnedScope&) = delete;
};

Result RunMixedStorm(const Options& options, SpanLog& spans);
Result RunRegionChurn(const Options& options, SpanLog& spans);
Result RunLiveLoopback(const Options& options, SpanLog& spans);

}  // namespace perfbench
