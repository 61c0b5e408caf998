#include "bench.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

std::uint64_t SubSeed(std::uint64_t seed, int slot) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + static_cast<std::uint64_t>(slot) + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50);
}

void FamilyLatencies::Add(const coic::core::RequestOutcome& outcome) {
  if (outcome.error) return;
  const double ms = outcome.latency.millis();
  switch (outcome.task) {
    case coic::proto::TaskKind::kRecognition:
      recog_ms.push_back(ms);
      break;
    case coic::proto::TaskKind::kRender:
      render_ms.push_back(ms);
      break;
    case coic::proto::TaskKind::kPanorama:
      pano_ms.push_back(ms);
      break;
  }
}

void FamilyLatencies::Report(Result& result) const {
  const auto family = [&](const char* name, const std::vector<double>& ms) {
    const std::uint64_t n = ms.size();
    result.Set(std::string(name) + "_p50_ms", Percentile(ms, 50), "ms", n);
    result.Set(std::string(name) + "_p99_ms", Percentile(ms, 99), "ms", n);
    // A p99 is only meaningful with at least ten samples beyond it.
    result.Require(std::string(name) + "_p99_support", n >= 1000,
                   std::to_string(n) + " samples (need >= 1000)");
  };
  family("recog", recog_ms);
  family("render", render_ms);
  family("pano", pano_ms);
}

void KnownClassAccuracy::Add(const coic::core::RequestOutcome& outcome) {
  if (outcome.error || outcome.task != coic::proto::TaskKind::kRecognition) {
    return;
  }
  if (outcome.object_id == 0 || outcome.object_id > known_classes) return;
  ++known;
  if (outcome.correct) ++correct;
}

void KnownClassAccuracy::Report(Result& result) const {
  result.Set("recog_accuracy",
             known == 0 ? 0.0
                        : static_cast<double>(correct) / static_cast<double>(known),
             "ratio", known);
  result.Require("recog_accuracy_support", known > 0,
                 std::to_string(known) + " known-class recognitions");
}

void SpanLog::Add(const std::string& name, const std::string& layer,
                  std::uint64_t id, Clock::time_point begin) {
  if (!enabled_) return;
  const auto end = Clock::now();
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{
      name, layer, id,
      std::chrono::duration<double, std::micro>(begin - origin_).count(),
      std::chrono::duration<double, std::micro>(end - begin).count()});
}

std::string SpanLog::ChromeEvents() const {
  // Benchmark spans render on their own process track (pid 1000000, well
  // clear of the program's venue tracks), one thread row per request or
  // workload id, each row sorted by start time.
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<const Span*> sorted;
  sorted.reserve(spans_.size());
  for (const Span& s : spans_) sorted.push_back(&s);
  std::stable_sort(sorted.begin(), sorted.end(), [](const Span* a, const Span* b) {
    return a->id != b->id ? a->id < b->id : a->begin_us < b->begin_us;
  });
  std::string out;
  char buf[512];
  for (const Span* s : sorted) {
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                  "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1000000,\"tid\":%llu,"
                  "\"args\":{\"layer\":\"%s\",\"id\":%llu}}",
                  out.empty() ? "" : ",", s->name.c_str(), s->begin_us,
                  s->dur_us, static_cast<unsigned long long>(s->id),
                  s->layer.c_str(), static_cast<unsigned long long>(s->id));
    out += buf;
  }
  return out;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {
cpu_set_t g_allowed_cpus;
bool g_pinned = false;
}  // namespace

void PinToOneCpu() {
  if (sched_getaffinity(0, sizeof(g_allowed_cpus), &g_allowed_cpus) != 0) return;
  int last = -1;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &g_allowed_cpus)) last = cpu;
  }
  if (last < 0) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(last, &one);
  g_pinned = sched_setaffinity(0, sizeof(one), &one) == 0;
}

UnpinnedScope::UnpinnedScope() {
  if (g_pinned) sched_setaffinity(0, sizeof(g_allowed_cpus), &g_allowed_cpus);
}

UnpinnedScope::~UnpinnedScope() {
  if (g_pinned) PinToOneCpu();
}

}  // namespace perfbench
