// Figure 2b — "Load latency reduction in rendering tasks." Reproduces
// the Origin / Cache Hit / Cache Miss load latency across the paper's
// six model sizes (231..15053 KB). Paper headline: CoIC reduces load
// latency by up to 75.86% by caching loaded model data on the edge.
#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "common/log.h"
#include "render/registry.h"

namespace coic::bench {
namespace {

struct RenderLatencies {
  double origin_ms = 0;
  double hit_ms = 0;
  double miss_ms = 0;
};

RenderLatencies MeasureRender(Bytes model_size) {
  RenderLatencies out;
  {
    federation::FederationPipelineConfig config;
    config.venues = 1;
    config.mode = proto::OffloadMode::kOrigin;
    config.network = core::Figure2bCondition();
    federation::FederationPipeline pipeline(config);
    pipeline.RegisterModel(1, model_size);
    pipeline.EnqueueRenderAt(0, 1);
    out.origin_ms = pipeline.Run()[0].outcome.latency.millis();
  }
  {
    federation::FederationPipelineConfig config;
    config.venues = 1;
    config.mode = proto::OffloadMode::kCoic;
    config.network = core::Figure2bCondition();
    federation::FederationPipeline pipeline(config);
    pipeline.RegisterModel(1, model_size);
    pipeline.EnqueueRenderAt(0, 1);
    out.miss_ms = pipeline.Run()[0].outcome.latency.millis();
    pipeline.EnqueueRenderAt(0, 1);
    pipeline.EnqueueRenderAt(0, 1);
    const auto hits = pipeline.Run();
    out.hit_ms = (hits[0].outcome.latency.millis() +
                  hits[1].outcome.latency.millis()) /
                 2.0;
  }
  return out;
}

void PrintFigure2b() {
  PrintHeader(
      "Figure 2b: 3D-model load latency (ms) vs model size\n"
      "series: Origin | Cache Hit | Cache Miss  (network: Figure2bCondition)\n"
      "paper headline: CoIC reduces load latency by up to 75.86%");
  std::printf("%-16s %12s %12s %12s %12s\n", "model size (KB)", "Origin",
              "CacheHit", "CacheMiss", "reduction");
  BenchJson json("fig2b_rendering");
  double best_reduction = 0;
  for (const Bytes size : render::ModelRegistry::Figure2bSizes()) {
    const auto lat = MeasureRender(size);
    const double reduction = (1.0 - lat.hit_ms / lat.origin_ms) * 100.0;
    best_reduction = std::max(best_reduction, reduction);
    std::printf("%-16llu %12.1f %12.1f %12.1f %11.1f%%\n",
                static_cast<unsigned long long>(size / 1000), lat.origin_ms,
                lat.hit_ms, lat.miss_ms, reduction);
    json.AddRow()
        .Set("model_kb", static_cast<std::uint64_t>(size / 1000))
        .Set("origin_ms", lat.origin_ms)
        .Set("hit_ms", lat.hit_ms)
        .Set("miss_ms", lat.miss_ms)
        .Set("reduction_pct", reduction);
  }
  std::printf("\nmax hit-vs-origin load reduction: %.2f%% (paper: 75.86%%)\n",
              best_reduction);
  json.AddRow().Set("metric", "max_reduction_pct").Set("value", best_reduction);
}

void BM_SimulatedRenderExchange(benchmark::State& state) {
  const auto& sizes = render::ModelRegistry::Figure2bSizes();
  const Bytes size = sizes[static_cast<std::size_t>(state.range(0))];
  for (auto _ : state) {
    benchmark::DoNotOptimize(MeasureRender(size));
  }
  const auto lat = MeasureRender(size);
  state.counters["sim_origin_ms"] = lat.origin_ms;
  state.counters["sim_hit_ms"] = lat.hit_ms;
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(size));
}
BENCHMARK(BM_SimulatedRenderExchange)->DenseRange(0, 5)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace coic::bench

int main(int argc, char** argv) {
  coic::SetLogLevel(coic::LogLevel::kWarn);
  coic::bench::PrintFigure2b();
  if (coic::bench::QuickMode(argc, argv)) return 0;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
