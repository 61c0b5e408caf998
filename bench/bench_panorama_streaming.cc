// §1.2 third insight — shared panoramic frames in cloud VR.
//
// "Multiple users playing the same VR applications or watching the same
// VR video might use the same panorama." This bench streams a synced
// multi-viewer panorama trace through CoIC and Origin and reports mean
// frame latency + hit rate as viewer count grows.
#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "common/log.h"
#include "trace/workload.h"

namespace coic::bench {
namespace {

struct PanoResult {
  double mean_ms = 0;
  double hit_rate = 0;
};

PanoResult MeasurePanorama(proto::OffloadMode mode, std::uint32_t viewers) {
  // Each viewer watches the 48-frame video once; synced viewers request
  // the same frames, so redundancy scales with the audience.
  const std::size_t requests = static_cast<std::size_t>(viewers) * 48;
  federation::FederationPipelineConfig config;
  config.venues = 1;
  config.mode = mode;
  config.network = core::Figure2aConditions()[1];  // (100, 10)
  federation::FederationPipeline pipeline(config);

  trace::WorkloadConfig workload;
  workload.users = viewers;
  workload.colocated_fraction = 1.0;  // all watching together
  workload.seed = 0xBEEF;
  trace::WorkloadGenerator gen(workload);
  for (const auto& rec : gen.GeneratePanorama(requests, /*video_id=*/1,
                                              /*frames_in_video=*/48)) {
    pipeline.EnqueuePanoramaAt(0, rec.video_id, rec.frame_index);
  }
  core::QoeAggregator agg;
  for (const auto& o : pipeline.Run()) agg.Add(o.outcome);
  return {agg.MeanLatencyMs(), agg.HitRate()};
}

void PrintPanoramaTable() {
  PrintHeader(
      "Panorama streaming (paper 1.2): synced viewers sharing frames\n"
      "48-frame video, (B_M->E, B_E->C) = (100, 10), 96 requests");
  std::printf("%-10s %14s %14s %12s %12s\n", "viewers", "Origin ms",
              "CoIC ms", "hit rate", "reduction");
  BenchJson json("panorama_streaming");
  for (const std::uint32_t viewers : {1u, 2u, 4u, 8u}) {
    const auto origin = MeasurePanorama(proto::OffloadMode::kOrigin, viewers);
    const auto coic = MeasurePanorama(proto::OffloadMode::kCoic, viewers);
    std::printf("%-10u %14.1f %14.1f %11.1f%% %11.1f%%\n", viewers,
                origin.mean_ms, coic.mean_ms, coic.hit_rate * 100,
                (1.0 - coic.mean_ms / origin.mean_ms) * 100);
    json.AddRow()
        .Set("viewers", static_cast<std::uint64_t>(viewers))
        .Set("origin_ms", origin.mean_ms)
        .Set("coic_ms", coic.mean_ms)
        .Set("hit_rate", coic.hit_rate)
        .Set("reduction_pct", (1.0 - coic.mean_ms / origin.mean_ms) * 100);
  }
}

void BM_PanoramaStream(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        MeasurePanorama(proto::OffloadMode::kCoic,
                        static_cast<std::uint32_t>(state.range(0))));
  }
}
BENCHMARK(BM_PanoramaStream)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace coic::bench

int main(int argc, char** argv) {
  coic::SetLogLevel(coic::LogLevel::kWarn);
  coic::bench::PrintPanoramaTable();
  if (coic::bench::QuickMode(argc, argv)) return 0;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
