// Cooperative multi-edge ablation — the "Co" in CoIC.
//
// Two venues (edge A, edge B) serve co-located user populations looking
// at overlapping object sets. Venue A's users arrive first and warm A's
// cache; venue B's users then issue overlapping requests. With
// cooperation on, B's misses probe A over the LAN before the cloud.
// The table sweeps the cross-venue overlap fraction and reports venue
// B's mean latency and request-source breakdown for both designs.
#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "common/log.h"
#include "common/rng.h"

namespace coic::bench {
namespace {

struct CoopResult {
  double venue_b_mean_ms = 0;
  std::uint64_t cloud_tasks = 0;
  std::uint64_t local_hits = 0;
  std::uint64_t peer_hits = 0;
  std::uint64_t cloud_served = 0;
};

CoopResult MeasureCoop(bool cooperative, double overlap_fraction,
                       std::size_t requests_per_venue) {
  // Two venues; a miss probes the one peer directly, and no summaries
  // are gossiped, so the peer link carries only probes and replies.
  federation::FederationPipelineConfig config;
  config.venues = 2;
  config.policy.kind = federation::PeerSelectKind::kBroadcastAll;
  config.gossip_period = Duration::Infinite();
  config.cooperative = cooperative;
  config.recognition_classes = 40;
  federation::FederationPipeline pipeline(config);

  Rng rng(0xC00B);
  // Venue A's users sweep objects 1..12 (warming A).
  for (std::size_t i = 0; i < requests_per_venue; ++i) {
    pipeline.EnqueueRecognitionAt(
        0, {.scene_id = 1 + rng.NextBelow(12),
            .view_angle_deg = (rng.NextDouble() * 2 - 1) * 5});
  }
  // Venue B's users draw from a pool that overlaps A's by the configured
  // fraction: overlapping requests can be served by A's edge.
  for (std::size_t i = 0; i < requests_per_venue; ++i) {
    const bool shared = rng.NextBool(overlap_fraction);
    const std::uint64_t scene =
        shared ? 1 + rng.NextBelow(12) : 21 + rng.NextBelow(12);
    pipeline.EnqueueRecognitionAt(
        1, {.scene_id = scene,
            .view_angle_deg = (rng.NextDouble() * 2 - 1) * 5});
  }

  const auto outcomes = pipeline.Run();
  CoopResult result;
  double total_ms = 0;
  std::size_t venue_b = 0;
  for (const auto& vo : outcomes) {
    if (vo.venue != 1) continue;
    ++venue_b;
    total_ms += vo.outcome.latency.millis();
    switch (vo.outcome.source) {
      case proto::ResultSource::kEdgeCache: ++result.local_hits; break;
      case proto::ResultSource::kPeerEdge: ++result.peer_hits; break;
      default: ++result.cloud_served; break;
    }
  }
  result.venue_b_mean_ms = total_ms / static_cast<double>(venue_b);
  result.cloud_tasks = pipeline.cloud().tasks_executed();
  return result;
}

void PrintCoopTable() {
  PrintHeader(
      "Cooperative edges ablation: venue B latency vs cross-venue overlap\n"
      "40 warming requests at venue A, then 40 at venue B; sources for B");
  std::printf("%-10s | %-34s | %-34s\n", "", "non-cooperative",
              "cooperative (peer probe)");
  std::printf("%-10s | %10s %6s %6s %6s | %10s %6s %6s %6s %8s\n", "overlap",
              "mean ms", "local", "cloud", "tasks", "mean ms", "local", "peer",
              "cloud", "saving");
  BenchJson json("cooperative_edges");
  for (const double overlap : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    const auto off = MeasureCoop(false, overlap, 40);
    const auto on = MeasureCoop(true, overlap, 40);
    std::printf("%-10.2f | %10.1f %6llu %6llu %6llu | %10.1f %6llu %6llu "
                "%6llu %7.1f%%\n",
                overlap, off.venue_b_mean_ms,
                static_cast<unsigned long long>(off.local_hits),
                static_cast<unsigned long long>(off.cloud_served),
                static_cast<unsigned long long>(off.cloud_tasks),
                on.venue_b_mean_ms,
                static_cast<unsigned long long>(on.local_hits),
                static_cast<unsigned long long>(on.peer_hits),
                static_cast<unsigned long long>(on.cloud_served),
                (1.0 - on.venue_b_mean_ms / off.venue_b_mean_ms) * 100);
    json.AddRow()
        .Set("overlap", overlap)
        .Set("solo_mean_ms", off.venue_b_mean_ms)
        .Set("coop_mean_ms", on.venue_b_mean_ms)
        .Set("coop_local_hits", on.local_hits)
        .Set("coop_peer_hits", on.peer_hits)
        .Set("coop_cloud_served", on.cloud_served)
        .Set("saving_pct",
             (1.0 - on.venue_b_mean_ms / off.venue_b_mean_ms) * 100);
  }
  std::printf("\n'tasks' = cloud executions across both venues; cooperation\n"
              "converts venue B's cloud misses into LAN peer hits as overlap\n"
              "grows, at a bounded one-LAN-RTT penalty when overlap is zero.\n");
}

void BM_CoopExchange(benchmark::State& state) {
  const bool cooperative = state.range(0) != 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(MeasureCoop(cooperative, 0.5, 10));
  }
  state.SetLabel(cooperative ? "coop" : "solo");
}
BENCHMARK(BM_CoopExchange)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace coic::bench

int main(int argc, char** argv) {
  coic::SetLogLevel(coic::LogLevel::kWarn);
  coic::bench::PrintCoopTable();
  if (coic::bench::QuickMode(argc, argv)) return 0;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
