// Quickstart: the CoIC framework in ~60 lines.
//
// Builds the paper's three-tier testbed (mobile / edge / cloud) in the
// simulator, runs one AR recognition task twice — a cold miss that goes
// to the cloud and a warm hit served from the edge IC cache — and prints
// the latency both ways plus the Origin (no-cache cloud offload)
// baseline.
//
//   ./quickstart
#include <cstdio>

#include "core/cost_model.h"
#include "federation/federation_pipeline.h"

using namespace coic;

int main() {
  // The paper's most constrained network condition: 90 Mbps WiFi to the
  // edge, 9 Mbps from the edge to the cloud.
  const core::NetworkCondition network{Bandwidth::Mbps(90), Bandwidth::Mbps(9)};

  // --- CoIC: descriptor-first with an edge cache ---------------------------
  // One venue: one mobile, one edge, one cloud.
  federation::FederationPipelineConfig coic_config;
  coic_config.venues = 1;
  coic_config.mode = proto::OffloadMode::kCoic;
  coic_config.network = network;
  federation::FederationPipeline coic(coic_config);

  // Two users look at the same object (scene 3) from slightly different
  // angles — the paper's "same stop sign at the same crossroads".
  coic.EnqueueRecognitionAt(0, {.scene_id = 3, .view_angle_deg = 0.0});
  coic.EnqueueRecognitionAt(0, {.scene_id = 3, .view_angle_deg = 4.0});
  const auto outcomes = coic.Run();

  // --- Origin baseline: ship the full frame to the cloud every time --------
  federation::FederationPipelineConfig origin_config;
  origin_config.venues = 1;
  origin_config.mode = proto::OffloadMode::kOrigin;
  origin_config.network = network;
  federation::FederationPipeline origin(origin_config);
  origin.EnqueueRecognitionAt(0, {.scene_id = 3});
  const auto baseline = origin.Run()[0].outcome;
  const core::RequestOutcome& miss = outcomes[0].outcome;
  const core::RequestOutcome& hit = outcomes[1].outcome;

  std::printf("CoIC quickstart — AR recognition at (90, 9) Mbps\n\n");
  std::printf("  origin (no cache):  %8.1f ms  label=%s\n",
              baseline.latency.millis(), baseline.label.c_str());
  std::printf("  CoIC cache miss:    %8.1f ms  label=%s (cloud, result cached)\n",
              miss.latency.millis(), miss.label.c_str());
  std::printf("  CoIC cache hit:     %8.1f ms  label=%s (served by the edge)\n",
              hit.latency.millis(), hit.label.c_str());
  std::printf("\n  hit vs origin: %.1f%% latency reduction (paper: up to 52.28%%)\n",
              (1.0 - hit.latency.millis() / baseline.latency.millis()) * 100.0);
  const auto& stats = coic.edge(0).cache().stats();
  std::printf("  edge cache: %llu hit / %llu miss\n",
              static_cast<unsigned long long>(stats.hits),
              static_cast<unsigned long long>(stats.misses));
  return 0;
}
