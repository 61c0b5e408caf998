// Tests for the cooperative extensions: TinyLFU admission in IcCache and
// the edge-to-edge peer lookup protocol between two venues.
#include <gtest/gtest.h>

#include "cache/admission.h"
#include "cache/ic_cache.h"
#include "common/rng.h"
#include "core/metrics.h"
#include "federation/federation_pipeline.h"

namespace coic {
namespace {

using cache::FrequencySketch;
using cache::IcCache;
using cache::IcCacheConfig;
using federation::FederationPipeline;
using federation::FederationPipelineConfig;
using proto::ResultSource;

// ---------------------------------------------------------------------------
// FrequencySketch / TinyLFU
// ---------------------------------------------------------------------------

TEST(FrequencySketchTest, CountsAccesses) {
  FrequencySketch sketch(128);
  EXPECT_EQ(sketch.Estimate(42), 0u);
  for (int i = 0; i < 5; ++i) sketch.Record(42);
  EXPECT_GE(sketch.Estimate(42), 5u);
}

TEST(FrequencySketchTest, SaturatesAt15) {
  FrequencySketch sketch(128);
  for (int i = 0; i < 100; ++i) sketch.Record(7);
  EXPECT_EQ(sketch.Estimate(7), 15u);
}

TEST(FrequencySketchTest, AgingHalvesCounts) {
  FrequencySketch sketch(128);
  for (int i = 0; i < 8; ++i) sketch.Record(7);
  const auto before = sketch.Estimate(7);
  sketch.Age();
  EXPECT_EQ(sketch.Estimate(7), before / 2);
  EXPECT_EQ(sketch.samples(), 0u);
}

TEST(FrequencySketchTest, AgesAutomaticallyAtWindow) {
  FrequencySketch sketch(4);  // tiny window: 40 samples
  for (int i = 0; i < 39; ++i) sketch.Record(static_cast<std::uint64_t>(i));
  const auto samples_before = sketch.samples();
  sketch.Record(999);
  EXPECT_LT(sketch.samples(), samples_before);  // aging reset the counter
}

TEST(FrequencySketchTest, ColdKeysStayNearZero) {
  FrequencySketch sketch(4096);
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) sketch.Record(rng.NextBelow(50));
  // Keys far outside the recorded set should estimate ~0 (sketch
  // collisions can add a little).
  std::uint32_t total = 0;
  for (std::uint64_t key = 1'000'000; key < 1'000'050; ++key) {
    total += sketch.Estimate(key);
  }
  EXPECT_LE(total, 10u);
}

TEST(TinyLfuAdmissionTest, PopularBeatsUnpopular) {
  cache::TinyLfuAdmission admission(256);
  for (int i = 0; i < 10; ++i) admission.OnRequest(100);  // hot key
  admission.OnRequest(200);                               // cold key
  EXPECT_TRUE(admission.Admit(100, 200));
  EXPECT_FALSE(admission.Admit(200, 100));
  // Ties admit the candidate.
  EXPECT_TRUE(admission.Admit(300, 400));
}

proto::FeatureDescriptor HashKey(std::uint64_t lo) {
  return proto::FeatureDescriptor::ForHash(proto::TaskKind::kRender,
                                           Digest128{0xABC, lo});
}

TEST(TinyLfuCacheTest, OneShotScanCannotEvictHotSet) {
  IcCacheConfig config;
  config.use_tinylfu = true;
  config.tinylfu_capacity_hint = 512;
  // Room for ~4 entries of 1000 bytes + overheads.
  config.capacity_bytes = 4 * (1000 + HashKey(0).WireSize() + IcCache::kEntryOverhead);
  IcCache cache(config);

  // Build a hot set of 4 keys with many accesses.
  for (std::uint64_t key = 1; key <= 4; ++key) {
    cache.Insert(HashKey(key), DeterministicBytes(1000, key), SimTime::Epoch());
  }
  for (int round = 0; round < 10; ++round) {
    for (std::uint64_t key = 1; key <= 4; ++key) {
      EXPECT_TRUE(cache.Lookup(HashKey(key), SimTime::Epoch()).hit);
    }
  }
  // A scan of one-shot keys: each is looked up once (miss) and inserted.
  for (std::uint64_t scan = 100; scan < 140; ++scan) {
    (void)cache.Lookup(HashKey(scan), SimTime::Epoch());
    cache.Insert(HashKey(scan), DeterministicBytes(1000, scan), SimTime::Epoch());
  }
  // The hot set survived; the scan got bounced.
  for (std::uint64_t key = 1; key <= 4; ++key) {
    EXPECT_TRUE(cache.Lookup(HashKey(key), SimTime::Epoch()).hit)
        << "hot key " << key << " was evicted by a one-shot scan";
  }
  EXPECT_GT(cache.stats().admission_rejects, 30u);
}

TEST(TinyLfuCacheTest, WithoutAdmissionScanEvictsHotSet) {
  // Control for the test above: same workload, admission off, LRU.
  IcCacheConfig config;
  config.capacity_bytes = 4 * (1000 + HashKey(0).WireSize() + IcCache::kEntryOverhead);
  IcCache cache(config);
  for (std::uint64_t key = 1; key <= 4; ++key) {
    cache.Insert(HashKey(key), DeterministicBytes(1000, key), SimTime::Epoch());
  }
  for (std::uint64_t scan = 100; scan < 140; ++scan) {
    cache.Insert(HashKey(scan), DeterministicBytes(1000, scan), SimTime::Epoch());
  }
  int survivors = 0;
  for (std::uint64_t key = 1; key <= 4; ++key) {
    survivors += cache.Lookup(HashKey(key), SimTime::Epoch()).hit;
  }
  EXPECT_EQ(survivors, 0);
}

TEST(TinyLfuCacheTest, AdmittedWhenMorePopularThanVictim) {
  IcCacheConfig config;
  config.use_tinylfu = true;
  config.capacity_bytes = 2 * (100 + HashKey(0).WireSize() + IcCache::kEntryOverhead);
  IcCache cache(config);
  cache.Insert(HashKey(1), DeterministicBytes(100, 1), SimTime::Epoch());
  cache.Insert(HashKey(2), DeterministicBytes(100, 2), SimTime::Epoch());
  // Key 3 becomes popular through repeated (missing) lookups.
  for (int i = 0; i < 8; ++i) {
    EXPECT_FALSE(cache.Lookup(HashKey(3), SimTime::Epoch()).hit);
  }
  cache.Insert(HashKey(3), DeterministicBytes(100, 3), SimTime::Epoch());
  EXPECT_TRUE(cache.Lookup(HashKey(3), SimTime::Epoch()).hit);
}

// ---------------------------------------------------------------------------
// Two cooperating venues — edge-to-edge cooperation
// ---------------------------------------------------------------------------

/// Two venues joined by one LAN peer link. A miss probes the one peer
/// directly (broadcast to all peers), and no summaries are gossiped, so
/// the only peer traffic is the probe and its reply.
FederationPipelineConfig CoopConfig(bool cooperative) {
  FederationPipelineConfig config;
  config.venues = 2;
  config.policy.kind = federation::PeerSelectKind::kBroadcastAll;
  config.gossip_period = Duration::Infinite();
  config.cooperative = cooperative;
  return config;
}

TEST(CoopPairTest, PeerHitServesWithoutCloud) {
  FederationPipeline pipeline(CoopConfig(true));
  // Venue A warms its cache; venue B's identical request should be
  // answered by A's edge, not the cloud.
  pipeline.EnqueueRecognitionAt(0, {.scene_id = 5});
  pipeline.EnqueueRecognitionAt(1, {.scene_id = 5, .view_angle_deg = 2});
  const auto outcomes = pipeline.Run();
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_EQ(outcomes[0].outcome.source, ResultSource::kCloud);
  EXPECT_EQ(outcomes[1].outcome.source, ResultSource::kPeerEdge);
  EXPECT_TRUE(outcomes[1].outcome.correct);
  EXPECT_EQ(pipeline.cloud().tasks_executed(), 1u);
  EXPECT_EQ(pipeline.edge(1).peer_hits(), 1u);
  EXPECT_EQ(pipeline.edge(0).peer_queries_served(), 1u);
}

TEST(CoopPairTest, PeerMissFallsThroughToCloud) {
  FederationPipeline pipeline(CoopConfig(true));
  pipeline.EnqueueRecognitionAt(0, {.scene_id = 5});
  pipeline.EnqueueRecognitionAt(1, {.scene_id = 9});  // nobody has this
  const auto outcomes = pipeline.Run();
  EXPECT_EQ(outcomes[1].outcome.source, ResultSource::kCloud);
  EXPECT_EQ(pipeline.cloud().tasks_executed(), 2u);
  EXPECT_EQ(pipeline.edge(1).peer_hits(), 0u);
  // The peer was probed (and answered "no") before the cloud trip.
  EXPECT_EQ(pipeline.edge(0).peer_queries_served(), 1u);
}

TEST(CoopPairTest, NonCooperativeNeverProbesPeer) {
  FederationPipeline pipeline(CoopConfig(false));
  pipeline.EnqueueRecognitionAt(0, {.scene_id = 5});
  pipeline.EnqueueRecognitionAt(1, {.scene_id = 5, .view_angle_deg = 2});
  const auto outcomes = pipeline.Run();
  EXPECT_EQ(outcomes[1].outcome.source, ResultSource::kCloud);
  EXPECT_EQ(pipeline.cloud().tasks_executed(), 2u);
  EXPECT_EQ(pipeline.edge(0).peer_queries_served(), 0u);
  EXPECT_EQ(pipeline.edge(1).peer_queries_served(), 0u);
}

TEST(CoopPairTest, PeerHitAdoptedIntoLocalCache) {
  FederationPipeline pipeline(CoopConfig(true));
  pipeline.EnqueueRecognitionAt(0, {.scene_id = 5});
  pipeline.EnqueueRecognitionAt(1, {.scene_id = 5, .view_angle_deg = 2});
  // A second request at venue B is now a LOCAL hit: the peer result was
  // inserted into B's cache.
  pipeline.EnqueueRecognitionAt(1, {.scene_id = 5, .view_angle_deg = -2});
  const auto outcomes = pipeline.Run();
  EXPECT_EQ(outcomes[2].outcome.source, ResultSource::kEdgeCache);
}

TEST(CoopPairTest, PeerHitFasterThanCloudMissSlowerThanLocalHit) {
  FederationPipeline coop(CoopConfig(true));
  coop.EnqueueRecognitionAt(0, {.scene_id = 5});
  coop.EnqueueRecognitionAt(1, {.scene_id = 5, .view_angle_deg = 2});
  coop.EnqueueRecognitionAt(1, {.scene_id = 5, .view_angle_deg = -2});
  const auto outcomes = coop.Run();
  const auto cloud_miss = outcomes[0].outcome.latency;
  const auto peer_hit = outcomes[1].outcome.latency;
  const auto local_hit = outcomes[2].outcome.latency;
  EXPECT_LT(peer_hit, cloud_miss);
  EXPECT_LT(local_hit, peer_hit);
}

TEST(CoopPairTest, CooperativeMissPenaltyIsOneLanRoundTrip) {
  // A double miss under cooperation costs the non-cooperative miss plus
  // one peer probe (LAN RTT + lookup); verify the overhead is bounded.
  FederationPipeline coop(CoopConfig(true));
  coop.EnqueueRecognitionAt(0, {.scene_id = 7});
  const auto coop_miss = coop.Run()[0].outcome.latency;

  FederationPipeline solo(CoopConfig(false));
  solo.EnqueueRecognitionAt(0, {.scene_id = 7});
  const auto solo_miss = solo.Run()[0].outcome.latency;

  EXPECT_GT(coop_miss, solo_miss);
  EXPECT_LT(coop_miss - solo_miss, Duration::Millis(20));
}

TEST(CoopPairTest, RenderAndPanoramaShareAcrossVenues) {
  FederationPipeline pipeline(CoopConfig(true));
  pipeline.RegisterModel(1, KB(512));
  pipeline.EnqueueRenderAt(0, 1);
  pipeline.EnqueueRenderAt(1, 1);
  pipeline.EnqueuePanoramaAt(0, 4, 0);
  pipeline.EnqueuePanoramaAt(1, 4, 0);
  const auto outcomes = pipeline.Run();
  EXPECT_EQ(outcomes[0].outcome.source, ResultSource::kCloud);
  EXPECT_EQ(outcomes[1].outcome.source, ResultSource::kPeerEdge);
  EXPECT_EQ(outcomes[2].outcome.source, ResultSource::kCloud);
  EXPECT_EQ(outcomes[3].outcome.source, ResultSource::kPeerEdge);
  EXPECT_EQ(outcomes[1].outcome.result_bytes, KB(512));
  EXPECT_FALSE(outcomes[1].outcome.error);
}

TEST(CoopPairTest, VenuesTaggedCorrectly) {
  FederationPipeline pipeline(CoopConfig(true));
  pipeline.EnqueueRecognitionAt(1, {.scene_id = 2});
  pipeline.EnqueueRecognitionAt(0, {.scene_id = 3});
  const auto outcomes = pipeline.Run();
  EXPECT_EQ(outcomes[0].venue, 1u);
  EXPECT_EQ(outcomes[1].venue, 0u);
}

}  // namespace
}  // namespace coic
