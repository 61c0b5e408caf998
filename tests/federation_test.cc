// Tests for the edge-federation subsystem: topology building and
// routing, cache-content summaries (Bloom filter + centroid sketch),
// peer-selection policies, and the N-edge FederationPipeline.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <tuple>

#include "common/rng.h"
#include "core/metrics.h"
#include "federation/federation_pipeline.h"
#include "federation/peer_select.h"
#include "federation/summary.h"
#include "federation/topology.h"
#include "trace/workload.h"

namespace coic {
namespace {

using federation::BloomFilter;
using federation::BloomFilterConfig;
using federation::CacheSummary;
using federation::FederationPipeline;
using federation::FederationPipelineConfig;
using federation::MakePeerSelectPolicy;
using federation::PeerSelectConfig;
using federation::PeerSelectKind;
using federation::SummaryTable;
using federation::Topology;
using federation::TopologyKind;
using proto::ResultSource;

// ---------------------------------------------------------------------------
// Topology
// ---------------------------------------------------------------------------

netsim::LinkConfig Lan() {
  netsim::LinkConfig link;
  link.bandwidth = Bandwidth::Gbps(1);
  link.propagation = Duration::Millis(1);
  return link;
}

TEST(TopologyTest, StarShape) {
  const auto topo = Topology::Star(5, Lan());
  EXPECT_EQ(topo.links().size(), 4u);
  EXPECT_TRUE(topo.Adjacent(0, 3));
  EXPECT_FALSE(topo.Adjacent(1, 2));
  EXPECT_EQ(topo.HopDistance(1, 2), 2u);  // leaf -> hub -> leaf
  EXPECT_EQ(topo.NextHop(1, 2), 0u);
  EXPECT_EQ(topo.NextHop(1, 0), 0u);
}

TEST(TopologyTest, RingShape) {
  const auto topo = Topology::Ring(6, Lan());
  EXPECT_EQ(topo.links().size(), 6u);
  EXPECT_TRUE(topo.Adjacent(0, 5));
  EXPECT_EQ(topo.HopDistance(0, 3), 3u);  // antipode
  EXPECT_EQ(topo.HopDistance(0, 4), 2u);  // shorter way round
  EXPECT_EQ(topo.NextHop(0, 4), 5u);
}

TEST(TopologyTest, TwoVenueRingIsOneLink) {
  const auto topo = Topology::Ring(2, Lan());
  EXPECT_EQ(topo.links().size(), 1u);
  EXPECT_TRUE(topo.Adjacent(0, 1));
}

TEST(TopologyTest, FullMeshAllPairsAdjacent) {
  const auto topo = Topology::FullMesh(4, Lan());
  EXPECT_EQ(topo.links().size(), 6u);
  for (std::uint32_t a = 0; a < 4; ++a) {
    for (std::uint32_t b = 0; b < 4; ++b) {
      if (a != b) {
        EXPECT_TRUE(topo.Adjacent(a, b));
      }
    }
  }
}

TEST(TopologyTest, CustomDisconnectedComponents) {
  const auto topo = Topology::Custom(4, {{0, 1, Lan()}, {2, 3, Lan()}});
  EXPECT_EQ(topo.HopDistance(0, 1), 1u);
  EXPECT_EQ(topo.HopDistance(0, 2), Topology::kUnreachable);
  const auto reachable = topo.ReachableWithin(0, 8);
  EXPECT_EQ(reachable, std::vector<std::uint32_t>{1});
}

TEST(TopologyTest, ReachableWithinRespectsHopLimit) {
  const auto topo = Topology::Star(5, Lan());
  // From a leaf, one hop reaches only the hub.
  EXPECT_EQ(topo.ReachableWithin(1, 1), std::vector<std::uint32_t>{0});
  EXPECT_EQ(topo.ReachableWithin(1, 2).size(), 4u);
}

// ---------------------------------------------------------------------------
// Bloom filter / CacheSummary
// ---------------------------------------------------------------------------

TEST(BloomFilterTest, NoFalseNegatives) {
  BloomFilter bloom(BloomFilterConfig{.bits = 4096, .hashes = 4});
  for (std::uint64_t key = 0; key < 300; ++key) bloom.Insert(key * 977 + 13);
  for (std::uint64_t key = 0; key < 300; ++key) {
    EXPECT_TRUE(bloom.MayContain(key * 977 + 13));
  }
}

TEST(BloomFilterTest, FalsePositiveRateUnderBoundAtDesignLoad) {
  // Design load: the default 8192-bit / 4-hash filter advertising 400
  // cached descriptors. The analytic bound is ~2.4%; measure against
  // 20k absent keys and allow 2x sampling slack.
  BloomFilter bloom(BloomFilterConfig{});
  for (std::uint64_t key = 0; key < 400; ++key) {
    bloom.Insert(key * 0x9E3779B9ULL + 1);
  }
  const double bound = bloom.EstimatedFpRate();
  EXPECT_GT(bound, 0.0);
  EXPECT_LT(bound, 0.05);
  std::uint64_t false_positives = 0;
  constexpr std::uint64_t kProbes = 20'000;
  for (std::uint64_t i = 0; i < kProbes; ++i) {
    if (bloom.MayContain(0xABCDEF000000ULL + i)) ++false_positives;
  }
  const double measured =
      static_cast<double>(false_positives) / static_cast<double>(kProbes);
  EXPECT_LE(measured, 2.0 * bound)
      << "measured FPR " << measured << " vs analytic bound " << bound;
}

TEST(BloomFilterTest, EmptyFilterMatchesNothing) {
  BloomFilter bloom(BloomFilterConfig{});
  std::uint64_t hits = 0;
  for (std::uint64_t i = 0; i < 1000; ++i) hits += bloom.MayContain(i);
  EXPECT_EQ(hits, 0u);
}

proto::FeatureDescriptor RenderKey(std::uint64_t lo) {
  return proto::FeatureDescriptor::ForHash(proto::TaskKind::kRender,
                                           Digest128{0xABC, lo});
}

TEST(CacheSummaryTest, BuildDigestsHashAndVectorKeys) {
  cache::IcCache cache(cache::IcCacheConfig{});
  cache.Insert(RenderKey(1), DeterministicBytes(100, 1), SimTime::Epoch());
  cache.Insert(RenderKey(2), DeterministicBytes(100, 2), SimTime::Epoch());
  cache.Insert(proto::FeatureDescriptor::ForVector(proto::TaskKind::kRecognition,
                                                   {1.0f, 0.0f}),
               DeterministicBytes(100, 3), SimTime::Epoch());
  cache.Insert(proto::FeatureDescriptor::ForVector(proto::TaskKind::kRecognition,
                                                   {0.0f, 1.0f}),
               DeterministicBytes(100, 4), SimTime::Epoch());

  const auto summary = CacheSummary::Build(3, 7, cache, BloomFilterConfig{});
  EXPECT_EQ(summary.edge_id(), 3u);
  EXPECT_EQ(summary.version(), 7u);
  EXPECT_EQ(summary.bloom().inserted(), 2u);
  EXPECT_DOUBLE_EQ(summary.MatchScore(RenderKey(1)), 1.0);
  EXPECT_DOUBLE_EQ(summary.MatchScore(RenderKey(999)), 0.0);

  const auto& sketch = summary.sketch(proto::TaskKind::kRecognition);
  EXPECT_EQ(sketch.count, 2u);
  ASSERT_EQ(sketch.centroid.size(), 2u);
  EXPECT_FLOAT_EQ(sketch.centroid[0], 0.5f);
  EXPECT_FLOAT_EQ(sketch.centroid[1], 0.5f);

  // A query near the centroid scores higher than a distant one.
  const auto near = proto::FeatureDescriptor::ForVector(
      proto::TaskKind::kRecognition, {0.6f, 0.5f});
  const auto far = proto::FeatureDescriptor::ForVector(
      proto::TaskKind::kRecognition, {-1.0f, -1.0f});
  EXPECT_GT(summary.MatchScore(near), summary.MatchScore(far));
  EXPECT_GT(summary.MatchScore(far), 0.0);
}

TEST(CacheSummaryTest, WireRoundTripIsByteExact) {
  cache::IcCache cache(cache::IcCacheConfig{});
  for (std::uint64_t k = 1; k <= 20; ++k) {
    cache.Insert(RenderKey(k), DeterministicBytes(64, k), SimTime::Epoch());
  }
  cache.Insert(proto::FeatureDescriptor::ForVector(proto::TaskKind::kRecognition,
                                                   {0.25f, -0.5f, 0.75f}),
               DeterministicBytes(64, 99), SimTime::Epoch());
  const auto summary = CacheSummary::Build(2, 11, cache, BloomFilterConfig{});
  const proto::SummaryUpdate wire = summary.ToWire();

  // Encode -> decode -> re-encode must reproduce the bytes exactly.
  const ByteVec frame =
      proto::EncodeMessage(proto::MessageType::kSummaryUpdate, 11, wire);
  auto env = proto::DecodeEnvelope(frame);
  ASSERT_TRUE(env.ok());
  auto decoded = proto::DecodePayloadAs<proto::SummaryUpdate>(
      env.value(), proto::MessageType::kSummaryUpdate);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), wire);
  const ByteVec reencoded = proto::EncodeMessage(
      proto::MessageType::kSummaryUpdate, 11, decoded.value());
  EXPECT_EQ(reencoded, frame);

  // And the reconstructed summary answers queries identically.
  auto rebuilt = CacheSummary::FromWire(decoded.value());
  ASSERT_TRUE(rebuilt.ok());
  for (std::uint64_t k = 1; k <= 20; ++k) {
    EXPECT_EQ(rebuilt.value().MatchScore(RenderKey(k)),
              summary.MatchScore(RenderKey(k)));
  }
}

TEST(SummaryDeltaTest, ApplyMatchesFullRebuildByteForByte) {
  // The delta contract: a receiver holding version B that applies the
  // delta B -> V must end up byte-identical to the sender's freshly
  // built version-V summary — Bloom insertion is an order-independent
  // OR, and centroid sketches are replaced wholesale.
  cache::IcCacheConfig cache_config;
  cache_config.journal_capacity = 64;
  cache::IcCache cache(cache_config);
  cache.Insert(RenderKey(1), DeterministicBytes(32, 1), SimTime::Epoch());
  cache.Insert(proto::FeatureDescriptor::ForVector(proto::TaskKind::kRecognition,
                                                   {1.0f, 0.0f}),
               DeterministicBytes(32, 2), SimTime::Epoch());
  const auto base = CacheSummary::Build(2, 7, cache, {});
  const std::uint64_t cursor = cache.journal_cursor();

  cache.Insert(RenderKey(2), DeterministicBytes(32, 3), SimTime::Epoch());
  cache.Insert(RenderKey(3), DeterministicBytes(32, 4), SimTime::Epoch());
  cache.Insert(proto::FeatureDescriptor::ForVector(proto::TaskKind::kRecognition,
                                                   {0.0f, 1.0f}),
               DeterministicBytes(32, 5), SimTime::Epoch());
  const auto fresh = CacheSummary::Build(2, 8, cache, {});

  std::vector<std::uint64_t> inserted;
  ASSERT_TRUE(cache.ForEachJournaled(
      cursor, [&](const cache::CacheJournalEntry& e) {
        ASSERT_FALSE(e.erased);
        inserted.push_back(e.index_key);
      }));
  const proto::SummaryDeltaUpdate delta =
      fresh.ToWireDelta(base.version(), std::move(inserted));

  CacheSummary patched = base;
  ASSERT_TRUE(patched.ApplyDelta(delta).ok());
  EXPECT_EQ(patched.version(), 8u);
  const ByteVec from_delta =
      proto::EncodeMessage(proto::MessageType::kSummaryUpdate, 1,
                           patched.ToWire());
  const ByteVec from_full = proto::EncodeMessage(
      proto::MessageType::kSummaryUpdate, 1, fresh.ToWire());
  EXPECT_EQ(from_delta, from_full);

  // And the delta frame is what the full frame is not: small.
  EXPECT_LT(proto::WireSize(delta), proto::WireSize(fresh.ToWire()) / 4);
}

TEST(SummaryDeltaTest, ApplyRejectsMismatches) {
  cache::IcCache cache(cache::IcCacheConfig{});
  cache.Insert(RenderKey(1), DeterministicBytes(16, 1), SimTime::Epoch());
  CacheSummary base = CacheSummary::Build(2, 7, cache, {});
  cache.Insert(RenderKey(2), DeterministicBytes(16, 2), SimTime::Epoch());
  const auto fresh = CacheSummary::Build(2, 8, cache, {});

  // Wrong edge.
  proto::SummaryDeltaUpdate delta =
      fresh.ToWireDelta(7, {RenderKey(2).IndexKey()});
  delta.edge_id = 3;
  EXPECT_FALSE(base.ApplyDelta(delta).ok());
  // Wrong base version.
  delta = fresh.ToWireDelta(6, {RenderKey(2).IndexKey()});
  EXPECT_FALSE(base.ApplyDelta(delta).ok());
  // Key count that does not compose (claims 1 key but base already has 1
  // and the delta adds 1 -> absolute must be 2).
  delta = fresh.ToWireDelta(7, {RenderKey(2).IndexKey()});
  delta.bloom_inserted = 1;
  EXPECT_FALSE(base.ApplyDelta(delta).ok());
  // All rejections left the base untouched.
  EXPECT_EQ(base.version(), 7u);
  EXPECT_EQ(base.bloom().inserted(), 1u);
  // The well-formed delta still applies.
  delta = fresh.ToWireDelta(7, {RenderKey(2).IndexKey()});
  EXPECT_TRUE(base.ApplyDelta(delta).ok());
  EXPECT_DOUBLE_EQ(base.MatchScore(RenderKey(2)), 1.0);
}

TEST(SummaryTableTest, ApplyDeltaRequiresBaseSummary) {
  cache::IcCache cache(cache::IcCacheConfig{});
  cache.Insert(RenderKey(1), DeterministicBytes(16, 1), SimTime::Epoch());
  const auto v1 = CacheSummary::Build(2, 1, cache, {});
  cache.Insert(RenderKey(2), DeterministicBytes(16, 2), SimTime::Epoch());
  const auto v2 = CacheSummary::Build(2, 2, cache, {});
  const auto delta = v2.ToWireDelta(1, {RenderKey(2).IndexKey()});

  SummaryTable table(4);
  // No base summary yet: the delta has nothing to extend.
  EXPECT_FALSE(table.ApplyDelta(delta).ok());
  table.Update(v1);
  EXPECT_TRUE(table.ApplyDelta(delta).ok());
  ASSERT_NE(table.For(2), nullptr);
  EXPECT_EQ(table.For(2)->version(), 2u);
  // Replay of the same delta: base no longer matches.
  EXPECT_FALSE(table.ApplyDelta(delta).ok());
}

TEST(SummaryTableTest, KeepsFreshestVersion) {
  cache::IcCache cache(cache::IcCacheConfig{});
  cache.Insert(RenderKey(1), DeterministicBytes(10, 1), SimTime::Epoch());
  SummaryTable table(4);
  EXPECT_EQ(table.For(2), nullptr);
  EXPECT_TRUE(table.Update(CacheSummary::Build(2, 5, cache, {})));
  EXPECT_FALSE(table.Update(CacheSummary::Build(2, 4, cache, {})));  // stale
  EXPECT_FALSE(table.Update(CacheSummary::Build(2, 5, cache, {})));  // same
  EXPECT_TRUE(table.Update(CacheSummary::Build(2, 6, cache, {})));
  ASSERT_NE(table.For(2), nullptr);
  EXPECT_EQ(table.For(2)->version(), 6u);
}

// ---------------------------------------------------------------------------
// Peer-select policies
// ---------------------------------------------------------------------------

SummaryTable TableWithKeyAt(std::uint32_t cluster, std::uint32_t holder,
                            std::uint64_t key_lo) {
  SummaryTable table(cluster);
  for (std::uint32_t e = 0; e < cluster; ++e) {
    cache::IcCache cache(cache::IcCacheConfig{});
    if (e == holder) {
      cache.Insert(RenderKey(key_lo), DeterministicBytes(10, 1),
                   SimTime::Epoch());
    }
    table.Update(CacheSummary::Build(e, 1, cache, {}));
  }
  return table;
}

TEST(PeerSelectTest, BroadcastReturnsAllReachable) {
  auto policy = MakePeerSelectPolicy({.kind = PeerSelectKind::kBroadcastAll});
  const std::vector<std::uint32_t> reachable{1, 2, 5};
  SummaryTable table(6);
  EXPECT_EQ(policy->Select(RenderKey(1), reachable, table), reachable);
}

TEST(PeerSelectTest, SummaryDirectedPicksTheHolder) {
  auto policy =
      MakePeerSelectPolicy({.kind = PeerSelectKind::kSummaryDirected});
  const std::vector<std::uint32_t> reachable{1, 2, 3};
  const auto table = TableWithKeyAt(4, 2, 77);
  const auto picked = policy->Select(RenderKey(77), reachable, table);
  EXPECT_EQ(picked, std::vector<std::uint32_t>{2});
  // A key nobody advertises selects nobody: the miss goes straight to
  // the cloud with zero probe traffic.
  EXPECT_TRUE(policy->Select(RenderKey(1234), reachable, table).empty());
}

TEST(PeerSelectTest, SummaryDirectedIgnoresPeersWithoutGossip) {
  auto policy =
      MakePeerSelectPolicy({.kind = PeerSelectKind::kSummaryDirected});
  SummaryTable table(3);  // nothing received yet
  const std::vector<std::uint32_t> reachable{1, 2};
  EXPECT_TRUE(policy->Select(RenderKey(1), reachable, table).empty());
}

TEST(PeerSelectTest, RandomKSamplesWithoutReplacement) {
  auto policy =
      MakePeerSelectPolicy({.kind = PeerSelectKind::kRandomK, .random_k = 3});
  const std::vector<std::uint32_t> reachable{1, 2, 3, 4, 5, 6, 7};
  SummaryTable table(8);
  for (int round = 0; round < 20; ++round) {
    const auto picked = policy->Select(RenderKey(1), reachable, table);
    EXPECT_EQ(picked.size(), 3u);
    const std::set<std::uint32_t> unique(picked.begin(), picked.end());
    EXPECT_EQ(unique.size(), 3u);
    for (const auto p : picked) {
      EXPECT_TRUE(std::find(reachable.begin(), reachable.end(), p) !=
                  reachable.end());
    }
  }
}

// ---------------------------------------------------------------------------
// FederationPipeline
// ---------------------------------------------------------------------------

FederationPipelineConfig ClusterConfig(std::uint32_t venues,
                                       PeerSelectKind policy) {
  FederationPipelineConfig config;
  config.venues = venues;
  config.policy.kind = policy;
  config.gossip_period = Duration::Millis(50);
  return config;
}

TEST(FederationPipelineTest, BroadcastServesPeerHitAcrossFourVenues) {
  FederationPipeline pipeline(
      ClusterConfig(4, PeerSelectKind::kBroadcastAll));
  pipeline.RegisterModel(1, KB(512));
  pipeline.EnqueueRenderAt(0, 1);
  pipeline.EnqueueRenderAt(3, 1);
  const auto outcomes = pipeline.Run();
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_EQ(outcomes[0].venue, 0u);
  EXPECT_EQ(outcomes[0].outcome.source, ResultSource::kCloud);
  EXPECT_EQ(outcomes[1].venue, 3u);
  EXPECT_EQ(outcomes[1].outcome.source, ResultSource::kPeerEdge);
  EXPECT_EQ(pipeline.cloud().tasks_executed(), 1u);
  // Broadcast probed all three peers.
  EXPECT_EQ(pipeline.edge(3).peer_probes_sent(), 3u);
}

TEST(FederationPipelineTest, SummaryDirectedProbesOnlyTheHolder) {
  FederationPipeline pipeline(
      ClusterConfig(4, PeerSelectKind::kSummaryDirected));
  pipeline.RegisterModel(1, KB(512));
  pipeline.EnqueueRenderAt(0, 1);  // warms venue 0, gossip advertises it
  pipeline.EnqueueRenderAt(3, 1);  // directed probe to venue 0 only
  const auto outcomes = pipeline.Run();
  EXPECT_EQ(outcomes[1].outcome.source, ResultSource::kPeerEdge);
  EXPECT_EQ(pipeline.edge(3).peer_probes_sent(), 1u);
  EXPECT_GT(pipeline.summary_updates_sent(), 0u);
}

TEST(FederationPipelineTest, SummaryDirectedSkipsProbesForUnknownContent) {
  FederationPipeline pipeline(
      ClusterConfig(4, PeerSelectKind::kSummaryDirected));
  pipeline.RegisterModel(1, KB(512));
  pipeline.RegisterModel(2, KB(512));
  pipeline.EnqueueRenderAt(0, 1);
  pipeline.EnqueueRenderAt(3, 2);  // nobody advertises model 2
  const auto outcomes = pipeline.Run();
  EXPECT_EQ(outcomes[1].outcome.source, ResultSource::kCloud);
  EXPECT_EQ(pipeline.edge(3).peer_probes_sent(), 0u);
  EXPECT_EQ(pipeline.cloud().tasks_executed(), 2u);
}

TEST(FederationPipelineTest, RingTopologyRelaysAcrossHops) {
  // 4-venue ring: venue 0 and venue 2 are two hops apart; a broadcast
  // probe from 2 must transit a relay to reach 0's cache.
  FederationPipelineConfig config =
      ClusterConfig(4, PeerSelectKind::kBroadcastAll);
  config.topology = TopologyKind::kRing;
  FederationPipeline pipeline(config);
  pipeline.RegisterModel(1, KB(256));
  pipeline.EnqueueRenderAt(0, 1);
  pipeline.EnqueueRenderAt(2, 1);
  const auto outcomes = pipeline.Run();
  EXPECT_EQ(outcomes[1].outcome.source, ResultSource::kPeerEdge);
  EXPECT_GT(pipeline.relay_forwards(), 0u);
}

TEST(FederationPipelineTest, HopLimitShrinksProbeScope) {
  // Star of 5: venue 1's only 1-hop peer is the hub, so broadcast sends
  // exactly one probe when hop_limit = 1.
  FederationPipelineConfig config =
      ClusterConfig(5, PeerSelectKind::kBroadcastAll);
  config.topology = TopologyKind::kStar;
  config.hop_limit = 1;
  FederationPipeline pipeline(config);
  pipeline.RegisterModel(1, KB(256));
  pipeline.EnqueueRenderAt(2, 1);  // warms a sibling leaf (2 hops away)
  pipeline.EnqueueRenderAt(1, 1);
  const auto outcomes = pipeline.Run();
  // The sibling leaf is out of scope: probe goes to the hub only, misses,
  // and the request falls through to the cloud.
  EXPECT_EQ(pipeline.edge(1).peer_probes_sent(), 1u);
  EXPECT_EQ(outcomes[1].outcome.source, ResultSource::kCloud);
}

TEST(FederationPipelineTest, ProbeBudgetCapsFanout) {
  FederationPipelineConfig config =
      ClusterConfig(8, PeerSelectKind::kBroadcastAll);
  config.probe_budget = 2;
  FederationPipeline pipeline(config);
  pipeline.RegisterModel(1, KB(256));
  pipeline.EnqueueRenderAt(7, 1);  // cold miss: probes capped at 2
  pipeline.Run();
  EXPECT_EQ(pipeline.edge(7).peer_probes_sent(), 2u);
}

TEST(FederationPipelineTest, NonCooperativeClusterNeverProbes) {
  FederationPipelineConfig config =
      ClusterConfig(4, PeerSelectKind::kBroadcastAll);
  config.cooperative = false;
  FederationPipeline pipeline(config);
  pipeline.RegisterModel(1, KB(256));
  pipeline.EnqueueRenderAt(0, 1);
  pipeline.EnqueueRenderAt(1, 1);
  const auto outcomes = pipeline.Run();
  EXPECT_EQ(outcomes[1].outcome.source, ResultSource::kCloud);
  EXPECT_EQ(pipeline.total_peer_probes(), 0u);
  EXPECT_EQ(pipeline.summary_updates_sent(), 0u);
}

TEST(FederationPipelineTest, SingleVenueDegeneratesToPlainEdge) {
  FederationPipeline pipeline(
      ClusterConfig(1, PeerSelectKind::kSummaryDirected));
  pipeline.EnqueueRecognitionAt(0, {.scene_id = 3});
  pipeline.EnqueueRecognitionAt(0, {.scene_id = 3, .view_angle_deg = 2});
  const auto outcomes = pipeline.Run();
  EXPECT_EQ(outcomes[0].outcome.source, ResultSource::kCloud);
  EXPECT_EQ(outcomes[1].outcome.source, ResultSource::kEdgeCache);
  EXPECT_EQ(pipeline.total_peer_probes(), 0u);
}

TEST(FederationPipelineTest, MultipleMobilesPerVenueShareTheEdgeCache) {
  FederationPipelineConfig config =
      ClusterConfig(2, PeerSelectKind::kBroadcastAll);
  config.mobiles_per_venue = 3;
  FederationPipeline pipeline(config);
  pipeline.RegisterModel(1, KB(256));
  pipeline.EnqueueRenderAt(0, 1, /*mobile=*/0);
  pipeline.EnqueueRenderAt(0, 1, /*mobile=*/2);  // same venue, other mobile
  const auto outcomes = pipeline.Run();
  EXPECT_EQ(outcomes[0].outcome.source, ResultSource::kCloud);
  EXPECT_EQ(outcomes[1].outcome.source, ResultSource::kEdgeCache);
}

TEST(FederationPipelineTest, RecognitionVectorsTravelViaCentroidSummaries) {
  FederationPipeline pipeline(
      ClusterConfig(3, PeerSelectKind::kSummaryDirected));
  pipeline.EnqueueRecognitionAt(0, {.scene_id = 5});
  pipeline.EnqueueRecognitionAt(2, {.scene_id = 5, .view_angle_deg = 2});
  const auto outcomes = pipeline.Run();
  EXPECT_EQ(outcomes[1].outcome.source, ResultSource::kPeerEdge);
  EXPECT_TRUE(outcomes[1].outcome.correct);
  // Directed by the centroid sketch: at most one probe for the hit.
  EXPECT_EQ(pipeline.edge(2).peer_probes_sent(), 1u);
}

TEST(FederationPipelineTest, ReplaysClusterTraceWithHandoff) {
  trace::ClusterWorkloadConfig workload;
  workload.base.users = 6;
  workload.base.objects = 10;
  workload.venues = 3;
  workload.handoff_probability = 0.2;
  trace::ClusterWorkloadGenerator gen(workload);
  const auto placed = gen.GenerateRecognition(30);

  FederationPipeline pipeline(
      ClusterConfig(3, PeerSelectKind::kBroadcastAll));
  for (const auto& p : placed) pipeline.EnqueuePlaced(p);
  const auto outcomes = pipeline.Run();
  ASSERT_EQ(outcomes.size(), placed.size());
  for (std::size_t i = 0; i < placed.size(); ++i) {
    EXPECT_EQ(outcomes[i].venue, placed[i].venue);
    EXPECT_FALSE(outcomes[i].outcome.error);
  }
  EXPECT_GT(gen.handoffs(), 0u);
}

// ---------------------------------------------------------------------------
// Gossip staleness & delta gossip
// ---------------------------------------------------------------------------

/// The exact churning workload bench_federation_scaling's staleness
/// ablation measures (trace::MakeChurnWorkload with the bench's high-
/// churn parameters), so these regression tests guard the very scenario
/// the BENCH table reports. Model byte sizes match the bench too.
void EnqueueChurnWorkload(FederationPipeline& pipeline, std::uint32_t venues,
                          std::size_t rounds = 40) {
  constexpr std::uint32_t kWindow = 8;
  constexpr std::uint32_t kCatalog = 40;
  constexpr std::uint32_t kRotateRounds = 4;  // the bench's "high" churn
  for (std::uint64_t m = 1; m <= kCatalog; ++m) {
    pipeline.RegisterModel(m, KB(128) + m * KB(4));
  }
  for (const auto& p : trace::MakeChurnWorkload(venues, rounds, kWindow,
                                                kCatalog, kRotateRounds)) {
    pipeline.EnqueuePlaced(p);
  }
}

FederationPipelineConfig ChurnConfig(Duration gossip_period,
                                     bool delta_gossip) {
  FederationPipelineConfig config;
  config.venues = 4;
  config.policy.kind = PeerSelectKind::kSummaryDirected;
  config.gossip_period = gossip_period;
  config.delta_gossip = delta_gossip;
  return config;
}

double ChurnHitRate(Duration gossip_period) {
  FederationPipeline pipeline(ChurnConfig(gossip_period, false));
  EnqueueChurnWorkload(pipeline, 4);
  core::QoeAggregator agg;
  for (const auto& o : pipeline.Run()) agg.Add(o.outcome);
  return agg.HitRate();
}

TEST(StalenessRegressionTest, HitRateNonIncreasingAsGossipPeriodGrows) {
  // The staleness law the ROADMAP ablation quantifies: on a fixed seeded
  // workload, every extra unit of summary staleness can only lose
  // directed peer hits (content cached since the last round is not yet
  // advertised), never gain them. Guard it as a regression test so a
  // gossip change that silently inverts the trade is caught.
  std::vector<double> hit_rates;
  for (const auto period_ms : {1u, 20u, 100u, 500u, 2500u}) {
    hit_rates.push_back(ChurnHitRate(Duration::Millis(period_ms)));
  }
  for (std::size_t i = 1; i < hit_rates.size(); ++i) {
    EXPECT_LE(hit_rates[i], hit_rates[i - 1])
        << "hit rate rose between period steps " << i - 1 << " and " << i;
  }
  // The sweep must actually span a staleness effect, or the monotone
  // assertion above is vacuous.
  EXPECT_GT(hit_rates.front(), hit_rates.back() + 0.02);
}

/// Encodes one summary for byte comparison.
ByteVec SummaryBytes(const CacheSummary& summary) {
  return proto::EncodeMessage(proto::MessageType::kSummaryUpdate, 0,
                              summary.ToWire());
}

/// Runs the churn workload under full vs delta gossip on otherwise
/// identical clusters and requires identical outcomes and byte-identical
/// final summary tables. `cache_capacity` 0 = unbounded (insert-only
/// deltas); a small capacity forces evictions, whose erasures make the
/// sender fall back to full resends — which must converge all the same.
void ExpectDeltaConvergesToFull(Bytes cache_capacity) {
  FederationPipelineConfig config =
      ChurnConfig(Duration::Millis(1), false);
  config.cache.capacity_bytes = cache_capacity;
  FederationPipeline full(config);
  config.delta_gossip = true;
  FederationPipeline delta(config);
  EnqueueChurnWorkload(full, 4);
  EnqueueChurnWorkload(delta, 4);
  const auto full_outcomes = full.Run();
  const auto delta_outcomes = delta.Run();

  // Delta gossip is a wire-format optimization: request outcomes are
  // unchanged.
  ASSERT_EQ(full_outcomes.size(), delta_outcomes.size());
  for (std::size_t i = 0; i < full_outcomes.size(); ++i) {
    EXPECT_EQ(full_outcomes[i].venue, delta_outcomes[i].venue) << i;
    EXPECT_EQ(full_outcomes[i].outcome.source, delta_outcomes[i].outcome.source)
        << i;
  }

  // After drain, every venue's view of every peer is byte-identical.
  for (std::uint32_t v = 0; v < 4; ++v) {
    for (std::uint32_t peer = 0; peer < 4; ++peer) {
      if (peer == v) continue;
      const CacheSummary* a = full.summary_table(v).For(peer);
      const CacheSummary* b = delta.summary_table(v).For(peer);
      ASSERT_EQ(a == nullptr, b == nullptr) << v << "<-" << peer;
      if (a == nullptr) continue;
      EXPECT_EQ(SummaryBytes(*a), SummaryBytes(*b)) << v << "<-" << peer;
    }
  }

  // And the delta run paid fewer gossip bytes for it.
  const std::uint64_t full_bytes =
      full.summary_bytes_full() + full.summary_bytes_delta();
  const std::uint64_t delta_bytes =
      delta.summary_bytes_full() + delta.summary_bytes_delta();
  EXPECT_LT(delta_bytes, full_bytes);
}

TEST(StalenessRegressionTest, DeltaGossipConvergesToFullGossipTables) {
  ExpectDeltaConvergesToFull(/*cache_capacity=*/0);
}

TEST(StalenessRegressionTest, PeriodicFullRefreshCadence) {
  // delta_full_refresh_rounds bounds the staleness a dropped frame can
  // cause on a lossy link by forcing a full summary every Nth gossip
  // round per peer. Pin the cadence arithmetic: N=1 forces full every
  // round (no deltas at all), N=2 trades some deltas back for fulls,
  // 0 never forces.
  auto run = [](std::uint32_t refresh_rounds) {
    FederationPipelineConfig config = ChurnConfig(Duration::Millis(1), true);
    config.delta_full_refresh_rounds = refresh_rounds;
    FederationPipeline pipeline(config);
    EnqueueChurnWorkload(pipeline, 4);
    (void)pipeline.Run();
    return std::pair{pipeline.summary_updates_sent(),
                     pipeline.summary_deltas_sent()};
  };
  const auto [fulls_never, deltas_never] = run(0);
  EXPECT_GT(deltas_never, 0u);

  const auto [fulls_always, deltas_always] = run(1);
  EXPECT_EQ(deltas_always, 0u);
  // Every round full to every peer — at least the sends the lazy run
  // made, plus resends on rounds the lazy run skipped as "current".
  EXPECT_GE(fulls_always, fulls_never + deltas_never);

  const auto [fulls_alt, deltas_alt] = run(2);
  EXPECT_GT(deltas_alt, 0u);
  EXPECT_GT(fulls_alt, fulls_never);
  EXPECT_LT(deltas_alt, deltas_never);
}

TEST(StalenessRegressionTest, PeriodicRefreshReachesQuiescentPeers) {
  // Sent-state is sent-not-acked: after a lost frame the sender believes
  // the peer is current and the skip path would never send again once
  // the cache stops mutating. The refresh cadence must therefore count
  // quiet rounds too — with it on, fulls keep flowing during a long
  // quiescent phase; with it off, gossip goes silent.
  auto run = [](std::uint32_t refresh_rounds) {
    FederationPipelineConfig config = ChurnConfig(Duration::Millis(1), true);
    config.delta_full_refresh_rounds = refresh_rounds;
    FederationPipeline pipeline(config);
    for (std::uint64_t m = 1; m <= 4; ++m) {
      pipeline.RegisterModel(m, KB(64));
    }
    // Warm phase mutates every cache; quiet phase repeats warm content
    // (pure hits, zero mutations) across many gossip rounds.
    for (std::uint64_t m = 1; m <= 4; ++m) {
      for (std::uint32_t v = 0; v < 4; ++v) pipeline.EnqueueRenderAt(v, m);
    }
    for (int i = 0; i < 24; ++i) {
      for (std::uint32_t v = 0; v < 4; ++v) pipeline.EnqueueRenderAt(v, 1);
    }
    (void)pipeline.Run();
    return pipeline.summary_updates_sent();
  };
  const std::uint64_t lazy_fulls = run(0);
  const std::uint64_t refreshed_fulls = run(6);
  // ~28 quiet rounds / 6 per peer pair adds well over a dozen resends.
  EXPECT_GT(refreshed_fulls, lazy_fulls + 12);
}

TEST(StalenessRegressionTest, EvictionChurnFallsBackToFullAndStillConverges) {
  // A byte-bounded cache evicts continuously under the sliding window;
  // erased keys cannot be expressed as Bloom deltas, so the sender must
  // detect them in the journal slice and resend full summaries — beyond
  // the 12 first-contact fulls a 4-venue cluster always pays.
  FederationPipelineConfig config = ChurnConfig(Duration::Millis(1), true);
  config.cache.capacity_bytes = KB(700);
  FederationPipeline pipeline(config);
  EnqueueChurnWorkload(pipeline, 4);
  (void)pipeline.Run();
  std::uint64_t evictions = 0;
  for (std::uint32_t v = 0; v < 4; ++v) {
    evictions += pipeline.edge(v).cache().stats().evictions;
  }
  ASSERT_GT(evictions, 0u) << "workload did not exercise eviction churn";
  EXPECT_GT(pipeline.summary_updates_sent(), 12u);

  ExpectDeltaConvergesToFull(/*cache_capacity=*/KB(700));
}

// ---------------------------------------------------------------------------
// Cluster workload generator
// ---------------------------------------------------------------------------

TEST(ClusterWorkloadTest, PlacementIsRoundRobinWithoutHandoff) {
  trace::ClusterWorkloadConfig config;
  config.base.users = 8;
  config.venues = 4;
  config.handoff_probability = 0.0;
  trace::ClusterWorkloadGenerator gen(config);
  const auto placed = gen.GenerateRecognition(50);
  ASSERT_EQ(placed.size(), 50u);
  for (const auto& p : placed) {
    EXPECT_EQ(p.venue, p.record.user_id % 4);
  }
  EXPECT_EQ(gen.handoffs(), 0u);
}

TEST(ClusterWorkloadTest, HandoffMovesUsersBetweenVenues) {
  trace::ClusterWorkloadConfig config;
  config.base.users = 4;
  config.venues = 4;
  config.handoff_probability = 0.5;
  trace::ClusterWorkloadGenerator gen(config);
  const auto placed = gen.GenerateRecognition(100);
  EXPECT_GT(gen.handoffs(), 10u);
  for (const auto& p : placed) {
    EXPECT_LT(p.venue, 4u);
  }
  // Venue tags follow the tracked placement at generation time.
  for (std::uint32_t u = 0; u < 4; ++u) {
    EXPECT_LT(gen.VenueOf(u), 4u);
  }
}

TEST(ClusterWorkloadTest, SingleVenueNeverHandsOff) {
  trace::ClusterWorkloadConfig config;
  config.base.users = 4;
  config.venues = 1;
  config.handoff_probability = 1.0;
  trace::ClusterWorkloadGenerator gen(config);
  const auto placed = gen.GenerateRender(20, std::vector<std::uint64_t>{1, 2});
  EXPECT_EQ(gen.handoffs(), 0u);
  for (const auto& p : placed) EXPECT_EQ(p.venue, 0u);
}

// ---------------------------------------------------------------------------
// Open-loop throughput replay
// ---------------------------------------------------------------------------

FederationPipelineConfig OpenLoopClusterConfig(std::uint32_t venues) {
  FederationPipelineConfig config;
  config.venues = venues;
  config.mobiles_per_venue = 2;
  config.policy.kind = PeerSelectKind::kSummaryDirected;
  config.gossip_period = Duration::Millis(50);
  // Provisioned links so the offered storm is serviceable; the default
  // 10 Mbps WAN is the paper's throttled latency-study condition.
  config.network =
      core::NetworkCondition{Bandwidth::Gbps(1), Bandwidth::Mbps(200)};
  return config;
}

/// A render-only placed trace (trace::MakeRenderStorm): requests
/// round-robin over venues and a small Zipf-free model set, re-timed as
/// one Poisson stream. Render ops keep the suite fast (no per-request
/// scene rendering).
std::vector<trace::PlacedRecord> RenderStorm(std::uint32_t venues,
                                             std::size_t n, double rate_hz,
                                             std::uint32_t models = 6) {
  return trace::MakeRenderStorm(venues, n, rate_hz, models);
}

void RegisterStormModels(FederationPipeline& pipeline,
                         std::uint32_t models = 6) {
  for (std::uint64_t m = 1; m <= models; ++m) {
    pipeline.RegisterModel(m, KB(64) + m * KB(4));
  }
}

TEST(OpenLoopReplayTest, ManyRequestsInFlightAt500PerSecond) {
  // The acceptance scenario: an 8-venue full mesh absorbing an offered
  // load of 500 req/s must actually overlap requests (the closed loop
  // never exceeds 1 in flight).
  FederationPipeline pipeline(OpenLoopClusterConfig(8));
  RegisterStormModels(pipeline);
  const auto placed = RenderStorm(8, 400, 500.0);
  for (const auto& p : placed) pipeline.EnqueuePlaced(p);
  const auto outcomes = pipeline.RunOpenLoop();
  ASSERT_EQ(outcomes.size(), 400u);
  for (const auto& o : outcomes) EXPECT_FALSE(o.outcome.error);
  EXPECT_GT(pipeline.open_loop_stats().max_inflight, 1u);
  EXPECT_EQ(pipeline.open_loop_stats().operations, 400u);
  // Edges parked more than one request at a time under the storm.
  std::size_t peak = 0;
  for (std::uint32_t v = 0; v < 8; ++v) {
    peak = std::max(peak, pipeline.edge(v).peak_pending());
  }
  EXPECT_GT(peak, 1u);
}

TEST(OpenLoopReplayTest, SchedulerFullyDrainsAndTimersStop) {
  FederationPipeline pipeline(OpenLoopClusterConfig(4));
  RegisterStormModels(pipeline);
  const auto placed = RenderStorm(4, 100, 200.0);
  for (const auto& p : placed) pipeline.EnqueuePlaced(p);
  (void)pipeline.RunOpenLoop();
  // The free-running gossip timers were cancelled at workload drain: no
  // event remains pending, and RunOpenLoop returned at all.
  EXPECT_EQ(pipeline.scheduler().pending(), 0u);
  EXPECT_FALSE(pipeline.scheduler().Step());
}

TEST(OpenLoopReplayTest, GossipRefreshesWhileOperationsAreInFlight) {
  // Phase 1: venue 0 warms all six models (arrivals spread over ~0.3 s,
  // i.e. several 50 ms gossip periods). Phase 2: the other venues
  // request the same models. Only a summary gossiped *during* the run —
  // after venue 0's inserts, the open loop has no between-ops gossip —
  // can direct phase-2 misses at venue 0, so peer hits prove the timers
  // refreshed summaries while operations were in flight.
  FederationPipeline pipeline(OpenLoopClusterConfig(4));
  RegisterStormModels(pipeline);
  std::vector<trace::PlacedRecord> placed(120);
  for (std::size_t i = 0; i < placed.size(); ++i) {
    auto& p = placed[i];
    p.venue = i < 60 ? 0 : static_cast<std::uint32_t>(i % 3 + 1);
    p.record.type = trace::IcTaskType::kRender;
    p.record.user_id = static_cast<std::uint32_t>(i);
    p.record.model_id = i % 6 + 1;
  }
  trace::RetimeArrivals(std::span<trace::PlacedRecord>(placed), 200.0);
  for (const auto& p : placed) pipeline.EnqueuePlaced(p);
  const auto outcomes = pipeline.RunOpenLoop();
  const auto& stats = pipeline.open_loop_stats();
  // Round 0 contributes exactly `venues` firings; anything beyond came
  // from the free-running timers while operations were completing.
  EXPECT_GT(stats.gossip_rounds, 4u * 3u);
  EXPECT_GT(pipeline.summary_updates_sent(), 0u);
  std::uint64_t peer_served = 0;
  for (const auto& o : outcomes) {
    peer_served += o.outcome.source == ResultSource::kPeerEdge ? 1 : 0;
  }
  EXPECT_GT(peer_served, 0u);
}

TEST(OpenLoopReplayTest, DeterministicForAFixedSeed) {
  auto run_once = [] {
    FederationPipeline pipeline(OpenLoopClusterConfig(4));
    RegisterStormModels(pipeline);
    const auto placed = RenderStorm(4, 150, 300.0);
    for (const auto& p : placed) pipeline.EnqueuePlaced(p);
    return pipeline.RunOpenLoop();
  };
  const auto first = run_once();
  const auto second = run_once();
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].venue, second[i].venue);
    EXPECT_EQ(first[i].outcome.source, second[i].outcome.source);
    EXPECT_EQ(first[i].outcome.latency.micros(),
              second[i].outcome.latency.micros());
    EXPECT_EQ(first[i].outcome.object_id, second[i].outcome.object_id);
  }
}

TEST(OpenLoopReplayTest, HitRateConsistentWithClosedLoop) {
  const auto placed = RenderStorm(4, 200, 200.0);

  FederationPipeline closed(OpenLoopClusterConfig(4));
  RegisterStormModels(closed);
  for (const auto& p : placed) closed.EnqueuePlaced(p);
  core::QoeAggregator closed_agg;
  for (const auto& o : closed.Run()) closed_agg.Add(o.outcome);

  FederationPipeline open(OpenLoopClusterConfig(4));
  RegisterStormModels(open);
  for (const auto& p : placed) open.EnqueuePlaced(p);
  core::QoeAggregator open_agg;
  for (const auto& o : open.RunOpenLoop()) open_agg.Add(o.outcome);

  // Same trace, same caches; the open loop may lose a few hits to
  // concurrent same-key misses, not more.
  EXPECT_GT(closed_agg.HitRate(), 0.5);
  EXPECT_NEAR(open_agg.HitRate(), closed_agg.HitRate(), 0.15);
}

TEST(OpenLoopReplayTest, EmptyQueueIsANoOp) {
  FederationPipeline pipeline(OpenLoopClusterConfig(2));
  const auto outcomes = pipeline.RunOpenLoop();
  EXPECT_TRUE(outcomes.empty());
  EXPECT_EQ(pipeline.scheduler().pending(), 0u);
  EXPECT_EQ(pipeline.open_loop_stats().gossip_rounds, 0u);
}

TEST(OpenLoopReplayTest, DeltaGossipRunsOnFreeRunningTimers) {
  // The open-loop regime chooses delta vs full per peer on its
  // free-running timers exactly like closed-loop rounds do: the run
  // drains, hit rate matches full gossip, and the gossip bytes drop.
  const auto placed = RenderStorm(4, 200, 300.0);
  auto run = [&placed](bool delta_gossip) {
    FederationPipelineConfig config = OpenLoopClusterConfig(4);
    config.delta_gossip = delta_gossip;
    FederationPipeline pipeline(config);
    RegisterStormModels(pipeline);
    for (const auto& p : placed) pipeline.EnqueuePlaced(p);
    core::QoeAggregator agg;
    for (const auto& o : pipeline.RunOpenLoop()) agg.Add(o.outcome);
    EXPECT_EQ(pipeline.scheduler().pending(), 0u);
    return std::tuple{agg.HitRate(),
                      pipeline.summary_bytes_full() +
                          pipeline.summary_bytes_delta(),
                      pipeline.summary_deltas_sent()};
  };
  const auto [full_hit, full_bytes, full_deltas] = run(false);
  const auto [delta_hit, delta_bytes, delta_deltas] = run(true);
  EXPECT_EQ(full_deltas, 0u);
  EXPECT_GT(delta_deltas, 0u);
  EXPECT_LT(delta_bytes, full_bytes);
  EXPECT_NEAR(delta_hit, full_hit, 0.05);
}

TEST(OpenLoopReplayTest, ArrivalTimesHonoredOnTheSimClock) {
  FederationPipeline pipeline(OpenLoopClusterConfig(2));
  RegisterStormModels(pipeline);
  trace::PlacedRecord late;
  late.venue = 1;
  late.record.type = trace::IcTaskType::kRender;
  late.record.model_id = 1;
  late.record.at = SimTime::FromMicros(2'000'000);
  pipeline.EnqueuePlaced(late);
  (void)pipeline.RunOpenLoop();
  // The single operation was issued at its arrival time, so the run ends
  // at >= 2 s simulated regardless of service latency.
  EXPECT_GE(pipeline.scheduler().now().micros(), 2'000'000);
  EXPECT_GE(pipeline.open_loop_stats().first_arrival.micros(), 2'000'000);
}

// ---------------------------------------------------------------------------
// Zero-copy frame fabric at cluster scale
// ---------------------------------------------------------------------------

TEST(FrameFabricTest, FullMeshStormMakesZeroCountedPayloadCopies) {
  // The acceptance claim: gossip broadcast, peer-probe fan-out, relay
  // forwarding, cache adoption and client replies all ride shared
  // buffers — an entire open-loop storm increments the global frame-copy
  // counter by exactly zero.
  FederationPipeline pipeline(OpenLoopClusterConfig(8));
  RegisterStormModels(pipeline);
  for (const auto& p : RenderStorm(8, 300, 400.0)) pipeline.EnqueuePlaced(p);
  const std::uint64_t copies_before = frame_stats().copies();
  const auto outcomes = pipeline.RunOpenLoop();
  EXPECT_EQ(outcomes.size(), 300u);
  EXPECT_GT(pipeline.summary_updates_sent(), 0u);  // gossip really fanned out
  EXPECT_EQ(frame_stats().copies(), copies_before);
}

TEST(FrameFabricTest, RingStormWithRelaysMakesZeroCountedPayloadCopies) {
  // Ring topology forces FederatedRelay wrappers and intermediate-hop
  // TTL patches; the patch must land in the uniquely-held buffer, never
  // copy-on-write.
  FederationPipelineConfig config = OpenLoopClusterConfig(6);
  config.topology = TopologyKind::kRing;
  FederationPipeline pipeline(config);
  RegisterStormModels(pipeline);
  for (const auto& p : RenderStorm(6, 200, 300.0)) pipeline.EnqueuePlaced(p);
  const std::uint64_t copies_before = frame_stats().copies();
  const auto outcomes = pipeline.RunOpenLoop();
  EXPECT_EQ(outcomes.size(), 200u);
  EXPECT_GT(pipeline.relay_forwards(), 0u);  // relays really happened
  EXPECT_EQ(frame_stats().copies(), copies_before);
}

TEST(FrameFabricTest, ClosedLoopOutcomesUnchangedByDisablingCoalescing) {
  // Coalescing can only trigger with >1 request in flight; the closed
  // loop must be bit-identical with it on or off (the PR 4 behavior).
  const auto placed = RenderStorm(4, 120, 200.0);
  const auto run = [&placed](bool coalesce) {
    FederationPipelineConfig config = OpenLoopClusterConfig(4);
    config.coalesce_requests = coalesce;
    FederationPipeline pipeline(config);
    RegisterStormModels(pipeline);
    for (const auto& p : placed) pipeline.EnqueuePlaced(p);
    return pipeline.Run();
  };
  const auto with = run(true);
  const auto without = run(false);
  ASSERT_EQ(with.size(), without.size());
  for (std::size_t i = 0; i < with.size(); ++i) {
    EXPECT_EQ(with[i].venue, without[i].venue);
    EXPECT_EQ(with[i].outcome.source, without[i].outcome.source);
    EXPECT_EQ(with[i].outcome.latency.micros(),
              without[i].outcome.latency.micros());
  }
}

// ---------------------------------------------------------------------------
// Same-key request coalescing under open-loop storms
// ---------------------------------------------------------------------------

TEST(CoalescingStormTest, CloudFetchesDropWhenConcurrentMissesCoalesce) {
  // A hot-object storm: many concurrent requests for a tiny model set.
  // With coalescing every burst of same-key misses pays one cloud fetch;
  // without it each one pays its own.
  const auto placed = RenderStorm(/*venues=*/2, /*n=*/300, /*rate_hz=*/3000.0,
                                  /*models=*/3);
  const auto run = [&placed](bool coalesce) {
    FederationPipelineConfig config = OpenLoopClusterConfig(2);
    config.coalesce_requests = coalesce;
    FederationPipeline pipeline(config);
    RegisterStormModels(pipeline, 3);
    for (const auto& p : placed) pipeline.EnqueuePlaced(p);
    const auto outcomes = pipeline.RunOpenLoop();
    for (const auto& o : outcomes) EXPECT_FALSE(o.outcome.error);
    return std::make_tuple(outcomes.size(), pipeline.total_cloud_forwards(),
                           pipeline.total_coalesced_requests());
  };
  const auto [ops_on, forwards_on, coalesced_on] = run(true);
  const auto [ops_off, forwards_off, coalesced_off] = run(false);
  EXPECT_EQ(ops_on, 300u);
  EXPECT_EQ(ops_off, 300u);
  EXPECT_EQ(coalesced_off, 0u);
  EXPECT_GT(coalesced_on, 0u);
  // The wait-list absorbed duplicate fetches: strictly fewer cloud
  // round trips, by exactly the number of coalesced requests... minus
  // any that would have been served by a peer instead — so assert the
  // direction and a real margin, not the exact arithmetic.
  EXPECT_LT(forwards_on, forwards_off);
}

// ---------------------------------------------------------------------------
// Loss-tolerant transport
// ---------------------------------------------------------------------------

using federation::FederationTransportConfig;

trace::PlacedRecord RenderAt(std::uint32_t venue, std::uint64_t model,
                             std::int64_t at_us, std::uint32_t user = 0) {
  trace::PlacedRecord p;
  p.venue = venue;
  p.record.type = trace::IcTaskType::kRender;
  p.record.model_id = model;
  p.record.at = SimTime::FromMicros(at_us);
  p.record.user_id = user;
  return p;
}

TEST(LossToleranceTest, LeaderLossPromotesTheOldestParkedFollower) {
  // Regression (leader-loss recovery): two mobiles miss on the same key;
  // the leader's cloud fetch dies on the wire, and before the fix every
  // follower coalesced behind it was stranded forever — the run hung.
  FederationPipelineConfig config = OpenLoopClusterConfig(1);
  config.transport.cloud_retry.timeout = Duration::Millis(50);
  config.transport.cloud_retry.max_retries = 1;
  FederationPipeline pipeline(config);
  pipeline.RegisterModel(1, KB(64));
  pipeline.EnqueuePlaced(RenderAt(0, 1, 1'000, /*user=*/0));
  pipeline.EnqueuePlaced(RenderAt(0, 1, 2'000, /*user=*/1));
  // Kill the leader's forward AND its one retransmission mid-flight;
  // the promoted follower's fetch (third WAN frame) goes through.
  pipeline.network()
      .LinkBetween(pipeline.edge_node(0), pipeline.cloud_node())
      .ForceDropNext(2);

  const auto outcomes = pipeline.RunOpenLoop();
  ASSERT_EQ(outcomes.size(), 2u);  // nobody stranded, the run drained
  EXPECT_EQ(pipeline.scheduler().pending(), 0u);
  EXPECT_EQ(pipeline.edge(0).cloud_retransmissions(), 1u);
  EXPECT_EQ(pipeline.edge(0).cloud_timeouts(), 1u);
  EXPECT_EQ(pipeline.total_leader_promotions(), 1u);
  // The dead leader's client got an error; the promoted follower got
  // the real result.
  int errors = 0, served = 0;
  for (const auto& o : outcomes) {
    if (o.outcome.error) {
      ++errors;
    } else {
      ++served;
      EXPECT_EQ(o.outcome.source, ResultSource::kCloud);
    }
  }
  EXPECT_EQ(errors, 1);
  EXPECT_EQ(served, 1);
}

TEST(LossToleranceTest, LossySweepStormDrainsEveryRequestCopyFree) {
  // The headline acceptance property: under real loss + datagram
  // fragmentation + retries + ack'd gossip, no run ever hangs — every
  // operation resolves, the scheduler drains, and the recovery machinery
  // (retransmits, chunking) stays inside the zero-copy accounting.
  FederationPipelineConfig config = OpenLoopClusterConfig(4);
  config.delta_gossip = true;
  config.transport = FederationTransportConfig::Lossy(0.03);
  FederationPipeline pipeline(config);
  RegisterStormModels(pipeline);
  for (const auto& p : RenderStorm(4, 200, 300.0)) pipeline.EnqueuePlaced(p);

  const std::uint64_t copies_before = frame_stats().copies();
  const auto outcomes = pipeline.RunOpenLoop();
  EXPECT_EQ(outcomes.size(), 200u);
  EXPECT_EQ(pipeline.scheduler().pending(), 0u);
  // Loss really bit and recovery really ran.
  EXPECT_GT(pipeline.total_client_retransmissions() +
                pipeline.total_cloud_retransmissions(),
            0u);
  EXPECT_GT(pipeline.network().datagram_stats().messages_fragmented, 0u);
  EXPECT_EQ(frame_stats().copies(), copies_before);
}

TEST(LossToleranceTest, LostDeltaTriggersOneTargetedFullResend) {
  // Gossip ack/nack: venue 1 misses one delta, detects the base
  // mismatch when the next delta arrives, nacks with the version it
  // actually holds, and venue 0 re-ships the full summary — once, to
  // that peer only, without waiting for a periodic refresh.
  const auto run = [](bool drop_one_delta) {
    FederationPipelineConfig config = OpenLoopClusterConfig(2);
    config.delta_gossip = true;
    config.transport.summary_ack = true;
    auto pipeline = std::make_unique<FederationPipeline>(config);
    for (std::uint64_t m = 1; m <= 3; ++m) pipeline->RegisterModel(m, KB(64));
    // One insertion per 50 ms gossip period at venue 0: three versions.
    pipeline->EnqueuePlaced(RenderAt(0, 1, 10'000));
    pipeline->EnqueuePlaced(RenderAt(0, 2, 60'000));
    pipeline->EnqueuePlaced(RenderAt(0, 3, 110'000));
    // Keep the run alive past the recovery exchange (a cache hit: no
    // new summary version).
    pipeline->EnqueuePlaced(RenderAt(0, 1, 400'000));
    if (drop_one_delta) {
      // Drop exactly the second summary frame on the 0->1 link (the
      // first delta); the initial full frame and later deltas go
      // through.
      pipeline->network()
          .LinkBetween(pipeline->edge_node(0), pipeline->edge_node(1))
          .ForceDropAfter(/*skip=*/1, /*n=*/1);
    }
    EXPECT_EQ(pipeline->RunOpenLoop().size(), 4u);
    return pipeline;
  };
  const auto lossless = run(false);
  const auto lossy = run(true);
  EXPECT_EQ(lossless->summary_ack_resends(), 0u);
  EXPECT_GE(lossy->summary_acks_sent(), 1u);  // the nack went out
  EXPECT_EQ(lossy->summary_ack_resends(), 1u);
  // Despite the loss, venue 1 converged to the same view of venue 0 the
  // lossless run reached.
  const CacheSummary* want = lossless->summary_table(1).For(0);
  const CacheSummary* held = lossy->summary_table(1).For(0);
  ASSERT_NE(want, nullptr);
  ASSERT_NE(held, nullptr);
  EXPECT_EQ(held->version(), want->version());
  EXPECT_EQ(SummaryBytes(*held), SummaryBytes(*want));
}

TEST(FrameFabricTest, HitHeavyStormStaysCopyFreeWithGatherReplies) {
  // Satellite of the zero-copy claim: cache-hit replies now ride the
  // scatter-gather path (tiny rewritten head + shared cached tail), so
  // a hit-dominated storm must stay at zero counted copies too.
  FederationPipeline pipeline(OpenLoopClusterConfig(4));
  RegisterStormModels(pipeline, 3);
  for (const auto& p : RenderStorm(4, 300, 500.0, /*models=*/3)) {
    pipeline.EnqueuePlaced(p);
  }
  const std::uint64_t copies_before = frame_stats().copies();
  const auto outcomes = pipeline.RunOpenLoop();
  EXPECT_EQ(outcomes.size(), 300u);
  std::uint64_t hits = 0;
  for (std::uint32_t v = 0; v < 4; ++v) {
    hits += pipeline.edge(v).cache().stats().hits;
  }
  EXPECT_GT(hits, 50u);  // the storm really was hit-heavy
  EXPECT_EQ(frame_stats().copies(), copies_before);
}

/// The lossless 8-venue mixed storm of the gathered-reply tests, run on
/// `workers` deterministic shards: outcomes plus the merged metrics.
struct MixedStormRun {
  std::vector<federation::FederationOutcome> outcomes;
  obs::MetricsSnapshot metrics;
  std::uint64_t peer_hits = 0;
  std::uint64_t copies = 0;
};

MixedStormRun RunLosslessMixedStorm(std::uint32_t workers) {
  FederationPipelineConfig config = OpenLoopClusterConfig(8);
  config.execution.workers = workers;
  config.execution.mode = federation::ExecutionConfig::Mode::kDeterministic;
  FederationPipeline pipeline(config);
  const std::vector<std::uint64_t> models = {1, 2, 3, 4, 5, 6};
  for (const std::uint64_t m : models) {
    pipeline.RegisterModel(m, KB(64) + m * KB(4));
  }
  trace::ClusterWorkloadConfig wl;
  wl.venues = 8;
  wl.base.users = 16;
  wl.base.objects = 6;
  wl.base.scene_raster = 32;
  trace::ClusterWorkloadGenerator gen(wl);
  auto placed = gen.GenerateMixed(400, models, /*video_id=*/7);
  trace::RetimeArrivals(std::span<trace::PlacedRecord>(placed), 500.0);
  for (const auto& p : placed) pipeline.EnqueuePlaced(p);

  MixedStormRun run;
  const std::uint64_t copies_before = frame_stats().copies();
  run.outcomes = pipeline.RunOpenLoop();
  run.copies = frame_stats().copies() - copies_before;
  run.metrics = pipeline.MergedMetricsSnapshot();
  for (std::uint32_t v = 0; v < 8; ++v) {
    run.peer_hits += pipeline.edge(v).peer_hits();
  }
  return run;
}

TEST(FrameFabricTest, LosslessMixedStormDeliversGatheredRepliesUnflattened) {
  // Recognition, render and panorama hit replies all leave the edge as a
  // head + shared blob body, peer hits leave the serving edge as a head
  // + its cached payload, and cloud render / panorama replies leave the
  // cloud as a bare header + the memoized payload. On a lossless
  // single-thread 8-venue mixed storm every pair reaches its receiver
  // in two segments: no hop joins one.
  const MixedStormRun run = RunLosslessMixedStorm(1);
  ASSERT_EQ(run.outcomes.size(), 400u);
  std::set<std::pair<proto::TaskKind, ResultSource>> seen;
  for (const auto& o : run.outcomes) {
    EXPECT_FALSE(o.outcome.error);
    seen.emplace(o.outcome.task, o.outcome.source);
  }
  // Every result type rode the hit path.
  for (const auto task : {proto::TaskKind::kRecognition,
                          proto::TaskKind::kRender,
                          proto::TaskKind::kPanorama}) {
    EXPECT_TRUE(seen.contains({task, ResultSource::kEdgeCache}))
        << static_cast<int>(task);
  }
  // Gathered cloud replies and peer hits were exercised too.
  EXPECT_TRUE(seen.contains({proto::TaskKind::kRender, ResultSource::kCloud}));
  EXPECT_TRUE(
      seen.contains({proto::TaskKind::kPanorama, ResultSource::kCloud}));
  EXPECT_GT(run.peer_hits, 0u);
  EXPECT_EQ(run.metrics.value("netsim.gather_flattens"), 0u);
  EXPECT_EQ(run.metrics.value("netsim.gather_flatten_bytes"), 0u);
  EXPECT_EQ(run.copies, 0u);
}

TEST(FrameFabricTest, LosslessMixedStormIsBitIdenticalOnTwoWorkers) {
  // Two deterministic shards put the cloud and some edges on different
  // threads: those gathered pairs are joined at the shard boundary, the
  // rest stay gathered. Outcomes must not move either way.
  const auto rows = [](const MixedStormRun& run) {
    std::vector<std::tuple<std::uint32_t, proto::TaskKind, ResultSource, bool,
                           std::int64_t, std::int64_t>>
        out;
    for (const auto& o : run.outcomes) {
      out.emplace_back(o.venue, o.outcome.task, o.outcome.source,
                       o.outcome.error, o.outcome.latency.micros(),
                       (o.completed_at - SimTime::Epoch()).micros());
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  const MixedStormRun single = RunLosslessMixedStorm(1);
  const MixedStormRun sharded = RunLosslessMixedStorm(2);
  ASSERT_EQ(single.outcomes.size(), 400u);
  EXPECT_EQ(rows(sharded), rows(single));
  EXPECT_EQ(sharded.peer_hits, single.peer_hits);
  EXPECT_EQ(sharded.copies, 0u);
}

TEST(FrameFabricTest, PeerHitAdoptsTheServingVenuesBuffer) {
  // Venue 3's miss is answered by venue 0's cache; venue 3 adopts the
  // gathered tail itself, so the two cache entries (and the cloud's
  // render memo venue 0 cached) are one buffer.
  FederationPipeline pipeline(
      ClusterConfig(4, PeerSelectKind::kSummaryDirected));
  pipeline.RegisterModel(1, KB(512));
  pipeline.EnqueueRenderAt(0, 1);
  pipeline.EnqueueRenderAt(3, 1);
  const auto outcomes = pipeline.Run();
  ASSERT_EQ(outcomes.size(), 2u);
  ASSERT_EQ(outcomes[1].outcome.source, ResultSource::kPeerEdge);
  const auto key = proto::FeatureDescriptor::ForHash(
      proto::TaskKind::kRender,
      pipeline.cloud().model_registry().DigestFor(1).value());
  const auto serving =
      pipeline.edge(0).mutable_cache().Lookup(key, SimTime::Epoch());
  const auto adopting =
      pipeline.edge(3).mutable_cache().Lookup(key, SimTime::Epoch());
  ASSERT_TRUE(serving.hit);
  ASSERT_TRUE(adopting.hit);
  EXPECT_EQ(adopting.payload.span().data(), serving.payload.span().data());
  EXPECT_EQ(adopting.payload.size(), serving.payload.size());
}

TEST(FrameFabricTest, PeerHitsSealNoLargeBuffers) {
  // frame.large_buffers counts every buffer of 64 KiB or more a Frame
  // adopts, encodes from borrowed views included. On a lossless render
  // storm the only ones left are the cloud's memo builds: replies go
  // out by reference, so the run seals no more large buffers than twice
  // the cloud's task count — while there are more peer hits than cloud
  // tasks, which a copy per peer hit would overrun.
  // Venue 0 warms the six models; gossip then directs the other seven
  // venues' misses at it.
  FederationPipeline pipeline(OpenLoopClusterConfig(8));
  RegisterStormModels(pipeline);
  std::vector<trace::PlacedRecord> placed(200);
  for (std::size_t i = 0; i < placed.size(); ++i) {
    auto& p = placed[i];
    p.venue = i < 60 ? 0 : static_cast<std::uint32_t>(i % 7 + 1);
    p.record.type = trace::IcTaskType::kRender;
    p.record.user_id = static_cast<std::uint32_t>(i);
    p.record.model_id = i % 6 + 1;
  }
  trace::RetimeArrivals(std::span<trace::PlacedRecord>(placed), 200.0);
  for (const auto& p : placed) pipeline.EnqueuePlaced(p);
  const auto before = pipeline.MergedMetricsSnapshot();
  const auto outcomes = pipeline.RunOpenLoop();
  ASSERT_EQ(outcomes.size(), 200u);
  const auto after = pipeline.MergedMetricsSnapshot();
  std::uint64_t peer_hits = 0;
  for (std::uint32_t v = 0; v < 8; ++v) {
    peer_hits += pipeline.edge(v).peer_hits();
  }
  const std::uint64_t tasks = pipeline.cloud().tasks_executed();
  const std::uint64_t large = after.value("frame.large_buffers") -
                              before.value("frame.large_buffers");
  EXPECT_GT(peer_hits, tasks) << "tasks " << tasks;
  EXPECT_GT(large, 0u);  // the memo builds are counted
  EXPECT_LE(large, 2 * tasks);
  EXPECT_GE(after.value("frame.large_buffer_bytes") -
                before.value("frame.large_buffer_bytes"),
            large * FrameCopyStats::kLargeBufferBytes);
}

// ---------------------------------------------------------------------------
// Two-tier (hierarchical) federation
// ---------------------------------------------------------------------------

TEST(RegionMapTest, PartitionRanksAndMembership) {
  const federation::RegionMap map(10, 3);
  EXPECT_EQ(map.venues(), 10u);
  EXPECT_EQ(map.regions(), 3u);
  const auto r0 = map.members(0);
  EXPECT_EQ(std::vector<std::uint32_t>(r0.begin(), r0.end()),
            (std::vector<std::uint32_t>{0, 3, 6, 9}));
  const auto r2 = map.members(2);
  EXPECT_EQ(std::vector<std::uint32_t>(r2.begin(), r2.end()),
            (std::vector<std::uint32_t>{2, 5, 8}));
  EXPECT_EQ(map.region_of(7), 1u);
  EXPECT_EQ(map.rank_of(7), 2u);  // region 1 = {1, 4, 7}: third in line
  EXPECT_TRUE(map.SameRegion(1, 4));
  EXPECT_FALSE(map.SameRegion(1, 3));
}

TEST(RegionMapTest, RegionCountIsClamped) {
  EXPECT_EQ(federation::RegionMap(4, 0).regions(), 1u);
  EXPECT_EQ(federation::RegionMap(4, 9).regions(), 4u);
  // Flat default: nothing constructed, every venue its own region head.
  EXPECT_EQ(federation::RegionMap().venues(), 0u);
}

TEST(RegionDigestTest, BuildUnionsMembersAndRoundTripsByteExact) {
  cache::IcCache cache_a(cache::IcCacheConfig{});
  cache_a.Insert(RenderKey(1), DeterministicBytes(64, 1), SimTime::Epoch());
  cache_a.Insert(RenderKey(2), DeterministicBytes(64, 2), SimTime::Epoch());
  cache::IcCache cache_b(cache::IcCacheConfig{});
  cache_b.Insert(RenderKey(3), DeterministicBytes(64, 3), SimTime::Epoch());
  cache_b.Insert(
      proto::FeatureDescriptor::ForVector(proto::TaskKind::kRecognition,
                                          {1.0f, 0.0f}),
      DeterministicBytes(64, 4), SimTime::Epoch());

  const auto sum_a = CacheSummary::Build(1, 5, cache_a, BloomFilterConfig{});
  const auto sum_b = CacheSummary::Build(4, 9, cache_b, BloomFilterConfig{});
  const std::array<const CacheSummary*, 2> members = {&sum_a, &sum_b};
  const auto digest = federation::RegionDigest::Build(
      /*region_id=*/1, /*head_edge=*/1, /*version=*/3, members,
      BloomFilterConfig{});

  // Union keeps every member's keys (no false negatives across members).
  EXPECT_GT(digest.MatchScore(RenderKey(1)), 0.0);
  EXPECT_GT(digest.MatchScore(RenderKey(3)), 0.0);
  EXPECT_DOUBLE_EQ(digest.MatchScore(RenderKey(999)), 0.0);
  ASSERT_EQ(digest.member_edges(), (std::vector<std::uint32_t>{1, 4}));
  EXPECT_EQ(digest.member_keys()[0], 2u);
  EXPECT_EQ(digest.member_keys()[1], 1u);

  // Encode -> decode -> re-encode reproduces the frame byte-for-byte.
  const proto::RegionDigestUpdate wire = digest.ToWire();
  const ByteVec frame =
      proto::EncodeMessage(proto::MessageType::kRegionDigestUpdate, 3, wire);
  auto env = proto::DecodeEnvelope(frame);
  ASSERT_TRUE(env.ok());
  auto decoded = proto::DecodePayloadAs<proto::RegionDigestUpdate>(
      env.value(), proto::MessageType::kRegionDigestUpdate);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), wire);
  EXPECT_EQ(proto::EncodeMessage(proto::MessageType::kRegionDigestUpdate, 3,
                                 decoded.value()),
            frame);
  auto rebuilt = federation::RegionDigest::FromWire(decoded.value());
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_EQ(rebuilt.value().MatchScore(RenderKey(1)),
            digest.MatchScore(RenderKey(1)));
  EXPECT_EQ(rebuilt.value().version(), 3u);
  EXPECT_EQ(rebuilt.value().head_edge(), 1u);
}

TEST(RegionDigestTableTest, SuccessionAcceptanceRule) {
  cache::IcCache cache(cache::IcCacheConfig{});
  cache.Insert(RenderKey(1), DeterministicBytes(32, 1), SimTime::Epoch());
  const auto sum = CacheSummary::Build(1, 1, cache, BloomFilterConfig{});
  const std::array<const CacheSummary*, 1> members = {&sum};
  const auto make = [&](std::uint32_t head, std::uint64_t version) {
    return federation::RegionDigest::Build(0, head, version, members,
                                           BloomFilterConfig{});
  };

  federation::RegionDigestTable table(2);
  EXPECT_EQ(table.For(0), nullptr);
  // First digest from the rank-0 head installs.
  EXPECT_TRUE(table.Update(make(1, 5), /*head_rank=*/0));
  ASSERT_NE(table.For(0), nullptr);
  // Same head, stale or equal version: dropped.
  EXPECT_FALSE(table.Update(make(1, 5), 0));
  EXPECT_FALSE(table.Update(make(1, 4), 0));
  // A promoted successor (higher rank) must beat the held version.
  EXPECT_FALSE(table.Update(make(4, 5), /*head_rank=*/1));
  EXPECT_TRUE(table.Update(make(4, 6), /*head_rank=*/1));
  EXPECT_EQ(table.For(0)->head_edge(), 4u);
  // The original head reasserting (lower rank) wins immediately.
  EXPECT_TRUE(table.Update(make(1, 2), /*head_rank=*/0));
  EXPECT_EQ(table.For(0)->head_edge(), 1u);
  EXPECT_EQ(table.For(0)->version(), 2u);
  table.Erase(0);
  EXPECT_EQ(table.For(0), nullptr);
}

FederationPipelineConfig HierarchicalConfig(std::uint32_t venues) {
  FederationPipelineConfig config =
      ClusterConfig(venues, PeerSelectKind::kSummaryDirected);
  config.region.hierarchical = true;
  config.region.digest_period_rounds = 1;  // converge fast in short tests
  return config;
}

TEST(HierarchicalFederationTest, CrossRegionMissResolvesViaHeadForward) {
  // 9 venues -> 3 regions ({0,3,6} {1,4,7} {2,5,8}). Venue 4 (region 1,
  // not its head) holds the model; venue 0 (region 0) misses. The digest
  // steers venue 0's probe to region 1's head (venue 1), which relays to
  // venue 4, and venue 4's reply lands straight back at venue 0.
  //
  // Two-tier convergence takes two gossip rounds (member summary ->
  // head, then digest -> cluster); closed-loop rounds fire at op
  // boundaries, so a short period plus two filler cache hits at venue 4
  // spaces the rounds out before venue 0 asks.
  FederationPipelineConfig config = HierarchicalConfig(9);
  config.gossip_period = Duration::Millis(1);
  FederationPipeline pipeline(config);
  pipeline.RegisterModel(1, KB(256));
  pipeline.EnqueueRenderAt(4, 1);
  pipeline.EnqueueRenderAt(4, 1);
  pipeline.EnqueueRenderAt(4, 1);
  pipeline.EnqueueRenderAt(0, 1);
  const auto outcomes = pipeline.Run();
  ASSERT_EQ(outcomes.size(), 4u);
  EXPECT_EQ(outcomes[3].outcome.source, ResultSource::kPeerEdge);
  EXPECT_GT(pipeline.region_digests_sent(), 0u);
  EXPECT_GT(pipeline.region_digests_applied(), 0u);
  EXPECT_EQ(pipeline.region_head_forwards(), 1u);
  // One probe left venue 0: the head resolved region -> member itself.
  EXPECT_EQ(pipeline.edge(0).peer_probes_sent(), 1u);
  EXPECT_EQ(pipeline.cloud().tasks_executed(), 1u);
}

TEST(HierarchicalFederationTest, HeadServesItsOwnCacheWithoutForwarding) {
  FederationPipeline pipeline(HierarchicalConfig(9));
  pipeline.RegisterModel(1, KB(256));
  pipeline.EnqueueRenderAt(1, 1);  // region 1's head itself
  pipeline.EnqueueRenderAt(0, 1);
  const auto outcomes = pipeline.Run();
  EXPECT_EQ(outcomes[1].outcome.source, ResultSource::kPeerEdge);
  EXPECT_GE(pipeline.region_head_self_serves(), 1u);
  EXPECT_EQ(pipeline.region_head_forwards(), 0u);
}

TEST(HierarchicalFederationTest, IntraRegionHitStaysOnFullSummaries) {
  // Venue 3 shares region 0 with venue 0: the hit routes on member
  // summaries exactly as flat summary-directed would, no head involved.
  FederationPipeline pipeline(HierarchicalConfig(9));
  pipeline.RegisterModel(1, KB(256));
  pipeline.EnqueueRenderAt(3, 1);
  pipeline.EnqueueRenderAt(0, 1);
  const auto outcomes = pipeline.Run();
  EXPECT_EQ(outcomes[1].outcome.source, ResultSource::kPeerEdge);
  EXPECT_EQ(pipeline.region_head_forwards(), 0u);
  EXPECT_EQ(pipeline.edge(0).peer_probes_sent(), 1u);
}

TEST(HierarchicalFederationTest, DigestFalsePositiveFallsBackToCloud) {
  // Nobody holds model 2: digests advertise nothing for it, so the miss
  // pays no cross-region probe and goes straight to the cloud.
  FederationPipeline pipeline(HierarchicalConfig(9));
  pipeline.RegisterModel(1, KB(256));
  pipeline.RegisterModel(2, KB(256));
  pipeline.EnqueueRenderAt(4, 1);
  pipeline.EnqueueRenderAt(0, 2);
  const auto outcomes = pipeline.Run();
  EXPECT_EQ(outcomes[1].outcome.source, ResultSource::kCloud);
  EXPECT_EQ(pipeline.edge(0).peer_probes_sent(), 0u);
  EXPECT_EQ(pipeline.cloud().tasks_executed(), 2u);
}

TEST(HierarchicalFederationTest, HierarchicalGossipBytesShrinkAtScale) {
  // The tentpole economics at 16 venues on one seeded workload: flat
  // full-mesh gossip pays O(V^2) summary sends per round; two-tier pays
  // O(members^2) intra plus one digest broadcast per region.
  const auto run_bytes = [](bool hierarchical) {
    FederationPipelineConfig config =
        ClusterConfig(16, PeerSelectKind::kSummaryDirected);
    config.region.hierarchical = hierarchical;
    FederationPipeline pipeline(config);
    RegisterStormModels(pipeline, 6);
    for (const auto& p : RenderStorm(16, 200, 400.0)) {
      pipeline.EnqueuePlaced(p);
    }
    (void)pipeline.RunOpenLoop();
    return pipeline.summary_bytes_full() + pipeline.summary_bytes_delta() +
           pipeline.region_digest_bytes();
  };
  const std::uint64_t flat = run_bytes(false);
  const std::uint64_t hier = run_bytes(true);
  ASSERT_GT(flat, 0u);
  EXPECT_LT(hier * 3, flat) << "flat=" << flat << " hier=" << hier;
}

TEST(HierarchicalFederationTest, HeadCrashPromotesSuccessorAndDrains) {
  // Chaos: region 1's head (venue 1) goes dark for good mid-run. The
  // rank-1 member (venue 4) must self-promote, resume the digest chain,
  // and keep cross-region misses flowing — with zero stranded requests.
  FederationPipelineConfig config = HierarchicalConfig(9);
  config.transport.peer_probe_timeout = Duration::Millis(200);
  // Members detect the dead head by its summary aging out of their
  // tables; without aging the stale summary keeps electing venue 1.
  config.transport.summary_max_age = Duration::Millis(150);
  netsim::FaultSchedule::Crash crash;
  crash.venue = 1;
  crash.down_at = SimTime::FromMicros(250'000);
  crash.restart = false;  // stays dark forever
  config.chaos.crashes.push_back(crash);
  FederationPipeline pipeline(config);
  pipeline.RegisterModel(1, KB(128));
  pipeline.RegisterModel(2, KB(128));

  // Before the crash: warm venue 4 (region 1). After the crash: venue 6
  // (region 0) asks for it — the digest must now name venue 4 as head.
  pipeline.EnqueueRenderAt(4, 1, 0, SimTime::FromMicros(10'000));
  pipeline.EnqueueRenderAt(0, 1, 0, SimTime::FromMicros(100'000));
  pipeline.EnqueueRenderAt(4, 2, 0, SimTime::FromMicros(600'000));
  pipeline.EnqueueRenderAt(6, 2, 0, SimTime::FromMicros(900'000));
  const auto outcomes = pipeline.RunOpenLoop();
  ASSERT_EQ(outcomes.size(), 4u);  // nothing stranded
  EXPECT_GE(pipeline.region_failovers(), 1u);
  // Venue 6's post-crash view of region 1 names the successor as head.
  const auto* digest = pipeline.region_digest_table(6).For(1);
  ASSERT_NE(digest, nullptr);
  EXPECT_EQ(digest->head_edge(), 4u);
  EXPECT_EQ(pipeline.head_of(6, 1), 4u);
  // The post-crash cross-region request was still served by the peer.
  EXPECT_EQ(outcomes[3].venue, 6u);
  EXPECT_EQ(outcomes[3].outcome.source, ResultSource::kPeerEdge);
}

TEST(HierarchicalFederationTest, DeterministicAcrossWorkerCounts) {
  // 12 venues / auto 3 regions: with 3 workers each region lands wholly
  // on one shard (region_of and the shard map are both v % 3); with 4
  // workers regions straddle shards. Deterministic mode must produce
  // bit-identical outcome streams either way.
  const auto run = [](std::uint32_t workers) {
    FederationPipelineConfig config = OpenLoopClusterConfig(12);
    config.region.hierarchical = true;
    config.execution.workers = workers;
    config.execution.mode = federation::ExecutionConfig::Mode::kDeterministic;
    FederationPipeline pipeline(config);
    RegisterStormModels(pipeline, 6);
    for (const auto& p : RenderStorm(12, 240, 400.0)) {
      pipeline.EnqueuePlaced(p);
    }
    std::vector<std::tuple<std::uint32_t, ResultSource, bool, std::int64_t,
                           std::int64_t>>
        rows;
    for (const auto& o : pipeline.RunOpenLoop()) {
      rows.emplace_back(o.venue, o.outcome.source, o.outcome.error,
                        o.outcome.latency.micros(),
                        (o.completed_at - SimTime::Epoch()).micros());
    }
    std::stable_sort(rows.begin(), rows.end(),
                     [](const auto& x, const auto& y) {
                       if (std::get<4>(x) != std::get<4>(y))
                         return std::get<4>(x) < std::get<4>(y);
                       return std::get<0>(x) < std::get<0>(y);
                     });
    return rows;
  };
  const auto single = run(1);
  ASSERT_EQ(single.size(), 240u);
  for (const std::uint32_t workers : {3u, 4u}) {
    const auto sharded = run(workers);
    ASSERT_EQ(sharded.size(), single.size()) << workers << " workers";
    for (std::size_t i = 0; i < single.size(); ++i) {
      ASSERT_EQ(sharded[i], single[i])
          << "outcome " << i << " diverged at " << workers << " workers";
    }
  }
}

}  // namespace
}  // namespace coic
