// Tests for the extension modules: on-device object tracking (the task
// the paper deliberately keeps OFF the edge cache) and popularity-driven
// edge prefetching.
#include <gtest/gtest.h>

#include "core/prefetcher.h"
#include "federation/federation_pipeline.h"
#include "proto/messages.h"
#include "vision/tracking.h"

namespace coic {
namespace {

using vision::ObjectTracker;
using vision::PatchLocation;
using vision::SceneParams;
using vision::SyntheticImage;
using vision::TrackerConfig;

// ---------------------------------------------------------------------------
// ObjectTracker
// ---------------------------------------------------------------------------

SceneParams TrackScene(double angle) {
  SceneParams params;
  params.scene_id = 77;
  params.view_angle_deg = angle;
  params.width = 96;
  params.height = 96;
  return params;
}

TEST(TrackerTest, IdenticalFramePerfectScoreZeroMotion) {
  const auto frame = SyntheticImage::Generate(TrackScene(0));
  ObjectTracker tracker(frame, {30, 30});
  const auto result = tracker.Track(frame);
  EXPECT_TRUE(result.found);
  EXPECT_NEAR(result.score, 1.0, 1e-6);
  EXPECT_EQ(result.dx, 0);
  EXPECT_EQ(result.dy, 0);
}

TEST(TrackerTest, TracksAcrossSmallViewChange) {
  const auto first = SyntheticImage::Generate(TrackScene(0));
  ObjectTracker tracker(first, {30, 30});
  const auto result = tracker.Track(SyntheticImage::Generate(TrackScene(1.5)));
  EXPECT_TRUE(result.found);
  EXPECT_GT(result.score, 0.8);
}

TEST(TrackerTest, RotationMovesOffCenterPatchTangentially) {
  // A patch left of the image center moves predominantly vertically
  // under a small camera rotation; check the recovered displacement has
  // the expected dominant axis and magnitude scale.
  const auto first = SyntheticImage::Generate(TrackScene(0));
  ObjectTracker tracker(first, {16, 44});  // centered at (24, 52): left of center
  const auto result = tracker.Track(SyntheticImage::Generate(TrackScene(5)));
  ASSERT_TRUE(result.found);
  // 5 degrees at radius ~24 px from center => arc ~2.1 px.
  EXPECT_LE(std::abs(result.dx) + std::abs(result.dy), 6);
  EXPECT_GE(std::abs(result.dx) + std::abs(result.dy), 1);
}

/// A featureless frame — the object fully occluded (hand over the lens).
SyntheticImage OccludedFrame() {
  SceneParams params;
  params.width = params.height = 96;
  return SyntheticImage::FromPixels(
      params, std::vector<float>(96 * 96, 0.5f));
}

TEST(TrackerTest, LosesTrackUnderOcclusion) {
  const auto first = SyntheticImage::Generate(TrackScene(0));
  ObjectTracker tracker(first, {30, 30});
  const auto result = tracker.Track(OccludedFrame());
  EXPECT_FALSE(result.found);
  EXPECT_LT(result.score, 0.1);
  EXPECT_EQ(tracker.lost_streak(), 1u);
  // The anchor must not move on a lost track.
  EXPECT_EQ(tracker.location(), (PatchLocation{30, 30}));
}

TEST(TrackerTest, ReanchorsAndFollowsDrift) {
  // Rotate the camera in small steps; the tracker must follow without
  // ever losing lock (template refresh absorbs appearance drift).
  ObjectTracker tracker(SyntheticImage::Generate(TrackScene(0)), {20, 40});
  for (int step = 1; step <= 8; ++step) {
    const auto result =
        tracker.Track(SyntheticImage::Generate(TrackScene(0.8 * step)));
    ASSERT_TRUE(result.found) << "lost at step " << step;
  }
  EXPECT_EQ(tracker.lost_streak(), 0u);
}

TEST(TrackerTest, LostStreakAccumulatesAndResets) {
  ObjectTracker tracker(SyntheticImage::Generate(TrackScene(0)), {30, 30});
  (void)tracker.Track(OccludedFrame());
  (void)tracker.Track(OccludedFrame());
  EXPECT_EQ(tracker.lost_streak(), 2u);
  // The object reappears where it was: lock reacquired, streak reset.
  (void)tracker.Track(SyntheticImage::Generate(TrackScene(0)));
  EXPECT_EQ(tracker.lost_streak(), 0u);
}

// ---------------------------------------------------------------------------
// PopularityTracker
// ---------------------------------------------------------------------------

TEST(PopularityTest, CountsAndRanks) {
  core::PopularityTracker tracker;
  const SimTime t0 = SimTime::Epoch();
  for (int i = 0; i < 5; ++i) tracker.Observe(1, t0);
  for (int i = 0; i < 3; ++i) tracker.Observe(2, t0);
  tracker.Observe(3, t0);
  EXPECT_EQ(tracker.TopK(2, t0), (std::vector<std::uint64_t>{1, 2}));
  EXPECT_DOUBLE_EQ(tracker.ScoreAt(1, t0), 5.0);
  EXPECT_DOUBLE_EQ(tracker.ScoreAt(99, t0), 0.0);
}

TEST(PopularityTest, DecayHalvesAtHalfLife) {
  core::PopularityTracker tracker(Duration::Seconds(10));
  const SimTime t0 = SimTime::Epoch();
  for (int i = 0; i < 8; ++i) tracker.Observe(1, t0);
  EXPECT_NEAR(tracker.ScoreAt(1, t0 + Duration::Seconds(10)), 4.0, 1e-9);
  EXPECT_NEAR(tracker.ScoreAt(1, t0 + Duration::Seconds(20)), 2.0, 1e-9);
}

TEST(PopularityTest, RecentBeatsStale) {
  core::PopularityTracker tracker(Duration::Seconds(5));
  const SimTime t0 = SimTime::Epoch();
  for (int i = 0; i < 10; ++i) tracker.Observe(1, t0);  // old burst
  const SimTime later = t0 + Duration::Seconds(30);
  for (int i = 0; i < 2; ++i) tracker.Observe(2, later);  // fresh trickle
  EXPECT_EQ(tracker.TopK(1, later).front(), 2u);
}

TEST(PopularityTest, CompactDropsColdKeys) {
  core::PopularityTracker tracker(Duration::Seconds(1));
  const SimTime t0 = SimTime::Epoch();
  tracker.Observe(1, t0);
  tracker.Observe(2, t0);
  EXPECT_EQ(tracker.tracked_keys(), 2u);
  tracker.Compact(t0 + Duration::Seconds(20));
  EXPECT_EQ(tracker.tracked_keys(), 0u);
}

// ---------------------------------------------------------------------------
// EdgePrefetcher
// ---------------------------------------------------------------------------

TEST(PrefetcherTest, WarmUpConvertsFirstRequestToHit) {
  // The cloud holds a model; the tracker knows it is popular; after
  // WarmUp, the pipeline's FIRST render request is an edge hit.
  federation::FederationPipelineConfig config;
  config.venues = 1;
  config.mode = proto::OffloadMode::kCoic;
  config.network = core::Figure2bCondition();
  federation::FederationPipeline pipeline(config);
  const Digest128 digest = pipeline.RegisterModel(1, KB(512));

  core::PopularityTracker popularity;
  const auto key = digest.hi ^ digest.lo;
  popularity.Observe(key, SimTime::Epoch());

  core::EdgePrefetcher prefetcher(
      popularity, [&](std::uint64_t k) -> Result<core::EdgePrefetcher::Fetched> {
        if (k != key) return Status(StatusCode::kNotFound, "unknown key");
        const auto bytes = pipeline.cloud().model_registry().BytesFor(1);
        proto::RenderResult result;
        result.model_id = 1;
        result.source = proto::ResultSource::kCloud;
        result.model_bytes.assign(bytes.value().begin(), bytes.value().end());
        return core::EdgePrefetcher::Fetched{
            proto::FeatureDescriptor::ForHash(proto::TaskKind::kRender, digest),
            proto::EncodePayload(result)};
      });

  EXPECT_EQ(prefetcher.WarmUp(pipeline.edge(0).mutable_cache(), 4,
                              SimTime::Epoch()),
            1u);
  pipeline.EnqueueRenderAt(0, 1);
  const auto outcomes = pipeline.Run();
  EXPECT_EQ(outcomes[0].outcome.source, proto::ResultSource::kEdgeCache);
  EXPECT_FALSE(outcomes[0].outcome.error);
  EXPECT_EQ(outcomes[0].outcome.result_bytes, KB(512));
}

TEST(PrefetcherTest, FetchFailuresSkippedNotFatal) {
  core::PopularityTracker popularity;
  popularity.Observe(1, SimTime::Epoch());
  popularity.Observe(2, SimTime::Epoch());
  cache::IcCache ic_cache(cache::IcCacheConfig{});
  core::EdgePrefetcher prefetcher(
      popularity, [](std::uint64_t) -> Result<core::EdgePrefetcher::Fetched> {
        return Status(StatusCode::kNotFound, "gone");
      });
  EXPECT_EQ(prefetcher.WarmUp(ic_cache, 8, SimTime::Epoch()), 0u);
  EXPECT_EQ(prefetcher.fetches_issued(), 2u);
  EXPECT_EQ(ic_cache.size(), 0u);
}

}  // namespace
}  // namespace coic
