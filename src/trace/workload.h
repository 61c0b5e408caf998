// Workload generation — the §1.2 measurement study, synthesized.
//
// The paper's motivating observation is structural redundancy across
// users and applications: co-located users recognize the same stop sign
// from different angles, render the same avatar, watch the same
// panorama. The generator reproduces that structure with explicit knobs:
//   * `objects` distinct physical objects with Zipf popularity (a few
//     objects are requested constantly, most rarely);
//   * a `colocated_fraction` of users share the popular object pool —
//     the rest see private objects nobody else requests;
//   * per-request view jitter (angle/distance/illumination) models "the
//     same stop sign from a different angle".
// Benches sweep these knobs to map when cooperative caching pays off.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"
#include "common/time.h"
#include "vision/image.h"

namespace coic::trace {

enum class IcTaskType : std::uint8_t {
  kRecognition = 0,
  kRender = 1,
  kPanorama = 2,
};

/// One IC request in a trace.
struct TraceRecord {
  SimTime at;                 ///< Arrival time (Poisson process).
  std::uint32_t user_id = 0;
  std::uint32_t app_id = 0;
  IcTaskType type = IcTaskType::kRecognition;
  /// kRecognition: the observed scene (object id + view perturbation).
  vision::SceneParams scene;
  /// kRender: which asset.
  std::uint64_t model_id = 0;
  /// kPanorama: which stream/frame.
  std::uint64_t video_id = 0;
  std::uint32_t frame_index = 0;
};

struct WorkloadConfig {
  std::uint32_t users = 8;
  std::uint32_t apps = 3;
  /// Distinct physical objects in the shared world.
  std::uint32_t objects = 50;
  /// Zipf skew over object popularity (0 = uniform).
  double zipf_skew = 0.9;
  /// Fraction of users standing in the shared place (drawing from the
  /// shared object pool). The rest request private objects.
  double colocated_fraction = 0.75;
  /// View perturbation bounds (uniform in +/- these).
  double view_angle_jitter_deg = 6.0;
  double distance_jitter = 0.08;
  double illumination_jitter = 0.10;
  /// Poisson arrival rate across all users, requests/second.
  double arrival_rate_hz = 4.0;
  /// Raster fed to the feature extractor (SceneParams width/height). The
  /// figure reproductions keep the DNN-input default; throughput replays
  /// may shrink it — descriptor geometry (same-scene views stay nearby)
  /// is preserved at any raster. Per-request generation cost is mostly
  /// linear in it (transcendentals per row and column), plus a small
  /// per-pixel multiply-add term.
  std::uint32_t scene_raster = 96;
  std::uint64_t seed = 7;
};

class WorkloadGenerator {
 public:
  explicit WorkloadGenerator(WorkloadConfig config);

  /// `n` recognition requests. Object ids map to scene ids 1..objects
  /// for co-located users, and per-user private ranges above that.
  std::vector<TraceRecord> GenerateRecognition(std::size_t n);

  /// `n` render requests over the given asset catalogue (Zipf over it).
  std::vector<TraceRecord> GenerateRender(std::size_t n,
                                          std::span<const std::uint64_t> model_ids);

  /// `n` panorama requests: users progress through a shared video with
  /// loosely synchronized frame positions (same-frame redundancy).
  std::vector<TraceRecord> GeneratePanorama(std::size_t n,
                                            std::uint64_t video_id,
                                            std::uint32_t frames_in_video);

  /// A mixed AR-session trace: recognition-heavy with render/panorama
  /// interleaved (ratios 6:3:1).
  std::vector<TraceRecord> GenerateMixed(std::size_t n,
                                         std::span<const std::uint64_t> model_ids,
                                         std::uint64_t video_id);

  [[nodiscard]] const WorkloadConfig& config() const noexcept { return config_; }

  /// Scene id of shared object at popularity `rank` (1-based scene ids).
  [[nodiscard]] std::uint64_t SharedSceneId(std::size_t rank) const noexcept {
    return rank + 1;
  }
  /// Scene id of a private object for `user`.
  [[nodiscard]] std::uint64_t PrivateSceneId(std::uint32_t user,
                                             std::size_t rank) const noexcept {
    return static_cast<std::uint64_t>(config_.objects) + 1 +
           static_cast<std::uint64_t>(user) * 1'000'000 + rank;
  }

 private:
  /// Fills arrival time, user, app; advances the Poisson clock.
  TraceRecord NextBase();
  [[nodiscard]] bool UserIsColocated(std::uint32_t user) const noexcept;
  vision::SceneParams PerturbedScene(std::uint64_t scene_id);

  WorkloadConfig config_;
  Rng rng_;
  ZipfDistribution object_popularity_;
  SimTime clock_ = SimTime::Epoch();
};

/// Re-spaces arrival times as one fresh Poisson stream at `rate_hz`
/// (first arrival at epoch + one interarrival), preserving record order
/// and content. This is the open-loop replay plan: the same trace — same
/// objects, users, venue placement — swept across offered-load levels,
/// so throughput curves differ only in arrival intensity.
void RetimeArrivals(std::span<TraceRecord> records, double rate_hz,
                    std::uint64_t seed = 17);

/// Binary trace serialization (record/replay for benches and tests).
ByteVec SerializeTrace(std::span<const TraceRecord> records);
Result<std::vector<TraceRecord>> DeserializeTrace(
    std::span<const std::uint8_t> bytes);

// ---------------------------------------------------------------------------
// Cluster workloads (edge federation)
// ---------------------------------------------------------------------------

/// A trace record placed at the venue whose edge serves it.
struct PlacedRecord {
  std::uint32_t venue = 0;
  TraceRecord record;
};

/// RetimeArrivals for a placed cluster trace (venue tags untouched).
void RetimeArrivals(std::span<PlacedRecord> placed, double rate_hz,
                    std::uint64_t seed = 17);

/// The canonical render-only request storm: `count` requests placed
/// round-robin over `venues`, model ids cycling `(i*7) % models + 1`
/// over a small shared pool, re-timed as one Poisson stream at
/// `rate_hz`. Shared by the relay-storm / open-loop benches and the
/// tests that pin their claims, so the scenario cannot drift between
/// the table and the assertion. Callers must register models 1..models.
std::vector<PlacedRecord> MakeRenderStorm(std::uint32_t venues,
                                          std::size_t count, double rate_hz,
                                          std::uint32_t models = 6);

/// The canonical churning render workload for the gossip-staleness
/// ablation: each of `rounds` rounds enqueues one render per venue,
/// drawn Zipf(0.9) from a window of `window` model ids that slides two
/// ids forward every `rotate_rounds` rounds across a catalogue of
/// 1..`catalog` — so fresh content keeps entering every cache and
/// summary freshness governs peer-hit success. Smaller `rotate_rounds`
/// = higher churn. Records carry no arrival times (closed-loop replay);
/// callers must register models 1..catalog. Shared by
/// bench_federation_scaling's staleness table and the regression tests
/// that pin its claims, so the two cannot drift apart.
std::vector<PlacedRecord> MakeChurnWorkload(std::uint32_t venues,
                                            std::size_t rounds,
                                            std::uint32_t window,
                                            std::uint32_t catalog,
                                            std::uint32_t rotate_rounds,
                                            std::uint64_t seed = 0xC0DE);

struct ClusterWorkloadConfig {
  WorkloadConfig base;
  /// Venues in the federation; users are spread across them round-robin
  /// at start (user u begins at venue u mod venues).
  std::uint32_t venues = 4;
  /// Per-request probability that the issuing user has moved to another
  /// (uniformly random) venue since their last request — the mid-trace
  /// handoff that makes federated caching matter: the user's history
  /// lives in the old venue's edge cache.
  double handoff_probability = 0.0;
  std::uint64_t placement_seed = 11;
};

/// Wraps WorkloadGenerator with user→venue placement and mobility. The
/// underlying request structure (Zipf popularity, co-location, jitter)
/// is untouched; only a venue tag and occasional handoffs are added.
class ClusterWorkloadGenerator {
 public:
  explicit ClusterWorkloadGenerator(ClusterWorkloadConfig config);

  std::vector<PlacedRecord> GenerateRecognition(std::size_t n);
  std::vector<PlacedRecord> GenerateRender(
      std::size_t n, std::span<const std::uint64_t> model_ids);
  std::vector<PlacedRecord> GeneratePanorama(std::size_t n,
                                             std::uint64_t video_id,
                                             std::uint32_t frames_in_video);
  std::vector<PlacedRecord> GenerateMixed(
      std::size_t n, std::span<const std::uint64_t> model_ids,
      std::uint64_t video_id);

  /// Current venue of `user`.
  [[nodiscard]] std::uint32_t VenueOf(std::uint32_t user) const;
  /// Handoffs applied so far.
  [[nodiscard]] std::uint64_t handoffs() const noexcept { return handoffs_; }
  [[nodiscard]] const ClusterWorkloadConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] WorkloadGenerator& generator() noexcept { return gen_; }

 private:
  std::vector<PlacedRecord> Place(std::vector<TraceRecord> records);

  ClusterWorkloadConfig config_;
  WorkloadGenerator gen_;
  Rng rng_;
  std::vector<std::uint32_t> venue_of_user_;
  std::uint64_t handoffs_ = 0;
};

}  // namespace coic::trace
