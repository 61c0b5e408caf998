// Per-layer replays: the benchmark times each layer's public functions on
// the workload's own inputs, from outside the program, so a layer's cost
// per request is known without instrumenting the program itself.
#pragma once

#include <cstdint>
#include <vector>

#include "bench.h"
#include "cache/ic_cache.h"
#include "core/cost_model.h"
#include "proto/descriptor.h"
#include "render/registry.h"
#include "trace/workload.h"
#include "vision/features.h"

namespace perfbench {

/// Wall cost of the payload layers (vision, render, common digests),
/// replayed once per op of the kind each layer serves.
struct PayloadReplay {
  double synth_us = 0;    ///< SyntheticImage::Generate per recognition op.
  double extract_us = 0;  ///< FeatureExtractor::Extract per recognition op.
  double load_us = 0;     ///< render::LoadModel per render op.
  double pano_us = 0;     ///< Panorama::Generate + Encode per panorama op.
  double digest_us = 0;   ///< ContentDigest of each op's result payload.
  std::uint64_t recog_ops = 0;
  std::uint64_t render_ops = 0;
  std::uint64_t pano_ops = 0;
  /// LoadModel calls the program makes: clients memoize parsed models,
  /// so one per distinct (client, model) pair.
  std::uint64_t load_calls = 0;
  /// Panorama renders the program makes: the cloud memoizes encoded
  /// frames, so one per distinct (video, frame).
  std::uint64_t pano_calls = 0;
  /// One cache key per op (recognition: the extracted feature vector;
  /// render / panorama: the content-hash key), for the lookup replay.
  std::vector<coic::proto::FeatureDescriptor> keys;
};

/// `clients_per_venue` maps a trace user to its client the way the
/// program does (user % clients_per_venue at the placed venue).
PayloadReplay ReplayPayloadLayers(
    const std::vector<coic::trace::PlacedRecord>& ops,
    const coic::render::ModelRegistry& models,
    const coic::vision::FeatureExtractorConfig& extractor,
    std::uint32_t clients_per_venue, SpanLog& spans);

/// Wall seconds the program spends in the payload layers on this trace:
/// per-op replay cost times the number of calls the program makes.
double VisionSeconds(const PayloadReplay& r);
double RenderSeconds(const PayloadReplay& r);

/// Mean µs per lookup of `keys` against a fresh cache holding the same
/// keys as `final_cache` (an index of the run's final size).
double ReplayCacheLookupUs(const coic::cache::IcCache& final_cache,
                           const std::vector<coic::proto::FeatureDescriptor>& keys);

/// Mean ns per event to schedule and fire `events` events on a fresh
/// scheduler at the run's event count.
double ReplaySchedulerNs(std::uint64_t events, std::uint64_t seed);

/// Frame counts of the run's message mix, by message kind.
struct MessageMix {
  std::uint64_t recog = 0;        ///< Recognition request + result pairs.
  std::uint64_t render = 0;       ///< Render request + result pairs.
  std::uint64_t pano = 0;         ///< Panorama request + result pairs.
  std::uint64_t probes = 0;       ///< Peer lookup request + reply pairs.
  std::uint64_t summaries = 0;    ///< SummaryUpdate frames.
  std::uint64_t digests = 0;      ///< RegionDigestUpdate frames.
};

/// The request/result pairs of `ops`, by task family (probes and gossip
/// frames are left for the caller to add).
MessageMix CountRequests(const std::vector<coic::trace::PlacedRecord>& ops);

struct ProtoReplay {
  double encode_ns = 0;  ///< Mean per frame over the mix.
  double decode_ns = 0;  ///< Envelope + payload view-decode, per frame.
  std::uint64_t frames = 0;
};

/// Times encode and borrowed-view decode of one representative message
/// per kind, weighted by the mix. `summary_cache` supplies a real cache
/// summary for the gossip frames.
ProtoReplay ReplayProto(const MessageMix& mix,
                        const std::vector<coic::trace::PlacedRecord>& ops,
                        const PayloadReplay& payload,
                        const coic::render::ModelRegistry& models,
                        const coic::core::CostModel& costs,
                        const coic::cache::IcCache& summary_cache);

}  // namespace perfbench
