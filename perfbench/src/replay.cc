#include "replay.h"

#include <algorithm>
#include <set>
#include <tuple>
#include <utility>

#include "common/bytes.h"
#include "common/hash.h"
#include "common/rng.h"
#include "core/client.h"
#include "core/services.h"
#include "federation/summary.h"
#include "netsim/scheduler.h"
#include "proto/envelope.h"
#include "render/loader.h"
#include "render/panorama.h"
#include "vision/image.h"

namespace perfbench {

using coic::proto::FeatureDescriptor;
using coic::proto::MessageType;
using coic::proto::TaskKind;
using coic::trace::IcTaskType;

namespace {

double Micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

/// Keeps a computed value observable so the timed call is not elided.
template <typename T>
void Keep(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

}  // namespace

PayloadReplay ReplayPayloadLayers(
    const std::vector<coic::trace::PlacedRecord>& ops,
    const coic::render::ModelRegistry& models,
    const coic::vision::FeatureExtractorConfig& extractor_config,
    std::uint32_t clients_per_venue, SpanLog& spans) {
  PayloadReplay r;
  const coic::vision::FeatureExtractor extractor(extractor_config);
  Clock::duration synth{}, extract{}, load{}, pano{}, digest{};
  std::set<std::tuple<std::uint32_t, std::uint32_t, std::uint64_t>> clients;
  std::set<std::pair<std::uint64_t, std::uint32_t>> frames;
  r.keys.reserve(ops.size());

  const auto vision_start = Clock::now();
  for (const auto& placed : ops) {
    const auto& rec = placed.record;
    switch (rec.type) {
      case IcTaskType::kRecognition: {
        const auto t0 = Clock::now();
        const auto image = coic::vision::SyntheticImage::Generate(rec.scene);
        const auto t1 = Clock::now();
        std::vector<float> vec = extractor.Extract(image);
        const auto t2 = Clock::now();
        const auto d = image.ContentHash();
        const auto t3 = Clock::now();
        Keep(d);
        synth += t1 - t0;
        extract += t2 - t1;
        digest += t3 - t2;
        ++r.recog_ops;
        r.keys.push_back(
            FeatureDescriptor::ForVector(TaskKind::kRecognition, std::move(vec)));
        break;
      }
      case IcTaskType::kRender: {
        const auto bytes = models.BytesFor(rec.model_id);
        COIC_CHECK(bytes.ok());
        const auto t0 = Clock::now();
        const auto loaded = coic::render::LoadModel(bytes.value());
        const auto t1 = Clock::now();
        const auto d = coic::ContentDigest(bytes.value());
        const auto t2 = Clock::now();
        COIC_CHECK(loaded.ok());
        Keep(d);
        load += t1 - t0;
        digest += t2 - t1;
        ++r.render_ops;
        clients.emplace(placed.venue, rec.user_id % clients_per_venue,
                        rec.model_id);
        r.keys.push_back(FeatureDescriptor::ForHash(
            TaskKind::kRender, models.DigestFor(rec.model_id).value()));
        break;
      }
      case IcTaskType::kPanorama: {
        const auto t0 = Clock::now();
        const auto frame = coic::render::Panorama::Generate(
                               rec.video_id, rec.frame_index)
                               .Encode();
        const auto t1 = Clock::now();
        const auto d = coic::ContentDigest(frame);
        const auto t2 = Clock::now();
        Keep(d);
        pano += t1 - t0;
        digest += t2 - t1;
        ++r.pano_ops;
        frames.emplace(rec.video_id, rec.frame_index);
        r.keys.push_back(FeatureDescriptor::ForHash(
            TaskKind::kPanorama, coic::core::CoicClient::PanoramaIdentityDigest(
                                     rec.video_id, rec.frame_index)));
        break;
      }
    }
  }
  spans.Add("replay.payload_layers", "vision+render+common", 0, vision_start);

  const auto per = [](Clock::duration total, std::uint64_t n) {
    return n == 0 ? 0.0 : Micros(total) / static_cast<double>(n);
  };
  r.synth_us = per(synth, r.recog_ops);
  r.extract_us = per(extract, r.recog_ops);
  r.load_us = per(load, r.render_ops);
  r.pano_us = per(pano, r.pano_ops);
  r.digest_us = per(digest, ops.size());
  r.load_calls = clients.size();
  r.pano_calls = frames.size();
  return r;
}

double VisionSeconds(const PayloadReplay& r) {
  return (r.synth_us + r.extract_us) * static_cast<double>(r.recog_ops) * 1e-6;
}

double RenderSeconds(const PayloadReplay& r) {
  return (r.load_us * static_cast<double>(r.load_calls) +
          r.pano_us * static_cast<double>(r.pano_calls)) *
         1e-6;
}

double ReplayCacheLookupUs(const coic::cache::IcCache& final_cache,
                           const std::vector<FeatureDescriptor>& keys) {
  coic::cache::IcCacheConfig config = final_cache.config();
  config.capacity_bytes = 0;  // hold every key of the final index
  config.replicated_hint = nullptr;
  coic::cache::IcCache index(config);
  const coic::Frame payload = coic::Frame::Own(coic::ByteVec(64, 0));
  final_cache.ForEachKey([&](const FeatureDescriptor& key) {
    index.Insert(key, payload, coic::SimTime::Epoch());
  });
  if (keys.empty()) return 0;
  std::uint64_t hits = 0;
  const auto start = Clock::now();
  for (const auto& key : keys) {
    hits += index.Lookup(key, coic::SimTime::Epoch()).hit ? 1 : 0;
  }
  const double us = Micros(Clock::now() - start);
  Keep(hits);
  return us / static_cast<double>(keys.size());
}

double ReplaySchedulerNs(std::uint64_t events, std::uint64_t seed) {
  if (events == 0) return 0;
  coic::netsim::EventScheduler sched;
  coic::Rng rng(seed);
  std::uint64_t fired = 0;
  const auto start = Clock::now();
  for (std::uint64_t i = 0; i < events; ++i) {
    const auto at = coic::SimTime::FromMicros(
        static_cast<std::int64_t>(rng.NextU64() % 10'000'000));
    sched.ScheduleAt(at, [&fired] { ++fired; });
  }
  sched.Run();
  const double ns =
      std::chrono::duration<double, std::nano>(Clock::now() - start).count();
  COIC_CHECK(fired == events);
  return ns / static_cast<double>(events);
}

namespace {

struct Timed {
  double encode_ns = 0;
  double decode_ns = 0;
};

/// Encodes `msg` and view-decodes it back, `reps` times each; mean ns.
template <typename Message, typename Decoded>
Timed TimeCodec(MessageType type, const Message& msg, int reps) {
  Timed t;
  coic::ByteVec wire;
  auto start = Clock::now();
  for (int i = 0; i < reps; ++i) {
    wire = coic::proto::EncodeMessage(type, 42, msg);
    Keep(wire);
  }
  t.encode_ns =
      std::chrono::duration<double, std::nano>(Clock::now() - start).count() /
      reps;
  start = Clock::now();
  for (int i = 0; i < reps; ++i) {
    const auto env = coic::proto::DecodeEnvelopeView(wire);
    COIC_CHECK(env.ok());
    const auto decoded =
        coic::proto::DecodePayloadAs<Decoded>(env.value(), type);
    COIC_CHECK(decoded.ok());
    Keep(decoded);
  }
  t.decode_ns =
      std::chrono::duration<double, std::nano>(Clock::now() - start).count() /
      reps;
  return t;
}

const FeatureDescriptor* FirstKey(const PayloadReplay& payload,
                                  const std::vector<coic::trace::PlacedRecord>& ops,
                                  IcTaskType type, std::size_t* index) {
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].record.type == type) {
      *index = i;
      return &payload.keys[i];
    }
  }
  return nullptr;
}

}  // namespace

MessageMix CountRequests(const std::vector<coic::trace::PlacedRecord>& ops) {
  MessageMix mix;
  for (const auto& op : ops) {
    switch (op.record.type) {
      case IcTaskType::kRecognition:
        ++mix.recog;
        break;
      case IcTaskType::kRender:
        ++mix.render;
        break;
      case IcTaskType::kPanorama:
        ++mix.pano;
        break;
    }
  }
  return mix;
}

ProtoReplay ReplayProto(const MessageMix& mix,
                        const std::vector<coic::trace::PlacedRecord>& ops,
                        const PayloadReplay& payload,
                        const coic::render::ModelRegistry& models,
                        const coic::core::CostModel& costs,
                        const coic::cache::IcCache& summary_cache) {
  namespace proto = coic::proto;
  constexpr int kReps = 32;
  double encode = 0, decode = 0;
  std::uint64_t frames = 0;
  const auto add = [&](const Timed& t, std::uint64_t count) {
    encode += t.encode_ns * static_cast<double>(count);
    decode += t.decode_ns * static_cast<double>(count);
    frames += count;
  };

  std::size_t i = 0;
  if (const auto* key = FirstKey(payload, ops, IcTaskType::kRecognition, &i);
      key && mix.recog > 0) {
    proto::RecognitionRequest req;
    req.descriptor = *key;
    add(TimeCodec<proto::RecognitionRequest, proto::RecognitionRequest>(
            MessageType::kRecognitionRequest, req, kReps),
        mix.recog);
    proto::RecognitionResult res;
    res.label = coic::core::CloudService::LabelForScene(
        ops[i].record.scene.scene_id);
    res.annotation = coic::DeterministicBytes(
        costs.recognition.annotation_bytes, ops[i].record.scene.scene_id);
    add(TimeCodec<proto::RecognitionResult, proto::RecognitionResultView>(
            MessageType::kRecognitionResult, res, kReps),
        mix.recog);
  }
  if (const auto* key = FirstKey(payload, ops, IcTaskType::kRender, &i);
      key && mix.render > 0) {
    proto::RenderRequest req;
    req.model_id = ops[i].record.model_id;
    req.descriptor = *key;
    add(TimeCodec<proto::RenderRequest, proto::RenderRequest>(
            MessageType::kRenderRequest, req, kReps),
        mix.render);
    proto::RenderResult res;
    res.model_id = req.model_id;
    const auto bytes = models.BytesFor(req.model_id);
    res.model_bytes.assign(bytes.value().begin(), bytes.value().end());
    add(TimeCodec<proto::RenderResult, proto::RenderResultView>(
            MessageType::kRenderResult, res, kReps),
        mix.render);
  }
  if (const auto* key = FirstKey(payload, ops, IcTaskType::kPanorama, &i);
      key && mix.pano > 0) {
    proto::PanoramaRequest req;
    req.video_id = ops[i].record.video_id;
    req.frame_index = ops[i].record.frame_index;
    req.descriptor = *key;
    add(TimeCodec<proto::PanoramaRequest, proto::PanoramaRequest>(
            MessageType::kPanoramaRequest, req, kReps),
        mix.pano);
    proto::PanoramaResult res;
    res.video_id = req.video_id;
    res.frame_index = req.frame_index;
    res.frame = coic::DeterministicBytes(costs.panorama.frame_bytes, 7);
    add(TimeCodec<proto::PanoramaResult, proto::PanoramaResultView>(
            MessageType::kPanoramaResult, res, kReps),
        mix.pano);
  }
  if (mix.probes > 0 && !payload.keys.empty()) {
    proto::PeerLookupRequest req;
    req.descriptor = payload.keys.front();
    add(TimeCodec<proto::PeerLookupRequest, proto::PeerLookupRequest>(
            MessageType::kPeerLookupRequest, req, kReps),
        mix.probes);
    // A miss reply: the hit replies carry result bodies already counted
    // with the result frames above.
    proto::PeerLookupReply reply;
    add(TimeCodec<proto::PeerLookupReply, proto::PeerLookupReplyView>(
            MessageType::kPeerLookupReply, reply, kReps),
        mix.probes);
  }
  const coic::federation::BloomFilterConfig bloom;
  const auto summary =
      coic::federation::CacheSummary::Build(0, 1, summary_cache, bloom);
  if (mix.summaries > 0) {
    add(TimeCodec<proto::SummaryUpdate, proto::SummaryUpdate>(
            MessageType::kSummaryUpdate, summary.ToWire(), kReps),
        mix.summaries);
  }
  if (mix.digests > 0) {
    const coic::federation::CacheSummary* members[] = {&summary};
    const auto digest = coic::federation::RegionDigest::Build(
        0, 0, 1, members, bloom);
    add(TimeCodec<proto::RegionDigestUpdate, proto::RegionDigestUpdate>(
            MessageType::kRegionDigestUpdate, digest.ToWire(), kReps),
        mix.digests);
  }

  ProtoReplay r;
  r.frames = frames;
  if (frames > 0) {
    r.encode_ns = encode / static_cast<double>(frames);
    r.decode_ns = decode / static_cast<double>(frames);
  }
  return r;
}

}  // namespace perfbench
