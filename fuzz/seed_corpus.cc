#include "fuzz/seed_corpus.h"

#include <span>

#include "proto/envelope.h"
#include "proto/messages.h"

namespace coic::fuzz {
namespace {

using namespace coic::proto;  // NOLINT(google-build-using-namespace)

FeatureDescriptor SampleVectorKey() {
  return FeatureDescriptor::ForVector(TaskKind::kRecognition,
                                      {0.5f, -0.5f, 0.5f, 0.5f});
}

FeatureDescriptor SampleHashKey() {
  return FeatureDescriptor::ForHash(TaskKind::kRender, Digest128{7, 9});
}

}  // namespace

std::vector<Seed> SeedCorpus() {
  std::vector<Seed> seeds;
  const auto add = [&seeds](std::string name, ByteVec frame) {
    seeds.push_back({std::move(name), std::move(frame)});
  };

  add("ping", EncodeEnvelope(MessageType::kPing, 1, {}));
  add("pong", EncodeEnvelope(MessageType::kPong, 2, {}));

  ErrorReply error;
  error.code = 7;
  error.message = "sample";
  add("error", EncodeMessage(MessageType::kError, 3, error));

  RecognitionRequest recognition_request;
  recognition_request.user_id = 1;
  recognition_request.frame_id = 4;
  recognition_request.descriptor = SampleVectorKey();
  add("recognition_request",
      EncodeMessage(MessageType::kRecognitionRequest, 4, recognition_request));

  RecognitionResult recognition_result;
  recognition_result.frame_id = 4;
  recognition_result.label = "object_4";
  recognition_result.confidence = 0.75f;
  recognition_result.annotation = DeterministicBytes(48, 4);
  add("recognition_result",
      EncodeMessage(MessageType::kRecognitionResult, 5, recognition_result));

  RenderRequest render_request;
  render_request.model_id = 6;
  render_request.descriptor = SampleHashKey();
  add("render_request",
      EncodeMessage(MessageType::kRenderRequest, 6, render_request));

  RenderResult render_result;
  render_result.model_id = 6;
  render_result.model_bytes = DeterministicBytes(96, 6);
  add("render_result",
      EncodeMessage(MessageType::kRenderResult, 7, render_result));

  PanoramaRequest panorama_request;
  panorama_request.video_id = 8;
  panorama_request.frame_index = 2;
  panorama_request.descriptor = SampleHashKey();
  add("panorama_request",
      EncodeMessage(MessageType::kPanoramaRequest, 8, panorama_request));

  PanoramaResult panorama_result;
  panorama_result.video_id = 8;
  panorama_result.frame_index = 2;
  panorama_result.width = 64;
  panorama_result.height = 32;
  panorama_result.frame = DeterministicBytes(128, 8);
  add("panorama_result",
      EncodeMessage(MessageType::kPanoramaResult, 9, panorama_result));

  add("cache_stats_request",
      EncodeEnvelope(MessageType::kCacheStatsRequest, 10, {}));

  CacheStatsReply stats;
  stats.hits = 3;
  stats.misses = 1;
  add("cache_stats_reply",
      EncodeMessage(MessageType::kCacheStatsReply, 11, stats));

  PeerLookupRequest lookup_request;
  lookup_request.descriptor = SampleHashKey();
  lookup_request.reply_type = MessageType::kRenderResult;
  add("peer_lookup_request",
      EncodeMessage(MessageType::kPeerLookupRequest, 12, lookup_request));

  PeerLookupReply lookup_reply;
  lookup_reply.found = true;
  lookup_reply.reply_type = MessageType::kRenderResult;
  lookup_reply.payload = DeterministicBytes(40, 12);
  add("peer_lookup_reply",
      EncodeMessage(MessageType::kPeerLookupReply, 13, lookup_reply));

  SummaryUpdate summary;
  summary.edge_id = 1;
  summary.version = 3;
  summary.bloom_hashes = 4;
  summary.bloom_inserted = 5;
  summary.bloom_bits = DeterministicBytes(32, 14);
  summary.centroids[0].count = 2;
  summary.centroids[0].centroid = {0.25f, 0.5f};
  add("summary_update",
      EncodeMessage(MessageType::kSummaryUpdate, 14, summary));

  SummaryDeltaUpdate delta;
  delta.edge_id = 1;
  delta.version = 4;
  delta.base_version = 3;
  delta.bloom_inserted = 7;
  delta.keys_inserted = {11, 22};
  delta.centroids[0].count = 2;
  delta.centroids[0].centroid = {0.25f, 0.5f};
  add("summary_delta_update",
      EncodeMessage(MessageType::kSummaryDeltaUpdate, 15, delta));

  SummaryAck ack;
  ack.acker_edge = 2;
  ack.subject_edge = 1;
  ack.version = 3;
  add("summary_ack",
      EncodeMessage(MessageType::kSummaryAck, 18, ack));

  DatagramChunk chunk;
  chunk.chunk_index = 1;
  chunk.chunk_count = 3;
  chunk.data = DeterministicBytes(64, 18);
  add("datagram_chunk",
      EncodeMessage(MessageType::kDatagramChunk, 19, chunk));

  FederatedRelay relay;
  relay.src_edge = 0;
  relay.dest_edge = 2;
  relay.ttl = 1;
  relay.inner = EncodeEnvelope(MessageType::kPing, 16, {});
  add("federated_relay",
      EncodeMessage(MessageType::kFederatedRelay, 16, relay));

  RegionDigestUpdate digest;
  digest.region_id = 1;
  digest.head_edge = 4;
  digest.version = 20;
  digest.bloom_hashes = 4;
  digest.bloom_inserted = 5;
  digest.bloom_bits = DeterministicBytes(32, 20);
  digest.centroids[1].count = 2;
  digest.centroids[1].centroid = {0.5f, -0.25f};
  digest.member_edges = {4, 7};
  digest.member_keys = {3, 2};
  add("region_digest_update",
      EncodeMessage(MessageType::kRegionDigestUpdate, 20, digest));

  // Split frames: result frames whose request id (the fuzzer's split
  // pick, see fuzz_decode.cc) names their final-blob boundary, one byte
  // before it (inside the length prefix) and one byte after it, plus
  // the header-only split (pick 0) a cloud result reply travels as.
  const auto add_splits = [&](const std::string& name, MessageType type,
                              const auto& msg) {
    const ByteVec frame = EncodeMessage(type, 0, msg);
    const std::size_t payload = frame.size() - kEnvelopeHeaderSize;
    const auto blob = ResultBlobOffset(
        type, std::span<const std::uint8_t>(frame).subspan(
                  kEnvelopeHeaderSize));
    COIC_CHECK(blob.ok());
    for (const int delta : {0, -1, 1}) {
      const std::size_t pick = static_cast<std::size_t>(
          static_cast<std::ptrdiff_t>(blob.value()) + delta);
      if (pick > payload) continue;
      add(name + "_split" + std::to_string(delta),
          EncodeMessage(type, pick, msg));
    }
    add(name + "_header_only", EncodeMessage(type, 0, msg));
  };
  add_splits("recognition_result", MessageType::kRecognitionResult,
             recognition_result);
  add_splits("render_result", MessageType::kRenderResult, render_result);
  add_splits("panorama_result", MessageType::kPanoramaResult,
             panorama_result);

  // Structural corners: empty input and a bare header.
  add("empty", {});
  ByteWriter header;
  AppendEnvelopeHeader(header, MessageType::kPing, 17, 0);
  add("bare_header", header.TakeBytes());
  return seeds;
}

}  // namespace coic::fuzz
