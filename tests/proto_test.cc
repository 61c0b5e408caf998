// Wire-format tests: every message round-trips; decoders reject corrupt
// and truncated input without UB (property-tested over prefixes).
#include <gtest/gtest.h>

#include "common/rng.h"
#include "proto/descriptor.h"
#include "proto/envelope.h"
#include "proto/messages.h"

namespace coic::proto {
namespace {

FeatureDescriptor SampleVectorDescriptor(std::uint64_t seed = 1) {
  Rng rng(seed);
  std::vector<float> vec(64);
  for (auto& v : vec) v = static_cast<float>(rng.NextGaussian());
  return FeatureDescriptor::ForVector(TaskKind::kRecognition, std::move(vec));
}

FeatureDescriptor SampleHashDescriptor(TaskKind task = TaskKind::kRender) {
  return FeatureDescriptor::ForHash(task, Digest128{0x1111, 0x2222});
}

template <typename M>
M RoundTrip(const M& msg, MessageType type) {
  const ByteVec frame = EncodeMessage(type, 77, msg);
  auto env = DecodeEnvelope(frame);
  EXPECT_TRUE(env.ok()) << env.status().ToString();
  EXPECT_EQ(env.value().type, type);
  EXPECT_EQ(env.value().request_id, 77u);
  auto decoded = DecodePayloadAs<M>(env.value(), type);
  EXPECT_TRUE(decoded.ok()) << decoded.status().ToString();
  return std::move(decoded).value();
}

// ---------------------------------------------------------------------------
// FeatureDescriptor
// ---------------------------------------------------------------------------

TEST(DescriptorTest, VectorRoundTrip) {
  const auto d = SampleVectorDescriptor();
  ByteWriter w;
  d.Encode(w);
  ByteReader r(w.bytes());
  auto decoded = FeatureDescriptor::Decode(r);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), d);
  EXPECT_TRUE(r.AtEnd());
}

TEST(DescriptorTest, HashRoundTrip) {
  const auto d = SampleHashDescriptor(TaskKind::kPanorama);
  ByteWriter w;
  d.Encode(w);
  ByteReader r(w.bytes());
  auto decoded = FeatureDescriptor::Decode(r);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), d);
}

TEST(DescriptorTest, WireSizeMatchesEncoding) {
  for (const auto& d : {SampleVectorDescriptor(), SampleHashDescriptor()}) {
    ByteWriter w;
    d.Encode(w);
    EXPECT_EQ(d.WireSize(), w.size());
  }
}

TEST(DescriptorTest, DistanceIsEuclidean) {
  auto a = FeatureDescriptor::ForVector(TaskKind::kRecognition, {0.0f, 3.0f});
  auto b = FeatureDescriptor::ForVector(TaskKind::kRecognition, {4.0f, 0.0f});
  EXPECT_DOUBLE_EQ(a.DistanceTo(b), 5.0);
  EXPECT_DOUBLE_EQ(a.DistanceTo(a), 0.0);
}

TEST(DescriptorTest, HashDescriptorsIndexKeyDiffersByTask) {
  const auto render = SampleHashDescriptor(TaskKind::kRender);
  const auto pano = SampleHashDescriptor(TaskKind::kPanorama);
  EXPECT_NE(render.IndexKey(), pano.IndexKey());
}

TEST(DescriptorTest, RejectsBadEnumValues) {
  ByteWriter w;
  w.WriteU8(99);  // bad task
  w.WriteU8(0);
  w.WriteF32Vector(std::vector<float>{1.0f});
  w.WriteU64(1);
  w.WriteU64(1);
  ByteReader r(w.bytes());
  EXPECT_EQ(FeatureDescriptor::Decode(r).status().code(), StatusCode::kDataLoss);
}

TEST(DescriptorTest, RejectsVectorKindWithoutVector) {
  ByteWriter w;
  w.WriteU8(0);  // recognition
  w.WriteU8(0);  // vector kind
  w.WriteF32Vector({});
  w.WriteU64(0);
  w.WriteU64(0);
  ByteReader r(w.bytes());
  EXPECT_FALSE(FeatureDescriptor::Decode(r).ok());
}

// ---------------------------------------------------------------------------
// Message round trips
// ---------------------------------------------------------------------------

TEST(MessagesTest, RecognitionRequestCoicRoundTrip) {
  RecognitionRequest m;
  m.user_id = 3;
  m.app_id = 9;
  m.frame_id = 0xF00D;
  m.mode = OffloadMode::kCoic;
  m.descriptor = SampleVectorDescriptor(5);
  EXPECT_EQ(RoundTrip(m, MessageType::kRecognitionRequest), m);
}

TEST(MessagesTest, RecognitionRequestOriginRoundTrip) {
  RecognitionRequest m;
  m.mode = OffloadMode::kOrigin;
  m.descriptor = SampleHashDescriptor(TaskKind::kRecognition);
  m.image = DeterministicBytes(5000, 8);
  EXPECT_EQ(RoundTrip(m, MessageType::kRecognitionRequest), m);
}

TEST(MessagesTest, OriginRecognitionWithoutImageRejected) {
  RecognitionRequest m;
  m.mode = OffloadMode::kOrigin;
  m.descriptor = SampleHashDescriptor(TaskKind::kRecognition);
  const ByteVec frame = EncodeMessage(MessageType::kRecognitionRequest, 1, m);
  auto env = DecodeEnvelope(frame);
  ASSERT_TRUE(env.ok());
  EXPECT_FALSE(DecodePayloadAs<RecognitionRequest>(
                   env.value(), MessageType::kRecognitionRequest)
                   .ok());
}

TEST(MessagesTest, RecognitionResultRoundTrip) {
  RecognitionResult m;
  m.frame_id = 11;
  m.label = "stop_sign";
  m.confidence = 0.93f;
  m.source = ResultSource::kEdgeCache;
  m.annotation = DeterministicBytes(1024, 9);
  EXPECT_EQ(RoundTrip(m, MessageType::kRecognitionResult), m);
}

TEST(MessagesTest, RenderRequestRoundTrip) {
  RenderRequest m;
  m.user_id = 1;
  m.app_id = 2;
  m.model_id = 42;
  m.mode = OffloadMode::kCoic;
  m.descriptor = SampleHashDescriptor();
  m.level_of_detail = 3;
  EXPECT_EQ(RoundTrip(m, MessageType::kRenderRequest), m);
}

TEST(MessagesTest, RenderResultRoundTrip) {
  RenderResult m;
  m.model_id = 42;
  m.source = ResultSource::kCloud;
  m.model_bytes = DeterministicBytes(9000, 10);
  EXPECT_EQ(RoundTrip(m, MessageType::kRenderResult), m);
}

TEST(MessagesTest, PanoramaRequestRoundTrip) {
  PanoramaRequest m;
  m.user_id = 6;
  m.video_id = 1001;
  m.frame_index = 77;
  m.mode = OffloadMode::kCoic;
  m.descriptor = SampleHashDescriptor(TaskKind::kPanorama);
  m.viewport = {15.0f, -10.0f, 100.0f};
  EXPECT_EQ(RoundTrip(m, MessageType::kPanoramaRequest), m);
}

TEST(MessagesTest, PanoramaResultRoundTrip) {
  PanoramaResult m;
  m.video_id = 1001;
  m.frame_index = 77;
  m.source = ResultSource::kEdgeCache;
  m.width = 4096;
  m.height = 2048;
  m.frame = DeterministicBytes(2048, 11);
  EXPECT_EQ(RoundTrip(m, MessageType::kPanoramaResult), m);
}

TEST(MessagesTest, ErrorReplyRoundTrip) {
  ErrorReply m;
  m.code = static_cast<std::uint16_t>(StatusCode::kNotFound);
  m.message = "no model with requested digest";
  EXPECT_EQ(RoundTrip(m, MessageType::kError), m);
}

TEST(MessagesTest, CacheStatsReplyRoundTrip) {
  CacheStatsReply m;
  m.hits = 10;
  m.misses = 3;
  m.insertions = 3;
  m.evictions = 1;
  m.bytes_used = 4096;
  m.bytes_capacity = 1 << 20;
  EXPECT_EQ(RoundTrip(m, MessageType::kCacheStatsReply), m);
}

TEST(MessagesTest, SummaryUpdateRoundTrip) {
  SummaryUpdate m;
  m.edge_id = 4;
  m.version = 999;
  m.bloom_hashes = 4;
  m.bloom_inserted = 37;
  m.bloom_bits = DeterministicBytes(1024, 5);
  m.centroids[0].count = 12;
  m.centroids[0].centroid = {0.5f, -0.25f, 1.0f};
  EXPECT_EQ(RoundTrip(m, MessageType::kSummaryUpdate), m);
}

TEST(MessagesTest, SummaryUpdateRejectsCentroidWithoutEntries) {
  SummaryUpdate m;
  m.bloom_hashes = 4;
  m.bloom_bits = DeterministicBytes(64, 5);
  m.centroids[1].count = 0;
  m.centroids[1].centroid = {1.0f};  // inconsistent: vector but no entries
  const ByteVec frame = EncodeMessage(MessageType::kSummaryUpdate, 1, m);
  auto env = DecodeEnvelope(frame);
  ASSERT_TRUE(env.ok());
  EXPECT_FALSE(
      DecodePayloadAs<SummaryUpdate>(env.value(), MessageType::kSummaryUpdate)
          .ok());
}

TEST(MessagesTest, SummaryDeltaUpdateRoundTrip) {
  SummaryDeltaUpdate m;
  m.edge_id = 2;
  m.version = 12;
  m.base_version = 9;
  m.bloom_inserted = 40;
  m.keys_inserted = {0xAAAAu, 0xBBBBu, 0xCCCCu};
  m.centroids[0].count = 5;
  m.centroids[0].centroid = {0.25f, -0.75f};
  EXPECT_EQ(RoundTrip(m, MessageType::kSummaryDeltaUpdate), m);
}

TEST(MessagesTest, SummaryDeltaUpdateRejectsInconsistentVersionsAndCounts) {
  SummaryDeltaUpdate m;
  m.edge_id = 1;
  m.version = 5;
  m.base_version = 5;  // delta must advance the version
  m.bloom_inserted = 10;
  const auto decode_fails = [](const SummaryDeltaUpdate& msg) {
    const ByteVec frame =
        EncodeMessage(MessageType::kSummaryDeltaUpdate, 1, msg);
    auto env = DecodeEnvelope(frame);
    EXPECT_TRUE(env.ok());
    return !DecodePayloadAs<SummaryDeltaUpdate>(
                env.value(), MessageType::kSummaryDeltaUpdate)
                .ok();
  };
  EXPECT_TRUE(decode_fails(m));
  m.version = 6;
  m.bloom_inserted = 1;
  m.keys_inserted = {1, 2, 3};  // more keys than the absolute count
  EXPECT_TRUE(decode_fails(m));
  m.bloom_inserted = 3;
  EXPECT_FALSE(decode_fails(m));
}

TEST(MessagesTest, SummaryAckRoundTrip) {
  SummaryAck m;
  m.acker_edge = 3;
  m.subject_edge = 7;
  m.version = 42;
  EXPECT_EQ(RoundTrip(m, MessageType::kSummaryAck), m);
  // Version 0 is meaningful on the wire: "I hold nothing of yours" — the
  // nack that triggers a full resend.
  m.version = 0;
  EXPECT_EQ(RoundTrip(m, MessageType::kSummaryAck), m);
}

TEST(MessagesTest, SummaryAckRejectsSelfAck) {
  SummaryAck m;
  m.acker_edge = 4;
  m.subject_edge = 4;  // an edge never acks its own summary
  const ByteVec frame = EncodeMessage(MessageType::kSummaryAck, 1, m);
  auto env = DecodeEnvelope(frame);
  ASSERT_TRUE(env.ok());
  EXPECT_FALSE(
      DecodePayloadAs<SummaryAck>(env.value(), MessageType::kSummaryAck).ok());
}

TEST(MessagesTest, RegionDigestUpdateRoundTrip) {
  RegionDigestUpdate m;
  m.region_id = 1;
  m.head_edge = 3;
  m.version = 9;
  m.bloom_hashes = 4;
  m.bloom_inserted = 7;
  m.bloom_bits = DeterministicBytes(64, 19);
  m.centroids[1].count = 2;
  m.centroids[1].centroid = {0.5f, -0.25f};
  m.member_edges = {3, 7};
  m.member_keys = {4, 3};
  EXPECT_EQ(RoundTrip(m, MessageType::kRegionDigestUpdate), m);
  // An empty region (fresh head, members not yet summarized) is legal.
  RegionDigestUpdate empty;
  empty.region_id = 2;
  empty.head_edge = 5;
  empty.version = 1;
  EXPECT_EQ(RoundTrip(empty, MessageType::kRegionDigestUpdate), empty);
}

TEST(MessagesTest, RegionDigestUpdateRejectsInconsistentHintsAndCentroids) {
  const auto decode_fails = [](const RegionDigestUpdate& msg) {
    const ByteVec frame =
        EncodeMessage(MessageType::kRegionDigestUpdate, 1, msg);
    auto env = DecodeEnvelope(frame);
    EXPECT_TRUE(env.ok());
    return !DecodePayloadAs<RegionDigestUpdate>(
                env.value(), MessageType::kRegionDigestUpdate)
                .ok();
  };
  RegionDigestUpdate m;
  m.region_id = 0;
  m.head_edge = 0;
  m.version = 1;
  m.bloom_inserted = 2;
  m.member_edges = {0, 4};
  m.member_keys = {2, 1};  // hints 3 keys, the bloom union only holds 2
  EXPECT_TRUE(decode_fails(m));
  m.bloom_inserted = 3;
  EXPECT_FALSE(decode_fails(m));
  m.centroids[0].count = 0;
  m.centroids[0].centroid = {1.0f};  // centroid without entries
  EXPECT_TRUE(decode_fails(m));
}

TEST(MessagesTest, DatagramChunkRoundTrip) {
  DatagramChunk m;
  m.chunk_index = 2;
  m.chunk_count = 5;
  m.data = DeterministicBytes(1500, 21);
  EXPECT_EQ(RoundTrip(m, MessageType::kDatagramChunk), m);
}

TEST(MessagesTest, DatagramChunkRejectsInconsistentIndexCountAndEmptyData) {
  const auto decode_fails = [](const DatagramChunk& msg) {
    const ByteVec frame = EncodeMessage(MessageType::kDatagramChunk, 1, msg);
    auto env = DecodeEnvelope(frame);
    EXPECT_TRUE(env.ok());
    return !DecodePayloadAs<DatagramChunk>(env.value(),
                                           MessageType::kDatagramChunk)
                .ok();
  };
  DatagramChunk m;
  m.chunk_index = 0;
  m.chunk_count = 0;  // zero chunks can never carry a message
  m.data = DeterministicBytes(8, 1);
  EXPECT_TRUE(decode_fails(m));
  m.chunk_count = 2;
  m.chunk_index = 2;  // index must be < count
  EXPECT_TRUE(decode_fails(m));
  m.chunk_index = 1;
  m.data.clear();  // every fragment carries at least one byte
  EXPECT_TRUE(decode_fails(m));
  m.data = DeterministicBytes(8, 2);
  EXPECT_FALSE(decode_fails(m));
}

TEST(MessagesTest, DatagramChunkViewBorrowsTheDeliveredBuffer) {
  DatagramChunk m;
  m.chunk_index = 0;
  m.chunk_count = 1;
  m.data = DeterministicBytes(256, 22);
  const ByteVec frame = EncodeMessage(MessageType::kDatagramChunk, 9, m);
  auto env = DecodeEnvelopeView(frame);
  ASSERT_TRUE(env.ok());
  auto view = DecodePayloadAs<DatagramChunkView>(env.value(),
                                                 MessageType::kDatagramChunk);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view.value().chunk_count, 1u);
  EXPECT_TRUE(std::equal(view.value().data.begin(), view.value().data.end(),
                         m.data.begin(), m.data.end()));
  // Borrowed, not copied: the view's data points into the frame buffer.
  EXPECT_GE(view.value().data.data(), frame.data());
  EXPECT_LE(view.value().data.data() + view.value().data.size(),
            frame.data() + frame.size());
}

TEST(MessagesTest, ResultSourceOffsetMatchesThePatchedByte) {
  // The offset must name exactly the byte PatchResultSourceInPlace
  // rewrites — the scatter-gather reply path splits the payload there.
  RecognitionResult recognition;
  recognition.frame_id = 11;
  recognition.label = "object_2";
  recognition.source = ResultSource::kCloud;
  recognition.annotation = DeterministicBytes(48, 3);
  RenderResult render;
  render.model_id = 4;
  render.source = ResultSource::kCloud;
  render.model_bytes = DeterministicBytes(96, 4);
  PanoramaResult panorama;
  panorama.video_id = 5;
  panorama.source = ResultSource::kCloud;
  panorama.frame = DeterministicBytes(64, 5);

  const auto check = [](MessageType type, ByteVec payload) {
    const auto offset = ResultSourceOffset(type, payload);
    ASSERT_TRUE(offset.ok()) << offset.status().ToString();
    ASSERT_LT(offset.value(), payload.size());
    ByteVec patched = payload;
    ASSERT_TRUE(
        PatchResultSourceInPlace(type, patched, ResultSource::kPeerEdge));
    // The two payloads differ in exactly the named byte.
    for (std::size_t i = 0; i < payload.size(); ++i) {
      if (i == offset.value()) {
        EXPECT_EQ(patched[i],
                  static_cast<std::uint8_t>(ResultSource::kPeerEdge));
      } else {
        EXPECT_EQ(patched[i], payload[i]) << "byte " << i;
      }
    }
  };
  check(MessageType::kRecognitionResult, EncodePayload(recognition));
  check(MessageType::kRenderResult, EncodePayload(render));
  check(MessageType::kPanoramaResult, EncodePayload(panorama));
}

// ---------------------------------------------------------------------------
// Gathered decode: a result frame split at its blob body
// ---------------------------------------------------------------------------

/// A result frame cut into the two segments an edge sends: everything up
/// to and including the blob's length prefix, then the blob body.
struct GatheredFrame {
  ByteVec head;
  ByteVec tail;
};

GatheredFrame SplitAtBlob(MessageType type, const ByteVec& frame) {
  const auto offset = ResultBlobOffset(
      type, std::span<const std::uint8_t>(frame).subspan(kEnvelopeHeaderSize));
  EXPECT_TRUE(offset.ok()) << offset.status().ToString();
  const auto split = static_cast<std::ptrdiff_t>(kEnvelopeHeaderSize +
                                                 offset.value_or(0));
  return {ByteVec(frame.begin(), frame.begin() + split),
          ByteVec(frame.begin() + split, frame.end())};
}

/// Overwrites the envelope header's payload-length field.
void SetPayloadLength(ByteVec& head, std::uint32_t len) {
  std::memcpy(head.data() + 16, &len, 4);
}

RecognitionResult SampleRecognitionResult() {
  RecognitionResult m;
  m.frame_id = 11;
  m.label = "object_2";
  m.confidence = 0.75f;
  m.source = ResultSource::kPeerEdge;
  m.annotation = DeterministicBytes(3000, 3);
  return m;
}

RenderResult SampleRenderResult() {
  RenderResult m;
  m.model_id = 4;
  m.source = ResultSource::kEdgeCache;
  m.model_bytes = DeterministicBytes(9000, 4);
  return m;
}

PanoramaResult SamplePanoramaResult() {
  PanoramaResult m;
  m.video_id = 5;
  m.frame_index = 9;
  m.source = ResultSource::kCloud;
  m.width = 64;
  m.height = 32;
  m.frame = DeterministicBytes(64 * 32 * 3, 5);
  return m;
}

/// Gathered decode of `msg` split at its blob equals the fused decode,
/// and the view decoder's blob points into the tail (read in place).
template <typename M, typename View>
void ExpectGatheredEqualsFused(const M& msg, MessageType type,
                               std::span<const std::uint8_t> View::*blob) {
  const ByteVec frame = EncodeMessage(type, 31, msg);
  const GatheredFrame g = SplitAtBlob(type, frame);
  ASSERT_FALSE(g.tail.empty());

  const auto fused_env = DecodeEnvelopeView(frame);
  ASSERT_TRUE(fused_env.ok());
  const auto fused = DecodePayloadAs<M>(fused_env.value(), type);
  ASSERT_TRUE(fused.ok());

  const auto env = DecodeEnvelopeView(g.head, g.tail);
  ASSERT_TRUE(env.ok()) << env.status().ToString();
  EXPECT_EQ(env.value().type, type);
  EXPECT_EQ(env.value().request_id, 31u);
  const auto gathered = DecodePayloadAs<M>(env.value(), type);
  ASSERT_TRUE(gathered.ok()) << gathered.status().ToString();
  EXPECT_EQ(gathered.value(), fused.value());
  EXPECT_EQ(gathered.value(), msg);

  const auto view = DecodePayloadAs<View>(env.value(), type);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ((view.value().*blob).data(), g.tail.data());
  EXPECT_EQ((view.value().*blob).size(), g.tail.size());
}

TEST(GatheredDecodeTest, EqualsFusedDecodeForEveryResultType) {
  ExpectGatheredEqualsFused(SampleRecognitionResult(),
                            MessageType::kRecognitionResult,
                            &RecognitionResultView::annotation);
  ExpectGatheredEqualsFused(SampleRenderResult(), MessageType::kRenderResult,
                            &RenderResultView::model_bytes);
  ExpectGatheredEqualsFused(SamplePanoramaResult(),
                            MessageType::kPanoramaResult,
                            &PanoramaResultView::frame);
}

TEST(GatheredDecodeTest, ResultBlobOffsetNamesTheBlobBody) {
  const auto recognition = SampleRecognitionResult();
  const auto render = SampleRenderResult();
  const auto panorama = SamplePanoramaResult();
  const ByteVec rp = EncodePayload(recognition);
  EXPECT_EQ(ResultBlobOffset(MessageType::kRecognitionResult, rp).value(),
            rp.size() - recognition.annotation.size());
  const ByteVec mp = EncodePayload(render);
  EXPECT_EQ(ResultBlobOffset(MessageType::kRenderResult, mp).value(),
            mp.size() - render.model_bytes.size());
  const ByteVec pp = EncodePayload(panorama);
  EXPECT_EQ(ResultBlobOffset(MessageType::kPanoramaResult, pp).value(),
            pp.size() - panorama.frame.size());

  // An empty blob: the offset is the payload's end.
  RenderResult empty;
  EXPECT_EQ(ResultBlobOffset(MessageType::kRenderResult, EncodePayload(empty))
                .value(),
            13u);

  EXPECT_FALSE(ResultBlobOffset(MessageType::kPing, rp).ok());
  EXPECT_FALSE(ResultBlobOffset(MessageType::kRenderResult,
                                std::span(mp).first(12))
                   .ok());
  // A prefix that disagrees with the bytes after it.
  EXPECT_FALSE(ResultBlobOffset(MessageType::kRenderResult,
                                std::span(mp).first(mp.size() - 1))
                   .ok());
}

TEST(GatheredDecodeTest, RejectsATailLengthThatDiffersFromThePrefix) {
  const ByteVec frame =
      EncodeMessage(MessageType::kRenderResult, 1, SampleRenderResult());
  for (const int delta : {-1, 1}) {
    GatheredFrame g = SplitAtBlob(MessageType::kRenderResult, frame);
    if (delta < 0) {
      g.tail.pop_back();
    } else {
      g.tail.push_back(0);
    }
    // Header length kept consistent, so only the blob prefix disagrees.
    SetPayloadLength(g.head, static_cast<std::uint32_t>(
                                 g.head.size() - kEnvelopeHeaderSize +
                                 g.tail.size()));
    const auto env = DecodeEnvelopeView(g.head, g.tail);
    ASSERT_TRUE(env.ok());
    const auto decoded =
        DecodePayloadAs<RenderResultView>(env.value(), MessageType::kRenderResult);
    ASSERT_FALSE(decoded.ok()) << "delta " << delta;
    EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
  }
}

TEST(GatheredDecodeTest, RejectsStrayHeadBytesAfterThePrefix) {
  const ByteVec frame = EncodeMessage(MessageType::kRecognitionResult, 1,
                                      SampleRecognitionResult());
  GatheredFrame g = SplitAtBlob(MessageType::kRecognitionResult, frame);
  // Move the first body byte into the head: same total, wrong split.
  g.head.push_back(g.tail.front());
  g.tail.erase(g.tail.begin());
  const auto env = DecodeEnvelopeView(g.head, g.tail);
  ASSERT_TRUE(env.ok());
  const auto decoded = DecodePayloadAs<RecognitionResult>(
      env.value(), MessageType::kRecognitionResult);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
}

TEST(GatheredDecodeTest, RejectsScalarAndStringReadsThatReachTheTail) {
  // Any split between the header end and the blob body leaves a scalar
  // or string field (or the blob prefix itself) straddling into the
  // tail: every one fails. (A split at the header end itself is the
  // header-only form, where the tail is the whole payload; see
  // HeaderOnlyHeadCarriesTheWholePayloadAsTail.)
  const ByteVec frame = EncodeMessage(MessageType::kRecognitionResult, 1,
                                      SampleRecognitionResult());
  const std::size_t blob_split =
      SplitAtBlob(MessageType::kRecognitionResult, frame).head.size();
  for (std::size_t split = kEnvelopeHeaderSize + 1; split < blob_split;
       ++split) {
    const std::span<const std::uint8_t> all(frame);
    const auto env = DecodeEnvelopeView(all.first(split), all.subspan(split));
    ASSERT_TRUE(env.ok()) << "split " << split;
    const auto decoded = DecodePayloadAs<RecognitionResultView>(
        env.value(), MessageType::kRecognitionResult);
    ASSERT_FALSE(decoded.ok()) << "split " << split;
    EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
  }
}

TEST(GatheredDecodeTest, HeaderOnlyHeadCarriesTheWholePayloadAsTail) {
  // A cloud result reply by reference: the bare envelope header, then
  // the memoized payload. It decodes as a single-span payload that is
  // the tail itself, field for field equal to the fused decode.
  const PanoramaResult msg = SamplePanoramaResult();
  const ByteVec frame = EncodeMessage(MessageType::kPanoramaResult, 41, msg);
  const std::span<const std::uint8_t> all(frame);
  const auto head = all.first(kEnvelopeHeaderSize);
  const auto tail = all.subspan(kEnvelopeHeaderSize);
  const auto env = DecodeEnvelopeView(head, tail);
  ASSERT_TRUE(env.ok()) << env.status().ToString();
  EXPECT_EQ(env.value().type, MessageType::kPanoramaResult);
  EXPECT_EQ(env.value().request_id, 41u);
  EXPECT_EQ(env.value().payload.data(), tail.data());
  EXPECT_EQ(env.value().payload.size(), tail.size());
  EXPECT_TRUE(env.value().tail.empty());
  const auto decoded =
      DecodePayloadAs<PanoramaResult>(env.value(), MessageType::kPanoramaResult);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value(), msg);
  // Round trip: header + payload re-fuse to the original frame.
  ByteWriter w;
  AppendEnvelopeHeader(w, MessageType::kPanoramaResult, 41,
                       static_cast<std::uint32_t>(EncodePayload(msg).size()));
  w.WriteRaw(EncodePayload(msg));
  EXPECT_EQ(w.TakeBytes(), frame);

  // The header's length must still equal the tail's size.
  for (const int delta : {-1, 1}) {
    ByteVec bad_head(head.begin(), head.end());
    SetPayloadLength(bad_head,
                     static_cast<std::uint32_t>(tail.size() + delta));
    const auto bad = DecodeEnvelopeView(bad_head, tail);
    ASSERT_FALSE(bad.ok()) << "delta " << delta;
    EXPECT_EQ(bad.status().code(), StatusCode::kDataLoss);
  }
  EXPECT_FALSE(DecodeEnvelopeView(head, tail.first(tail.size() - 1)).ok());
}

TEST(GatheredDecodeTest, EncodeGatherHeadPlusBlobEqualsTheFusedEncode) {
  // A peer-lookup hit by reference: the head ends at the payload blob's
  // length prefix, the tail is the cached result payload itself.
  const ByteVec cached = EncodePayload(SampleRenderResult());
  const PeerLookupReplyView hit{.found = true,
                                .reply_type = MessageType::kRenderResult,
                                .payload = cached};
  const ByteVec head = EncodeGatherHead(MessageType::kPeerLookupReply, 52, hit);
  EXPECT_EQ(head.size(), kEnvelopeHeaderSize + 1 + 1 + 4);
  ByteVec fused = head;
  fused.insert(fused.end(), cached.begin(), cached.end());
  EXPECT_EQ(fused, EncodeMessage(MessageType::kPeerLookupReply, 52, hit));

  const auto env = DecodeEnvelopeView(head, cached);
  ASSERT_TRUE(env.ok()) << env.status().ToString();
  const auto view = DecodePayloadAs<PeerLookupReplyView>(
      env.value(), MessageType::kPeerLookupReply);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  EXPECT_TRUE(view.value().found);
  EXPECT_EQ(view.value().payload.data(), cached.data());  // read in place
  EXPECT_EQ(view.value().payload.size(), cached.size());

  // Every result type splits where ResultBlobOffset says.
  const RecognitionResult recognition = SampleRecognitionResult();
  const ByteVec frame =
      EncodeMessage(MessageType::kRecognitionResult, 53, recognition);
  EXPECT_EQ(EncodeGatherHead(MessageType::kRecognitionResult, 53, recognition),
            SplitAtBlob(MessageType::kRecognitionResult, frame).head);
}

TEST(GatheredDecodeTest, RejectsAHeaderLengthThatDiffersFromHeadPlusTail) {
  const ByteVec frame =
      EncodeMessage(MessageType::kPanoramaResult, 1, SamplePanoramaResult());
  for (const int delta : {-1, 1}) {
    GatheredFrame g = SplitAtBlob(MessageType::kPanoramaResult, frame);
    std::uint32_t len = 0;
    std::memcpy(&len, g.head.data() + 16, 4);
    SetPayloadLength(g.head, static_cast<std::uint32_t>(len + delta));
    const auto env = DecodeEnvelopeView(g.head, g.tail);
    ASSERT_FALSE(env.ok()) << "delta " << delta;
    EXPECT_EQ(env.status().code(), StatusCode::kDataLoss);
  }
  // A head shorter than the envelope header is rejected, tail or not.
  const GatheredFrame g = SplitAtBlob(MessageType::kPanoramaResult, frame);
  EXPECT_FALSE(
      DecodeEnvelopeView(std::span(g.head).first(kEnvelopeHeaderSize - 1),
                         g.tail)
          .ok());
}

TEST(MessagesTest, ResultSourceOffsetRejectsNonResultsAndShortPayloads) {
  EXPECT_FALSE(ResultSourceOffset(MessageType::kPing, ByteVec(64, 0)).ok());
  EXPECT_FALSE(
      ResultSourceOffset(MessageType::kRenderRequest, ByteVec(64, 0)).ok());
  // Render: needs model_id (8) + source byte.
  EXPECT_FALSE(
      ResultSourceOffset(MessageType::kRenderResult, ByteVec(8, 0)).ok());
  // Recognition: label length prefix must fit and be covered.
  EXPECT_FALSE(
      ResultSourceOffset(MessageType::kRecognitionResult, ByteVec(10, 0))
          .ok());
  // Panorama: video_id (8) + frame_index (4) + source byte.
  EXPECT_FALSE(
      ResultSourceOffset(MessageType::kPanoramaResult, ByteVec(11, 0)).ok());
}

TEST(MessagesTest, FederatedRelayRoundTrip) {
  FederatedRelay m;
  m.src_edge = 2;
  m.dest_edge = 6;
  m.ttl = 3;
  m.inner = EncodeEnvelope(MessageType::kPing, 42, {});
  EXPECT_EQ(RoundTrip(m, MessageType::kFederatedRelay), m);
}

TEST(MessagesTest, FederatedRelayRejectsSelfDestination) {
  FederatedRelay m;
  m.src_edge = 2;
  m.dest_edge = 2;
  m.inner = DeterministicBytes(32, 1);
  const ByteVec frame = EncodeMessage(MessageType::kFederatedRelay, 1, m);
  auto env = DecodeEnvelope(frame);
  ASSERT_TRUE(env.ok());
  EXPECT_FALSE(DecodePayloadAs<FederatedRelay>(env.value(),
                                               MessageType::kFederatedRelay)
                   .ok());
}

// ---------------------------------------------------------------------------
// Round-trip property over every described type
// ---------------------------------------------------------------------------

/// Fills any described type's fields with seeded random values, redrawing
/// a struct until its schema's cross-field Check accepts it.
struct RandomFiller {
  Rng& rng;

  /// Half the draws small (so cross-field rules hold often), half any.
  std::uint64_t Draw() {
    return rng.NextBelow(2) == 0 ? rng.NextBelow(8) : rng.NextU64();
  }
  std::size_t Length(std::size_t max) { return rng.NextBelow(max + 1); }

  template <std::unsigned_integral T>
  void operator()(T& v) { v = static_cast<T>(Draw()); }
  void operator()(bool& v) { v = rng.NextBelow(2) == 1; }
  void operator()(float& v) { v = static_cast<float>(rng.NextDouble() - 0.5); }
  template <typename E>
    requires std::is_enum_v<E>
  void operator()(E& v) {
    do {
      v = static_cast<E>(rng.NextBelow(64));
    } while (!InWireRange(v));
  }
  void operator()(std::string& v) {
    v.resize(Length(12));
    for (char& c : v) c = static_cast<char>('a' + rng.NextBelow(26));
  }
  void operator()(ByteVec& v) {
    v = DeterministicBytes(Length(48), rng.NextU64());
  }
  void operator()(std::vector<float>& v) {
    v.resize(Length(5));
    for (float& f : v) (*this)(f);
  }
  void operator()(std::vector<std::uint64_t>& v) {
    v.resize(Length(5));
    for (std::uint64_t& x : v) x = Draw();
  }
  void operator()(FeatureDescriptor& d) {
    const auto task = static_cast<TaskKind>(rng.NextBelow(3));
    if (rng.NextBelow(2) == 0) {
      std::vector<float> vec(1 + Length(7));
      for (float& f : vec) (*this)(f);
      d = FeatureDescriptor::ForVector(task, std::move(vec));
    } else {
      d = FeatureDescriptor::ForHash(
          task, Digest128{rng.NextU64(), rng.NextU64() | 1});
    }
  }
  template <typename T, std::size_t N>
  void operator()(std::array<T, N>& a) {
    for (T& x : a) (*this)(x);
  }
  template <typename E, typename K>
  void operator()(MemberHints<E, K>&& h) {
    h.edges.resize(Length(3));
    h.keys.resize(h.edges.size());
    for (std::size_t i = 0; i < h.edges.size(); ++i) {
      (*this)(h.edges[i]);
      h.keys[i] = Draw();
    }
  }
  template <Described M>
  void operator()(M& m) {
    do {
      Schema<M>::Fields(m, [this](auto&&... f) {
        ((*this)(std::forward<decltype(f)>(f)), ...);
      });
    } while (!Checks(m));
  }
  template <typename M>
  static bool Checks(const M& m) {
    if constexpr (requires { Schema<M>::Check(m); }) {
      return Schema<M>::Check(m).ok();
    }
    return true;
  }
};

/// View twin V of `m` (encoded in `frame`) decodes to the owning decode's
/// fields, from the fused frame and from the gathered one whose tail is
/// the final blob's body. The owning decode takes a tail too, except for
/// FederatedRelay: relay frames are never gathered, and its owning decode
/// reads one buffer.
template <typename M, typename V>
void ExpectViewMatchesOwning(const M& m, const ByteVec& frame) {
  const auto fused_env = DecodeEnvelopeView(frame);
  ASSERT_TRUE(fused_env.ok());
  const auto view = DecodePayloadAs<V>(fused_env.value(), Schema<M>::kType);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  EXPECT_EQ(EncodePayload(view.value()), EncodePayload(m));

  const std::size_t tail_size =
      Schema<V>::Fields(view.value(), [](const auto&... f) {
        return std::get<sizeof...(f) - 1>(std::tie(f...)).size();
      });
  const auto split = static_cast<std::ptrdiff_t>(frame.size() - tail_size);
  const ByteVec head(frame.begin(), frame.begin() + split);
  const ByteVec tail(frame.begin() + split, frame.end());
  const auto env = DecodeEnvelopeView(head, tail);
  ASSERT_TRUE(env.ok()) << env.status().ToString();
  const auto gathered_view = DecodePayloadAs<V>(env.value(), Schema<M>::kType);
  ASSERT_TRUE(gathered_view.ok()) << gathered_view.status().ToString();
  EXPECT_EQ(EncodePayload(gathered_view.value()), EncodePayload(m));
  const auto gathered = DecodePayloadAs<M>(env.value(), Schema<M>::kType);
  if (!std::is_same_v<M, FederatedRelay> || tail.empty()) {
    ASSERT_TRUE(gathered.ok()) << gathered.status().ToString();
    EXPECT_EQ(gathered.value(), m);
  } else {
    EXPECT_FALSE(gathered.ok());
  }
}

TEST(MessagesTest, WireSizeMatchesEncodedSize) {
  // Seeded random instances of every described message: WireSize is the
  // encoded size, decode(encode(x)) == x, and every view twin decodes the
  // same fields from the fused and the gathered frame.
  Rng rng(0x5EED15);
  RandomFiller fill{rng};
  ForEachType(WireMessages{}, [&](auto message) {
    using M = typename decltype(message)::type;
    SCOPED_TRACE(std::string(MessageTypeName(Schema<M>::kType)));
    for (int i = 0; i < 64; ++i) {
      M m;
      fill(m);
      const ByteVec frame = EncodeMessage(Schema<M>::kType, 77, m);
      EXPECT_EQ(kEnvelopeHeaderSize + WireSize(m), frame.size());
      EXPECT_EQ(EncodePayload(m).size(), WireSize(m));
      EXPECT_EQ(RoundTrip(m, Schema<M>::kType), m);
      ForEachType(WireViews{}, [&](auto twin) {
        using V = typename decltype(twin)::type;
        if constexpr (std::is_base_of_v<Schema<M>, Schema<V>>) {
          ExpectViewMatchesOwning<M, V>(m, frame);
        }
      });
    }
  });
}

TEST(MessagesTest, EveryPayloadMessageTypeIsDescribedOnce) {
  for (unsigned raw = 0; raw < 256; ++raw) {
    const auto type = static_cast<MessageType>(raw);
    if (MessageTypeName(type) == "Unknown") continue;
    int described = 0;
    ForEachType(WireMessages{}, [&](auto message) {
      described += Schema<typename decltype(message)::type>::kType == type;
    });
    const bool empty_payload = type == MessageType::kPing ||
                               type == MessageType::kPong ||
                               type == MessageType::kCacheStatsRequest;
    EXPECT_EQ(described, empty_payload ? 0 : 1) << MessageTypeName(type);
  }
}

TEST(MessagesDeathTest, RegionDigestMemberListsMustMatchInLength) {
  RegionDigestUpdate digest;
  digest.bloom_inserted = 9;
  digest.member_edges = {1, 4};
  digest.member_keys = {2};
  EXPECT_DEATH(
      (void)EncodeMessage(MessageType::kRegionDigestUpdate, 1, digest),
      "member_edges and member_keys differ in length");
}

// ---------------------------------------------------------------------------
// Envelope
// ---------------------------------------------------------------------------

TEST(EnvelopeTest, RoundTrip) {
  const ByteVec payload = DeterministicBytes(100, 12);
  const ByteVec frame = EncodeEnvelope(MessageType::kPing, 123, payload);
  EXPECT_EQ(frame.size(), kEnvelopeHeaderSize + payload.size());
  auto env = DecodeEnvelope(frame);
  ASSERT_TRUE(env.ok());
  EXPECT_EQ(env.value().type, MessageType::kPing);
  EXPECT_EQ(env.value().request_id, 123u);
  EXPECT_EQ(env.value().payload, payload);
}

TEST(EnvelopeTest, RejectsBadMagic) {
  ByteVec frame = EncodeEnvelope(MessageType::kPing, 1, {});
  frame[0] ^= 0xFF;
  EXPECT_EQ(DecodeEnvelope(frame).status().code(), StatusCode::kDataLoss);
}

TEST(EnvelopeTest, RejectsBadVersion) {
  ByteVec frame = EncodeEnvelope(MessageType::kPing, 1, {});
  frame[4] = 0x7F;
  EXPECT_FALSE(DecodeEnvelope(frame).ok());
}

TEST(EnvelopeTest, RejectsUnknownType) {
  ByteVec frame = EncodeEnvelope(MessageType::kPing, 1, {});
  frame[6] = 200;
  EXPECT_FALSE(DecodeEnvelope(frame).ok());
}

TEST(EnvelopeTest, RejectsNonzeroFlags) {
  ByteVec frame = EncodeEnvelope(MessageType::kPing, 1, {});
  frame[7] = 1;
  EXPECT_FALSE(DecodeEnvelope(frame).ok());
}

TEST(EnvelopeTest, RejectsTruncatedPayload) {
  ByteVec frame = EncodeEnvelope(MessageType::kPing, 1, DeterministicBytes(50, 1));
  // Erase, not resize: GCC 12's -Wstringop-overflow (under ASan) reads
  // resize's never-taken growth path as a huge memset.
  frame.erase(frame.end() - 10, frame.end());
  EXPECT_FALSE(DecodeEnvelope(frame).ok());
}

TEST(EnvelopeTest, RejectsTrailingGarbage) {
  ByteVec frame = EncodeEnvelope(MessageType::kPing, 1, {});
  frame.push_back(0);
  EXPECT_FALSE(DecodeEnvelope(frame).ok());
}

TEST(EnvelopeTest, RejectsOversizedLengthField) {
  ByteVec frame = EncodeEnvelope(MessageType::kPing, 1, {});
  // Patch the length field to a huge value.
  frame[16] = 0xFF;
  frame[17] = 0xFF;
  frame[18] = 0xFF;
  frame[19] = 0xFF;
  EXPECT_FALSE(DecodeEnvelope(frame).ok());
}

TEST(EnvelopeTest, PeekFrameSizeNeedsFullHeader) {
  const ByteVec frame = EncodeEnvelope(MessageType::kPong, 1, DeterministicBytes(30, 2));
  for (std::size_t n = 0; n < kEnvelopeHeaderSize; ++n) {
    auto size = PeekFrameSize(std::span(frame.data(), n));
    ASSERT_TRUE(size.ok());
    EXPECT_EQ(size.value(), 0u) << "header bytes " << n;
  }
  auto size = PeekFrameSize(frame);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(size.value(), frame.size());
}

TEST(EnvelopeTest, PeekFrameSizeRejectsCorruptHeader) {
  ByteVec frame = EncodeEnvelope(MessageType::kPong, 1, {});
  frame[0] ^= 0xFF;
  EXPECT_FALSE(PeekFrameSize(frame).ok());
}

TEST(EnvelopeTest, DecodePayloadAsRejectsWrongType) {
  ErrorReply err;
  err.message = "x";
  const ByteVec frame = EncodeMessage(MessageType::kError, 1, err);
  auto env = DecodeEnvelope(frame);
  ASSERT_TRUE(env.ok());
  EXPECT_FALSE(
      DecodePayloadAs<CacheStatsReply>(env.value(), MessageType::kCacheStatsReply)
          .ok());
}

TEST(EnvelopeTest, DecodePayloadAsRejectsTrailingBytes) {
  ErrorReply err;
  err.message = "x";
  ByteWriter w;
  EncodePayload(w, err);
  ByteVec payload = w.TakeBytes();
  payload.push_back(0xAA);  // trailing junk inside the payload
  const ByteVec frame = EncodeEnvelope(MessageType::kError, 1, payload);
  auto env = DecodeEnvelope(frame);
  ASSERT_TRUE(env.ok());
  EXPECT_FALSE(DecodePayloadAs<ErrorReply>(env.value(), MessageType::kError).ok());
}

// Property: no prefix of a valid frame decodes successfully, and none
// crashes (safety on truncated network reads).
class EnvelopeTruncationTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EnvelopeTruncationTest, EveryPrefixFailsCleanly) {
  RecognitionRequest m;
  m.descriptor = SampleVectorDescriptor(GetParam());
  m.image = DeterministicBytes(64 * GetParam(), GetParam());
  m.mode = OffloadMode::kOrigin;
  const ByteVec frame = EncodeMessage(MessageType::kRecognitionRequest, 5, m);
  for (std::size_t n = 0; n < frame.size(); n += 7) {
    auto result = DecodeEnvelope(std::span(frame.data(), n));
    EXPECT_FALSE(result.ok()) << "prefix " << n << " decoded";
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, EnvelopeTruncationTest,
                         ::testing::Values(1, 2, 3, 5, 8));

// Property: bit flips in the magic, version and flags fields never
// decode as valid. (The type byte is excluded: a flip there can land on
// another legal MessageType, which the envelope layer cannot detect —
// payload decoding catches it instead.)
TEST(EnvelopeTest, HeaderBitFlipsRejected) {
  const ByteVec frame = EncodeEnvelope(MessageType::kRenderRequest, 9,
                                       DeterministicBytes(16, 3));
  for (const std::size_t byte : {0u, 1u, 2u, 3u, 4u, 5u, 7u}) {
    for (int bit = 0; bit < 8; ++bit) {
      ByteVec corrupt = frame;
      corrupt[byte] ^= static_cast<std::uint8_t>(1 << bit);
      auto result = DecodeEnvelope(corrupt);
      EXPECT_FALSE(result.ok()) << "byte " << byte << " bit " << bit;
    }
  }
}

// ---------------------------------------------------------------------------
// In-place fast paths (relay forwarding, result-source patching)
// ---------------------------------------------------------------------------

FederatedRelay SampleRelay() {
  FederatedRelay m;
  m.src_edge = 2;
  m.dest_edge = 5;
  m.ttl = 3;
  m.inner = EncodeEnvelope(MessageType::kPing, 42, {});
  return m;
}

TEST(RelayFastPathTest, PeekMatchesDecodedFields) {
  const FederatedRelay m = SampleRelay();
  const ByteVec frame = EncodeMessage(MessageType::kFederatedRelay, 42, m);
  const auto view = PeekRelayFrame(frame);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view.value().src_edge, m.src_edge);
  EXPECT_EQ(view.value().dest_edge, m.dest_edge);
  EXPECT_EQ(view.value().ttl, m.ttl);
  EXPECT_EQ(view.value().inner_size, m.inner.size());
  EXPECT_EQ(ByteVec(frame.begin() + static_cast<std::ptrdiff_t>(
                        view.value().inner_offset),
                    frame.end()),
            m.inner);
}

TEST(RelayFastPathTest, TtlPatchInPlaceIsByteIdenticalToReEncode) {
  // The forwarding fast path must produce exactly the frame the old
  // decode → --ttl → re-encode path produced.
  const FederatedRelay m = SampleRelay();
  Frame patched_frame(EncodeMessage(MessageType::kFederatedRelay, 42, m));
  DecrementRelayTtl(patched_frame);
  const ByteVec patched = patched_frame.CloneBytes();

  auto env = DecodeEnvelope(EncodeMessage(MessageType::kFederatedRelay, 42, m));
  ASSERT_TRUE(env.ok());
  auto decoded = DecodePayloadAs<FederatedRelay>(
      env.value(), MessageType::kFederatedRelay);
  ASSERT_TRUE(decoded.ok());
  FederatedRelay slow = std::move(decoded).value();
  --slow.ttl;
  const ByteVec reencoded =
      EncodeMessage(MessageType::kFederatedRelay, env.value().request_id, slow);

  EXPECT_EQ(patched, reencoded);
}

TEST(RelayFastPathTest, UnwrapYieldsTheInnerEnvelopeSharingTheBuffer) {
  const FederatedRelay m = SampleRelay();
  const Frame frame(EncodeMessage(MessageType::kFederatedRelay, 42, m));
  const auto view = PeekRelayFrame(frame.span());
  ASSERT_TRUE(view.ok());
  const Frame inner = UnwrapRelay(frame, view.value());
  EXPECT_EQ(inner.CloneBytes(), m.inner);
  // Zero-copy: the inner envelope is a slice of the wrapper's buffer.
  EXPECT_TRUE(inner.SharesBufferWith(frame));
}

TEST(RelayFastPathTest, PeekRejectsMalformedFrames) {
  const FederatedRelay m = SampleRelay();
  const ByteVec good = EncodeMessage(MessageType::kFederatedRelay, 42, m);

  // Not a relay envelope.
  EXPECT_FALSE(PeekRelayFrame(EncodeEnvelope(MessageType::kPing, 1, {})).ok());
  // Truncated at every prefix length.
  for (std::size_t len = 0; len < good.size(); ++len) {
    EXPECT_FALSE(
        PeekRelayFrame(std::span<const std::uint8_t>(good.data(), len)).ok())
        << "prefix " << len;
  }
  // Relay-to-self is rejected exactly like FederatedRelay::Decode.
  FederatedRelay self = SampleRelay();
  self.dest_edge = self.src_edge;
  EXPECT_FALSE(
      PeekRelayFrame(EncodeMessage(MessageType::kFederatedRelay, 1, self))
          .ok());
}

TEST(ResultSourcePatchTest, InPlacePatchIsByteIdenticalToReEncode) {
  // Recognition: source sits after a variable-length label.
  RecognitionResult recognition;
  recognition.frame_id = 9;
  recognition.label = "object_7";
  recognition.confidence = 0.75f;
  recognition.source = ResultSource::kCloud;
  recognition.annotation = DeterministicBytes(4096, 1);

  RenderResult render;
  render.model_id = 3;
  render.source = ResultSource::kCloud;
  render.model_bytes = DeterministicBytes(8192, 2);

  PanoramaResult panorama;
  panorama.video_id = 5;
  panorama.frame_index = 11;
  panorama.source = ResultSource::kCloud;
  panorama.width = 64;
  panorama.height = 32;
  panorama.frame = DeterministicBytes(2048, 3);

  const auto check = [](auto msg, MessageType type) {
    ByteWriter w;
    EncodePayload(w, msg);
    ByteVec patched(w.bytes().begin(), w.bytes().end());
    ASSERT_TRUE(
        PatchResultSourceInPlace(type, patched, ResultSource::kPeerEdge));

    msg.source = ResultSource::kPeerEdge;
    ByteWriter expected;
    EncodePayload(expected, msg);
    EXPECT_EQ(patched, ByteVec(expected.bytes().begin(),
                               expected.bytes().end()));
  };
  check(recognition, MessageType::kRecognitionResult);
  check(render, MessageType::kRenderResult);
  check(panorama, MessageType::kPanoramaResult);
}

TEST(SummaryPeekTest, HeaderMatchesEncodedLeadingFields) {
  // Pins the fixed offsets PeekSummaryFrame reads to SummaryUpdate's
  // Encode order (u32 edge_id, u64 version first).
  SummaryUpdate m;
  m.edge_id = 6;
  m.version = 0x0102030405060708ULL;
  m.bloom_hashes = 4;
  m.bloom_inserted = 3;
  m.bloom_bits = ByteVec(16, 0xAB);
  const ByteVec frame = EncodeMessage(MessageType::kSummaryUpdate, 77, m);
  const auto header = PeekSummaryFrame(frame);
  ASSERT_TRUE(header.ok());
  EXPECT_EQ(header.value().edge_id, m.edge_id);
  EXPECT_EQ(header.value().version, m.version);

  EXPECT_FALSE(PeekSummaryFrame(EncodeEnvelope(MessageType::kPing, 1, {})).ok());
  EXPECT_FALSE(
      PeekSummaryFrame(std::span<const std::uint8_t>(frame.data(), 24)).ok());
}

TEST(SummaryPeekTest, WorksOnDeltaFramesToo) {
  // Both summary types share the leading u32 edge_id + u64 version
  // layout, so the stale-drop peek must read either; the delta peek
  // additionally exposes base_version at its fixed offset.
  SummaryDeltaUpdate m;
  m.edge_id = 3;
  m.version = 0x1122334455667788ULL;
  m.base_version = 0x0807060504030201ULL;
  m.bloom_inserted = 2;
  m.keys_inserted = {7, 9};
  const ByteVec frame = EncodeMessage(MessageType::kSummaryDeltaUpdate, 1, m);

  const auto header = PeekSummaryFrame(frame);
  ASSERT_TRUE(header.ok());
  EXPECT_EQ(header.value().edge_id, m.edge_id);
  EXPECT_EQ(header.value().version, m.version);

  const auto delta_header = PeekSummaryDeltaFrame(frame);
  ASSERT_TRUE(delta_header.ok());
  EXPECT_EQ(delta_header.value().edge_id, m.edge_id);
  EXPECT_EQ(delta_header.value().version, m.version);
  EXPECT_EQ(delta_header.value().base_version, m.base_version);

  // A full-summary frame is not a delta frame, and truncation fails.
  SummaryUpdate full;
  full.bloom_hashes = 4;
  full.bloom_bits = ByteVec(16, 0xCD);
  const ByteVec full_frame = EncodeMessage(MessageType::kSummaryUpdate, 1, full);
  EXPECT_FALSE(PeekSummaryDeltaFrame(full_frame).ok());
  EXPECT_FALSE(
      PeekSummaryDeltaFrame(std::span<const std::uint8_t>(frame.data(), 30))
          .ok());
}

TEST(SummaryPeekTest, RegionDigestHeaderMatchesEncodedLeadingFields) {
  // Pins PeekRegionDigestFrame's fixed offsets to RegionDigestUpdate's
  // Encode order (u32 region_id, u32 head_edge, u64 version first) —
  // the stale-drop / head-succession acceptance rule reads these
  // without decoding the bloom union and member hints.
  RegionDigestUpdate m;
  m.region_id = 2;
  m.head_edge = 6;
  m.version = 0x1102030405060708ULL;
  m.bloom_hashes = 4;
  m.bloom_inserted = 3;
  m.bloom_bits = ByteVec(16, 0xEF);
  m.member_edges = {6, 10};
  m.member_keys = {2, 1};
  const ByteVec frame = EncodeMessage(MessageType::kRegionDigestUpdate, 5, m);
  const auto header = PeekRegionDigestFrame(frame);
  ASSERT_TRUE(header.ok());
  EXPECT_EQ(header.value().region_id, m.region_id);
  EXPECT_EQ(header.value().head_edge, m.head_edge);
  EXPECT_EQ(header.value().version, m.version);

  // Wrong type and truncation both fail cleanly.
  EXPECT_FALSE(
      PeekRegionDigestFrame(EncodeEnvelope(MessageType::kPing, 1, {})).ok());
  EXPECT_FALSE(
      PeekRegionDigestFrame(std::span<const std::uint8_t>(frame.data(), 24))
          .ok());
}

TEST(ResultSourcePatchTest, RejectsNonResultTypesAndShortPayloads) {
  ByteVec tiny(4, 0);
  EXPECT_FALSE(PatchResultSourceInPlace(MessageType::kPing, tiny,
                                        ResultSource::kEdgeCache));
  EXPECT_FALSE(PatchResultSourceInPlace(MessageType::kRecognitionResult, tiny,
                                        ResultSource::kEdgeCache));
  ByteVec short_render(8, 0);  // model_id only, no source byte
  EXPECT_FALSE(PatchResultSourceInPlace(MessageType::kRenderResult,
                                        short_render,
                                        ResultSource::kEdgeCache));
}

// ---------------------------------------------------------------------------
// Fuzz robustness: every envelope type must reject truncated prefixes
// and arbitrary garbage with an error status — never crash or over-read
// (the unit suites run under ASan/UBSan in CI, which turns any
// out-of-bounds read into a hard failure).
// ---------------------------------------------------------------------------

/// One well-formed encoded frame per MessageType.
std::vector<std::pair<MessageType, ByteVec>> SampleFramesOfEveryType() {
  std::vector<std::pair<MessageType, ByteVec>> frames;
  const auto add = [&frames](MessageType type, ByteVec frame) {
    frames.emplace_back(type, std::move(frame));
  };
  add(MessageType::kPing, EncodeEnvelope(MessageType::kPing, 1, {}));
  add(MessageType::kPong, EncodeEnvelope(MessageType::kPong, 2, {}));
  ErrorReply error;
  error.code = 3;
  error.message = "fuzz";
  add(MessageType::kError, EncodeMessage(MessageType::kError, 3, error));
  RecognitionRequest recognition_request;
  recognition_request.mode = OffloadMode::kOrigin;
  recognition_request.descriptor = SampleVectorDescriptor(4);
  recognition_request.image = DeterministicBytes(96, 4);
  add(MessageType::kRecognitionRequest,
      EncodeMessage(MessageType::kRecognitionRequest, 4, recognition_request));
  RecognitionResult recognition_result;
  recognition_result.label = "fuzz_object";
  recognition_result.annotation = DeterministicBytes(64, 5);
  add(MessageType::kRecognitionResult,
      EncodeMessage(MessageType::kRecognitionResult, 5, recognition_result));
  RenderRequest render_request;
  render_request.descriptor = SampleHashDescriptor();
  add(MessageType::kRenderRequest,
      EncodeMessage(MessageType::kRenderRequest, 6, render_request));
  RenderResult render_result;
  render_result.model_bytes = DeterministicBytes(80, 7);
  add(MessageType::kRenderResult,
      EncodeMessage(MessageType::kRenderResult, 7, render_result));
  PanoramaRequest panorama_request;
  panorama_request.descriptor = SampleHashDescriptor(TaskKind::kPanorama);
  add(MessageType::kPanoramaRequest,
      EncodeMessage(MessageType::kPanoramaRequest, 8, panorama_request));
  PanoramaResult panorama_result;
  panorama_result.width = 8;
  panorama_result.height = 4;
  panorama_result.frame = DeterministicBytes(72, 9);
  add(MessageType::kPanoramaResult,
      EncodeMessage(MessageType::kPanoramaResult, 9, panorama_result));
  add(MessageType::kCacheStatsRequest,
      EncodeEnvelope(MessageType::kCacheStatsRequest, 10, {}));
  CacheStatsReply stats;
  stats.hits = 5;
  stats.bytes_capacity = 1 << 20;
  add(MessageType::kCacheStatsReply,
      EncodeMessage(MessageType::kCacheStatsReply, 11, stats));
  PeerLookupRequest lookup_request;
  lookup_request.descriptor = SampleHashDescriptor();
  lookup_request.reply_type = MessageType::kRenderResult;
  add(MessageType::kPeerLookupRequest,
      EncodeMessage(MessageType::kPeerLookupRequest, 12, lookup_request));
  PeerLookupReply lookup_reply;
  lookup_reply.found = true;
  lookup_reply.reply_type = MessageType::kRenderResult;
  lookup_reply.payload = DeterministicBytes(40, 13);
  add(MessageType::kPeerLookupReply,
      EncodeMessage(MessageType::kPeerLookupReply, 13, lookup_reply));
  SummaryUpdate summary;
  summary.bloom_hashes = 4;
  summary.bloom_inserted = 3;
  summary.bloom_bits = DeterministicBytes(64, 14);
  summary.centroids[0].count = 2;
  summary.centroids[0].centroid = {0.5f, 0.25f};
  add(MessageType::kSummaryUpdate,
      EncodeMessage(MessageType::kSummaryUpdate, 14, summary));
  add(MessageType::kFederatedRelay,
      EncodeMessage(MessageType::kFederatedRelay, 15, SampleRelay()));
  SummaryDeltaUpdate delta;
  delta.edge_id = 1;
  delta.version = 4;
  delta.base_version = 3;
  delta.bloom_inserted = 9;
  delta.keys_inserted = {11, 22, 33};
  delta.centroids[1].count = 1;
  delta.centroids[1].centroid = {1.0f};
  add(MessageType::kSummaryDeltaUpdate,
      EncodeMessage(MessageType::kSummaryDeltaUpdate, 16, delta));
  SummaryAck ack;
  ack.acker_edge = 1;
  ack.subject_edge = 2;
  ack.version = 17;
  add(MessageType::kSummaryAck,
      EncodeMessage(MessageType::kSummaryAck, 17, ack));
  DatagramChunk chunk;
  chunk.chunk_index = 1;
  chunk.chunk_count = 3;
  chunk.data = DeterministicBytes(48, 18);
  add(MessageType::kDatagramChunk,
      EncodeMessage(MessageType::kDatagramChunk, 18, chunk));
  RegionDigestUpdate digest;
  digest.region_id = 1;
  digest.head_edge = 4;
  digest.version = 19;
  digest.bloom_hashes = 4;
  digest.bloom_inserted = 5;
  digest.bloom_bits = DeterministicBytes(64, 19);
  digest.centroids[1].count = 2;
  digest.centroids[1].centroid = {0.5f, -0.25f};
  digest.member_edges = {4, 7};
  digest.member_keys = {3, 2};
  add(MessageType::kRegionDigestUpdate,
      EncodeMessage(MessageType::kRegionDigestUpdate, 19, digest));
  return frames;
}

/// Decodes `env`'s payload with the decoder matching its type tag;
/// returns whether it decoded cleanly. Types without a payload struct
/// count as decoded iff the payload is empty.
bool PayloadDecodes(const Envelope& env) {
  switch (env.type) {
    case MessageType::kPing:
    case MessageType::kPong:
    case MessageType::kCacheStatsRequest:
      return env.payload.empty();
    case MessageType::kError:
      return DecodePayloadAs<ErrorReply>(env, env.type).ok();
    case MessageType::kRecognitionRequest:
      return DecodePayloadAs<RecognitionRequest>(env, env.type).ok();
    case MessageType::kRecognitionResult:
      return DecodePayloadAs<RecognitionResult>(env, env.type).ok();
    case MessageType::kRenderRequest:
      return DecodePayloadAs<RenderRequest>(env, env.type).ok();
    case MessageType::kRenderResult:
      return DecodePayloadAs<RenderResult>(env, env.type).ok();
    case MessageType::kPanoramaRequest:
      return DecodePayloadAs<PanoramaRequest>(env, env.type).ok();
    case MessageType::kPanoramaResult:
      return DecodePayloadAs<PanoramaResult>(env, env.type).ok();
    case MessageType::kCacheStatsReply:
      return DecodePayloadAs<CacheStatsReply>(env, env.type).ok();
    case MessageType::kPeerLookupRequest:
      return DecodePayloadAs<PeerLookupRequest>(env, env.type).ok();
    case MessageType::kPeerLookupReply:
      return DecodePayloadAs<PeerLookupReply>(env, env.type).ok();
    case MessageType::kSummaryUpdate:
      return DecodePayloadAs<SummaryUpdate>(env, env.type).ok();
    case MessageType::kFederatedRelay:
      return DecodePayloadAs<FederatedRelay>(env, env.type).ok();
    case MessageType::kSummaryDeltaUpdate:
      return DecodePayloadAs<SummaryDeltaUpdate>(env, env.type).ok();
    case MessageType::kSummaryAck:
      return DecodePayloadAs<SummaryAck>(env, env.type).ok();
    case MessageType::kDatagramChunk:
      return DecodePayloadAs<DatagramChunk>(env, env.type).ok();
    case MessageType::kRegionDigestUpdate:
      return DecodePayloadAs<RegionDigestUpdate>(env, env.type).ok();
  }
  return false;
}

TEST(FuzzDecodeTest, EveryTypeRejectsEveryTruncatedFramePrefix) {
  for (const auto& [type, frame] : SampleFramesOfEveryType()) {
    auto whole = DecodeEnvelope(frame);
    ASSERT_TRUE(whole.ok()) << MessageTypeName(type);
    EXPECT_TRUE(PayloadDecodes(whole.value())) << MessageTypeName(type);
    for (std::size_t n = 0; n < frame.size(); ++n) {
      EXPECT_FALSE(
          DecodeEnvelope(std::span<const std::uint8_t>(frame.data(), n)).ok())
          << MessageTypeName(type) << " frame prefix " << n << " decoded";
    }
  }
}

TEST(FuzzDecodeTest, EveryTypeRejectsEveryTruncatedPayloadPrefix) {
  // Truncation below the envelope layer: the header is intact and
  // consistent, only the message body is cut short. Encoded lengths are
  // determined by the original content, so every proper prefix must
  // under-run some field read and fail — a decode that "succeeds" on a
  // prefix would mean a field was silently skipped.
  for (const auto& [type, frame] : SampleFramesOfEveryType()) {
    auto whole = DecodeEnvelope(frame);
    ASSERT_TRUE(whole.ok()) << MessageTypeName(type);
    const ByteVec& payload = whole.value().payload;
    for (std::size_t n = 0; n < payload.size(); ++n) {
      Envelope truncated;
      truncated.type = type;
      truncated.request_id = whole.value().request_id;
      truncated.payload.assign(payload.begin(),
                               payload.begin() + static_cast<std::ptrdiff_t>(n));
      EXPECT_FALSE(PayloadDecodes(truncated))
          << MessageTypeName(type) << " payload prefix " << n << " decoded";
    }
  }
}

TEST(FuzzDecodeTest, TenThousandRandomBuffersAllRejectedWithoutCrashing) {
  // Arbitrary garbage at the framing layer. A uniformly random prefix
  // matches the 32-bit magic with probability 2^-32, so every buffer
  // must come back as an error status (and ASan/UBSan verify no read
  // strays out of bounds on the way).
  Rng rng(0xF0221);
  for (int i = 0; i < 10'000; ++i) {
    const std::size_t len = rng.NextBelow(256);
    const ByteVec buffer = DeterministicBytes(len, rng.NextU64());
    EXPECT_FALSE(DecodeEnvelope(buffer).ok()) << "buffer " << i;
    // The incremental-framing and fast-path peeks must be equally solid.
    (void)PeekFrameSize(buffer);
    (void)PeekRelayFrame(buffer);
    (void)PeekSummaryFrame(buffer);
    (void)PeekSummaryDeltaFrame(buffer);
    (void)PeekRegionDigestFrame(buffer);
  }
}

TEST(FuzzDecodeTest, RandomPayloadsUnderValidHeadersNeverCrash) {
  // Garbage below a well-formed header: the payload decoders must walk
  // random bytes without crashing or over-reading. Structurally valid
  // accidents are possible for fixed-layout messages (e.g. 48 random
  // bytes decode as a CacheStatsReply), so only safety is asserted.
  Rng rng(0xF0222);
  std::uint64_t decoded_ok = 0;
  for (const auto& [type, sample] : SampleFramesOfEveryType()) {
    for (int i = 0; i < 600; ++i) {
      Envelope env;
      env.type = type;
      env.request_id = 1;
      env.payload = DeterministicBytes(rng.NextBelow(128), rng.NextU64());
      decoded_ok += PayloadDecodes(env) ? 1 : 0;
    }
  }
  // Nothing to assert beyond "we got here": the loop ran 600 random
  // payloads through all 16 decoders under the sanitizers.
  EXPECT_GE(decoded_ok, 0u);
}

// ---------------------------------------------------------------------------
// Borrowed-view decode layer (the zero-copy client receive path). The
// view decoders must accept exactly what the owning decoders accept and
// expose byte-identical fields — the owning forms decode through the
// views, and these tests keep the pair pinned together.
// ---------------------------------------------------------------------------

TEST(ViewDecodeTest, EnvelopeViewMatchesOwningEnvelope) {
  for (const auto& [type, frame] : SampleFramesOfEveryType()) {
    const auto owning = DecodeEnvelope(frame);
    const auto view = DecodeEnvelopeView(frame);
    ASSERT_TRUE(owning.ok()) << MessageTypeName(type);
    ASSERT_TRUE(view.ok()) << MessageTypeName(type);
    EXPECT_EQ(view.value().type, owning.value().type);
    EXPECT_EQ(view.value().request_id, owning.value().request_id);
    EXPECT_EQ(ByteVec(view.value().payload.begin(), view.value().payload.end()),
              owning.value().payload);
    // Zero-copy: the view payload aliases the input frame.
    EXPECT_EQ(view.value().payload.data(),
              frame.data() + kEnvelopeHeaderSize);
  }
}

TEST(ViewDecodeTest, EnvelopeViewRejectsExactlyWhereOwningDoes) {
  for (const auto& [type, frame] : SampleFramesOfEveryType()) {
    for (std::size_t n = 0; n <= frame.size(); ++n) {
      const std::span<const std::uint8_t> prefix(frame.data(), n);
      EXPECT_EQ(DecodeEnvelopeView(prefix).ok(), DecodeEnvelope(prefix).ok())
          << MessageTypeName(type) << " prefix " << n;
    }
  }
}

TEST(ViewDecodeTest, ResultViewsMatchOwningResultsFieldForField) {
  const auto frames = SampleFramesOfEveryType();
  for (const auto& [type, frame] : frames) {
    const auto env = DecodeEnvelopeView(frame);
    ASSERT_TRUE(env.ok());
    switch (type) {
      case MessageType::kRecognitionResult: {
        auto owning = DecodePayloadAs<RecognitionResult>(env.value(), type);
        auto view = DecodePayloadAs<RecognitionResultView>(env.value(), type);
        ASSERT_TRUE(owning.ok() && view.ok());
        EXPECT_EQ(view.value().frame_id, owning.value().frame_id);
        EXPECT_EQ(view.value().label, owning.value().label);
        EXPECT_EQ(view.value().confidence, owning.value().confidence);
        EXPECT_EQ(view.value().source, owning.value().source);
        EXPECT_EQ(ByteVec(view.value().annotation.begin(),
                          view.value().annotation.end()),
                  owning.value().annotation);
        break;
      }
      case MessageType::kRenderResult: {
        auto owning = DecodePayloadAs<RenderResult>(env.value(), type);
        auto view = DecodePayloadAs<RenderResultView>(env.value(), type);
        ASSERT_TRUE(owning.ok() && view.ok());
        EXPECT_EQ(view.value().model_id, owning.value().model_id);
        EXPECT_EQ(view.value().source, owning.value().source);
        EXPECT_EQ(ByteVec(view.value().model_bytes.begin(),
                          view.value().model_bytes.end()),
                  owning.value().model_bytes);
        break;
      }
      case MessageType::kPanoramaResult: {
        auto owning = DecodePayloadAs<PanoramaResult>(env.value(), type);
        auto view = DecodePayloadAs<PanoramaResultView>(env.value(), type);
        ASSERT_TRUE(owning.ok() && view.ok());
        EXPECT_EQ(view.value().video_id, owning.value().video_id);
        EXPECT_EQ(view.value().frame_index, owning.value().frame_index);
        EXPECT_EQ(view.value().width, owning.value().width);
        EXPECT_EQ(view.value().height, owning.value().height);
        EXPECT_EQ(ByteVec(view.value().frame.begin(), view.value().frame.end()),
                  owning.value().frame);
        break;
      }
      case MessageType::kPeerLookupReply: {
        auto owning = DecodePayloadAs<PeerLookupReply>(env.value(), type);
        auto view = DecodePayloadAs<PeerLookupReplyView>(env.value(), type);
        ASSERT_TRUE(owning.ok() && view.ok());
        EXPECT_EQ(view.value().found, owning.value().found);
        EXPECT_EQ(view.value().reply_type, owning.value().reply_type);
        EXPECT_EQ(ByteVec(view.value().payload.begin(),
                          view.value().payload.end()),
                  owning.value().payload);
        break;
      }
      default:
        break;
    }
  }
}

TEST(ViewDecodeTest, ViewDecodersRejectEveryTruncatedPayloadPrefix) {
  // The PR 4 truncation sweep, re-run against the borrowed-view
  // decoders: every proper payload prefix must under-run a field read
  // and fail, with ASan/UBSan (CI) proving no byte beyond the prefix is
  // touched.
  const auto sweep = [](MessageType type,
                        std::span<const std::uint8_t> payload, auto tag) {
    using M = decltype(tag);
    for (std::size_t n = 0; n < payload.size(); ++n) {
      ByteReader r(payload.subspan(0, n));
      auto decoded = DecodePayload<M>(r);
      EXPECT_FALSE(decoded.ok() && r.AtEnd())
          << MessageTypeName(type) << " view prefix " << n << " decoded";
    }
  };
  for (const auto& [type, frame] : SampleFramesOfEveryType()) {
    const auto env = DecodeEnvelopeView(frame);
    ASSERT_TRUE(env.ok());
    const auto payload = env.value().payload;
    switch (type) {
      case MessageType::kRecognitionResult:
        sweep(type, payload, RecognitionResultView{});
        break;
      case MessageType::kRenderResult:
        sweep(type, payload, RenderResultView{});
        break;
      case MessageType::kPanoramaResult:
        sweep(type, payload, PanoramaResultView{});
        break;
      case MessageType::kPeerLookupReply:
        sweep(type, payload, PeerLookupReplyView{});
        break;
      default:
        break;
    }
  }
}

TEST(ViewDecodeTest, RequestModePeekMatchesFullDecodeAtItsFixedOffset) {
  // PeekRequestOffloadMode reads payload byte 16; pin that offset to the
  // three request encoders for both modes.
  for (const OffloadMode mode : {OffloadMode::kCoic, OffloadMode::kOrigin}) {
    RecognitionRequest recognition;
    recognition.mode = mode;
    recognition.descriptor = SampleVectorDescriptor(1);
    if (mode == OffloadMode::kOrigin) {
      recognition.image = DeterministicBytes(64, 1);
    }
    RenderRequest render;
    render.mode = mode;
    render.descriptor = SampleHashDescriptor();
    PanoramaRequest panorama;
    panorama.mode = mode;
    panorama.descriptor = SampleHashDescriptor(TaskKind::kPanorama);

    const auto check = [mode](MessageType type, const auto& msg) {
      const ByteVec frame = EncodeMessage(type, 1, msg);
      const auto env = DecodeEnvelopeView(frame);
      ASSERT_TRUE(env.ok());
      const auto peeked = PeekRequestOffloadMode(type, env.value().payload);
      ASSERT_TRUE(peeked.ok()) << MessageTypeName(type);
      EXPECT_EQ(peeked.value(), mode) << MessageTypeName(type);
      // Too-short payloads and non-request types are rejected.
      EXPECT_FALSE(
          PeekRequestOffloadMode(type, env.value().payload.subspan(0, 16))
              .ok());
      EXPECT_FALSE(
          PeekRequestOffloadMode(MessageType::kPong, env.value().payload)
              .ok());
    };
    check(MessageType::kRecognitionRequest, recognition);
    check(MessageType::kRenderRequest, render);
    check(MessageType::kPanoramaRequest, panorama);
  }
}

TEST(ViewDecodeTest, ViewDecodersSurviveRandomPayloads) {
  // 10k seeded-random payloads through every view decoder: reject or
  // accept, never crash or over-read (sanitizer-enforced in CI).
  Rng rng(0xF0223);
  for (int i = 0; i < 10'000; ++i) {
    const ByteVec payload = DeterministicBytes(rng.NextBelow(160), rng.NextU64());
    {
      ByteReader r(payload);
      (void)DecodePayload<RecognitionResultView>(r);
    }
    {
      ByteReader r(payload);
      (void)DecodePayload<RenderResultView>(r);
    }
    {
      ByteReader r(payload);
      (void)DecodePayload<PanoramaResultView>(r);
    }
    {
      ByteReader r(payload);
      (void)DecodePayload<PeerLookupReplyView>(r);
    }
  }
}

}  // namespace
}  // namespace coic::proto
