// CoIC wire messages.
//
// One struct per protocol message, each followed by its Schema: the
// field list, in wire order, plus an optional cross-field Check. The
// codec (codec.h) derives WireSize, EncodePayload and the bounds-checked
// DecodePayload from that list. The message set covers the three IC
// task families the paper identifies (object recognition, 3D rendering,
// panoramic VR streaming) in both CoIC mode (descriptor-first) and
// Origin mode (full input offload), plus the edge<->cloud forwarding
// and cache-maintenance messages from Figure 1.
//
// Adding a message: add its MessageType, the struct, and a Schema
// specialization naming kType and Fields (and Check if fields constrain
// one another); then list it in WireMessages at the bottom, which the
// round-trip test and the fuzz harness iterate. A borrowed twin (a
// `*View` whose blobs/strings are spans) inherits the owning Schema.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.h"
#include "common/units.h"
#include "proto/codec.h"
#include "proto/descriptor.h"

namespace coic::proto {

/// Wire message discriminator (envelope `type` field).
enum class MessageType : std::uint8_t {
  kPing = 0,
  kPong = 1,
  kError = 2,
  kRecognitionRequest = 10,
  kRecognitionResult = 11,
  kRenderRequest = 12,
  kRenderResult = 13,
  kPanoramaRequest = 14,
  kPanoramaResult = 15,
  kCacheStatsRequest = 20,
  kCacheStatsReply = 21,
  /// Edge <-> edge cooperation (the "cooperative" in CoIC): an edge that
  /// misses locally may probe a peer edge's cache before paying the
  /// cloud round trip.
  kPeerLookupRequest = 30,
  kPeerLookupReply = 31,
  /// Edge federation: a compact digest of one edge's cache content,
  /// gossiped periodically so peers can direct lookups instead of
  /// broadcasting.
  kSummaryUpdate = 32,
  /// Edge federation: source-routed wrapper for edge-to-edge frames
  /// between venues that are not directly linked in the topology.
  kFederatedRelay = 33,
  /// Edge federation: incremental cache-summary update — only the
  /// content-hash keys inserted since a base version the receiver
  /// already holds, plus replacement centroid sketches. Falls back to a
  /// full kSummaryUpdate when the base is unknown, the sender's change
  /// journal overflowed, or keys were erased (Bloom bits only compose
  /// under insertion).
  kSummaryDeltaUpdate = 34,
  /// Edge federation: cumulative acknowledgement of a peer's summary
  /// stream, piggybacked on PeerLookup traffic. A sender that sees an
  /// ack older than what it last shipped knows a summary frame was lost
  /// and resends a full summary immediately instead of waiting for the
  /// periodic refresh.
  kSummaryAck = 35,
  /// Unreliable transport: one MTU-sized chunk of a larger message. The
  /// envelope request id carries the per-directed-pair reassembly
  /// sequence number; the payload carries chunk index/count and bytes.
  kDatagramChunk = 36,
  /// Hierarchical federation: a region head's aggregate of its members'
  /// cache summaries (Bloom union + merged centroid sketches), gossiped
  /// cross-region so foreign venues can resolve a miss to a region
  /// without holding per-member summaries.
  kRegionDigestUpdate = 37,
};

std::string_view MessageTypeName(MessageType t) noexcept;

/// A MessageType carried as a payload field (a peer lookup's
/// reply_type) names the result message the payload decodes as.
constexpr bool InWireRange(MessageType t) {
  return t == MessageType::kRecognitionResult ||
         t == MessageType::kRenderResult || t == MessageType::kPanoramaResult;
}

/// How a request wants the task executed.
enum class OffloadMode : std::uint8_t {
  kCoic = 0,    ///< Descriptor-first: edge cache consulted (Figure 1 path).
  kOrigin = 1,  ///< Baseline: full input offloaded straight to the cloud.
};
constexpr bool InWireRange(OffloadMode m) { return m <= OffloadMode::kOrigin; }

/// Where a result was produced — clients use this to account hit/miss QoE.
enum class ResultSource : std::uint8_t {
  kEdgeCache = 0,  ///< Served from the local edge IC cache (hit).
  kCloud = 1,      ///< Computed by the cloud (miss or Origin).
  kLocal = 2,      ///< Computed on-device (Local baseline).
  kPeerEdge = 3,   ///< Served from a cooperating peer edge's cache.
};
constexpr bool InWireRange(ResultSource s) {
  return s <= ResultSource::kPeerEdge;
}

// ---------------------------------------------------------------------------
// Recognition (AR object recognition; Figure 2a workload)
// ---------------------------------------------------------------------------

/// Client -> edge. In kCoic mode carries only the descriptor; in kOrigin
/// mode carries the full camera frame for cloud inference.
struct RecognitionRequest {
  std::uint32_t user_id = 0;
  std::uint32_t app_id = 0;
  std::uint64_t frame_id = 0;
  OffloadMode mode = OffloadMode::kCoic;
  FeatureDescriptor descriptor;  ///< Valid in kCoic mode.
  ByteVec image;                 ///< Full frame; non-empty in kOrigin mode.
  /// Remaining latency budget the client grants this request, stamped at
  /// send time. 0 = no deadline. The edge sheds already-expired work
  /// before spending a cloud fetch on it.
  std::uint32_t deadline_ms = 0;

  friend bool operator==(const RecognitionRequest&,
                         const RecognitionRequest&) = default;
};

template <>
struct Schema<RecognitionRequest> {
  static constexpr MessageType kType = MessageType::kRecognitionRequest;
  static auto Fields(auto& m, auto&& f) {
    return f(m.user_id, m.app_id, m.frame_id, m.mode, m.descriptor, m.image,
             m.deadline_ms);
  }
  static Status Check(const auto& m) {
    return FirstViolation({{m.mode == OffloadMode::kOrigin && m.image.empty(),
                            "Origin recognition without image"}});
  }
};

/// Edge/cloud -> client. The annotation blob is the "high-quality 3D
/// annotation" the paper's demo app overlays on recognized objects.
struct RecognitionResult {
  std::uint64_t frame_id = 0;
  std::string label;
  float confidence = 0;
  ResultSource source = ResultSource::kCloud;
  ByteVec annotation;

  friend bool operator==(const RecognitionResult&,
                         const RecognitionResult&) = default;
};

/// Borrowed-view twin of RecognitionResult: `label` and `annotation`
/// point into the decoded buffer (valid only while it lives — in
/// practice while the receive-path Frame is held). Same field list; the
/// owning decode goes through this one.
struct RecognitionResultView {
  std::uint64_t frame_id = 0;
  std::string_view label;
  float confidence = 0;
  ResultSource source = ResultSource::kCloud;
  std::span<const std::uint8_t> annotation;
};

template <>
struct Schema<RecognitionResult> {
  static constexpr MessageType kType = MessageType::kRecognitionResult;
  using View = RecognitionResultView;
  static auto Fields(auto& m, auto&& f) {
    return f(m.frame_id, m.label, m.confidence, m.source, m.annotation);
  }
};
template <>
struct Schema<RecognitionResultView> : Schema<RecognitionResult> {};

// ---------------------------------------------------------------------------
// 3D model rendering (Figure 2b workload)
// ---------------------------------------------------------------------------

/// Client -> edge: load (and cache) the 3D model named by content digest.
struct RenderRequest {
  std::uint32_t user_id = 0;
  std::uint32_t app_id = 0;
  std::uint64_t model_id = 0;
  OffloadMode mode = OffloadMode::kCoic;
  FeatureDescriptor descriptor;  ///< kContentHash of the model bytes.
  std::uint8_t level_of_detail = 0;
  std::uint32_t deadline_ms = 0;  ///< Latency budget; 0 = no deadline.

  friend bool operator==(const RenderRequest&, const RenderRequest&) = default;
};

template <>
struct Schema<RenderRequest> {
  static constexpr MessageType kType = MessageType::kRenderRequest;
  static auto Fields(auto& m, auto&& f) {
    return f(m.user_id, m.app_id, m.model_id, m.mode, m.descriptor,
             m.level_of_detail, m.deadline_ms);
  }
};

/// Edge/cloud -> client: the loaded model payload ready for draw.
struct RenderResult {
  std::uint64_t model_id = 0;
  ResultSource source = ResultSource::kCloud;
  ByteVec model_bytes;  ///< Parsed/loaded model representation.

  friend bool operator==(const RenderResult&, const RenderResult&) = default;
};

/// Borrowed-view twin of RenderResult: `model_bytes` points into the
/// decoded buffer — the multi-hundred-KB model body is never duplicated
/// on the client receive path.
struct RenderResultView {
  std::uint64_t model_id = 0;
  ResultSource source = ResultSource::kCloud;
  std::span<const std::uint8_t> model_bytes;
};

template <>
struct Schema<RenderResult> {
  static constexpr MessageType kType = MessageType::kRenderResult;
  using View = RenderResultView;
  static auto Fields(auto& m, auto&& f) {
    return f(m.model_id, m.source, m.model_bytes);
  }
};
template <>
struct Schema<RenderResultView> : Schema<RenderResult> {};

// ---------------------------------------------------------------------------
// Panoramic VR streaming (paper §1.2, third redundancy insight)
// ---------------------------------------------------------------------------

/// Client viewport orientation; the client crops the panorama locally, so
/// the request carries it only for logging/prefetch purposes.
struct Viewport {
  float yaw_deg = 0;
  float pitch_deg = 0;
  float fov_deg = 90;
  friend bool operator==(const Viewport&, const Viewport&) = default;
};

template <>
struct Schema<Viewport> {
  static auto Fields(auto& m, auto&& f) {
    return f(m.yaw_deg, m.pitch_deg, m.fov_deg);
  }
};

struct PanoramaRequest {
  std::uint32_t user_id = 0;
  std::uint64_t video_id = 0;
  std::uint32_t frame_index = 0;
  OffloadMode mode = OffloadMode::kCoic;
  FeatureDescriptor descriptor;  ///< kContentHash of the panorama identity.
  Viewport viewport;
  std::uint32_t deadline_ms = 0;  ///< Latency budget; 0 = no deadline.

  friend bool operator==(const PanoramaRequest&, const PanoramaRequest&) = default;
};

template <>
struct Schema<PanoramaRequest> {
  static constexpr MessageType kType = MessageType::kPanoramaRequest;
  static auto Fields(auto& m, auto&& f) {
    return f(m.user_id, m.video_id, m.frame_index, m.mode, m.descriptor,
             m.viewport, m.deadline_ms);
  }
};

struct PanoramaResult {
  std::uint64_t video_id = 0;
  std::uint32_t frame_index = 0;
  ResultSource source = ResultSource::kCloud;
  std::uint16_t width = 0;   ///< Panorama pixel width.
  std::uint16_t height = 0;  ///< Panorama pixel height.
  ByteVec frame;             ///< Encoded panoramic frame.

  friend bool operator==(const PanoramaResult&, const PanoramaResult&) = default;
};

/// Borrowed-view twin of PanoramaResult: `frame` points into the decoded
/// buffer (multi-MB panorama rasters stay un-copied on receive).
struct PanoramaResultView {
  std::uint64_t video_id = 0;
  std::uint32_t frame_index = 0;
  ResultSource source = ResultSource::kCloud;
  std::uint16_t width = 0;
  std::uint16_t height = 0;
  std::span<const std::uint8_t> frame;
};

template <>
struct Schema<PanoramaResult> {
  static constexpr MessageType kType = MessageType::kPanoramaResult;
  using View = PanoramaResultView;
  static auto Fields(auto& m, auto&& f) {
    return f(m.video_id, m.frame_index, m.source, m.width, m.height, m.frame);
  }
};
template <>
struct Schema<PanoramaResultView> : Schema<PanoramaResult> {};

// ---------------------------------------------------------------------------
// Control / diagnostics
// ---------------------------------------------------------------------------

struct ErrorReply {
  std::uint16_t code = 0;  ///< StatusCode as integer.
  std::string message;

  friend bool operator==(const ErrorReply&, const ErrorReply&) = default;
};

template <>
struct Schema<ErrorReply> {
  static constexpr MessageType kType = MessageType::kError;
  static auto Fields(auto& m, auto&& f) { return f(m.code, m.message); }
};

// ---------------------------------------------------------------------------
// Edge cooperation
// ---------------------------------------------------------------------------

/// Edge -> peer edge: "do you have a result for this descriptor?"
struct PeerLookupRequest {
  FeatureDescriptor descriptor;
  /// The result message type the payload decodes as (kRecognitionResult,
  /// kRenderResult or kPanoramaResult).
  MessageType reply_type = MessageType::kRecognitionResult;

  friend bool operator==(const PeerLookupRequest&,
                         const PeerLookupRequest&) = default;
};

template <>
struct Schema<PeerLookupRequest> {
  static constexpr MessageType kType = MessageType::kPeerLookupRequest;
  static auto Fields(auto& m, auto&& f) {
    return f(m.descriptor, m.reply_type);
  }
};

/// Peer edge -> edge: cached payload if found. A peer never forwards to
/// the cloud on the querier's behalf — cooperation is probe-only, so a
/// slow peer can only ever add one LAN round trip, never a WAN one.
struct PeerLookupReply {
  bool found = false;
  MessageType reply_type = MessageType::kRecognitionResult;
  ByteVec payload;  ///< Result message body; empty when !found.

  friend bool operator==(const PeerLookupReply&, const PeerLookupReply&) = default;
};

/// Borrowed-view twin of PeerLookupReply: `payload` points into the
/// decoded buffer, so the probing edge can adopt a peer's cached result
/// as a Frame slice instead of copying it twice (decode + insert).
struct PeerLookupReplyView {
  bool found = false;
  MessageType reply_type = MessageType::kRecognitionResult;
  std::span<const std::uint8_t> payload;
};

template <>
struct Schema<PeerLookupReply> {
  static constexpr MessageType kType = MessageType::kPeerLookupReply;
  using View = PeerLookupReplyView;
  static auto Fields(auto& m, auto&& f) {
    return f(m.found, m.reply_type, m.payload);
  }
  static Status Check(const auto& m) {
    return FirstViolation({{m.found == m.payload.empty(),
                            "found flag disagrees with payload"}});
  }
};
template <>
struct Schema<PeerLookupReplyView> : Schema<PeerLookupReply> {};

/// Edge -> peer edges: a compact, periodically gossiped digest of one
/// edge's cache content. Content-hash descriptors (render / panorama)
/// are summarized by a Bloom filter over their index keys; feature-vector
/// descriptors (recognition) by a per-task centroid sketch. Receivers use
/// it to send *directed* PeerLookupRequests to the most likely holder
/// instead of broadcasting to the whole cluster.
struct SummaryUpdate {
  std::uint32_t edge_id = 0;
  /// Monotonic per-edge version; receivers drop stale updates.
  std::uint64_t version = 0;
  /// Bloom filter over FeatureDescriptor::IndexKey() of hash-keyed
  /// entries: `bloom_hashes` probe positions per key into the
  /// `bloom_bits` bit array (LSB-first within each byte).
  std::uint32_t bloom_hashes = 0;
  std::uint64_t bloom_inserted = 0;  ///< Keys inserted (FP-rate estimate).
  ByteVec bloom_bits;
  /// Coarse per-task sketch of vector-keyed entries: entry count and the
  /// (unnormalized) mean descriptor vector. One slot per TaskKind, in
  /// enum order; empty slots have count 0 and an empty centroid.
  struct TaskCentroid {
    std::uint32_t count = 0;
    std::vector<float> centroid;
    friend bool operator==(const TaskCentroid&, const TaskCentroid&) = default;
  };
  std::array<TaskCentroid, 3> centroids;

  friend bool operator==(const SummaryUpdate&, const SummaryUpdate&) = default;
};

template <>
struct Schema<SummaryUpdate::TaskCentroid> {
  static auto Fields(auto& m, auto&& f) { return f(m.count, m.centroid); }
  static Status Check(const auto& m) {
    return FirstViolation(
        {{m.count == 0 && !m.centroid.empty(), "centroid without entries"}});
  }
};

template <>
struct Schema<SummaryUpdate> {
  static constexpr MessageType kType = MessageType::kSummaryUpdate;
  static auto Fields(auto& m, auto&& f) {
    return f(m.edge_id, m.version, m.bloom_hashes, m.bloom_inserted,
             m.bloom_bits, m.centroids);
  }
};

/// Edge -> peer edges: the incremental form of SummaryUpdate. Where a
/// full summary re-ships the whole Bloom bit array every time the cache
/// mutated, a delta carries only the content-hash IndexKeys inserted
/// since `base_version` (Bloom insertion is an order-independent OR, so
/// a receiver holding exactly `base_version` reproduces the sender's
/// fresh bit array byte-for-byte) plus the replacement per-task centroid
/// sketches, which are small enough to always send whole. Deltas never
/// encode erasures: removing a key cannot be expressed on shared Bloom
/// bits, so any erase since the base forces the sender back to a full
/// kSummaryUpdate. Leading fields share SummaryUpdate's fixed layout
/// (u32 edge_id, u64 version) so the stale-drop peek works on both.
struct SummaryDeltaUpdate {
  std::uint32_t edge_id = 0;
  /// Version after applying this delta (monotonic per edge).
  std::uint64_t version = 0;
  /// Version the receiver must currently hold for the delta to apply;
  /// anything else is dropped (a later full resend resynchronizes).
  std::uint64_t base_version = 0;
  /// Absolute Bloom key count after apply — lets the receiver verify the
  /// delta composes before mutating its copy.
  std::uint64_t bloom_inserted = 0;
  /// FeatureDescriptor::IndexKey() of content-hash entries inserted
  /// since the base version.
  std::vector<std::uint64_t> keys_inserted;
  /// Replacement sketches (absolute, not incremental); layout matches
  /// SummaryUpdate::centroids.
  std::array<SummaryUpdate::TaskCentroid, 3> centroids;

  friend bool operator==(const SummaryDeltaUpdate&,
                         const SummaryDeltaUpdate&) = default;
};

template <>
struct Schema<SummaryDeltaUpdate> {
  static constexpr MessageType kType = MessageType::kSummaryDeltaUpdate;
  static auto Fields(auto& m, auto&& f) {
    return f(m.edge_id, m.version, m.base_version, m.bloom_inserted,
             m.keys_inserted, m.centroids);
  }
  static Status Check(const auto& m) {
    return FirstViolation(
        {{m.version <= m.base_version, "delta version not after its base"},
         {m.bloom_inserted < m.keys_inserted.size(),
          "delta key count exceeds absolute bloom count"}});
  }
};

/// Source-routed edge-to-edge wrapper. Federation topologies need not be
/// full meshes; a frame for a non-adjacent venue is wrapped in a relay
/// and forwarded hop by hop along the precomputed shortest path. `ttl`
/// is the number of *additional* forwards allowed after the first hop —
/// an intermediate edge drops the frame when it reaches 0.
struct FederatedRelay {
  std::uint32_t src_edge = 0;
  std::uint32_t dest_edge = 0;
  std::uint8_t ttl = 0;
  ByteVec inner;  ///< A complete encoded envelope for dest_edge.

  friend bool operator==(const FederatedRelay&, const FederatedRelay&) = default;
};

/// Borrowed twin of FederatedRelay: wraps an already-encoded envelope
/// (`inner`) with one copy of it. Relay hops read relay frames in place
/// (PeekRelayFrame), so the owning decode stays a plain one-buffer read.
struct FederatedRelayView {
  std::uint32_t src_edge = 0;
  std::uint32_t dest_edge = 0;
  std::uint8_t ttl = 0;
  std::span<const std::uint8_t> inner;
};

template <>
struct Schema<FederatedRelay> {
  static constexpr MessageType kType = MessageType::kFederatedRelay;
  static auto Fields(auto& m, auto&& f) {
    return f(m.src_edge, m.dest_edge, m.ttl, m.inner);
  }
  static Status Check(const auto& m) {
    return FirstViolation({{m.src_edge == m.dest_edge, "relay to self"}});
  }
};
template <>
struct Schema<FederatedRelayView> : Schema<FederatedRelay> {};

/// Edge -> peer edge: cumulative summary acknowledgement. "I (acker)
/// currently hold subject_edge's summary at `version`." Piggybacked on
/// PeerLookup traffic when the transport is lossy; versions only ever
/// increase, so the message is idempotent and safe to duplicate or
/// reorder. version 0 means "no summary held" (a nack for everything),
/// which is what a rebooted edge reports until the first full summary
/// lands.
struct SummaryAck {
  std::uint32_t acker_edge = 0;    ///< Edge sending the ack.
  std::uint32_t subject_edge = 0;  ///< Edge whose summary is acknowledged.
  std::uint64_t version = 0;       ///< Highest applied summary version.

  friend bool operator==(const SummaryAck&, const SummaryAck&) = default;
};

template <>
struct Schema<SummaryAck> {
  static constexpr MessageType kType = MessageType::kSummaryAck;
  static auto Fields(auto& m, auto&& f) {
    return f(m.acker_edge, m.subject_edge, m.version);
  }
  static Status Check(const auto& m) {
    return FirstViolation(
        {{m.acker_edge == m.subject_edge, "ack of own summary"}});
  }
};

/// Region head -> all other venues: the two-tier federation digest. The
/// head unions its members' Bloom filters (equal geometry across the
/// cluster, so union = bitwise OR) and merges their per-task centroid
/// sketches into one region-level summary, plus a member-level hint
/// (each member's edge id and advertised key count) so receivers can
/// weight probe routing without a round trip to the head. Leading
/// fields are fixed-width (u32 region, u32 head, u64 version) so a
/// stale-drop peek works without a full decode.
struct RegionDigestUpdate {
  std::uint32_t region_id = 0;
  std::uint32_t head_edge = 0;  ///< Edge that built this digest.
  /// Monotonic digest version. A promoted successor head resumes at
  /// (last version it saw from the old head) + 1, so receivers accept
  /// the succession by plain version comparison; a lower-ranked head
  /// reasserting after recovery wins by rank regardless of version.
  std::uint64_t version = 0;
  /// Union of member Bloom filters (same geometry as SummaryUpdate).
  std::uint32_t bloom_hashes = 0;
  std::uint64_t bloom_inserted = 0;  ///< Sum of member key counts.
  ByteVec bloom_bits;
  /// Merged per-task sketches: count = sum, centroid = weighted mean.
  std::array<SummaryUpdate::TaskCentroid, 3> centroids;
  /// Member hint: edge ids of the summaries merged into this digest and
  /// each member's advertised hash-key count, index-aligned.
  std::vector<std::uint32_t> member_edges;
  std::vector<std::uint64_t> member_keys;

  friend bool operator==(const RegionDigestUpdate&,
                         const RegionDigestUpdate&) = default;
};

template <>
struct Schema<RegionDigestUpdate> {
  static constexpr MessageType kType = MessageType::kRegionDigestUpdate;
  static auto Fields(auto& m, auto&& f) {
    return f(m.region_id, m.head_edge, m.version, m.bloom_hashes,
             m.bloom_inserted, m.bloom_bits, m.centroids,
             MemberHints{m.member_edges, m.member_keys});
  }
  static Status Check(const auto& m) {
    std::uint64_t hinted_keys = 0;  // Wraps like the u64 it is.
    for (const std::uint64_t keys : m.member_keys) hinted_keys += keys;
    return FirstViolation({{hinted_keys > m.bloom_inserted,
                            "member hint keys exceed digest bloom count"}});
  }
};

/// One fragment of a message that exceeded the datagram MTU. The
/// envelope request id field carries the sender's per-directed-pair
/// sequence number (all chunks of one message share it); links are FIFO,
/// so the receiver reassembles in order and drops the partial message on
/// any gap — a lost chunk loses the whole message, and the request-level
/// retry above re-sends it under a fresh sequence number.
struct DatagramChunk {
  std::uint16_t chunk_index = 0;  ///< 0-based position in the message.
  std::uint16_t chunk_count = 0;  ///< Total chunks (>= 1).
  ByteVec data;                   ///< This fragment's bytes.

  friend bool operator==(const DatagramChunk&, const DatagramChunk&) = default;
};

/// Borrowed-view twin of DatagramChunk: `data` points into the decoded
/// buffer so reassembly appends straight from the delivered frame.
struct DatagramChunkView {
  std::uint16_t chunk_index = 0;
  std::uint16_t chunk_count = 0;
  std::span<const std::uint8_t> data;
};

template <>
struct Schema<DatagramChunk> {
  static constexpr MessageType kType = MessageType::kDatagramChunk;
  using View = DatagramChunkView;
  static auto Fields(auto& m, auto&& f) {
    return f(m.chunk_index, m.chunk_count, m.data);
  }
  static Status Check(const auto& m) {
    return FirstViolation(
        {{m.chunk_count == 0, "chunk count must be >= 1"},
         {m.chunk_index >= m.chunk_count, "chunk index out of range"},
         {m.data.empty(), "empty chunk"}});
  }
};
template <>
struct Schema<DatagramChunkView> : Schema<DatagramChunk> {};

/// Reads the OffloadMode byte of an encoded request payload
/// (Recognition/Render/PanoramaRequest) at its fixed offset without
/// decoding the rest — the edge routes Origin-mode requests (which may
/// carry a multi-hundred-KB camera image) to the cloud untouched, so a
/// full owning decode just to read one byte is pure copy waste. All
/// three request encoders lead with 16 bytes of fixed-width ids, then
/// the mode byte (pinned by a proto test). Fails with kDataLoss on a
/// wrong message type, short payload, or invalid mode byte.
Result<OffloadMode> PeekRequestOffloadMode(
    MessageType type, std::span<const std::uint8_t> payload);

/// Overwrites the ResultSource byte of an encoded result payload
/// (Recognition/Render/PanoramaResult) in place, without decoding or
/// copying the (possibly multi-MB) annotation/model/frame blob. Returns
/// false if `type` is not a result type or the payload is too short.
/// For payloads produced by our own encoders this is byte-identical to
/// decode → set source → re-encode (covered by a proto test).
bool PatchResultSourceInPlace(MessageType type,
                              std::span<std::uint8_t> payload,
                              ResultSource source);

/// Byte offset of the ResultSource field inside an encoded result
/// payload (the field PatchResultSourceInPlace overwrites). Fails with
/// kDataLoss for non-result types or short payloads.
Result<std::size_t> ResultSourceOffset(MessageType type,
                                       std::span<const std::uint8_t> payload);

/// Byte offset of the result blob's body (annotation / model bytes /
/// panorama frame) inside an encoded result payload: just past the u32
/// length prefix of the payload's final field. Scatter-gather senders
/// split a cached payload here — every field up to and including the
/// prefix goes into a small rewritten head, the (possibly multi-MB) body
/// is shared by reference and decoded in place as the gathered tail.
/// Fails with kDataLoss for non-result types, short payloads, or a
/// prefix that disagrees with the bytes after it.
Result<std::size_t> ResultBlobOffset(MessageType type,
                                     std::span<const std::uint8_t> payload);

struct CacheStatsReply {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  std::uint64_t bytes_used = 0;
  std::uint64_t bytes_capacity = 0;

  friend bool operator==(const CacheStatsReply&, const CacheStatsReply&) = default;
};

template <>
struct Schema<CacheStatsReply> {
  static constexpr MessageType kType = MessageType::kCacheStatsReply;
  static auto Fields(auto& m, auto&& f) {
    return f(m.hits, m.misses, m.insertions, m.evictions, m.bytes_used,
             m.bytes_capacity);
  }
};

/// The 16 payload messages: every MessageType except the empty-payload
/// kPing, kPong and kCacheStatsRequest (a proto test enforces this).
using WireMessages =
    TypeList<RecognitionRequest, RecognitionResult, RenderRequest,
             RenderResult, PanoramaRequest, PanoramaResult, ErrorReply,
             PeerLookupRequest, PeerLookupReply, SummaryUpdate,
             SummaryDeltaUpdate, FederatedRelay, SummaryAck,
             RegionDigestUpdate, DatagramChunk, CacheStatsReply>;
/// Their borrowed twins.
using WireViews =
    TypeList<RecognitionResultView, RenderResultView, PanoramaResultView,
             PeerLookupReplyView, FederatedRelayView, DatagramChunkView>;

}  // namespace coic::proto
