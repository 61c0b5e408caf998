// Envelope framing.
//
// Every CoIC message travels inside a fixed-header envelope:
//
//   offset  size  field
//   0       4     magic "CoIC" (0x43 0x6F 0x49 0x43, read as LE u32)
//   4       2     protocol version (currently 1)
//   6       1     MessageType
//   7       1     flags (reserved, must be 0)
//   8       8     request id (client-chosen; echoed in the reply)
//   16      4     payload length N
//   20      N     payload (message-specific encoding)
//
// The same framing is used verbatim by the in-process simulator and the
// real TCP transport, so a simulated exchange and a socket exchange are
// byte-identical.
#pragma once

#include <cstdint>
#include <span>
#include <tuple>
#include <utility>

#include "common/bytes.h"
#include "common/frame.h"
#include "proto/messages.h"

namespace coic::proto {

inline constexpr std::uint32_t kEnvelopeMagic = 0x43496F43;  // "CoIC" LE
inline constexpr std::uint16_t kProtocolVersion = 1;
inline constexpr std::size_t kEnvelopeHeaderSize = 20;
/// Upper bound on payload size accepted by decoders: a hostile length
/// field must not drive allocation. 64 MiB comfortably covers 8K
/// panoramas and the largest evaluated model (15053 KB).
inline constexpr std::uint32_t kMaxPayloadBytes = 64u << 20;

/// A decoded envelope; payload is an owned copy so the caller may retire
/// the input buffer.
struct Envelope {
  MessageType type = MessageType::kPing;
  std::uint64_t request_id = 0;
  ByteVec payload;

  friend bool operator==(const Envelope&, const Envelope&) = default;
};

/// Borrowed-view envelope: `payload` points into the input buffer, so it
/// is valid only while that buffer (typically a refcounted Frame) lives.
/// This is the allocation-free decode the frame hot paths use; Envelope
/// remains for callers that need the payload to outlive the frame.
///
/// A gathered frame arrives as two segments; then `payload` is the part
/// inside the first one and `tail` is the body of the message's final
/// blob (empty for a single-buffer frame). Decode it with
/// DecodePayloadAs, which hands both to the payload decoder.
struct EnvelopeView {
  MessageType type = MessageType::kPing;
  std::uint64_t request_id = 0;
  std::span<const std::uint8_t> payload;
  std::span<const std::uint8_t> tail;
};

/// Serializes header + payload into one buffer.
ByteVec EncodeEnvelope(MessageType type, std::uint64_t request_id,
                       std::span<const std::uint8_t> payload);

/// Appends the 20-byte envelope header to `w`. Callers that do not know
/// the payload length yet write 0 and PatchU32 offset 16 afterwards.
void AppendEnvelopeHeader(ByteWriter& w, MessageType type,
                          std::uint64_t request_id, std::uint32_t payload_len);

/// EncodeMessage writing into caller-provided storage: `storage`'s heap
/// capacity is reused (cleared first), so an arena-recycled buffer makes
/// the encode allocation-free once warm. Returns the same bytes
/// EncodeMessage would.
template <Described Message>
ByteVec EncodeMessageInto(ByteVec&& storage, MessageType type,
                          std::uint64_t request_id, const Message& msg) {
  const Bytes size = WireSize(msg);
  COIC_CHECK_MSG(size <= kMaxPayloadBytes, "payload too large");
  storage.clear();
  storage.reserve(kEnvelopeHeaderSize + size);
  ByteWriter w(std::move(storage));
  AppendEnvelopeHeader(w, type, request_id, static_cast<std::uint32_t>(size));
  EncodePayload(w, msg);
  return w.TakeBytes();
}

/// Encodes `msg` (any described message or view, see codec.h) in an
/// envelope: header and payload written into one buffer of exactly the
/// frame's size. A view encodes its borrowed spans straight from where
/// they live, so wrapping a cached payload or a slice copies it once.
template <Described Message>
ByteVec EncodeMessage(MessageType type, std::uint64_t request_id,
                      const Message& msg) {
  return EncodeMessageInto(ByteVec(), type, request_id, msg);
}

/// The head of a gathered frame whose tail is the body of `msg`'s final
/// blob field: the envelope header (its payload length counts the tail)
/// and every field of `msg` up to and including that blob's u32 length
/// prefix. Head followed by the blob body is byte-identical to
/// EncodeMessage(type, request_id, msg). `storage`'s capacity is reused
/// as in EncodeMessageInto.
template <Described Message>
ByteVec EncodeGatherHeadInto(ByteVec&& storage, MessageType type,
                             std::uint64_t request_id, const Message& msg) {
  const Bytes size = WireSize(msg);
  COIC_CHECK_MSG(size <= kMaxPayloadBytes, "payload too large");
  return Schema<Message>::Fields(msg, [&](const auto&... fields) {
    const auto all = std::forward_as_tuple(fields...);
    constexpr std::size_t kLast = sizeof...(fields) - 1;
    const std::span<const std::uint8_t> blob = std::get<kLast>(all);
    storage.clear();
    storage.reserve(kEnvelopeHeaderSize + size - blob.size());
    ByteWriter w(std::move(storage));
    AppendEnvelopeHeader(w, type, request_id, static_cast<std::uint32_t>(size));
    [&]<std::size_t... I>(std::index_sequence<I...>) {
      (codec::WriteField(w, std::get<I>(all)), ...);
    }(std::make_index_sequence<kLast>{});
    w.WriteU32(static_cast<std::uint32_t>(blob.size()));
    return w.TakeBytes();
  });
}

/// EncodeGatherHeadInto fresh storage.
template <Described Message>
ByteVec EncodeGatherHead(MessageType type, std::uint64_t request_id,
                         const Message& msg) {
  return EncodeGatherHeadInto(ByteVec(), type, request_id, msg);
}

/// Parses a full envelope from `data` without copying the payload (see
/// EnvelopeView for the lifetime rule). Fails with kDataLoss on bad
/// magic, unsupported version, truncated header/payload or oversized
/// length — exactly where DecodeEnvelope does.
Result<EnvelopeView> DecodeEnvelopeView(std::span<const std::uint8_t> data);

/// Gathered form: the frame is `head` followed by `tail`, where `tail` is
/// the body of the message's final blob and is never copied. The header's
/// payload length must equal the payload bytes in `head` plus
/// tail.size(); the payload decoder then reads every field from `head`
/// and may take `tail` only as the final blob (see ByteReader). An empty
/// `tail` decodes exactly like the one-span form.
///
/// One more case: a `head` that is exactly the envelope header carries
/// no payload bytes, and then `tail` is the whole payload (a memoized
/// result sent by reference). It decodes as `payload = tail` with an
/// empty view `tail`; the length check is the same.
Result<EnvelopeView> DecodeEnvelopeView(std::span<const std::uint8_t> head,
                                        std::span<const std::uint8_t> tail);

/// Owning form of DecodeEnvelopeView: identical validation, then the
/// payload is copied out so the caller may retire the input buffer.
Result<Envelope> DecodeEnvelope(std::span<const std::uint8_t> data);

/// Request id from an encoded envelope header (bytes 8..16 LE), without
/// validating the rest. Precondition: frame holds at least a header.
inline std::uint64_t PeekRequestId(
    std::span<const std::uint8_t> frame) noexcept {
  COIC_CHECK(frame.size() >= kEnvelopeHeaderSize);
  std::uint64_t id = 0;
  std::memcpy(&id, frame.data() + 8, 8);
  return id;
}

/// Message type from an encoded envelope header (byte 6) — enough to
/// dispatch control frames without a full decode. Precondition: frame
/// holds at least a header.
inline MessageType PeekMessageType(
    std::span<const std::uint8_t> frame) noexcept {
  COIC_CHECK(frame.size() >= kEnvelopeHeaderSize);
  return static_cast<MessageType>(frame[6]);
}

/// Incremental framing helper for stream transports: given the bytes
/// accumulated so far, returns the total frame size (header + payload) if
/// the header is complete, 0 if more header bytes are needed, or an error
/// if the header is invalid.
Result<std::size_t> PeekFrameSize(std::span<const std::uint8_t> data);

// ---------------------------------------------------------------------------
// FederatedRelay fast path
// ---------------------------------------------------------------------------
//
// Relay forwarding is the federation hot path: an intermediate venue only
// needs to read dest/ttl and decrement ttl, so a full decode→re-encode
// (which copies the inner envelope twice) is pure waste. These helpers
// operate on the encoded frame in place. The wire layout after the
// 20-byte envelope header is fixed by FederatedRelay's field list:
//
//   offset  size  field
//   20      4     src_edge
//   24      4     dest_edge
//   28      1     ttl
//   29      4     inner length N
//   33      N     inner (a complete encoded envelope)

/// Borrowed view of an encoded kFederatedRelay frame.
struct RelayFrameView {
  std::uint32_t src_edge = 0;
  std::uint32_t dest_edge = 0;
  std::uint8_t ttl = 0;
  /// Offset of the inner envelope within the frame (= 33).
  std::size_t inner_offset = 0;
  std::size_t inner_size = 0;
};

/// Validates the envelope header and relay payload structure without
/// copying; fails with kDataLoss exactly where DecodeEnvelope +
/// DecodePayloadAs<FederatedRelay> would.
Result<RelayFrameView> PeekRelayFrame(std::span<const std::uint8_t> frame);

/// Decrements the ttl byte of an encoded relay frame. While the frame's
/// buffer is uniquely held — the normal case at an intermediate relay
/// hop, where the link just delivered the only reference — the patch
/// lands in place with zero copies; a shared buffer copies-on-write
/// first (counted in frame_stats()), so other holders never observe the
/// mutation. The result is byte-identical to decode → --ttl → re-encode
/// (covered by a proto test). Precondition: PeekRelayFrame succeeded,
/// ttl > 0.
void DecrementRelayTtl(Frame& frame);

/// The inner envelope of a relay frame as a slice sharing the wrapper's
/// buffer (zero copy, replaces the old memmove-based unwrap).
/// Precondition: `view` was peeked from `frame`.
[[nodiscard]] Frame UnwrapRelay(const Frame& frame, const RelayFrameView& view);

/// Leading fields of an encoded kSummaryUpdate or kSummaryDeltaUpdate
/// frame, read at their fixed offsets without decoding the bloom bits /
/// key list and centroids. Lets a receiver drop a stale or duplicate
/// summary before paying the full decode. Fails with kDataLoss if the
/// frame is not a summary(-delta) envelope or is too short. (A layout
/// test pins these offsets to the field order both types share.)
struct SummaryFrameHeader {
  std::uint32_t edge_id = 0;
  std::uint64_t version = 0;
};
Result<SummaryFrameHeader> PeekSummaryFrame(
    std::span<const std::uint8_t> frame);

/// Delta-specific peek: additionally reads `base_version` so a receiver
/// whose table is not at exactly that version can drop the frame before
/// decoding the key list. kSummaryDeltaUpdate frames only.
struct SummaryDeltaFrameHeader {
  std::uint32_t edge_id = 0;
  std::uint64_t version = 0;
  std::uint64_t base_version = 0;
};
Result<SummaryDeltaFrameHeader> PeekSummaryDeltaFrame(
    std::span<const std::uint8_t> frame);

/// Leading fields of an encoded kRegionDigestUpdate frame at their fixed
/// offsets (u32 region, u32 head, u64 version right after the envelope
/// header) — enough for the stale-drop / head-succession acceptance rule
/// without decoding the bloom union and member hints. Fails with
/// kDataLoss if the frame is not a region-digest envelope or too short.
struct RegionDigestFrameHeader {
  std::uint32_t region_id = 0;
  std::uint32_t head_edge = 0;
  std::uint64_t version = 0;
};
Result<RegionDigestFrameHeader> PeekRegionDigestFrame(
    std::span<const std::uint8_t> frame);

/// Decodes the payload of `env` as message type M, checking that the
/// envelope type tag matches `expected`. Works for owning Envelope and
/// borrowed EnvelopeView alike (M may itself be a *View type whose
/// fields borrow from the underlying buffer), gathered views included.
template <typename M, typename AnyEnvelope>
Result<M> DecodePayloadAs(const AnyEnvelope& env, MessageType expected) {
  if (env.type != expected) {
    return Status(StatusCode::kDataLoss, "unexpected message type");
  }
  ByteReader r = [&] {
    if constexpr (requires { env.tail; }) {
      return ByteReader(env.payload, env.tail);
    } else {
      return ByteReader(env.payload);
    }
  }();
  auto result = DecodePayload<M>(r);
  if (!result.ok()) return result.status();
  if (!r.AtEnd()) {
    return Status(StatusCode::kDataLoss, "trailing bytes after payload");
  }
  return result;
}

}  // namespace coic::proto
