#include "proto/messages.h"

namespace coic::proto {

Result<OffloadMode> PeekRequestOffloadMode(
    MessageType type, std::span<const std::uint8_t> payload) {
  // RecognitionRequest: u32 user, u32 app, u64 frame_id, mode.
  // RenderRequest:      u32 user, u32 app, u64 model_id, mode.
  // PanoramaRequest:    u32 user, u64 video_id, u32 frame_index, mode.
  constexpr std::size_t kModeOffset = 16;
  if (type != MessageType::kRecognitionRequest &&
      type != MessageType::kRenderRequest &&
      type != MessageType::kPanoramaRequest) {
    return Status(StatusCode::kDataLoss, "not a request payload");
  }
  if (payload.size() <= kModeOffset) {
    return Status(StatusCode::kDataLoss, "request payload truncated");
  }
  const auto mode = static_cast<OffloadMode>(payload[kModeOffset]);
  if (!InWireRange(mode)) {
    return Status(StatusCode::kDataLoss, "bad OffloadMode");
  }
  return mode;
}

std::string_view MessageTypeName(MessageType t) noexcept {
  switch (t) {
    case MessageType::kPing: return "Ping";
    case MessageType::kPong: return "Pong";
    case MessageType::kError: return "Error";
    case MessageType::kRecognitionRequest: return "RecognitionRequest";
    case MessageType::kRecognitionResult: return "RecognitionResult";
    case MessageType::kRenderRequest: return "RenderRequest";
    case MessageType::kRenderResult: return "RenderResult";
    case MessageType::kPanoramaRequest: return "PanoramaRequest";
    case MessageType::kPanoramaResult: return "PanoramaResult";
    case MessageType::kCacheStatsRequest: return "CacheStatsRequest";
    case MessageType::kCacheStatsReply: return "CacheStatsReply";
    case MessageType::kPeerLookupRequest: return "PeerLookupRequest";
    case MessageType::kPeerLookupReply: return "PeerLookupReply";
    case MessageType::kSummaryUpdate: return "SummaryUpdate";
    case MessageType::kFederatedRelay: return "FederatedRelay";
    case MessageType::kSummaryDeltaUpdate: return "SummaryDeltaUpdate";
    case MessageType::kSummaryAck: return "SummaryAck";
    case MessageType::kDatagramChunk: return "DatagramChunk";
    case MessageType::kRegionDigestUpdate: return "RegionDigestUpdate";
  }
  return "Unknown";
}

// -------------------------- PatchResultSourceInPlace -----------------------

Result<std::size_t> ResultSourceOffset(MessageType type,
                                       std::span<const std::uint8_t> payload) {
  // Offsets follow the field list of each result type (Schema); the
  // source byte always precedes the bulk blob, so computing the offset
  // never walks the large tail.
  std::size_t offset = 0;
  switch (type) {
    case MessageType::kRecognitionResult: {
      // frame_id(8) + label(4 + len) + confidence(4), then source.
      if (payload.size() < 12) {
        return Status(StatusCode::kDataLoss, "result payload too short");
      }
      std::uint32_t label_len = 0;
      std::memcpy(&label_len, payload.data() + 8, 4);
      offset = static_cast<std::size_t>(8) + 4 + label_len + 4;
      break;
    }
    case MessageType::kRenderResult:
      offset = 8;  // model_id(8), then source.
      break;
    case MessageType::kPanoramaResult:
      offset = 12;  // video_id(8) + frame_index(4), then source.
      break;
    default:
      return Status(StatusCode::kDataLoss, "not a result message type");
  }
  if (offset >= payload.size()) {
    return Status(StatusCode::kDataLoss, "result payload too short");
  }
  return offset;
}

Result<std::size_t> ResultBlobOffset(MessageType type,
                                     std::span<const std::uint8_t> payload) {
  // Every result type encodes source(1) right before its fixed-width
  // tail fields (panorama: width(2) + height(2)), then the blob prefix.
  const auto source = ResultSourceOffset(type, payload);
  if (!source.ok()) return source.status();
  const std::size_t prefix =
      source.value() + 1 + (type == MessageType::kPanoramaResult ? 4 : 0);
  if (prefix + 4 > payload.size()) {
    return Status(StatusCode::kDataLoss, "result payload too short");
  }
  std::uint32_t len = 0;
  std::memcpy(&len, payload.data() + prefix, 4);
  if (len != payload.size() - prefix - 4) {
    return Status(StatusCode::kDataLoss, "result blob length mismatch");
  }
  return prefix + 4;
}

bool PatchResultSourceInPlace(MessageType type,
                              std::span<std::uint8_t> payload,
                              ResultSource source) {
  const auto offset = ResultSourceOffset(type, payload);
  if (!offset.ok()) return false;
  payload[offset.value()] = static_cast<std::uint8_t>(source);
  return true;
}

}  // namespace coic::proto
