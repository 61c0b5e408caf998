// Panoramic VR frames and viewport cropping.
//
// Paper §1.2: "current cloud-based VR applications leverage panoramic
// frames to create immersive experience. The server sends a panoramic
// frame to the client, and then the client crops the panorama to
// generate the final frame for display. Multiple users playing the same
// VR applications or watching the same VR video might use the same
// panorama." CoIC therefore caches panoramas on the edge keyed by
// content hash. This module provides the frame generator (the cloud
// renderer stand-in) and the client-side gnomonic viewport cropper.
#pragma once

#include <cstdint>
#include <vector>

#include "common/bytes.h"
#include "common/hash.h"
#include "common/units.h"
#include "proto/messages.h"

namespace coic::render {

/// An equirectangular panoramic frame: procedural luminance raster plus
/// the encoded byte size the wire would carry.
class Panorama {
 public:
  /// Renders frame `frame_index` of video `video_id`. Deterministic:
  /// every cloud node produces bit-identical frames, which is why edge
  /// caching of panoramas is sound.
  static Panorama Generate(std::uint64_t video_id, std::uint32_t frame_index,
                           std::uint16_t width = 512, std::uint16_t height = 256);

  [[nodiscard]] std::uint16_t width() const noexcept { return width_; }
  [[nodiscard]] std::uint16_t height() const noexcept { return height_; }
  [[nodiscard]] std::uint64_t video_id() const noexcept { return video_id_; }
  [[nodiscard]] std::uint32_t frame_index() const noexcept { return frame_index_; }

  /// Luminance at integer pixel (wraps horizontally, clamps vertically).
  [[nodiscard]] float at(std::int32_t x, std::int32_t y) const noexcept;

  /// Quantized pixels (the "encoded frame" the edge caches / ships).
  [[nodiscard]] ByteVec Encode() const;
  /// Appends Encode()'s bytes to `w` (no intermediate buffer).
  void EncodeInto(ByteWriter& w) const;
  /// Size of Encode()'s output: a 16-byte header plus one byte per pixel.
  [[nodiscard]] Bytes EncodedSize() const noexcept {
    return 16 + pixels_.size();
  }

  /// Content digest of the encoded frame — the CoIC cache key.
  [[nodiscard]] Digest128 ContentHash() const;

  /// Wire size of a production 4K-class panoramic frame. The procedural
  /// raster is small; pipelines use this constant for transfer math.
  static constexpr Bytes kEncodedWireSize = 2'400'000;

 private:
  Panorama(std::uint64_t video_id, std::uint32_t frame_index,
           std::uint16_t width, std::uint16_t height,
           std::vector<float> pixels) noexcept
      : video_id_(video_id), frame_index_(frame_index), width_(width),
        height_(height), pixels_(std::move(pixels)) {}

  std::uint64_t video_id_;
  std::uint32_t frame_index_;
  std::uint16_t width_;
  std::uint16_t height_;
  std::vector<float> pixels_;
};

/// A cropped per-eye display frame.
struct CroppedView {
  std::uint16_t width = 0;
  std::uint16_t height = 0;
  std::vector<float> pixels;
};

/// Gnomonic (rectilinear) projection of a viewport out of an
/// equirectangular panorama — the "client crops the panorama" step.
class ViewportCropper {
 public:
  ViewportCropper(std::uint16_t out_width, std::uint16_t out_height);

  [[nodiscard]] CroppedView Crop(const Panorama& pano,
                                 const proto::Viewport& viewport) const;

 private:
  std::uint16_t out_width_;
  std::uint16_t out_height_;
};

}  // namespace coic::render
