#include "render/panorama.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "common/status.h"

namespace coic::render {
namespace {

constexpr double kPi = 3.14159265358979323846;

}  // namespace

Panorama Panorama::Generate(std::uint64_t video_id, std::uint32_t frame_index,
                            std::uint16_t width, std::uint16_t height) {
  COIC_CHECK_MSG(width >= 16 && height >= 8, "panorama raster too small");
  std::vector<float> pixels(static_cast<std::size_t>(width) * height);
  // A slowly-evolving procedural sky: harmonics keyed by video identity,
  // phase-advanced per frame so consecutive frames differ smoothly.
  std::uint64_t s = video_id * 0x9E3779B97F4A7C15ULL + 0x5EED;
  const double k1 = 1.0 + static_cast<double>(SplitMix64(s) % 5);
  const double k2 = 2.0 + static_cast<double>(SplitMix64(s) % 7);
  const double phase = 0.05 * frame_index;
  // Column-only and row-only terms are evaluated once per column / row;
  // each is the same expression the per-pixel formula would compute, so
  // frames are bit-identical to evaluating everything per pixel.
  std::vector<double> lon(width), lon_wave(width);
  for (std::uint16_t x = 0; x < width; ++x) {
    lon[x] = 2 * kPi * (static_cast<double>(x) + 0.5) / width - kPi;
    lon_wave[x] = std::sin(k1 * lon[x] + phase);
  }
  for (std::uint16_t y = 0; y < height; ++y) {
    const double lat = kPi * (static_cast<double>(y) + 0.5) / height - kPi / 2;
    const double lat_wave = std::cos(k2 * lat);
    const double band = std::cos((k1 + k2) * lat - phase);
    const double cos_lat = std::cos(lat);
    float* const out = pixels.data() + static_cast<std::size_t>(y) * width;
    for (std::uint16_t x = 0; x < width; ++x) {
      const double v = 0.5 + 0.25 * lon_wave[x] * lat_wave + 0.15 * band +
                 0.10 * std::sin(3.0 * lon[x] * cos_lat);
      out[x] = static_cast<float>(std::clamp(v, 0.0, 1.0));
    }
  }
  return Panorama(video_id, frame_index, width, height, std::move(pixels));
}

float Panorama::at(std::int32_t x, std::int32_t y) const noexcept {
  const std::int32_t w = width_;
  std::int32_t wrapped_x = x % w;
  if (wrapped_x < 0) wrapped_x += w;
  const std::int32_t clamped_y =
      std::clamp<std::int32_t>(y, 0, static_cast<std::int32_t>(height_) - 1);
  return pixels_[static_cast<std::size_t>(clamped_y) * width_ + wrapped_x];
}

ByteVec Panorama::Encode() const {
  ByteWriter w(EncodedSize());
  EncodeInto(w);
  return w.TakeBytes();
}

void Panorama::EncodeInto(ByteWriter& w) const {
  w.WriteU64(video_id_);
  w.WriteU32(frame_index_);
  w.WriteU16(width_);
  w.WriteU16(height_);
  std::transform(pixels_.begin(), pixels_.end(),
                 w.Extend(pixels_.size()).begin(), [](float p) {
                   return static_cast<std::uint8_t>(
                       std::clamp(p * 255.0f, 0.0f, 255.0f));
                 });
}

Digest128 Panorama::ContentHash() const {
  const ByteVec bytes = Encode();
  return ContentDigest(bytes);
}

ViewportCropper::ViewportCropper(std::uint16_t out_width, std::uint16_t out_height)
    : out_width_(out_width), out_height_(out_height) {
  COIC_CHECK(out_width > 0 && out_height > 0);
}

CroppedView ViewportCropper::Crop(const Panorama& pano,
                                  const proto::Viewport& viewport) const {
  COIC_CHECK_MSG(viewport.fov_deg > 1 && viewport.fov_deg < 170,
                 "viewport FOV out of range");
  CroppedView view;
  view.width = out_width_;
  view.height = out_height_;
  view.pixels.resize(static_cast<std::size_t>(out_width_) * out_height_);

  const double yaw = viewport.yaw_deg * kPi / 180.0;
  const double pitch = viewport.pitch_deg * kPi / 180.0;
  const double half_fov = viewport.fov_deg * kPi / 360.0;
  const double plane_half_w = std::tan(half_fov);
  const double plane_half_h =
      plane_half_w * static_cast<double>(out_height_) / out_width_;

  const double cy = std::cos(yaw), sy = std::sin(yaw);
  const double cp = std::cos(pitch), sp = std::sin(pitch);

  for (std::uint16_t py = 0; py < out_height_; ++py) {
    const double v = (2.0 * (py + 0.5) / out_height_ - 1.0) * plane_half_h;
    for (std::uint16_t px = 0; px < out_width_; ++px) {
      const double u = (2.0 * (px + 0.5) / out_width_ - 1.0) * plane_half_w;
      // Ray in camera space: (u, -v, 1); rotate by pitch then yaw.
      double rx = u, ry = -v, rz = 1.0;
      const double ry2 = ry * cp - rz * sp;
      const double rz2 = ry * sp + rz * cp;
      ry = ry2; rz = rz2;
      const double rx3 = rx * cy + rz * sy;
      const double rz3 = -rx * sy + rz * cy;
      const double lon = std::atan2(rx3, rz3);
      const double lat = std::atan2(ry, std::sqrt(rx3 * rx3 + rz3 * rz3));
      // Map back to equirectangular pixel space (bilinear sample).
      const double fx = (lon + kPi) / (2 * kPi) * pano.width() - 0.5;
      const double fy = (lat + kPi / 2) / kPi * pano.height() - 0.5;
      const auto x0 = static_cast<std::int32_t>(std::floor(fx));
      const auto y0 = static_cast<std::int32_t>(std::floor(fy));
      const double ax = fx - x0;
      const double ay = fy - y0;
      const double sample =
          (1 - ax) * (1 - ay) * pano.at(x0, y0) + ax * (1 - ay) * pano.at(x0 + 1, y0) +
          (1 - ax) * ay * pano.at(x0, y0 + 1) + ax * ay * pano.at(x0 + 1, y0 + 1);
      view.pixels[static_cast<std::size_t>(py) * out_width_ + px] =
          static_cast<float>(sample);
    }
  }
  return view;
}

}  // namespace coic::render
