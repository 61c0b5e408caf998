#include "vision/image.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "common/status.h"

namespace coic::vision {
namespace {

constexpr double kPi = 3.14159265358979323846;

/// A scene is a fixed set of Gaussian blobs whose geometry is derived
/// from scene_id; the view parameters move the camera, not the blobs.
struct Blob {
  double cx, cy;     // canonical center in [-1, 1]^2
  double sigma;      // spread
  double amplitude;  // brightness
};

std::vector<Blob> BlobsForScene(std::uint64_t scene_id) {
  Rng rng(scene_id * 0x9E3779B97F4A7C15ULL + 0xC01C);
  const std::size_t count = 6 + rng.NextBelow(5);  // 6..10 blobs
  std::vector<Blob> blobs(count);
  for (auto& b : blobs) {
    b.cx = rng.NextDouble() * 1.4 - 0.7;
    b.cy = rng.NextDouble() * 1.4 - 0.7;
    b.sigma = 0.08 + rng.NextDouble() * 0.25;
    b.amplitude = 0.35 + rng.NextDouble() * 0.65;
  }
  return blobs;
}

std::uint64_t SceneTextureKey(std::uint64_t scene_id) noexcept {
  std::uint64_t s = scene_id ^ 0xA5A5A5A5DEADBEEFULL;
  return SplitMix64(s);
}

}  // namespace

SyntheticImage SyntheticImage::Generate(const SceneParams& params) {
  COIC_CHECK_MSG(params.width >= 8 && params.height >= 8,
                 "image raster too small");
  COIC_CHECK_MSG(params.distance > 0.05, "camera inside the object");
  const auto blobs = BlobsForScene(params.scene_id);

  const double theta = params.view_angle_deg * kPi / 180.0;
  const double cos_t = std::cos(theta);
  const double sin_t = std::sin(theta);
  const double zoom = 1.0 / params.distance;
  const std::uint32_t w = params.width;
  const std::uint32_t h = params.height;
  const std::size_t nb = blobs.size();

  // Pixel (px, py) in [-1, 1]^2 samples the scene at the inverse-rotated
  // point s = R(px, py) / zoom: rotating the camera by +theta is sampling
  // the scene rotated by -theta. The per-pixel model is
  //   sum_b amp_b exp(-|s - c_b|^2 / 2 sigma_b^2)
  //     + 0.05 sin(7 sx + a) cos(5 sy + b),
  // times the illumination, clamped to [0, 4]. R is orthogonal, so
  // |s - c|^2 = |p - u|^2 / zoom^2 with u = zoom R^T c, and each Gaussian
  // factors into a column term times a row term. Angle addition splits
  // the texture into four column and four row products. An image costs
  // B (W + H) exp and 4 (W + H) sin/cos calls instead of B W H and 2 W H;
  // pixels agree with the per-pixel formula to within a float ulp.
  //
  // One scratch buffer holds every table: per blob a column Gaussian
  // (nb x w), the four column texture products (4 x w), one row of blob
  // sums (w), and per blob its pixel-space centre, Gaussian scale and
  // current row weight (4 x nb). It is local, not cached across calls:
  // shard workers call Generate concurrently.
  std::vector<double> scratch((nb + 5) * w + 4 * nb);
  double* const gx = scratch.data();
  double* const tx = gx + nb * w;
  double* const row = tx + 4 * w;
  double* const ux = row + w;
  double* const uy = ux + nb;
  double* const inv_den = uy + nb;
  double* const wy = inv_den + nb;
  for (std::size_t i = 0; i < nb; ++i) {
    const Blob& b = blobs[i];
    ux[i] = zoom * (cos_t * b.cx - sin_t * b.cy);
    uy[i] = zoom * (sin_t * b.cx + cos_t * b.cy);
    inv_den[i] = 1.0 / (2 * b.sigma * b.sigma * zoom * zoom);
  }
  // Texture phases keyed by scene identity: the high-frequency term
  // distinguishes scenes whose blob layouts happen to be close.
  const std::uint64_t tex = SceneTextureKey(params.scene_id);
  const double tex_sin_phase = static_cast<double>(tex & 7);
  const double tex_cos_phase = static_cast<double>((tex >> 3) & 7);
  // 7 sx + a = 7 px cos/zoom + (7 py sin/zoom + a) and
  // 5 sy + b = -5 px sin/zoom + (5 py cos/zoom + b).
  for (std::uint32_t x = 0; x < w; ++x) {
    const double px = 2.0 * (static_cast<double>(x) + 0.5) / w - 1.0;
    for (std::size_t i = 0; i < nb; ++i) {
      const double d = px - ux[i];
      gx[i * w + x] = std::exp(-d * d * inv_den[i]);
    }
    const double a_arg = 7.0 * px * cos_t / zoom;
    const double c_arg = -5.0 * px * sin_t / zoom;
    const double sa = std::sin(a_arg), ca = std::cos(a_arg);
    const double sc = std::sin(c_arg), cc = std::cos(c_arg);
    tx[x] = sa * cc;
    tx[w + x] = sa * sc;
    tx[2 * w + x] = ca * cc;
    tx[3 * w + x] = ca * sc;
  }

  std::vector<float> pixels(static_cast<std::size_t>(w) * h);
  for (std::uint32_t y = 0; y < h; ++y) {
    const double py = 2.0 * (static_cast<double>(y) + 0.5) / h - 1.0;
    for (std::size_t i = 0; i < nb; ++i) {
      const double d = py - uy[i];
      wy[i] = blobs[i].amplitude * std::exp(-d * d * inv_den[i]);
    }
    std::fill(row, row + w, 0.0);
    for (std::size_t i = 0; i < nb; ++i) {
      const double* const g = gx + i * w;
      for (std::uint32_t x = 0; x < w; ++x) row[x] += wy[i] * g[x];
    }
    // sin(A + B) cos(C + D) with A, C per column and B, D per row.
    const double b_arg = 7.0 * py * sin_t / zoom + tex_sin_phase;
    const double d_arg = 5.0 * py * cos_t / zoom + tex_cos_phase;
    const double sb = std::sin(b_arg), cb = std::cos(b_arg);
    const double sd = std::sin(d_arg), cd = std::cos(d_arg);
    const double r0 = 0.05 * cb * cd, r1 = -0.05 * cb * sd;
    const double r2 = 0.05 * sb * cd, r3 = -0.05 * sb * sd;
    float* const out = pixels.data() + static_cast<std::size_t>(y) * w;
    for (std::uint32_t x = 0; x < w; ++x) {
      const double v = row[x] + (r0 * tx[x] + r1 * tx[w + x] +
                                 r2 * tx[2 * w + x] + r3 * tx[3 * w + x]);
      out[x] = static_cast<float>(std::clamp(v * params.illumination, 0.0, 4.0));
    }
  }
  return SyntheticImage(params, std::move(pixels));
}

ByteVec SyntheticImage::EncodePixels() const {
  ByteVec out(pixels_.size());
  for (std::size_t i = 0; i < pixels_.size(); ++i) {
    out[i] = static_cast<std::uint8_t>(
        std::clamp(pixels_[i] * 64.0f, 0.0f, 255.0f));
  }
  return out;
}

Digest128 SyntheticImage::ContentHash() const {
  const ByteVec bytes = EncodePixels();
  return ContentDigest(bytes);
}

SyntheticImage SyntheticImage::FromPixels(const SceneParams& params,
                                          std::vector<float> pixels) {
  COIC_CHECK(pixels.size() ==
             static_cast<std::size_t>(params.width) * params.height);
  return SyntheticImage(params, std::move(pixels));
}

ByteVec SyntheticImage::SerializeForWire(Bytes padded_total) const {
  ByteWriter w;
  w.WriteU64(params_.scene_id);
  w.WriteF64(params_.view_angle_deg);
  w.WriteF64(params_.distance);
  w.WriteF64(params_.illumination);
  w.WriteU32(params_.width);
  w.WriteU32(params_.height);
  w.WriteBlob(EncodePixels());
  const std::size_t body = w.size() + 4;  // +4 for the pad length field
  const std::size_t pad =
      padded_total > body ? static_cast<std::size_t>(padded_total) - body : 0;
  w.WriteBlob(DeterministicBytes(pad, params_.scene_id ^ 0x4A50454Bu));
  return w.TakeBytes();
}

Result<SyntheticImage> SyntheticImage::DecodeWire(
    std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  SceneParams params;
  COIC_RETURN_IF_ERROR(r.ReadU64(params.scene_id));
  COIC_RETURN_IF_ERROR(r.ReadF64(params.view_angle_deg));
  COIC_RETURN_IF_ERROR(r.ReadF64(params.distance));
  COIC_RETURN_IF_ERROR(r.ReadF64(params.illumination));
  COIC_RETURN_IF_ERROR(r.ReadU32(params.width));
  COIC_RETURN_IF_ERROR(r.ReadU32(params.height));
  ByteVec quantized;
  COIC_RETURN_IF_ERROR(r.ReadBlob(quantized));
  if (quantized.size() !=
      static_cast<std::size_t>(params.width) * params.height) {
    return Status(StatusCode::kDataLoss, "pixel payload size mismatch");
  }
  ByteVec padding;
  COIC_RETURN_IF_ERROR(r.ReadBlob(padding));  // discarded filler
  std::vector<float> pixels(quantized.size());
  for (std::size_t i = 0; i < quantized.size(); ++i) {
    pixels[i] = static_cast<float>(quantized[i]) / 64.0f;
  }
  return FromPixels(params, std::move(pixels));
}

}  // namespace coic::vision
