#include "vision/features.h"

#include <cmath>

#include "common/rng.h"
#include "common/status.h"

namespace coic::vision {

FeatureExtractor::FeatureExtractor(FeatureExtractorConfig config)
    : config_(config) {
  COIC_CHECK_MSG(config.grid >= 2, "pooling grid too small");
  COIC_CHECK_MSG(config.output_dim >= 4, "descriptor too small");
  const std::size_t in_dim = static_cast<std::size_t>(config.grid) * config.grid;
  projection_.resize(static_cast<std::size_t>(config.output_dim) * in_dim);
  Rng rng(config.seed);
  const float scale = 1.0f / std::sqrt(static_cast<float>(in_dim));
  for (auto& w : projection_) {
    w = static_cast<float>(rng.NextGaussian()) * scale;
  }
}

std::vector<float> FeatureExtractor::Pool(const SyntheticImage& image) const {
  const std::uint32_t g = config_.grid;
  std::vector<float> pooled(static_cast<std::size_t>(g) * g, 0.0f);
  std::vector<std::uint32_t> counts(pooled.size(), 0);
  // Each column's cell is fixed across rows; the cells still accumulate in
  // row-major pixel order, so the pooled sums are unchanged.
  std::vector<std::uint32_t> cell_x(image.width());
  for (std::uint32_t x = 0; x < image.width(); ++x) {
    cell_x[x] = x * g / image.width();
  }
  const float* pixel = image.pixels().data();
  for (std::uint32_t y = 0; y < image.height(); ++y) {
    const std::size_t row_cell = static_cast<std::size_t>(y * g / image.height()) * g;
    for (std::uint32_t x = 0; x < image.width(); ++x) {
      pooled[row_cell + cell_x[x]] += *pixel++;
      ++counts[row_cell + cell_x[x]];
    }
  }
  for (std::size_t i = 0; i < pooled.size(); ++i) {
    if (counts[i] > 0) pooled[i] /= static_cast<float>(counts[i]);
  }
  return pooled;
}

std::vector<float> FeatureExtractor::Extract(const SyntheticImage& image) const {
  const std::vector<float> pooled = Pool(image);
  const std::size_t in_dim = pooled.size();
  std::vector<float> out(config_.output_dim);
  for (std::uint32_t row = 0; row < config_.output_dim; ++row) {
    double acc = 0;
    const float* w = projection_.data() + static_cast<std::size_t>(row) * in_dim;
    for (std::size_t i = 0; i < in_dim; ++i) acc += static_cast<double>(w[i]) * pooled[i];
    out[row] = static_cast<float>(std::tanh(acc));
  }
  // L2-normalize so distances are scale-free and the similarity threshold
  // has a stable meaning across illumination changes.
  double norm = 0;
  for (const float v : out) norm += static_cast<double>(v) * v;
  norm = std::sqrt(norm);
  if (norm > 1e-12) {
    for (auto& v : out) v = static_cast<float>(v / norm);
  }
  return out;
}

double DescriptorDistance(std::span<const float> a, std::span<const float> b) {
  COIC_CHECK_MSG(a.size() == b.size(), "descriptor length mismatch");
  double acc = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = static_cast<double>(a[i]) - b[i];
    acc += d * d;
  }
  return std::sqrt(acc);
}

double CosineSimilarity(std::span<const float> a, std::span<const float> b) {
  COIC_CHECK_MSG(a.size() == b.size(), "descriptor length mismatch");
  double dot = 0, na = 0, nb = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    dot += static_cast<double>(a[i]) * b[i];
    na += static_cast<double>(a[i]) * a[i];
    nb += static_cast<double>(b[i]) * b[i];
  }
  if (na < 1e-24 || nb < 1e-24) return 0;
  return dot / (std::sqrt(na) * std::sqrt(nb));
}

}  // namespace coic::vision
