// Vision substrate tests: determinism, the metric-structure property
// CoIC depends on (same object close, different objects far), and the
// recognition model.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/rng.h"
#include "vision/features.h"
#include "vision/image.h"
#include "vision/recognition.h"

namespace coic::vision {
namespace {

// ---------------------------------------------------------------------------
// SyntheticImage
// ---------------------------------------------------------------------------

TEST(ImageTest, DeterministicGeneration) {
  SceneParams params;
  params.scene_id = 17;
  params.view_angle_deg = 5;
  const auto a = SyntheticImage::Generate(params);
  const auto b = SyntheticImage::Generate(params);
  ASSERT_EQ(a.pixels().size(), b.pixels().size());
  for (std::size_t i = 0; i < a.pixels().size(); ++i) {
    ASSERT_EQ(a.pixels()[i], b.pixels()[i]) << "pixel " << i;
  }
}

TEST(ImageTest, DifferentScenesDiffer) {
  SceneParams a, b;
  a.scene_id = 1;
  b.scene_id = 2;
  const auto ia = SyntheticImage::Generate(a);
  const auto ib = SyntheticImage::Generate(b);
  EXPECT_NE(ia.ContentHash(), ib.ContentHash());
}

TEST(ImageTest, ViewPerturbationChangesPixelsSlightly) {
  SceneParams base;
  base.scene_id = 5;
  SceneParams turned = base;
  turned.view_angle_deg = 4;
  const auto a = SyntheticImage::Generate(base);
  const auto b = SyntheticImage::Generate(turned);
  double diff = 0, energy = 0;
  for (std::size_t i = 0; i < a.pixels().size(); ++i) {
    diff += std::abs(static_cast<double>(a.pixels()[i]) - b.pixels()[i]);
    energy += a.pixels()[i];
  }
  EXPECT_GT(diff, 0.0);              // not identical
  EXPECT_LT(diff, energy);           // but far from unrelated
}

TEST(ImageTest, DimensionsRespected) {
  SceneParams params;
  params.width = 64;
  params.height = 48;
  const auto img = SyntheticImage::Generate(params);
  EXPECT_EQ(img.width(), 64u);
  EXPECT_EQ(img.height(), 48u);
  EXPECT_EQ(img.pixels().size(), 64u * 48u);
}

TEST(ImageTest, IlluminationScalesBrightness) {
  SceneParams dim, bright;
  dim.scene_id = bright.scene_id = 9;
  dim.illumination = 0.5;
  bright.illumination = 1.5;
  const auto a = SyntheticImage::Generate(dim);
  const auto b = SyntheticImage::Generate(bright);
  double sum_a = 0, sum_b = 0;
  for (const float p : a.pixels()) sum_a += p;
  for (const float p : b.pixels()) sum_b += p;
  EXPECT_GT(sum_b, sum_a * 1.5);
}

TEST(ImageTest, WireRoundTripPreservesIdentity) {
  SceneParams params;
  params.scene_id = 23;
  params.view_angle_deg = -3;
  const auto img = SyntheticImage::Generate(params);
  const ByteVec wire = img.SerializeForWire(50'000);
  EXPECT_EQ(wire.size(), 50'000u);
  auto decoded = SyntheticImage::DecodeWire(wire);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().params().scene_id, 23u);
  EXPECT_EQ(decoded.value().width(), img.width());
  // Quantization-lossy round trip: pixels within one quantization step.
  for (std::size_t i = 0; i < img.pixels().size(); i += 101) {
    EXPECT_NEAR(decoded.value().pixels()[i], img.pixels()[i], 1.0f / 32.0f);
  }
}

TEST(ImageTest, WireDecodeRejectsCorruptPayload) {
  const auto img = SyntheticImage::Generate(SceneParams{});
  ByteVec wire = img.SerializeForWire(0);
  wire.resize(wire.size() / 2);
  EXPECT_FALSE(SyntheticImage::DecodeWire(wire).ok());
}

TEST(ImageTest, ContentHashMatchesAcrossIdenticalViews) {
  SceneParams params;
  params.scene_id = 31;
  EXPECT_EQ(SyntheticImage::Generate(params).ContentHash(),
            SyntheticImage::Generate(params).ContentHash());
}

// ---------------------------------------------------------------------------
// Generate against the per-pixel reference
// ---------------------------------------------------------------------------

// The scene model written out per pixel: every blob's Gaussian and the
// texture term evaluated at each pixel's inverse-rotated scene point.
// Generate factors this into per-row and per-column tables; the blob
// layout and texture key below repeat image.cc's private derivation.
std::vector<float> ReferencePixels(const SceneParams& params) {
  struct Blob {
    double cx, cy, sigma, amplitude;
  };
  Rng rng(params.scene_id * 0x9E3779B97F4A7C15ULL + 0xC01C);
  std::vector<Blob> blobs(6 + rng.NextBelow(5));
  for (auto& b : blobs) {
    b.cx = rng.NextDouble() * 1.4 - 0.7;
    b.cy = rng.NextDouble() * 1.4 - 0.7;
    b.sigma = 0.08 + rng.NextDouble() * 0.25;
    b.amplitude = 0.35 + rng.NextDouble() * 0.65;
  }
  std::uint64_t key_state = params.scene_id ^ 0xA5A5A5A5DEADBEEFULL;
  const std::uint64_t tex = SplitMix64(key_state);

  const double theta = params.view_angle_deg * 3.14159265358979323846 / 180.0;
  const double cos_t = std::cos(theta);
  const double sin_t = std::sin(theta);
  const double zoom = 1.0 / params.distance;
  std::vector<float> pixels(static_cast<std::size_t>(params.width) *
                            params.height);
  for (std::uint32_t y = 0; y < params.height; ++y) {
    const double py = 2.0 * (y + 0.5) / params.height - 1.0;
    for (std::uint32_t x = 0; x < params.width; ++x) {
      const double px = 2.0 * (x + 0.5) / params.width - 1.0;
      const double sx = (px * cos_t + py * sin_t) / zoom;
      const double sy = (-px * sin_t + py * cos_t) / zoom;
      double v = 0;
      for (const Blob& b : blobs) {
        const double dx = sx - b.cx;
        const double dy = sy - b.cy;
        v += b.amplitude *
             std::exp(-(dx * dx + dy * dy) / (2 * b.sigma * b.sigma));
      }
      v += 0.05 * std::sin(7.0 * sx + static_cast<double>(tex & 7)) *
           std::cos(5.0 * sy + static_cast<double>((tex >> 3) & 7));
      v *= params.illumination;
      pixels[static_cast<std::size_t>(y) * params.width + x] =
          static_cast<float>(std::clamp(v, 0.0, 4.0));
    }
  }
  return pixels;
}

// The view grid the reference checks sweep: the trace's jitter range and
// beyond, at the extraction raster, perfbench's 32 px, the minimum 8 px
// and a non-square raster.
std::vector<SceneParams> ReferenceGrid() {
  std::vector<SceneParams> grid;
  const std::pair<std::uint32_t, std::uint32_t> rasters[] = {
      {8, 8}, {32, 32}, {96, 96}, {64, 48}};
  for (const auto& [w, h] : rasters) {
    for (const std::uint64_t scene : {1ull, 7ull, 42ull, 1234ull}) {
      for (const double angle : {-20.0, -7.5, 0.0, 13.0, 20.0}) {
        for (const double distance : {0.6, 1.0, 1.4}) {
          for (const double illumination : {0.8, 1.2}) {
            grid.push_back({.scene_id = scene,
                            .view_angle_deg = angle,
                            .distance = distance,
                            .illumination = illumination,
                            .width = w,
                            .height = h});
          }
        }
      }
    }
  }
  return grid;
}

TEST(ImageTest, GenerateMatchesPerPixelReference) {
  for (const SceneParams& params : ReferenceGrid()) {
    const auto image = SyntheticImage::Generate(params);
    const auto reference = ReferencePixels(params);
    ASSERT_EQ(image.pixels().size(), reference.size());
    double worst = 0;
    for (std::size_t i = 0; i < reference.size(); ++i) {
      worst = std::max(worst, std::abs(static_cast<double>(image.pixels()[i]) -
                                       reference[i]));
    }
    EXPECT_LE(worst, 1e-6) << "scene " << params.scene_id << " angle "
                           << params.view_angle_deg << " distance "
                           << params.distance << " raster " << params.width
                           << "x" << params.height;
  }
}

TEST(ImageTest, ReferenceImagesClassifyLikeGeneratedOnes) {
  const FeatureExtractor extractor;
  std::vector<ObjectClass> classes;
  for (std::uint64_t c = 1; c <= 50; ++c) {
    classes.push_back({c, "object_" + std::to_string(c)});
  }
  const RecognitionModel model(std::move(classes), extractor);
  for (const SceneParams& params : ReferenceGrid()) {
    const auto generated = model.Classify(SyntheticImage::Generate(params));
    const auto reference =
        model.Classify(SyntheticImage::FromPixels(params, ReferencePixels(params)));
    EXPECT_EQ(generated.label, reference.label)
        << "scene " << params.scene_id << " angle " << params.view_angle_deg;
  }
}

// Pins the feature extractor's pooling and projection bit for bit: the
// digest of descriptors extracted from reference images. Like every
// golden pin in the suite it holds for the libm it was recorded with.
TEST(FeatureTest, ReferenceDescriptorsPinned) {
  const FeatureExtractor extractor;
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  for (const SceneParams& params :
       {SceneParams{.scene_id = 3},
        SceneParams{.scene_id = 11, .view_angle_deg = -6, .distance = 0.9},
        SceneParams{.scene_id = 5, .view_angle_deg = 4, .width = 32, .height = 32},
        SceneParams{.scene_id = 77, .illumination = 1.1, .width = 64, .height = 48}}) {
    const auto desc =
        extractor.Extract(SyntheticImage::FromPixels(params, ReferencePixels(params)));
    const auto* bytes = reinterpret_cast<const std::uint8_t*>(desc.data());
    digest = Fnv1a64({bytes, desc.size() * sizeof(float)}, digest);
  }
  EXPECT_EQ(digest, 0xd733480c11bdd913ULL);
}

// ---------------------------------------------------------------------------
// FeatureExtractor — metric structure properties
// ---------------------------------------------------------------------------

TEST(FeatureTest, DescriptorIsUnitNorm) {
  const FeatureExtractor extractor;
  const auto desc = extractor.Extract(SyntheticImage::Generate({.scene_id = 3}));
  EXPECT_EQ(desc.size(), extractor.config().output_dim);
  double norm = 0;
  for (const float v : desc) norm += static_cast<double>(v) * v;
  EXPECT_NEAR(std::sqrt(norm), 1.0, 1e-5);
}

TEST(FeatureTest, DeterministicGivenConfig) {
  const FeatureExtractor a, b;
  const auto img = SyntheticImage::Generate({.scene_id = 4});
  EXPECT_EQ(a.Extract(img), b.Extract(img));
}

TEST(FeatureTest, SeedChangesProjection) {
  FeatureExtractorConfig other;
  other.seed = 999;
  const FeatureExtractor a, b(other);
  const auto img = SyntheticImage::Generate({.scene_id = 4});
  EXPECT_NE(a.Extract(img), b.Extract(img));
}

TEST(FeatureTest, DistanceHelpersAgree) {
  const FeatureExtractor extractor;
  const auto d1 = extractor.Extract(SyntheticImage::Generate({.scene_id = 1}));
  const auto d2 = extractor.Extract(SyntheticImage::Generate({.scene_id = 2}));
  EXPECT_DOUBLE_EQ(DescriptorDistance(d1, d1), 0.0);
  EXPECT_GT(DescriptorDistance(d1, d2), 0.0);
  EXPECT_NEAR(CosineSimilarity(d1, d1), 1.0, 1e-6);
  // Unit vectors: ||a-b||^2 = 2 - 2 cos.
  const double dist = DescriptorDistance(d1, d2);
  const double cos = CosineSimilarity(d1, d2);
  EXPECT_NEAR(dist * dist, 2 - 2 * cos, 1e-4);
}

// The margin property: a perturbed view of the same object must be
// closer in descriptor space than any different object — with margin —
// across many objects and perturbations. This is the fact that makes
// the paper's threshold-based hit rule sound.
class MarginPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MarginPropertyTest, SameSceneCloserThanDifferentScene) {
  const FeatureExtractor extractor;
  const std::uint64_t scene = GetParam();
  SceneParams canonical;
  canonical.scene_id = scene;
  const auto base = extractor.Extract(SyntheticImage::Generate(canonical));

  double worst_same = 0;
  for (const double angle : {-6.0, -3.0, 3.0, 6.0}) {
    for (const double dist : {0.94, 1.06}) {
      SceneParams view = canonical;
      view.view_angle_deg = angle;
      view.distance = dist;
      view.illumination = 1.0 + angle / 100.0;
      const auto desc = extractor.Extract(SyntheticImage::Generate(view));
      worst_same = std::max(worst_same, DescriptorDistance(base, desc));
    }
  }

  double best_other = 1e300;
  for (std::uint64_t other = scene + 1; other < scene + 20; ++other) {
    SceneParams params;
    params.scene_id = other * 131 + 7;
    const auto desc = extractor.Extract(SyntheticImage::Generate(params));
    best_other = std::min(best_other, DescriptorDistance(base, desc));
  }

  EXPECT_LT(worst_same * 1.2, best_other)
      << "margin violated: same-scene " << worst_same << " vs other "
      << best_other;
}

INSTANTIATE_TEST_SUITE_P(Scenes, MarginPropertyTest,
                         ::testing::Values(1, 2, 3, 7, 11, 23, 42, 99, 1234));

// ---------------------------------------------------------------------------
// RecognitionModel
// ---------------------------------------------------------------------------

std::vector<ObjectClass> MakeClasses(std::uint32_t n) {
  std::vector<ObjectClass> classes;
  for (std::uint32_t c = 1; c <= n; ++c) {
    classes.push_back({c, "object_" + std::to_string(c)});
  }
  return classes;
}

TEST(RecognitionTest, ClassifiesCanonicalViewsCorrectly) {
  const FeatureExtractor extractor;
  const RecognitionModel model(MakeClasses(15), extractor);
  for (std::uint64_t scene = 1; scene <= 15; ++scene) {
    const auto result =
        model.Classify(SyntheticImage::Generate({.scene_id = scene}));
    EXPECT_EQ(result.label, "object_" + std::to_string(scene));
    EXPECT_EQ(result.scene_id, scene);
    EXPECT_GT(result.confidence, 0.5f);
  }
}

TEST(RecognitionTest, RobustToViewPerturbation) {
  const FeatureExtractor extractor;
  const RecognitionModel model(MakeClasses(10), extractor);
  int correct = 0, total = 0;
  for (std::uint64_t scene = 1; scene <= 10; ++scene) {
    for (const double angle : {-8.0, 8.0}) {
      SceneParams params;
      params.scene_id = scene;
      params.view_angle_deg = angle;
      params.distance = 1.05;
      ++total;
      correct += model.Classify(SyntheticImage::Generate(params)).label ==
                 "object_" + std::to_string(scene);
    }
  }
  EXPECT_GE(correct, total * 9 / 10);
}

TEST(RecognitionTest, ClassifyDescriptorMatchesClassifyImage) {
  const FeatureExtractor extractor;
  const RecognitionModel model(MakeClasses(8), extractor);
  const auto img = SyntheticImage::Generate({.scene_id = 5});
  const auto via_image = model.Classify(img);
  const auto via_descriptor = model.ClassifyDescriptor(extractor.Extract(img));
  EXPECT_EQ(via_image.label, via_descriptor.label);
  EXPECT_EQ(via_image.confidence, via_descriptor.confidence);
}

TEST(RecognitionTest, AnnotationDeterministicPerLabelAndSized) {
  const auto a = RecognitionModel::MakeAnnotation("stop_sign", 1024);
  const auto b = RecognitionModel::MakeAnnotation("stop_sign", 1024);
  const auto c = RecognitionModel::MakeAnnotation("yield_sign", 1024);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a.size(), 1024u);
}

TEST(RecognitionTest, ConfidenceInUnitRange) {
  const FeatureExtractor extractor;
  const RecognitionModel model(MakeClasses(5), extractor);
  for (std::uint64_t scene : {1ull, 3ull, 999ull}) {  // 999 = unknown object
    const auto r = model.Classify(SyntheticImage::Generate({.scene_id = scene}));
    EXPECT_GE(r.confidence, 0.0f);
    EXPECT_LE(r.confidence, 1.0f);
  }
}

}  // namespace
}  // namespace coic::vision
