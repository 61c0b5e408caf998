// Cloud VR panorama streaming with client-side viewport cropping.
//
// Paper 1.2: "The server sends a panoramic frame to the client, and then
// the client crops the panorama to generate the final frame for display.
// Multiple users playing the same VR applications or watching the same
// VR video might use the same panorama."
//
// Two synced viewers watch the same VR video through CoIC; the example
// also exercises the real rendering substrate: it generates the
// equirectangular frame and gnomonically crops each viewer's viewport,
// printing a small ASCII rendering of what each HMD displays.
//
//   ./vr_panorama
#include <cstdio>

#include "federation/federation_pipeline.h"
#include "render/panorama.h"

using namespace coic;

namespace {

/// Renders a cropped viewport as ASCII luminance art.
void PrintView(const char* title, const render::CroppedView& view) {
  static const char kRamp[] = " .:-=+*#%@";
  std::printf("%s\n", title);
  for (std::uint16_t y = 0; y < view.height; y += 2) {  // 2:1 aspect glyphs
    std::fputs("    ", stdout);
    for (std::uint16_t x = 0; x < view.width; ++x) {
      const float v = view.pixels[static_cast<std::size_t>(y) * view.width + x];
      const int idx = static_cast<int>(v * 9.99f);
      std::fputc(kRamp[idx < 0 ? 0 : (idx > 9 ? 9 : idx)], stdout);
    }
    std::fputc('\n', stdout);
  }
}

}  // namespace

int main() {
  constexpr std::uint64_t kVideo = 7;

  // --- Transport: two viewers fetch the same frames through the edge ------
  federation::FederationPipelineConfig config;
  config.venues = 1;
  config.mode = proto::OffloadMode::kCoic;
  config.network = {Bandwidth::Mbps(200), Bandwidth::Mbps(20)};
  federation::FederationPipeline pipeline(config);

  // Viewer A then viewer B request frames 0..3 (B trails A). The edge
  // caches whole panoramas, so each viewer crops its own viewport on
  // the device (display path below).
  for (std::uint32_t frame = 0; frame < 4; ++frame) {
    pipeline.EnqueuePanoramaAt(0, kVideo, frame);
    pipeline.EnqueuePanoramaAt(0, kVideo, frame);
  }
  const auto outcomes = pipeline.Run();

  std::printf("VR panorama streaming over CoIC (video %llu, 4 frames, 2 viewers)\n\n",
              static_cast<unsigned long long>(kVideo));
  std::printf("%-8s %-8s %-8s %10s\n", "frame", "viewer", "source", "latency");
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    std::printf("%-8u %-8s %-8s %8.1fms\n",
                static_cast<std::uint32_t>(i / 2), i % 2 == 0 ? "A" : "B",
                outcomes[i].outcome.source == proto::ResultSource::kEdgeCache
                    ? "edge"
                    : "cloud",
                outcomes[i].outcome.latency.millis());
  }
  std::printf("\nViewer B's frames all hit the edge cache: the panorama "
              "rendered for A is reused.\n\n");

  // --- Display path: the client-side crop (real pixels) -------------------
  const auto pano = render::Panorama::Generate(kVideo, 0, 512, 256);
  const render::ViewportCropper cropper(48, 24);
  PrintView("viewer A viewport (yaw 0):",
            cropper.Crop(pano, proto::Viewport{0, 0, 90}));
  PrintView("\nviewer B viewport (yaw 60, pitch -10):",
            cropper.Crop(pano, proto::Viewport{60, -10, 90}));
  return 0;
}
