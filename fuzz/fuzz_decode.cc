// libFuzzer harness over the CoIC decode surface.
//
// PR 4's fuzz sweep is property-based and fixed-seed: truncation ladders
// and 10k seeded-random buffers. This harness upgrades that to
// coverage-guided exploration — libFuzzer mutates inputs toward new
// branches in the envelope framing, every peek fast path, and every
// per-type payload decoder (owning and borrowed-view alike), under
// ASan/UBSan. The invariant is the decoders' contract: hostile bytes may
// be rejected with Status, but must never crash, over-read, or trip UB.
//
// Every input is also decoded as a gathered frame (two segments, as an
// edge sends a cache-hit reply), split at three places:
//   * the final-blob boundary (ResultBlobOffset) of a result frame, and
//   * the end of the envelope header (the header-only head a cloud
//     result reply travels as, its tail the whole payload): at both the
//     gathered decode must accept exactly when the fused decode does,
//     with equal fields;
//   * an offset the fuzzer picks (the low 32 bits of the request id,
//     which no decoder validates): the gathered decode may only accept
//     what the fused decode accepts, with equal fields — anywhere but
//     those two splits that means it fails cleanly.
//
// Tier-1 replays the seed corpus and every prefix of each seed through
// LLVMFuzzerTestOneInput with the default compiler
// (tests/fuzz_replay_test.cc, ctest label `unit`). Coverage-guided runs
// need libFuzzer (Clang only):
//   cmake -B build-fuzz -S . -DCMAKE_C_COMPILER=clang
//     -DCMAKE_CXX_COMPILER=clang++ -DCOIC_BUILD_FUZZERS=ON -DCOIC_SANITIZE=ON
//   (one command line)
//   cmake --build build-fuzz --target coic_fuzz_decode coic_fuzz_seed_corpus
// Seed and run:
//   build-fuzz/coic_fuzz_seed_corpus corpus/
//   build-fuzz/coic_fuzz_decode -max_total_time=30 corpus/
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <span>

#include "proto/envelope.h"
#include "proto/messages.h"

namespace {

using namespace coic;        // NOLINT(google-build-using-namespace)
using namespace coic::proto; // NOLINT(google-build-using-namespace)

/// Runs every described payload decoder (owning and view forms, from
/// the codec's type lists) over arbitrary bytes.
void DecodeAllTypes(std::span<const std::uint8_t> payload) {
  const auto try_decode = [payload](auto type) {
    ByteReader r(payload);
    (void)DecodePayload<typename decltype(type)::type>(r);
  };
  ForEachType(WireMessages{}, try_decode);
  ForEachType(WireViews{}, try_decode);
}

/// A property violation is a crash, so libFuzzer saves the input.
void Require(bool property) {
  if (!property) std::abort();
}

/// Decodes `frame` split at `split` (head = frame[0, split), tail = the
/// rest) as result type M, next to the fused decode of the same bytes.
/// A gathered accept implies a fused accept with equal fields and an
/// exact split (the blob boundary or the header end); at an exact split
/// the converse holds too.
template <typename M, typename View>
void CheckGathered(std::span<const std::uint8_t> frame, std::size_t split,
                   bool exact_split) {
  const auto gathered_env =
      DecodeEnvelopeView(frame.first(split), frame.subspan(split));
  const auto fused_env = DecodeEnvelopeView(frame);
  Require(gathered_env.ok() == fused_env.ok());
  if (!fused_env.ok()) return;
  const MessageType type = fused_env.value().type;
  (void)DecodePayloadAs<View>(gathered_env.value(), type);
  const auto gathered = DecodePayloadAs<M>(gathered_env.value(), type);
  const auto fused = DecodePayloadAs<M>(fused_env.value(), type);
  if (exact_split) Require(gathered.ok() == fused.ok());
  if (gathered.ok()) {
    Require(fused.ok());
    // Equal encodings: field equality that is exact for floats (NaN
    // confidences included).
    Require(EncodePayload(gathered.value()) == EncodePayload(fused.value()));
    // Only the final blob, or the whole payload, may ride the tail (an
    // empty tail is the fused decode itself).
    Require(exact_split || split == frame.size());
  }
}

/// Gathered-decode properties for a result frame of type M.
template <typename M, typename View>
void CheckGatheredSplits(std::span<const std::uint8_t> frame,
                         MessageType type) {
  const auto blob = ResultBlobOffset(type, frame.subspan(kEnvelopeHeaderSize));
  if (blob.ok()) {
    CheckGathered<M, View>(frame, kEnvelopeHeaderSize + blob.value(), true);
  }
  CheckGathered<M, View>(frame, kEnvelopeHeaderSize, true);
  std::uint32_t pick = 0;
  std::memcpy(&pick, frame.data() + 8, 4);
  const std::size_t span = frame.size() - kEnvelopeHeaderSize + 1;
  const std::size_t split = kEnvelopeHeaderSize + pick % span;
  CheckGathered<M, View>(
      frame, split,
      split == kEnvelopeHeaderSize ||
          (blob.ok() && split == kEnvelopeHeaderSize + blob.value()));
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::span<const std::uint8_t> input(data, size);

  // Framing peeks: must reject or report without reading past `size`.
  (void)PeekFrameSize(input);
  (void)PeekRelayFrame(input);
  (void)PeekSummaryFrame(input);
  (void)PeekSummaryDeltaFrame(input);
  (void)PeekRegionDigestFrame(input);

  // Envelope decode, borrowed-view and owning (the owning form is a thin
  // wrapper; running both keeps their validation pinned together).
  const auto view = DecodeEnvelopeView(input);
  (void)DecodeEnvelope(input);

  if (view.ok()) {
    // A structurally valid envelope: run every payload decoder over the
    // payload window, not just the tagged one — decoders must be safe on
    // any bytes regardless of the envelope's type claim.
    DecodeAllTypes(view.value().payload);
    (void)PeekRequestOffloadMode(view.value().type, view.value().payload);
    (void)ResultSourceOffset(view.value().type, view.value().payload);
    switch (view.value().type) {
      case MessageType::kRecognitionResult:
        CheckGatheredSplits<RecognitionResult, RecognitionResultView>(
            input, view.value().type);
        break;
      case MessageType::kRenderResult:
        CheckGatheredSplits<RenderResult, RenderResultView>(
            input, view.value().type);
        break;
      case MessageType::kPanoramaResult:
        CheckGatheredSplits<PanoramaResult, PanoramaResultView>(
            input, view.value().type);
        break;
      default:
        break;
    }
  } else if (size >= kEnvelopeHeaderSize) {
    // No valid envelope: still exercise the payload decoders on the
    // post-header window so mutations reach them through bad framing.
    DecodeAllTypes(input.subspan(kEnvelopeHeaderSize));
  }
  return 0;
}
