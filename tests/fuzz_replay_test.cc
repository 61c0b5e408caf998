// Tier-1 replay of the decode fuzz harness (fuzz/fuzz_decode.cc): every
// seed of the libFuzzer seed corpus, and every prefix of each, runs
// through LLVMFuzzerTestOneInput with the default compiler. The harness
// abort()s on a property violation, and the sanitizer builds turn any
// over-read into a failure, so this runs the harness's checks without
// libFuzzer.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <set>

#include "fuzz/seed_corpus.h"
#include "proto/envelope.h"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size);

namespace coic::fuzz {
namespace {

TEST(FuzzReplayTest, EverySeedAndEveryPrefixOfIt) {
  const std::vector<Seed> seeds = SeedCorpus();
  ASSERT_FALSE(seeds.empty());
  for (const Seed& seed : seeds) {
    SCOPED_TRACE(seed.name);
    for (std::size_t n = 0; n <= seed.frame.size(); ++n) {
      // Each prefix in a buffer of its own, so reading past it is caught.
      const ByteVec prefix(seed.frame.begin(),
                           seed.frame.begin() + static_cast<std::ptrdiff_t>(n));
      EXPECT_EQ(LLVMFuzzerTestOneInput(prefix.data(), prefix.size()), 0);
    }
  }
}

TEST(FuzzReplayTest, SeedsCoverEveryMessageType) {
  std::set<proto::MessageType> seeded;
  for (const Seed& seed : SeedCorpus()) {
    const auto env = proto::DecodeEnvelopeView(seed.frame);
    if (env.ok()) seeded.insert(env.value().type);
  }
  for (unsigned raw = 0; raw < 256; ++raw) {
    const auto type = static_cast<proto::MessageType>(raw);
    if (proto::MessageTypeName(type) == "Unknown") continue;
    EXPECT_TRUE(seeded.contains(type)) << proto::MessageTypeName(type);
  }
}

}  // namespace
}  // namespace coic::fuzz
