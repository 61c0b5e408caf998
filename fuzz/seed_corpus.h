// Seed corpus for the decode fuzz harness (fuzz/fuzz_decode.cc): one
// well-formed sample frame per MessageType plus a few structural corner
// cases. Coverage-guided mutation starts from valid frames, so the
// fuzzer reaches the deep per-field validation branches immediately
// instead of spending its budget rediscovering the magic number; the
// tier-1 replay test feeds the same seeds (and their prefixes) through
// the harness.
#pragma once

#include <string>
#include <vector>

#include "common/bytes.h"

namespace coic::fuzz {

struct Seed {
  std::string name;  ///< File name under the corpus directory.
  ByteVec frame;
};

std::vector<Seed> SeedCorpus();

}  // namespace coic::fuzz
