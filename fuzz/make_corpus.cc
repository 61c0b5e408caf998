// Seed-corpus generator for coic_fuzz_decode: writes every seed of
// fuzz/seed_corpus.h into the directory given as argv[1].
#include <cstdio>
#include <string>

#include "fuzz/seed_corpus.h"

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <corpus-dir>\n", argv[0]);
    return 2;
  }
  bool ok = true;
  for (const auto& seed : coic::fuzz::SeedCorpus()) {
    const std::string path = std::string(argv[1]) + "/" + seed.name;
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      ok = false;
      continue;
    }
    if (!seed.frame.empty()) {
      std::fwrite(seed.frame.data(), 1, seed.frame.size(), f);
    }
    std::fclose(f);
  }
  return ok ? 0 : 1;
}
