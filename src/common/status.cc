#include "common/status.h"

#include <cstdio>
#include <cstdlib>

namespace coic {

std::string_view StatusCodeName(StatusCode code) noexcept {
  switch (code) {
    case StatusCode::kOk: return "OK";
    case StatusCode::kInvalidArgument: return "kInvalidArgument";
    case StatusCode::kNotFound: return "kNotFound";
    case StatusCode::kAlreadyExists: return "kAlreadyExists";
    case StatusCode::kOutOfRange: return "kOutOfRange";
    case StatusCode::kResourceExhausted: return "kResourceExhausted";
    case StatusCode::kFailedPrecondition: return "kFailedPrecondition";
    case StatusCode::kDataLoss: return "kDataLoss";
    case StatusCode::kUnavailable: return "kUnavailable";
    case StatusCode::kTimeout: return "kTimeout";
    case StatusCode::kInternal: return "kInternal";
    case StatusCode::kUnimplemented: return "kUnimplemented";
  }
  return "kUnknown";
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out(StatusCodeName(code_));
  if (!message_.empty()) {
    out += ": ";
    out += message_;
  }
  return out;
}

const Status& OkStatus() noexcept {
  static const Status ok;
  return ok;
}

namespace internal {

void CheckFailed(const char* file, int line, const char* expr,
                 const std::string& extra) {
  std::fprintf(stderr, "COIC_CHECK failed at %s:%d: %s%s%s\n", file, line,
               expr, extra.empty() ? "" : " — ", extra.c_str());
  std::abort();
}

}  // namespace internal
}  // namespace coic
