// coic_perfbench — runs one benchmark workload against the coic library
// and prints one JSON object: every metric with its unit and sample
// count, the correctness checks, and the build half of the run manifest.
//
//   coic_perfbench --workload mixed_storm|region_churn|live_loopback
//                  --seed N --seconds S --trace 0|1 [--trace-out PATH]
//
// --trace 0 reports the end-to-end metrics; --trace 1 the per-layer ones,
// and writes one Chrome trace (the program's request spans plus the
// benchmark's own spans) to --trace-out.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "bench.h"
#include "common/log.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// `{"traceEvents": [...]}` holding the program's events (if any) and the
/// benchmark's spans.
std::string MergedTrace(const std::string& program, const std::string& bench) {
  std::string body;
  const std::size_t open = program.find('[');
  const std::size_t close = program.rfind(']');
  if (open != std::string::npos && close != std::string::npos && close > open + 1) {
    body = program.substr(open + 1, close - open - 1);
    if (body.find_first_not_of(" \t\n") == std::string::npos) body.clear();
  }
  if (!body.empty() && !bench.empty()) body += ",";
  return "{\"traceEvents\": [" + body + bench + "]}";
}

int Usage() {
  std::fprintf(stderr,
               "usage: coic_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--trace-out PATH]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  coic::SetLogLevel(coic::LogLevel::kError);
  // One core for the whole run: on a shared VM, waking an idle vCPU costs
  // the hypervisor's scheduling delay, which swamped the live workload's
  // sub-millisecond latencies.
  perfbench::PinToOneCpu();
  perfbench::Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      options.seconds = std::stod(value);
    } else if (flag == "--trace") {
      options.traced = value == "1";
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || options.seconds <= 0) return Usage();

  perfbench::SpanLog spans(options.traced);
  perfbench::Result result;
  if (options.workload == "mixed_storm") {
    result = perfbench::RunMixedStorm(options, spans);
  } else if (options.workload == "region_churn") {
    result = perfbench::RunRegionChurn(options, spans);
  } else if (options.workload == "live_loopback") {
    result = perfbench::RunLiveLoopback(options, spans);
  } else {
    return Usage();
  }

  if (options.traced && !options.trace_out.empty()) {
    std::ofstream out(options.trace_out, std::ios::binary | std::ios::trunc);
    out << MergedTrace(result.program_trace, spans.ChromeEvents());
    result.Require("chrome_trace_written", static_cast<bool>(out),
                   options.trace_out);
  }

  std::string json = "{\"workload\":" + JsonString(result.workload) +
                     ",\"correct\":" + (result.correct() ? "true" : "false") +
                     ",\"attempted\":" + std::to_string(result.attempted) +
                     ",\"failed\":" + std::to_string(result.failed) +
                     ",\"build\":{\"compiler\":" + JsonString(
#if defined(__clang__)
                         std::string("clang ") + __clang_version__
#elif defined(__GNUC__)
                         std::string("gcc ") + __VERSION__
#else
                         std::string("unknown")
#endif
                         ) +
                     ",\"build_type\":" + JsonString(PERFBENCH_BUILD_TYPE) +
                     "},\"checks\":[";
  bool first = true;
  for (const auto& c : result.checks) {
    json += (first ? "" : ",");
    json += "{\"name\":" + JsonString(c.name) +
            ",\"ok\":" + (c.ok ? "true" : "false") +
            ",\"detail\":" + JsonString(c.detail) + "}";
    first = false;
  }
  json += "],\"metrics\":{";
  first = true;
  for (const auto& [name, m] : result.metrics) {
    json += (first ? "" : ",");
    json += JsonString(name) + ":{\"value\":" + JsonNumber(m.value) +
            ",\"unit\":" + JsonString(m.unit) +
            ",\"samples\":" + std::to_string(m.samples) + "}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return result.correct() ? 0 : 1;
}
