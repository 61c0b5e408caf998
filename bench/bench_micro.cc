// Engine microbenchmarks: the hot paths under every figure — codec,
// cache probes, similarity indexes, feature extraction, simulator event
// throughput, model (de)serialization.
#include <benchmark/benchmark.h>

#include <chrono>
#include <memory>

#include "bench/bench_util.h"
#include "common/frame.h"
#include "cache/ic_cache.h"
#include "cache/similarity_index.h"
#include "common/log.h"
#include "common/rng.h"
#include "federation/federation_pipeline.h"
#include "netsim/link.h"
#include "netsim/scheduler.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "proto/envelope.h"
#include "render/loader.h"
#include "render/model.h"
#include "render/panorama.h"
#include "trace/workload.h"
#include "vision/features.h"
#include "vision/image.h"

namespace coic {
namespace {

std::vector<float> RandomUnitVector(Rng& rng, std::size_t dim) {
  std::vector<float> v(dim);
  double norm = 0;
  for (auto& x : v) {
    x = static_cast<float>(rng.NextGaussian());
    norm += static_cast<double>(x) * x;
  }
  norm = std::sqrt(norm);
  for (auto& x : v) x = static_cast<float>(x / norm);
  return v;
}

// --------------------------------- proto -----------------------------------

void BM_EnvelopeEncode(benchmark::State& state) {
  const ByteVec payload = DeterministicBytes(static_cast<std::size_t>(state.range(0)), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        proto::EncodeEnvelope(proto::MessageType::kPing, 1, payload));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EnvelopeEncode)->Arg(1024)->Arg(256 * 1024)->Arg(2 * 1024 * 1024);

void BM_EnvelopeDecode(benchmark::State& state) {
  const ByteVec frame = proto::EncodeEnvelope(
      proto::MessageType::kPing, 1,
      DeterministicBytes(static_cast<std::size_t>(state.range(0)), 1));
  for (auto _ : state) {
    auto env = proto::DecodeEnvelope(frame);
    benchmark::DoNotOptimize(env);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EnvelopeDecode)->Arg(1024)->Arg(256 * 1024)->Arg(2 * 1024 * 1024);

void BM_RecognitionRequestRoundTrip(benchmark::State& state) {
  Rng rng(1);
  proto::RecognitionRequest req;
  req.descriptor = proto::FeatureDescriptor::ForVector(
      proto::TaskKind::kRecognition, RandomUnitVector(rng, 64));
  for (auto _ : state) {
    const ByteVec frame =
        proto::EncodeMessage(proto::MessageType::kRecognitionRequest, 1, req);
    auto env = proto::DecodeEnvelope(frame);
    auto decoded = proto::DecodePayloadAs<proto::RecognitionRequest>(
        env.value(), proto::MessageType::kRecognitionRequest);
    benchmark::DoNotOptimize(decoded);
  }
}
BENCHMARK(BM_RecognitionRequestRoundTrip);

// ------------------------------ frame fabric -------------------------------

void BM_FrameShareVsCloneBytes(benchmark::State& state) {
  const bool clone = state.range(1) != 0;
  const Frame frame(DeterministicBytes(static_cast<std::size_t>(state.range(0)), 1));
  for (auto _ : state) {
    if (clone) {
      benchmark::DoNotOptimize(frame.CloneBytes());
    } else {
      Frame shared = frame;  // refcount bump — the fan-out fast path
      benchmark::DoNotOptimize(shared);
    }
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FrameShareVsCloneBytes)
    ->Args({256 * 1024, 0})
    ->Args({256 * 1024, 1});

void BM_EnvelopeDecodeView(benchmark::State& state) {
  // Borrowed-view counterpart of BM_EnvelopeDecode: same validation, no
  // payload copy.
  const Frame frame(proto::EncodeEnvelope(
      proto::MessageType::kPing, 1,
      DeterministicBytes(static_cast<std::size_t>(state.range(0)), 1)));
  for (auto _ : state) {
    auto env = proto::DecodeEnvelopeView(frame.span());
    benchmark::DoNotOptimize(env);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EnvelopeDecodeView)->Arg(1024)->Arg(256 * 1024)->Arg(2 * 1024 * 1024);

void BM_ControlFrameEncodeArenaVsPlain(benchmark::State& state) {
  // Small control frames (peer probes, probe replies, region digests)
  // dominate allocation churn at 64+ venues. The arena path recycles
  // the backing buffer of the previous frame; the plain path allocates
  // fresh every time. Wire bytes are identical.
  const bool use_arena = state.range(0) != 0;
  proto::PeerLookupRequest query;
  query.descriptor = proto::FeatureDescriptor::ForHash(proto::TaskKind::kRender,
                                                       Digest128{7, 9});
  query.reply_type = proto::MessageType::kRenderResult;
  FrameArena arena;
  std::uint64_t id = 0;
  for (auto _ : state) {
    ++id;
    if (use_arena) {
      Frame f = arena.Seal(proto::EncodeMessageInto(
          arena.Acquire(proto::kEnvelopeHeaderSize +
                        proto::WireSize(query)),
          proto::MessageType::kPeerLookupRequest, id, query));
      benchmark::DoNotOptimize(f);
    } else {
      Frame f(proto::EncodeMessage(proto::MessageType::kPeerLookupRequest, id,
                                   query));
      benchmark::DoNotOptimize(f);
    }
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(use_arena ? "arena" : "plain");
}
BENCHMARK(BM_ControlFrameEncodeArenaVsPlain)->Arg(0)->Arg(1);

void BM_NetworkBroadcastFanout(benchmark::State& state) {
  // One encoded frame fanned to 8 links — the gossip/relay broadcast
  // shape. With refcounted frames the payload is never duplicated
  // (asserted below via the global copy counter).
  const std::int64_t fanout = 8;
  const Frame frame(proto::EncodeEnvelope(proto::MessageType::kPing, 1,
                                          DeterministicBytes(64 * 1024, 1)));
  for (auto _ : state) {
    netsim::EventScheduler sched;
    netsim::LinkConfig config;
    config.bandwidth = Bandwidth::Gbps(10);
    std::vector<std::unique_ptr<netsim::Link>> links;
    std::uint64_t delivered = 0;
    for (std::int64_t i = 0; i < fanout; ++i) {
      links.push_back(std::make_unique<netsim::Link>(
          sched, "fan" + std::to_string(i), config));
    }
    const std::uint64_t copies_before = frame_stats().copies();
    for (auto& link : links) {
      link->Send(frame, [&delivered](Frame) { ++delivered; });
    }
    sched.Run();
    COIC_CHECK_MSG(frame_stats().copies() == copies_before,
                   "broadcast fan-out must not copy payload bytes");
    benchmark::DoNotOptimize(delivered);
  }
  state.SetItemsProcessed(state.iterations() * fanout);
}
BENCHMARK(BM_NetworkBroadcastFanout);

// --------------------------------- cache -----------------------------------

void BM_IcCacheExactLookup(benchmark::State& state) {
  cache::IcCache ic_cache(cache::IcCacheConfig{});
  const std::int64_t entries = state.range(0);
  for (std::int64_t i = 0; i < entries; ++i) {
    ic_cache.Insert(proto::FeatureDescriptor::ForHash(
                        proto::TaskKind::kRender,
                        Digest128{1, static_cast<std::uint64_t>(i) + 1}),
                    DeterministicBytes(64, i), SimTime::Epoch());
  }
  Rng rng(2);
  for (auto _ : state) {
    const auto key = proto::FeatureDescriptor::ForHash(
        proto::TaskKind::kRender,
        Digest128{1, 1 + rng.NextBelow(static_cast<std::uint64_t>(entries))});
    benchmark::DoNotOptimize(ic_cache.Lookup(key, SimTime::Epoch()));
  }
}
BENCHMARK(BM_IcCacheExactLookup)->Arg(100)->Arg(10'000);

void BM_SimilarityLookupLinearVsLsh(benchmark::State& state) {
  const bool use_lsh = state.range(1) != 0;
  cache::IcCacheConfig config;
  config.use_lsh = use_lsh;
  cache::IcCache ic_cache(config);
  Rng rng(3);
  std::vector<std::vector<float>> stored;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    stored.push_back(RandomUnitVector(rng, 64));
    ic_cache.Insert(proto::FeatureDescriptor::ForVector(
                        proto::TaskKind::kRecognition, stored.back()),
                    DeterministicBytes(64, i), SimTime::Epoch());
  }
  for (auto _ : state) {
    auto query = stored[rng.NextBelow(stored.size())];
    query[0] += 0.01f;
    benchmark::DoNotOptimize(ic_cache.Lookup(
        proto::FeatureDescriptor::ForVector(proto::TaskKind::kRecognition,
                                            std::move(query)),
        SimTime::Epoch()));
  }
  state.SetLabel(use_lsh ? "lsh" : "linear");
}
BENCHMARK(BM_SimilarityLookupLinearVsLsh)
    ->Args({1000, 0})
    ->Args({1000, 1})
    ->Args({10'000, 0})
    ->Args({10'000, 1});

// --------------------------------- vision ----------------------------------

void BM_SyntheticImageGenerate(benchmark::State& state) {
  const auto raster = static_cast<std::uint32_t>(state.range(0));
  std::uint64_t scene = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(vision::SyntheticImage::Generate(
        {.scene_id = ++scene, .width = raster, .height = raster}));
  }
}
// 32 px is the raster the throughput benchmark feeds the extractor; 96 px
// is the DNN-input default the figure reproductions use.
BENCHMARK(BM_SyntheticImageGenerate)->Arg(32)->Arg(96);

void BM_FeatureExtract(benchmark::State& state) {
  const vision::FeatureExtractor extractor;
  const auto img = vision::SyntheticImage::Generate({.scene_id = 1});
  for (auto _ : state) {
    benchmark::DoNotOptimize(extractor.Extract(img));
  }
}
BENCHMARK(BM_FeatureExtract);

// --------------------------------- render ----------------------------------

void BM_ModelSerializeParse(benchmark::State& state) {
  render::ProceduralModelParams params;
  params.target_serialized_bytes = static_cast<Bytes>(state.range(0));
  const auto model = render::BuildProceduralModel(params);
  const ByteVec bytes = render::SerializeModel(model);
  for (auto _ : state) {
    auto loaded = render::LoadModel(bytes);
    benchmark::DoNotOptimize(loaded);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ModelSerializeParse)->Arg(231'000)->Arg(7'050'000);

void BM_PanoramaGenerate(benchmark::State& state) {
  std::uint32_t frame = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(render::Panorama::Generate(1, ++frame));
  }
}
BENCHMARK(BM_PanoramaGenerate);

// ------------------------------ observability ------------------------------

void BM_TracerSpanLifecycle(benchmark::State& state) {
  // The enabled per-request cost: Begin + 3 Transitions + End (5 events,
  // one hash-map touch and one ring write each). Compare against
  // BM_TracerDisabledSite to see what flipping TraceConfig::enabled buys.
  obs::TraceConfig config;
  config.enabled = true;
  obs::RequestTracer tracer(config);
  std::uint64_t id = 0;
  for (auto _ : state) {
    ++id;
    tracer.Begin(id, 0, obs::Phase::kClientCompute, SimTime::FromMicros(1));
    tracer.Transition(id, obs::Phase::kUplink, SimTime::FromMicros(2));
    tracer.Transition(id, obs::Phase::kEdgeLookup, SimTime::FromMicros(3));
    tracer.Transition(id, obs::Phase::kDownlink, SimTime::FromMicros(4));
    tracer.End(id, SimTime::FromMicros(5));
  }
  state.SetItemsProcessed(state.iterations() * 5);
}
BENCHMARK(BM_TracerSpanLifecycle);

void BM_TracerDisabledSite(benchmark::State& state) {
  // The disabled path every hot-path site pays: one null-pointer test.
  obs::RequestTracer* tracer = nullptr;
  benchmark::DoNotOptimize(tracer);
  std::uint64_t hits = 0;
  for (auto _ : state) {
    if (tracer) tracer->End(1, SimTime::Epoch());
    benchmark::DoNotOptimize(hits);
  }
}
BENCHMARK(BM_TracerDisabledSite);

void BM_RegistryCounterVsPlain(benchmark::State& state) {
  // A registered Counter& increment must cost the same as the uint64
  // member it replaced (the migration's "no hot-path tax" contract).
  const bool registry = state.range(0) != 0;
  obs::MetricsRegistry metrics;
  obs::Counter& cell = metrics.GetCounter("bench.counter");
  std::uint64_t plain = 0;
  for (auto _ : state) {
    if (registry) {
      ++cell;
    } else {
      ++plain;
    }
    benchmark::DoNotOptimize(plain);
  }
  state.SetLabel(registry ? "registry" : "plain_uint64");
}
BENCHMARK(BM_RegistryCounterVsPlain)->Arg(0)->Arg(1);

// --------------------------------- netsim ----------------------------------

void BM_SchedulerThroughput(benchmark::State& state) {
  for (auto _ : state) {
    netsim::EventScheduler sched;
    std::uint64_t fired = 0;
    for (int i = 0; i < 10'000; ++i) {
      sched.ScheduleAt(SimTime::FromMicros(i * 7 % 5000),
                       [&fired] { ++fired; });
    }
    sched.Run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * 10'000);
}
BENCHMARK(BM_SchedulerThroughput);

// Schedule + cancel + drain: the free-running gossip-timer pattern
// (every re-armed timer is eventually cancelled at workload drain).
// Exercises the lazy-deletion path — cancelled events ride the heap to
// the top and are discarded there, with no per-event hash-set work.
void BM_SchedulerScheduleCancel(benchmark::State& state) {
  for (auto _ : state) {
    netsim::EventScheduler sched;
    std::vector<netsim::EventId> ids;
    ids.reserve(10'000);
    std::uint64_t fired = 0;
    for (int i = 0; i < 10'000; ++i) {
      ids.push_back(sched.ScheduleAt(SimTime::FromMicros(i * 7 % 5000),
                                     [&fired] { ++fired; }));
    }
    for (std::size_t i = 0; i < ids.size(); i += 2) sched.Cancel(ids[i]);
    sched.Run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * 10'000);
}
BENCHMARK(BM_SchedulerScheduleCancel);

void BM_LinkMessageThroughput(benchmark::State& state) {
  for (auto _ : state) {
    netsim::EventScheduler sched;
    netsim::LinkConfig config;
    config.bandwidth = Bandwidth::Gbps(10);
    netsim::Link link(sched, "bench", config);
    std::uint64_t delivered = 0;
    for (int i = 0; i < 1000; ++i) {
      link.Send(ByteVec(64), [&delivered](Frame) { ++delivered; });
    }
    sched.Run();
    benchmark::DoNotOptimize(delivered);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_LinkMessageThroughput);

// Hand-timed hot-path summary: the BENCH_micro.json rows that track the
// engine's raw throughput across PRs (google-benchmark's own numbers
// only reach stdout).
void EmitMicroJson() {
  using Clock = std::chrono::steady_clock;
  coic::bench::BenchJson json("micro");

  {
    const ByteVec payload = DeterministicBytes(256 * 1024, 1);
    constexpr int kIters = 500;
    const auto start = Clock::now();
    for (int i = 0; i < kIters; ++i) {
      benchmark::DoNotOptimize(
          proto::EncodeEnvelope(proto::MessageType::kPing, 1, payload));
    }
    const double secs = std::chrono::duration<double>(Clock::now() - start).count();
    json.AddRow()
        .Set("path", "envelope_encode_256KiB")
        .Set("mbytes_per_sec", 256.0 / 1024 * kIters / secs);
  }
  {
    netsim::EventScheduler sched;
    std::uint64_t fired = 0;
    constexpr int kEvents = 100'000;
    const auto start = Clock::now();
    for (int i = 0; i < kEvents; ++i) {
      sched.ScheduleAt(SimTime::FromMicros(i * 7 % 5000), [&fired] { ++fired; });
    }
    sched.Run();
    const double secs = std::chrono::duration<double>(Clock::now() - start).count();
    json.AddRow()
        .Set("path", "scheduler_events")
        .Set("events_per_sec", fired / secs);
  }
  {
    // Schedule/cancel/drain: tracks the lazy-deletion Cancel cost across
    // PRs (the closed-loop seed paid two hash-set ops per event here).
    netsim::EventScheduler sched;
    std::uint64_t fired = 0;
    constexpr int kEvents = 100'000;
    std::vector<netsim::EventId> ids;
    ids.reserve(kEvents);
    const auto start = Clock::now();
    for (int i = 0; i < kEvents; ++i) {
      ids.push_back(
          sched.ScheduleAt(SimTime::FromMicros(i * 7 % 5000), [&fired] { ++fired; }));
    }
    for (std::size_t i = 0; i < ids.size(); i += 2) sched.Cancel(ids[i]);
    sched.Run();
    const double secs = std::chrono::duration<double>(Clock::now() - start).count();
    json.AddRow()
        .Set("path", "scheduler_schedule_cancel")
        .Set("events_per_sec", kEvents / secs)
        .Set("fired", fired);
  }
  {
    // Frame fabric: view decode of a 256 KiB envelope (no payload copy)
    // vs the owning decode, plus the copy counters — the trajectory
    // column for the zero-copy refactor.
    const Frame frame(proto::EncodeEnvelope(proto::MessageType::kPing, 1,
                                            DeterministicBytes(256 * 1024, 1)));
    constexpr int kIters = 2000;
    const std::uint64_t copies_before = frame_stats().copies();
    const auto view_start = Clock::now();
    for (int i = 0; i < kIters; ++i) {
      benchmark::DoNotOptimize(proto::DecodeEnvelopeView(frame.span()));
    }
    const double view_secs =
        std::chrono::duration<double>(Clock::now() - view_start).count();
    const auto own_start = Clock::now();
    for (int i = 0; i < kIters; ++i) {
      benchmark::DoNotOptimize(proto::DecodeEnvelope(frame.span()));
    }
    const double own_secs =
        std::chrono::duration<double>(Clock::now() - own_start).count();
    json.AddRow()
        .Set("path", "envelope_decode_view_vs_owning_256KiB")
        .Set("view_mbytes_per_sec", 256.0 / 1024 * kIters / view_secs)
        .Set("owning_mbytes_per_sec", 256.0 / 1024 * kIters / own_secs)
        .Set("frame_copies_during_view_loop",
             frame_stats().copies() - copies_before);
  }
  {
    // 8-way broadcast fan-out of one 64 KiB frame through Links: the
    // gossip shape. frame_copies must stay 0 — shared buffer, refcounts
    // only.
    netsim::EventScheduler sched;
    netsim::LinkConfig config;
    config.bandwidth = Bandwidth::Gbps(10);
    std::vector<std::unique_ptr<netsim::Link>> links;
    for (int i = 0; i < 8; ++i) {
      links.push_back(std::make_unique<netsim::Link>(
          sched, "fan" + std::to_string(i), config));
    }
    const Frame frame(proto::EncodeEnvelope(proto::MessageType::kPing, 1,
                                            DeterministicBytes(64 * 1024, 1)));
    constexpr int kRounds = 500;
    std::uint64_t delivered = 0;
    const std::uint64_t copies_before = frame_stats().copies();
    const std::uint64_t copy_bytes_before = frame_stats().bytes_copied();
    const auto start = Clock::now();
    for (int round = 0; round < kRounds; ++round) {
      for (auto& link : links) {
        link->Send(frame, [&delivered](Frame) { ++delivered; });
      }
      sched.Run();
    }
    const double secs =
        std::chrono::duration<double>(Clock::now() - start).count();
    json.AddRow()
        .Set("path", "broadcast_fanout_8x64KiB")
        .Set("frames_per_sec", delivered / secs)
        .Set("frame_copies", frame_stats().copies() - copies_before)
        .Set("frame_bytes_copied",
             frame_stats().bytes_copied() - copy_bytes_before);
  }
  {
    // Arena vs plain encode of a small control frame (a peer probe):
    // the per-frame allocation the two-tier gossip/probe planes shed at
    // scale. Wire bytes are identical; the arena loop must also stay
    // copy-free (recycling is a buffer reuse, never a memcpy).
    proto::PeerLookupRequest query;
    query.descriptor = proto::FeatureDescriptor::ForHash(
        proto::TaskKind::kRender, Digest128{7, 9});
    query.reply_type = proto::MessageType::kRenderResult;
    constexpr int kFrames = 200'000;
    const auto plain_start = Clock::now();
    for (int i = 0; i < kFrames; ++i) {
      Frame f(proto::EncodeMessage(proto::MessageType::kPeerLookupRequest,
                                   static_cast<std::uint64_t>(i), query));
      benchmark::DoNotOptimize(f);
    }
    const double plain_secs =
        std::chrono::duration<double>(Clock::now() - plain_start).count();
    FrameArena arena;
    const std::uint64_t copies_before = frame_stats().copies();
    const auto arena_start = Clock::now();
    for (int i = 0; i < kFrames; ++i) {
      Frame f = arena.Seal(proto::EncodeMessageInto(
          arena.Acquire(proto::kEnvelopeHeaderSize +
                        proto::WireSize(query)),
          proto::MessageType::kPeerLookupRequest,
          static_cast<std::uint64_t>(i), query));
      benchmark::DoNotOptimize(f);
    }
    const double arena_secs =
        std::chrono::duration<double>(Clock::now() - arena_start).count();
    COIC_CHECK_MSG(frame_stats().copies() == copies_before,
                   "arena encode must not copy frame bytes");
    COIC_CHECK_MSG(arena.reuses() > 0, "warm arena must recycle buffers");
    json.AddRow()
        .Set("path", "control_frame_encode_arena_vs_plain")
        .Set("plain_ns_per_frame", plain_secs * 1e9 / kFrames)
        .Set("arena_ns_per_frame", arena_secs * 1e9 / kFrames)
        .Set("arena_reuses", arena.reuses())
        .Set("arena_allocations", arena.allocations())
        .Set("frame_copies", frame_stats().copies() - copies_before);
  }
  double disabled_ns_per_site = 0;
  {
    // Tracer cost model, pinned as trajectory rows: the disabled path is
    // one null-pointer test per instrumentation site; the enabled path
    // is a hash-map touch plus a ring write per event.
    obs::RequestTracer* disabled = nullptr;
    benchmark::DoNotOptimize(disabled);
    constexpr int kSites = 2'000'000;
    std::uint64_t sink = 0;
    const auto off_start = Clock::now();
    for (int i = 0; i < kSites; ++i) {
      if (disabled) disabled->End(1, SimTime::Epoch());
      benchmark::DoNotOptimize(sink);
    }
    const double off_secs =
        std::chrono::duration<double>(Clock::now() - off_start).count();
    disabled_ns_per_site = off_secs * 1e9 / kSites;

    obs::TraceConfig config;
    config.enabled = true;
    obs::RequestTracer tracer(config);
    constexpr int kRequests = 100'000;
    const auto on_start = Clock::now();
    for (int i = 1; i <= kRequests; ++i) {
      const auto id = static_cast<std::uint64_t>(i);
      tracer.Begin(id, 0, obs::Phase::kClientCompute, SimTime::FromMicros(1));
      tracer.Transition(id, obs::Phase::kUplink, SimTime::FromMicros(2));
      tracer.Transition(id, obs::Phase::kEdgeLookup, SimTime::FromMicros(3));
      tracer.Transition(id, obs::Phase::kDownlink, SimTime::FromMicros(4));
      tracer.End(id, SimTime::FromMicros(5));
    }
    const double on_secs =
        std::chrono::duration<double>(Clock::now() - on_start).count();
    json.AddRow()
        .Set("path", "tracer_disabled_vs_enabled")
        .Set("disabled_ns_per_site", disabled_ns_per_site)
        .Set("enabled_ns_per_event", on_secs * 1e9 / (kRequests * 5.0))
        .Set("enabled_spans_recorded", tracer.spans_recorded());
  }
  {
    // Registered Counter& vs the plain uint64 member it replaced: the
    // migration's "no hot-path tax" contract, as a measured ratio.
    obs::MetricsRegistry metrics;
    obs::Counter& cell = metrics.GetCounter("bench.counter");
    std::uint64_t plain = 0;
    constexpr int kIncrements = 5'000'000;
    const auto plain_start = Clock::now();
    for (int i = 0; i < kIncrements; ++i) {
      ++plain;
      benchmark::DoNotOptimize(plain);
    }
    const double plain_secs =
        std::chrono::duration<double>(Clock::now() - plain_start).count();
    const auto cell_start = Clock::now();
    for (int i = 0; i < kIncrements; ++i) {
      ++cell;
      benchmark::DoNotOptimize(cell);
    }
    const double cell_secs =
        std::chrono::duration<double>(Clock::now() - cell_start).count();
    json.AddRow()
        .Set("path", "registry_counter_vs_plain_uint64")
        .Set("plain_ns_per_inc", plain_secs * 1e9 / kIncrements)
        .Set("registry_ns_per_inc", cell_secs * 1e9 / kIncrements)
        .Set("counter_value", cell.value());
  }
  {
    // The zero-cost-when-disabled guard, enforced every run: a traced-off
    // federation storm must add no frame copies, and the null-guard
    // burden (~10 instrumentation sites per request at the measured
    // per-site cost) must stay under 2% of the storm's wall time.
    federation::FederationPipelineConfig config;
    config.venues = 4;
    config.mobiles_per_venue = 2;
    config.policy.kind = federation::PeerSelectKind::kSummaryDirected;
    config.gossip_period = Duration::Millis(100);
    config.network =
        core::NetworkCondition{Bandwidth::Gbps(1), Bandwidth::Mbps(200)};
    federation::FederationPipeline pipeline(config);
    for (std::uint64_t m = 1; m <= 6; ++m) {
      pipeline.RegisterModel(m, 64 * 1024 + m * 4096);
    }
    constexpr std::size_t kOps = 1'000;
    for (const auto& p : trace::MakeRenderStorm(4, kOps, 500.0)) {
      pipeline.EnqueuePlaced(p);
    }
    const obs::MetricsSnapshot before = pipeline.metrics().Snapshot();
    const auto start = Clock::now();
    const auto outcomes = pipeline.RunOpenLoop();
    const double storm_secs =
        std::chrono::duration<double>(Clock::now() - start).count();
    const obs::MetricsSnapshot delta =
        pipeline.metrics().Snapshot().DiffSince(before);
    COIC_CHECK_MSG(outcomes.size() == kOps, "storm must drain");
    COIC_CHECK_MSG(delta.value("frame.copies") == 0,
                   "disabled tracing must not introduce frame copies");
    const double guard_secs =
        disabled_ns_per_site * 1e-9 * 10.0 * static_cast<double>(kOps);
    COIC_CHECK_MSG(guard_secs < 0.02 * storm_secs,
                   "disabled tracer null-guards must cost <2% of storm wall");
    json.AddRow()
        .Set("path", "storm_tracing_disabled_guard")
        .Set("operations", static_cast<std::uint64_t>(kOps))
        .Set("storm_wall_ms", storm_secs * 1e3)
        .Set("null_guard_overhead_ms", guard_secs * 1e3)
        .Set("frame_copies", delta.value("frame.copies"));
  }
}

}  // namespace
}  // namespace coic

int main(int argc, char** argv) {
  coic::SetLogLevel(coic::LogLevel::kWarn);
  coic::EmitMicroJson();
  if (coic::bench::QuickMode(argc, argv)) {
    // Smoke mode: execute every registered microbenchmark once, with the
    // shortest measurement window google-benchmark accepts. Suffix-less
    // value on purpose: benchmark 1.7 silently ignores the 1.8+ "0.001s"
    // spelling (falls back to the 0.5 s default), while 1.8+ still
    // parses the bare number on its backward-compat path.
    char name[] = "bench_micro";
    char min_time[] = "--benchmark_min_time=0.001";
    char* quick_argv[] = {name, min_time, nullptr};
    int quick_argc = 2;
    benchmark::Initialize(&quick_argc, quick_argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
