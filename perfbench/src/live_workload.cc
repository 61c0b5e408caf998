// live_loopback: one EdgeServer and one CloudServer on 127.0.0.1 in this
// process, and two closed-loop LiveClients replaying the mixed AR trace.
// Latencies are wall-clock, measured by the client from task start to
// display.
#include <algorithm>
#include <memory>
#include <optional>
#include <set>
#include <thread>

#include "bench.h"
#include "common/hash.h"
#include "common/units.h"
#include "net/frame_stream.h"
#include "net/servers.h"
#include "replay.h"
#include "trace/workload.h"

namespace perfbench {
namespace {

using coic::trace::IcTaskType;
using coic::trace::PlacedRecord;

constexpr std::uint32_t kClients = 2;
constexpr std::uint32_t kObjects = 12;
constexpr std::uint64_t kVideoId = 7;
/// Ops replayed per second of --seconds: a fixed amount of work per run,
/// so the work (and with it cache contents and memory) does not depend on
/// host speed.
constexpr double kOpsPerSecond = 1000;
/// Floor on ops per run: the panorama family (1 op in 10) needs 1000
/// samples for ten beyond its p99.
constexpr double kMinOps = 12'000;
/// Deployments per run; setup_s and the p50s are medians over them.
constexpr int kReps = 6;

std::vector<PlacedRecord> MakeTrace(std::uint64_t seed, std::size_t ops) {
  coic::trace::ClusterWorkloadConfig wl;
  wl.venues = 1;
  wl.base.users = kClients;
  wl.base.objects = kObjects;
  wl.base.scene_raster = 32;
  wl.base.seed = seed;
  wl.placement_seed = seed ^ 0x5eed;
  coic::trace::ClusterWorkloadGenerator gen(wl);
  std::vector<std::uint64_t> models;
  for (std::uint64_t m = 1; m <= kObjects; ++m) models.push_back(m);
  return gen.GenerateMixed(ops, models, kVideoId);
}

struct ClientLog {
  std::vector<coic::core::RequestOutcome> outcomes;
  std::uint64_t transport_failures = 0;
  std::set<std::uint32_t> pano_frames;
};

/// One rep: servers, clients, a timed closed-loop slice, verification.
struct LiveRep {
  std::vector<PlacedRecord> ops;
  std::unique_ptr<coic::net::CloudServer> cloud;
  std::unique_ptr<coic::net::EdgeServer> edge;
  std::vector<std::unique_ptr<coic::net::LiveClient>> clients;
  double gen_s = 0;
  double setup_s = 0;
  double connect_ms = 0;
  double wall_s = 0;
  ClientLog logs[kClients];

  ~LiveRep() {
    clients.clear();
    if (edge) edge->Stop();
    if (cloud) cloud->Stop();
  }
};

void SetUp(LiveRep& rep, std::uint64_t seed, std::size_t ops, Result& result,
           SpanLog& spans, std::uint64_t id) {
  const auto t0 = Clock::now();
  rep.ops = MakeTrace(seed, ops);
  rep.gen_s = SecondsSince(t0);
  spans.Add("trace.generate", "trace", id, t0);

  auto t = Clock::now();
  coic::net::ServerOptions options;  // loopback, ephemeral ports, no delays
  rep.cloud = std::make_unique<coic::net::CloudServer>(
      options, coic::core::CloudService::Config{});
  const auto cloud_status = rep.cloud->Start();
  result.Require("cloud_start", cloud_status.ok(), cloud_status.message());
  for (std::uint64_t m = 1; m <= kObjects; ++m) {
    rep.cloud->service().RegisterModel(m, coic::KB(256) + m * coic::KB(8));
  }
  spans.Add("cloud.start_and_register", "net", id, t);

  t = Clock::now();
  rep.edge = std::make_unique<coic::net::EdgeServer>(
      options, coic::core::EdgeService::Config{},
      coic::net::SocketAddress{"127.0.0.1", rep.cloud->port()});
  const auto edge_status = rep.edge->Start();
  result.Require("edge_start", edge_status.ok(), edge_status.message());
  spans.Add("edge.start", "net", id, t);

  t = Clock::now();
  coic::net::LiveClient::Options client_options;
  client_options.edge = {"127.0.0.1", rep.edge->port()};
  for (std::uint32_t c = 0; c < kClients; ++c) {
    auto client = coic::net::LiveClient::Connect(client_options);
    result.Require("client_connect", client.ok(), client.status().message());
    if (client.ok()) rep.clients.push_back(std::move(client).value());
  }
  rep.connect_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t).count() /
      kClients;
  spans.Add("clients.connect", "net", id, t);
  rep.setup_s = SecondsSince(t0);
}

/// Client `c` replays every kClients-th op, each waiting for its reply.
void ReplayClient(LiveRep& rep, std::uint32_t c, SpanLog* spans,
                  std::uint64_t id_base) {
  ClientLog& log = rep.logs[c];
  coic::net::LiveClient& client = *rep.clients[c];
  const auto& registry = rep.cloud->service().model_registry();
  for (std::size_t i = c; i < rep.ops.size(); i += kClients) {
    const auto& r = rep.ops[i].record;
    const auto t = Clock::now();
    coic::Result<coic::core::RequestOutcome> out = coic::Status::Ok();
    const char* name = "";
    switch (r.type) {
      case IcTaskType::kRecognition:
        name = "live.recognize";
        out = client.Recognize(
            r.scene, coic::core::CloudService::LabelForScene(r.scene.scene_id));
        break;
      case IcTaskType::kRender:
        name = "live.load_model";
        out = client.LoadModel(r.model_id, registry.DigestFor(r.model_id).value());
        break;
      case IcTaskType::kPanorama:
        name = "live.fetch_panorama";
        out = client.FetchPanorama(r.video_id, r.frame_index);
        log.pano_frames.insert(r.frame_index);
        break;
    }
    if (spans) spans->Add(name, "net", id_base + i, t);
    if (out.ok()) {
      log.outcomes.push_back(std::move(out).value());
    } else {
      ++log.transport_failures;
    }
  }
}

void Replay(LiveRep& rep, SpanLog* spans, std::uint64_t id_base) {
  const auto start = Clock::now();
  std::vector<std::thread> threads;
  for (std::uint32_t c = 0; c < rep.clients.size(); ++c) {
    threads.emplace_back(ReplayClient, std::ref(rep), c, spans, id_base);
  }
  for (auto& t : threads) t.join();
  rep.wall_s = SecondsSince(start);
}

/// Sends `request` over `stream` and returns the content digest of the
/// payload bytes `field` picks from the decoded reply, or nullopt when any
/// step fails.
template <typename View, typename Request, typename Field>
std::optional<coic::Digest128> FetchDigest(coic::net::TcpStream& stream,
                                           coic::proto::MessageType type,
                                           std::uint64_t request_id,
                                           const Request& request,
                                           coic::proto::MessageType reply_type,
                                           Field field) {
  namespace proto = coic::proto;
  if (!coic::net::WriteFrame(stream, proto::EncodeMessage(type, request_id, request))
           .ok()) {
    return std::nullopt;
  }
  const auto reply = coic::net::ReadFrame(stream);
  if (!reply.ok()) return std::nullopt;
  const auto env = proto::DecodeEnvelopeView(reply.value());
  if (!env.ok()) return std::nullopt;
  const auto result = proto::DecodePayloadAs<View>(env.value(), reply_type);
  if (!result.ok()) return std::nullopt;
  return coic::ContentDigest(field(result.value()));
}

/// Render and panorama payloads served by the edge must match the
/// cloud's: models by the registry digest, panorama frames by a direct
/// fetch from the cloud.
void VerifyPayloads(LiveRep& rep, Result& result) {
  namespace proto = coic::proto;
  auto via_edge =
      coic::net::TcpStream::Connect({"127.0.0.1", rep.edge->port()});
  auto via_cloud =
      coic::net::TcpStream::Connect({"127.0.0.1", rep.cloud->port()});
  if (!via_edge.ok() || !via_cloud.ok()) {
    result.Require("payload_digests", false, "verification connect failed");
    return;
  }
  const auto& registry = rep.cloud->service().model_registry();
  std::uint64_t request_id = 0xD16E570000000000ULL;
  std::uint64_t checked = 0, mismatched = 0;
  for (std::uint64_t m = 1; m <= kObjects; ++m) {
    const auto expected = registry.DigestFor(m).value();
    proto::RenderRequest req;
    req.model_id = m;
    req.descriptor = proto::FeatureDescriptor::ForHash(proto::TaskKind::kRender,
                                                       expected);
    const auto served = FetchDigest<proto::RenderResultView>(
        via_edge.value(), proto::MessageType::kRenderRequest, ++request_id, req,
        proto::MessageType::kRenderResult,
        [](const proto::RenderResultView& v) { return v.model_bytes; });
    ++checked;
    if (!served || !(*served == expected)) ++mismatched;
  }
  std::set<std::uint32_t> frames;
  for (const auto& log : rep.logs) {
    frames.insert(log.pano_frames.begin(), log.pano_frames.end());
  }
  // Every fourth distinct frame: a fresh cloud render plus two 2.4 MB
  // fetches per frame make the full set cost more than the run.
  std::size_t k = 0;
  for (const std::uint32_t f : frames) {
    if (k++ % 4 != 0) continue;
    proto::PanoramaRequest req;
    req.video_id = kVideoId;
    req.frame_index = f;
    req.descriptor = proto::FeatureDescriptor::ForHash(
        proto::TaskKind::kPanorama,
        coic::core::CoicClient::PanoramaIdentityDigest(kVideoId, f));
    const auto frame_of = [](const proto::PanoramaResultView& v) { return v.frame; };
    const auto served = FetchDigest<proto::PanoramaResultView>(
        via_edge.value(), proto::MessageType::kPanoramaRequest, ++request_id, req,
        proto::MessageType::kPanoramaResult, frame_of);
    const auto origin = FetchDigest<proto::PanoramaResultView>(
        via_cloud.value(), proto::MessageType::kPanoramaRequest, ++request_id, req,
        proto::MessageType::kPanoramaResult, frame_of);
    ++checked;
    if (!served || !origin || !(*served == *origin)) ++mismatched;
  }
  result.Require("payload_digests", mismatched == 0,
                 std::to_string(mismatched) + " of " + std::to_string(checked) +
                     " render/panorama payloads differ from the cloud's");
}

std::uint64_t Account(const LiveRep& rep, Result& result) {
  std::uint64_t completed = 0, errors = 0, failures = 0;
  for (const auto& log : rep.logs) {
    completed += log.outcomes.size();
    failures += log.transport_failures;
    for (const auto& o : log.outcomes) errors += o.error ? 1 : 0;
  }
  result.attempted += completed + failures;
  result.Require("complete_exactly_once", failures == 0,
                 std::to_string(failures) + " ops without a reply");
  return errors + failures;
}

// ---------------------------------------------------------------------------

Result RunEndToEnd(const Options& o, SpanLog& spans) {
  Result result;
  result.workload = "live_loopback";
  const auto ops = static_cast<std::size_t>(
      std::max(o.seconds * kOpsPerSecond, kMinOps) / kReps);
  FamilyLatencies latencies;
  KnownClassAccuracy accuracy{coic::core::CloudService::Config{}.recognition_classes};
  std::vector<double> setup_s, ops_per_s;
  std::uint64_t served = 0, cache_served = 0;
  for (int i = 0; i < kReps; ++i) {
    LiveRep rep;
    SetUp(rep, SubSeed(o.seed, i), ops, result, spans, i);
    setup_s.push_back(rep.setup_s);
    if (rep.clients.size() != kClients) break;
    Replay(rep, nullptr, 0);
    std::uint64_t completed = 0;
    for (const auto& log : rep.logs) {
      completed += log.outcomes.size();
      for (const auto& out : log.outcomes) {
        latencies.Add(out);
        accuracy.Add(out);
        if (out.error) continue;
        ++served;
        if (out.source == coic::proto::ResultSource::kEdgeCache) ++cache_served;
      }
    }
    ops_per_s.push_back(static_cast<double>(completed) / rep.wall_s);
    result.failed += Account(rep, result);
    VerifyPayloads(rep, result);
  }
  result.Set("ops_per_s", Median(ops_per_s), "1/s", ops_per_s.size());
  result.Set("setup_s", Median(setup_s), "s", setup_s.size());
  result.Set("peak_rss_mb", PeakRssMb(), "MB", 1);
  result.Set("failed_frac",
             result.attempted ? static_cast<double>(result.failed) /
                                    static_cast<double>(result.attempted)
                              : 1.0,
             "ratio", result.attempted);
  result.Set("hit_rate",
             served ? static_cast<double>(cache_served) / static_cast<double>(served)
                    : 0.0,
             "ratio", served);
  accuracy.Report(result);
  latencies.Report(result);
  return result;
}

Result RunTraced(const Options& o, SpanLog& spans) {
  Result result;
  result.workload = "live_loopback";
  // One untraced and one traced slice on fresh deployments of the same
  // trace; the traced slice records a benchmark span per op.
  const auto ops = static_cast<std::size_t>(o.seconds * kOpsPerSecond / 2);
  LiveRep plain;
  SetUp(plain, SubSeed(o.seed, 0), ops, result, spans, 1000);
  if (plain.clients.size() == kClients) Replay(plain, nullptr, 0);
  result.failed += Account(plain, result);

  LiveRep rep;
  SetUp(rep, SubSeed(o.seed, 0), ops, result, spans, 1001);
  if (rep.clients.size() == kClients) Replay(rep, &spans, 1'000'000);
  result.failed += Account(rep, result);

  std::uint64_t plain_done = 0, done = 0;
  for (const auto& log : plain.logs) plain_done += log.outcomes.size();
  double latency_s = 0;
  for (const auto& log : rep.logs) {
    done += log.outcomes.size();
    for (const auto& out : log.outcomes) latency_s += out.latency.seconds();
  }
  const double n = static_cast<double>(std::max<std::uint64_t>(done, 1));
  const auto per_op = [n](std::uint64_t v) { return static_cast<double>(v) / n; };

  result.Set("trace.gen_s", Median({plain.gen_s, rep.gen_s}), "s", 2);

  const auto& models = rep.cloud->service().model_registry();
  const PayloadReplay payload = ReplayPayloadLayers(
      rep.ops, models, coic::vision::FeatureExtractorConfig{}, kClients, spans);
  // Shares are of the summed request time of both clients.
  result.Set("vision.synth_us", payload.synth_us, "us", payload.recog_ops);
  result.Set("vision.extract_us", payload.extract_us, "us", payload.recog_ops);
  result.Set("vision.share", VisionSeconds(payload) / latency_s, "ratio", 1);
  result.Set("render.load_us", payload.load_us, "us", payload.render_ops);
  result.Set("render.pano_us", payload.pano_us, "us", payload.pano_ops);
  result.Set("render.share", RenderSeconds(payload) / latency_s, "ratio", 1);
  result.Set("common.digest_us", payload.digest_us, "us", rep.ops.size());
  result.Set("common.frame_copies_per_op", 0, "count/op", 0);
  result.Set("common.frame_bytes_copied_per_op", 0, "B/op", 0);

  const MessageMix mix = CountRequests(rep.ops);
  const auto& edge = rep.edge->service();
  auto t = Clock::now();
  const ProtoReplay proto = ReplayProto(mix, rep.ops, payload, models,
                                        coic::core::CostModel{}, edge.cache());
  spans.Add("replay.proto", "proto", 0, t);
  result.Set("proto.encode_ns", proto.encode_ns, "ns", proto.frames);
  result.Set("proto.decode_ns", proto.decode_ns, "ns", proto.frames);
  // Client<->edge request and reply, plus the edge<->cloud pair per forward.
  result.Set("proto.frames_per_op", per_op(2 * done + 2 * edge.forwards()),
             "count/op", 1);
  result.Set("proto.bytes_per_op", 0, "B/op", 0);

  // Real sockets: no simulator.
  result.Set("netsim.events_per_op", 0, "count/op", 0);
  result.Set("netsim.sync_windows_per_op", 0, "count/op", 0);
  result.Set("netsim.xshard_msgs_per_op", 0, "count/op", 0);
  result.Set("netsim.max_inflight", kClients, "count", 1);
  result.Set("netsim.sched_ns", 0, "ns", 0);
  result.Set("netsim.worker_imbalance", 0, "ratio", 0);
  result.Set("netsim.shard_speedup_2w", 0, "ratio", 0);

  const auto& stats = edge.cache().stats();
  const std::uint64_t lookups = stats.hits + stats.misses;
  t = Clock::now();
  const double lookup_us = ReplayCacheLookupUs(edge.cache(), payload.keys);
  spans.Add("replay.cache_lookup", "cache", 0, t);
  const double hit_ratio =
      lookups ? static_cast<double>(stats.hits) / static_cast<double>(lookups) : 0.0;
  result.Set("cache.local_hit_ratio", hit_ratio, "ratio", lookups);
  result.Set("cache.inserts_per_op", per_op(stats.insertions), "count/op", 1);
  result.Set("cache.evictions_per_op", per_op(stats.evictions), "count/op", 1);
  result.Set("cache.lookup_us", lookup_us, "us", payload.keys.size());

  // One edge: no federation.
  result.Set("federation.gossip_bytes_per_op", 0, "B/op", 0);
  result.Set("federation.gossip_frames_per_op", 0, "count/op", 0);
  result.Set("federation.relay_forwards_per_op", 0, "count/op", 0);
  result.Set("federation.head_forwards_per_op", 0, "count/op", 0);
  result.Set("federation.probes_per_miss", 0, "ratio", 0);
  result.Set("federation.peer_hit_ratio", 0, "ratio", 0);
  result.Set("federation.summary_build_us", 0, "us", 0);

  result.Set("core.cloud_forwards_per_op", per_op(edge.forwards()), "count/op", 1);
  result.Set("core.coalesced_per_op", per_op(edge.coalesced_requests()),
             "count/op", 1);
  result.Set("core.sheds", static_cast<double>(edge.overload_sheds()), "count", 1);
  result.Set("core.retransmissions", 0, "count", 1);
  // The live stack runs without the sim-clock request tracer.
  for (int ph = 0; ph < coic::obs::kPhaseCount; ++ph) {
    const std::string name =
        std::string("phase.") + coic::obs::PhaseName(static_cast<coic::obs::Phase>(ph));
    result.Set(name + ".p50_us", 0, "us", 0);
    result.Set(name + ".p99_us", 0, "us", 0);
  }
  // Tracing cost here is the benchmark's per-op span: compare throughput.
  const double plain_rate = static_cast<double>(plain_done) / plain.wall_s;
  const double traced_rate = static_cast<double>(done) / rep.wall_s;
  result.Set("obs.trace_overhead", traced_rate > 0 ? plain_rate / traced_rate - 1 : 0,
             "ratio", 2);
  result.Set("obs.spans", static_cast<double>(done), "count", 1);

  result.Set("net.connect_ms", rep.connect_ms, "ms", kClients);
  result.Set("net.edge_hit_ratio", hit_ratio, "ratio", lookups);
  // On-device compute (image synthesis, feature extraction, model ingest)
  // from the replays; the outcomes' client_compute is the cost model's,
  // which the live clients do not sleep.
  const double client_compute_s =
      VisionSeconds(payload) +
      payload.load_us * static_cast<double>(payload.load_calls) * 1e-6;
  result.Set("net.client_compute_share",
             latency_s > 0 ? client_compute_s / latency_s : 0, "ratio", done);
  result.Set("net.cloud_tasks_per_op",
             per_op(rep.cloud->service().tasks_executed()), "count/op", 1);

  const double attributed =
      VisionSeconds(payload) + RenderSeconds(payload) +
      static_cast<double>(proto.frames) * (proto.encode_ns + proto.decode_ns) * 1e-9 +
      static_cast<double>(lookups) * lookup_us * 1e-6;
  result.Set("run.unattributed_share", latency_s > 0 ? 1 - attributed / latency_s : 0,
             "ratio", 1);
  // Last: its fetches touch the edge cache counters read above.
  VerifyPayloads(rep, result);
  return result;
}

}  // namespace

Result RunLiveLoopback(const Options& options, SpanLog& spans) {
  return options.traced ? RunTraced(options, spans) : RunEndToEnd(options, spans);
}

}  // namespace perfbench
