// The two simulator workloads: mixed_storm (8-venue mixed AR storm) and
// region_churn (64-venue hierarchical render churn). Latencies are
// sim-time; ops_per_s and setup_s are wall-clock.
#include <malloc.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <tuple>

#include "bench.h"
#include "common/units.h"
#include "federation/federation_pipeline.h"
#include "federation/summary.h"
#include "replay.h"

namespace perfbench {
namespace {

using coic::federation::FederationOutcome;
using coic::federation::FederationPipeline;
using coic::federation::FederationPipelineConfig;
using coic::trace::IcTaskType;
using coic::trace::PlacedRecord;

struct SimWorkload {
  const char* name;
  FederationPipelineConfig config;
  /// Distinct sub-seeds whose runs are pooled into the sim-time metrics.
  /// Runs beyond these repeat the same traces and only add wall samples,
  /// so sim-time metrics do not depend on host speed.
  int latency_reps;
  std::function<std::vector<PlacedRecord>(std::uint64_t seed)> make_trace;
  std::function<void(FederationPipeline&)> register_models;
  /// The workload must mix cache writes with reads (region_churn).
  bool requires_evictions;
  /// The traced run also replays at 2 workers (shard sync numbers and
  /// the bit-identity check).
  bool shard_check;
};

// ---------------------------------------------------------------------------
// Workload definitions
// ---------------------------------------------------------------------------

constexpr std::uint64_t kVideoId = 7;

SimWorkload MixedStorm() {
  constexpr std::uint32_t kVenues = 8;
  constexpr std::uint32_t kMobiles = 4;
  constexpr std::uint32_t kObjects = 12;
  // 20k-op storms: shorter ones start cold so often that the render and
  // panorama p99s sat on the edge of the cold-miss population and moved
  // by a quarter from seed to seed.
  constexpr std::size_t kOps = 20'000;
  SimWorkload w;
  w.name = "mixed_storm";
  FederationPipelineConfig& c = w.config;
  c.venues = kVenues;
  c.mobiles_per_venue = kMobiles;
  c.topology = coic::federation::TopologyKind::kFullMesh;
  c.policy.kind = coic::federation::PeerSelectKind::kSummaryDirected;
  c.gossip_period = coic::Duration::Millis(100);
  c.network = coic::core::NetworkCondition{coic::Bandwidth::Gbps(1),
                                           coic::Bandwidth::Mbps(200)};
  w.latency_reps = 2;
  w.make_trace = [](std::uint64_t seed) {
    coic::trace::ClusterWorkloadConfig wl;
    wl.venues = kVenues;
    wl.base.users = kVenues * kMobiles;
    wl.base.objects = kObjects;
    wl.base.scene_raster = 32;
    wl.base.seed = seed;
    wl.placement_seed = seed ^ 0x5eed;
    coic::trace::ClusterWorkloadGenerator gen(wl);
    std::vector<std::uint64_t> models;
    for (std::uint64_t m = 1; m <= kObjects; ++m) models.push_back(m);
    auto placed = gen.GenerateMixed(kOps, models, kVideoId);
    coic::trace::RetimeArrivals(std::span<PlacedRecord>(placed), 1000.0, seed);
    return placed;
  };
  w.register_models = [](FederationPipeline& p) {
    for (std::uint64_t m = 1; m <= kObjects; ++m) {
      p.RegisterModel(m, coic::KB(256) + m * coic::KB(8));
    }
  };
  w.requires_evictions = false;
  w.shard_check = false;
  return w;
}

SimWorkload RegionChurn() {
  constexpr std::uint32_t kVenues = 64;
  constexpr std::uint32_t kMobiles = 2;
  constexpr std::uint64_t kModels = 240;
  constexpr std::size_t kOps = 5000;
  SimWorkload w;
  w.name = "region_churn";
  FederationPipelineConfig& c = w.config;
  c.venues = kVenues;
  c.mobiles_per_venue = kMobiles;
  c.policy.kind = coic::federation::PeerSelectKind::kSummaryDirected;
  c.gossip_period = coic::Duration::Millis(50);
  c.region.hierarchical = true;
  c.region.cross_fanout = 2;
  c.network = coic::core::NetworkCondition{coic::Bandwidth::Gbps(1),
                                           coic::Bandwidth::Mbps(200)};
  // Metro-LAN jitter on the peer links, so peer-served latencies spread
  // as they would on a real fabric instead of repeating one constant.
  c.peer_link.jitter = coic::Duration::Millis(1);
  // The catalogue (~18 MB) is several times one edge's capacity, so
  // every edge keeps evicting while it serves.
  c.cache.capacity_bytes = coic::MB(4);
  // Eight 5k-op storms: the panorama family (1 op in 16) needs the pool
  // to hold its p99 steady from seed to seed.
  w.latency_reps = 8;
  w.make_trace = [](std::uint64_t seed) {
    coic::trace::ClusterWorkloadConfig wl;
    wl.venues = kVenues;
    wl.base.users = kVenues * kMobiles;
    wl.base.objects = 12;
    wl.base.scene_raster = 32;
    wl.base.seed = seed;
    wl.placement_seed = seed ^ 0x5eed;
    wl.handoff_probability = 0.2;
    coic::trace::ClusterWorkloadGenerator gen(wl);
    std::vector<std::uint64_t> models;
    for (std::uint64_t m = 1; m <= kModels; ++m) models.push_back(m);
    // Render churn, with thin recognition and panorama streams (1 op in
    // 16 each) so every task family's latency is measured.
    auto recog = gen.GenerateRecognition(kOps / 16);
    auto pano = gen.GeneratePanorama(kOps / 16, kVideoId, 120);
    auto render = gen.GenerateRender(kOps - recog.size() - pano.size(), models);
    std::vector<PlacedRecord> placed;
    placed.reserve(kOps);
    std::size_t ri = 0, gi = 0, pi = 0;
    for (std::size_t i = 0; i < kOps; ++i) {
      if (i % 16 == 5 && gi < recog.size()) {
        placed.push_back(recog[gi++]);
      } else if (i % 16 == 13 && pi < pano.size()) {
        placed.push_back(pano[pi++]);
      } else {
        placed.push_back(render[ri++]);
      }
    }
    coic::trace::RetimeArrivals(std::span<PlacedRecord>(placed), 2000.0, seed);
    return placed;
  };
  w.register_models = [](FederationPipeline& p) {
    for (std::uint64_t m = 1; m <= kModels; ++m) {
      p.RegisterModel(m, coic::KB(64) + (m % 8) * coic::KB(4));
    }
  };
  w.requires_evictions = true;
  w.shard_check = true;
  return w;
}

// ---------------------------------------------------------------------------
// One rep: set up, run, validate
// ---------------------------------------------------------------------------

struct Rep {
  std::vector<PlacedRecord> ops;
  std::unique_ptr<FederationPipeline> pipeline;
  double gen_s = 0;
  double setup_s = 0;
  std::vector<FederationOutcome> outcomes;
  double wall_s = 0;
  coic::obs::MetricsSnapshot delta;
};

Rep SetUp(const SimWorkload& w, const FederationPipelineConfig& config,
          std::uint64_t seed, SpanLog& spans, std::uint64_t id) {
  Rep rep;
  const auto t0 = Clock::now();
  rep.ops = w.make_trace(seed);
  rep.gen_s = SecondsSince(t0);
  spans.Add("trace.generate", "trace", id, t0);
  auto t = Clock::now();
  rep.pipeline = std::make_unique<FederationPipeline>(config);
  spans.Add("pipeline.construct", "federation", id, t);
  t = Clock::now();
  w.register_models(*rep.pipeline);
  spans.Add("models.register", "render", id, t);
  t = Clock::now();
  for (const auto& p : rep.ops) rep.pipeline->EnqueuePlaced(p);
  spans.Add("ops.enqueue", "core", id, t);
  rep.setup_s = SecondsSince(t0);
  return rep;
}

void Run(Rep& rep, SpanLog& spans, std::uint64_t id) {
  const auto before = rep.pipeline->MergedMetricsSnapshot();
  const auto t = Clock::now();
  rep.outcomes = rep.pipeline->RunOpenLoop();
  rep.wall_s = SecondsSince(t);
  spans.Add("pipeline.run_open_loop", "core", id, t);
  rep.delta = rep.pipeline->MergedMetricsSnapshot().DiffSince(before);
}

coic::proto::TaskKind KindOf(IcTaskType type) {
  switch (type) {
    case IcTaskType::kRecognition:
      return coic::proto::TaskKind::kRecognition;
    case IcTaskType::kRender:
      return coic::proto::TaskKind::kRender;
    case IcTaskType::kPanorama:
      break;
  }
  return coic::proto::TaskKind::kPanorama;
}

std::uint64_t ObjectOf(const coic::trace::TraceRecord& r) {
  switch (r.type) {
    case IcTaskType::kRecognition:
      return r.scene.scene_id;
    case IcTaskType::kRender:
      return r.model_id;
    case IcTaskType::kPanorama:
      break;
  }
  return r.video_id;
}

/// Correctness gate for one rep; returns errors + ops never completed.
std::uint64_t Validate(const Rep& rep, Result& result) {
  // Every issued op completes exactly once: the multiset of (venue,
  // task, object) over completions equals the one over issued ops.
  using Key = std::tuple<std::uint32_t, int, std::uint64_t>;
  std::map<Key, std::int64_t> balance;
  for (const auto& p : rep.ops) {
    ++balance[{p.venue, static_cast<int>(KindOf(p.record.type)),
               ObjectOf(p.record)}];
  }
  std::uint64_t errors = 0, local = 0, peer = 0, cloud = 0, device = 0;
  for (const auto& o : rep.outcomes) {
    --balance[{o.venue, static_cast<int>(o.outcome.task), o.outcome.object_id}];
    if (o.outcome.error) {
      ++errors;
      continue;
    }
    switch (o.outcome.source) {
      case coic::proto::ResultSource::kEdgeCache:
        ++local;
        break;
      case coic::proto::ResultSource::kPeerEdge:
        ++peer;
        break;
      case coic::proto::ResultSource::kCloud:
        ++cloud;
        break;
      case coic::proto::ResultSource::kLocal:
        ++device;
        break;
    }
  }
  std::uint64_t missing = 0, extra = 0;
  for (const auto& [key, n] : balance) {
    if (n > 0) missing += static_cast<std::uint64_t>(n);
    if (n < 0) extra += static_cast<std::uint64_t>(-n);
  }
  result.Require("complete_exactly_once", missing == 0 && extra == 0,
                 std::to_string(missing) + " never completed, " +
                     std::to_string(extra) + " unmatched completions");
  const std::uint64_t issued = rep.ops.size();
  result.Require("conservation",
                 local + peer + cloud + device + errors == issued,
                 "local " + std::to_string(local) + " + peer " +
                     std::to_string(peer) + " + cloud " + std::to_string(cloud) +
                     " + device " + std::to_string(device) + " + error " +
                     std::to_string(errors) + " vs issued " +
                     std::to_string(issued));
  result.Require("frame_copies_zero", rep.delta.value("frame.copies") == 0,
                 std::to_string(rep.delta.value("frame.copies")) + " copies");
  return errors + missing;
}

struct CacheTotals {
  std::uint64_t hits = 0, misses = 0, insertions = 0, evictions = 0;
};

CacheTotals SumCaches(FederationPipeline& p) {
  CacheTotals t;
  for (std::uint32_t v = 0; v < p.config().venues; ++v) {
    const auto& s = p.edge(v).cache().stats();
    t.hits += s.hits;
    t.misses += s.misses;
    t.insertions += s.insertions;
    t.evictions += s.evictions;
  }
  return t;
}

// ---------------------------------------------------------------------------
// Untraced run: the end-to-end metrics
// ---------------------------------------------------------------------------

Result RunEndToEnd(const SimWorkload& w, const Options& o, SpanLog& spans) {
  Result result;
  result.workload = w.name;
  FamilyLatencies latencies;
  KnownClassAccuracy accuracy{w.config.recognition_classes};
  std::vector<double> setup_s, ops_per_s;
  std::uint64_t served = 0, cache_served = 0, evictions = 0, pooled_ops = 0;
  const auto start = Clock::now();
  double rep_s = 0;  // duration of the last rep, to stop within --seconds
  for (int i = 0;; ++i) {
    if (i > w.latency_reps && SecondsSince(start) + rep_s > o.seconds) break;
    const auto rep_start = Clock::now();
    const int slot = i % w.latency_reps;
    Rep rep = SetUp(w, w.config, SubSeed(o.seed, slot), spans, i);
    Run(rep, spans, i);
    // Rep 0 warms the process (first-touch page faults, allocator
    // growth); it counts for everything but the wall-clock metrics.
    if (i > 0) {
      setup_s.push_back(rep.setup_s);
      ops_per_s.push_back(static_cast<double>(rep.outcomes.size()) / rep.wall_s);
    }
    result.attempted += rep.ops.size();
    result.failed += Validate(rep, result);
    if (i < w.latency_reps) {
      for (const auto& out : rep.outcomes) {
        latencies.Add(out.outcome);
        accuracy.Add(out.outcome);
        if (out.outcome.error) continue;
        ++served;
        if (out.outcome.source == coic::proto::ResultSource::kEdgeCache ||
            out.outcome.source == coic::proto::ResultSource::kPeerEdge) {
          ++cache_served;
        }
      }
      evictions += SumCaches(*rep.pipeline).evictions;
      pooled_ops += rep.ops.size();
    }
    rep_s = SecondsSince(rep_start);
  }
  result.Set("ops_per_s", Median(ops_per_s), "1/s", ops_per_s.size());
  result.Set("setup_s", Median(setup_s), "s", setup_s.size());
  result.Set("peak_rss_mb", PeakRssMb(), "MB", 1);
  result.Set("failed_frac",
             static_cast<double>(result.failed) /
                 static_cast<double>(result.attempted),
             "ratio", result.attempted);
  result.Set("hit_rate",
             served == 0 ? 0.0
                         : static_cast<double>(cache_served) /
                               static_cast<double>(served),
             "ratio", served);
  accuracy.Report(result);
  latencies.Report(result);
  if (w.requires_evictions) {
    result.Require("evictions_per_op_positive", evictions > 0,
                   std::to_string(evictions) + " evictions over " +
                       std::to_string(pooled_ops) + " ops");
  }
  return result;
}

// ---------------------------------------------------------------------------
// Traced run: the per-layer metrics
// ---------------------------------------------------------------------------

using Row = std::tuple<std::int64_t, std::uint32_t, int, int, bool, std::int64_t>;

/// The outcome stream reduced to what the bit-identity contract pins,
/// in canonical (completion time, venue) order.
std::vector<Row> SortedRows(const std::vector<FederationOutcome>& outcomes) {
  std::vector<Row> rows;
  rows.reserve(outcomes.size());
  for (const auto& o : outcomes) {
    rows.emplace_back((o.completed_at - coic::SimTime::Epoch()).micros(),
                      o.venue, static_cast<int>(o.outcome.task),
                      static_cast<int>(o.outcome.source), o.outcome.error,
                      o.outcome.latency.micros());
  }
  std::stable_sort(rows.begin(), rows.end());
  return rows;
}

/// Replays `single`'s trace on the deterministic engine at 2 workers;
/// `single_wall_s` is the 1-worker run wall it is compared against.
void ReportShardSync(const SimWorkload& w, const Options& o, const Rep& single,
                     double single_wall_s, Result& result, SpanLog& spans) {
  FederationPipelineConfig config = w.config;
  config.execution.workers = 2;
  config.execution.mode = coic::federation::ExecutionConfig::Mode::kDeterministic;
  Rep sharded = SetUp(w, config, SubSeed(o.seed, 0), spans, 2000);
  {
    const UnpinnedScope unpinned;
    Run(sharded, spans, 2000);
  }
  result.failed += Validate(sharded, result);
  result.attempted += sharded.ops.size();
  const bool same = SortedRows(single.outcomes) == SortedRows(sharded.outcomes);
  result.Require("shard_bit_identity_2w", same,
                 same ? "sorted outcome streams identical"
                      : "1-worker and 2-worker outcome streams differ");
  const auto& stats = sharded.pipeline->open_loop_stats();
  const double n = static_cast<double>(sharded.outcomes.size());
  result.Set("netsim.sync_windows_per_op",
             static_cast<double>(stats.sync_windows) / n, "count/op", 1);
  result.Set("netsim.xshard_msgs_per_op",
             static_cast<double>(stats.cross_shard_messages) / n, "count/op", 1);
  double max = 0, sum = 0;
  for (const auto e : stats.per_worker_events_fired) {
    max = std::max(max, static_cast<double>(e));
    sum += static_cast<double>(e);
  }
  const double mean = sum / static_cast<double>(stats.per_worker_events_fired.size());
  result.Set("netsim.worker_imbalance", mean > 0 ? max / mean : 0, "ratio", 1);
  result.Set("netsim.shard_speedup_2w", single_wall_s / sharded.wall_s, "ratio", 1);
}

Result RunTraced(const SimWorkload& w, const Options& o, SpanLog& spans) {
  Result result;
  result.workload = w.name;
  FederationPipelineConfig traced_config = w.config;
  traced_config.trace.enabled = true;

  // Pair 0 (untraced, traced) is kept for the counters, the tracer and
  // the replays; it also warms the process, so only the pairs after it
  // are timed for obs.trace_overhead.
  std::vector<double> untraced_wall, traced_wall, gen_s;
  Rep base = SetUp(w, w.config, SubSeed(o.seed, 0), spans, 1000);
  Run(base, spans, 1000);
  Rep traced = SetUp(w, traced_config, SubSeed(o.seed, 0), spans, 1001);
  Run(traced, spans, 1001);
  for (const Rep* r : {&base, &traced}) {
    result.attempted += r->ops.size();
    result.failed += Validate(*r, result);
    gen_s.push_back(r->gen_s);
  }
  const auto start = Clock::now();
  for (int i = 1; i <= 3; ++i) {
    if (i > 1 && SecondsSince(start) >= o.seconds / 2) break;
    Rep u = SetUp(w, w.config, SubSeed(o.seed, 0), spans, 1000 + 2 * i);
    Run(u, spans, 1000 + 2 * i);
    Rep t = SetUp(w, traced_config, SubSeed(o.seed, 0), spans, 1001 + 2 * i);
    Run(t, spans, 1001 + 2 * i);
    for (const Rep* r : {&u, &t}) {
      result.attempted += r->ops.size();
      result.failed += Validate(*r, result);
      gen_s.push_back(r->gen_s);
    }
    untraced_wall.push_back(u.wall_s);
    traced_wall.push_back(t.wall_s);
  }
  FederationPipeline& p = *base.pipeline;
  const double n = static_cast<double>(base.outcomes.size());
  // Shares are of a warm untraced run of the same trace.
  const double wall = Median(untraced_wall);
  const auto per_op = [n](std::uint64_t v) { return static_cast<double>(v) / n; };

  result.Set("trace.gen_s", Median(gen_s), "s", gen_s.size());

  // vision / render / common: payload replays on this run's trace.
  const auto& models = p.cloud().model_registry();
  const PayloadReplay payload = ReplayPayloadLayers(
      base.ops, models, w.config.extractor, w.config.mobiles_per_venue, spans);
  result.Set("vision.synth_us", payload.synth_us, "us", payload.recog_ops);
  result.Set("vision.extract_us", payload.extract_us, "us", payload.recog_ops);
  result.Set("vision.share", VisionSeconds(payload) / wall, "ratio", 1);
  result.Set("render.load_us", payload.load_us, "us", payload.render_ops);
  result.Set("render.pano_us", payload.pano_us, "us", payload.pano_ops);
  result.Set("render.share", RenderSeconds(payload) / wall, "ratio", 1);
  result.Set("common.digest_us", payload.digest_us, "us", base.ops.size());
  result.Set("common.frame_copies_per_op", per_op(base.delta.value("frame.copies")),
             "count/op", 1);
  result.Set("common.frame_bytes_copied_per_op",
             per_op(base.delta.value("frame.bytes_copied")), "B/op", 1);

  // proto: the run's message mix, replayed.
  MessageMix mix = CountRequests(base.ops);
  mix.probes = p.total_peer_probes();
  mix.summaries = p.summary_updates_sent();
  mix.digests = p.region_digests_sent();
  auto t = Clock::now();
  const ProtoReplay proto = ReplayProto(mix, base.ops, payload, models,
                                        w.config.costs, p.edge(0).cache());
  spans.Add("replay.proto", "proto", 0, t);
  std::uint64_t link_frames = 0, link_bytes = 0;
  p.network().ForEachLink([&](const coic::netsim::Link& link) {
    link_frames += link.stats().frames_sent;
    link_bytes += link.stats().bytes_delivered;
  });
  result.Set("proto.encode_ns", proto.encode_ns, "ns", proto.frames);
  result.Set("proto.decode_ns", proto.decode_ns, "ns", proto.frames);
  result.Set("proto.frames_per_op", per_op(link_frames), "count/op", 1);
  result.Set("proto.bytes_per_op", per_op(link_bytes), "B/op", 1);

  // netsim
  const auto& stats = p.open_loop_stats();
  t = Clock::now();
  const double sched_ns = ReplaySchedulerNs(stats.events_fired, o.seed);
  spans.Add("replay.scheduler", "netsim", 0, t);
  result.Set("netsim.events_per_op", per_op(stats.events_fired), "count/op", 1);
  result.Set("netsim.max_inflight", stats.max_inflight, "count", 1);
  result.Set("netsim.sched_ns", sched_ns, "ns", stats.events_fired);
  if (w.shard_check) {
    ReportShardSync(w, o, base, Median(untraced_wall), result, spans);
  } else {
    result.Set("netsim.sync_windows_per_op", 0, "count/op", 0);
    result.Set("netsim.xshard_msgs_per_op", 0, "count/op", 0);
    result.Set("netsim.worker_imbalance", 0, "ratio", 0);
    result.Set("netsim.shard_speedup_2w", 0, "ratio", 0);
  }

  // cache
  const CacheTotals cache = SumCaches(p);
  const std::uint64_t lookups = cache.hits + cache.misses;
  t = Clock::now();
  const double lookup_us = ReplayCacheLookupUs(p.edge(0).cache(), payload.keys);
  spans.Add("replay.cache_lookup", "cache", 0, t);
  result.Set("cache.local_hit_ratio",
             lookups ? static_cast<double>(cache.hits) / static_cast<double>(lookups)
                     : 0.0,
             "ratio", lookups);
  result.Set("cache.inserts_per_op", per_op(cache.insertions), "count/op", 1);
  result.Set("cache.evictions_per_op", per_op(cache.evictions), "count/op", 1);
  result.Set("cache.lookup_us", lookup_us, "us", payload.keys.size());

  // federation
  const std::uint64_t probes = p.total_peer_probes();
  result.Set("federation.gossip_bytes_per_op",
             per_op(p.summary_bytes_full() + p.summary_bytes_delta() +
                    p.region_digest_bytes()),
             "B/op", 1);
  result.Set("federation.gossip_frames_per_op",
             per_op(p.summary_updates_sent() + p.summary_deltas_sent() +
                    p.region_digests_sent()),
             "count/op", 1);
  result.Set("federation.probes_per_miss",
             cache.misses ? static_cast<double>(probes) /
                                static_cast<double>(cache.misses)
                          : 0.0,
             "ratio", cache.misses);
  result.Set("federation.peer_hit_ratio",
             probes ? static_cast<double>(p.total_peer_hits()) /
                          static_cast<double>(probes)
                    : 0.0,
             "ratio", probes);
  result.Set("federation.relay_forwards_per_op", per_op(p.relay_forwards()),
             "count/op", 1);
  result.Set("federation.head_forwards_per_op", per_op(p.region_head_forwards()),
             "count/op", 1);
  t = Clock::now();
  for (std::uint32_t v = 0; v < w.config.venues; ++v) {
    const auto summary = coic::federation::CacheSummary::Build(
        v, 1, p.edge(v).cache(), w.config.bloom);
    (void)summary;
  }
  const double build_us =
      std::chrono::duration<double, std::micro>(Clock::now() - t).count() /
      w.config.venues;
  spans.Add("replay.summary_build", "federation", 0, t);
  result.Set("federation.summary_build_us", build_us, "us", w.config.venues);

  // core
  result.Set("core.cloud_forwards_per_op", per_op(p.total_cloud_forwards()),
             "count/op", 1);
  result.Set("core.coalesced_per_op", per_op(p.total_coalesced_requests()),
             "count/op", 1);
  result.Set("core.sheds", static_cast<double>(p.total_overload_sheds()), "count", 1);
  result.Set("core.retransmissions",
             static_cast<double>(p.total_client_retransmissions() +
                                 p.total_cloud_retransmissions()),
             "count", 1);

  // obs: the program's request tracer.
  const coic::obs::RequestTracer& tracer = *traced.pipeline->tracer();
  for (int ph = 0; ph < coic::obs::kPhaseCount; ++ph) {
    const auto phase = static_cast<coic::obs::Phase>(ph);
    const auto& hist = tracer.phase_histogram(phase);
    const std::string name = std::string("phase.") + coic::obs::PhaseName(phase);
    result.Set(name + ".p50_us", hist.count() ? hist.QuantileMicros(0.5) : 0.0,
               "us", hist.count());
    result.Set(name + ".p99_us", hist.count() ? hist.QuantileMicros(0.99) : 0.0,
               "us", hist.count());
  }
  result.Set("obs.trace_overhead", Median(traced_wall) / Median(untraced_wall) - 1,
             "ratio", traced_wall.size());
  result.Set("obs.spans", static_cast<double>(tracer.spans_recorded()), "count", 1);
  result.program_trace = traced.pipeline->DumpChromeTrace();

  // net: the simulator workloads open no sockets.
  result.Set("net.connect_ms", 0, "ms", 0);
  result.Set("net.edge_hit_ratio", 0, "ratio", 0);
  result.Set("net.client_compute_share", 0, "ratio", 0);
  result.Set("net.cloud_tasks_per_op", 0, "count/op", 0);

  const double attributed =
      VisionSeconds(payload) + RenderSeconds(payload) +
      static_cast<double>(proto.frames) * (proto.encode_ns + proto.decode_ns) * 1e-9 +
      static_cast<double>(stats.events_fired) * sched_ns * 1e-9 +
      static_cast<double>(lookups) * lookup_us * 1e-6;
  result.Set("run.unattributed_share", 1 - attributed / wall, "ratio", 1);
  return result;
}

Result RunSim(const SimWorkload& w, const Options& o, SpanLog& spans) {
  // Fixed malloc thresholds: glibc otherwise raises its mmap threshold
  // each time a large buffer is freed, so every rep re-faulted fewer
  // pages than the one before, and the rep count (which depends on host
  // speed) moved the medians. The simulator is single-threaded, so the
  // retained heap stays one arena and peak RSS stays put.
  mallopt(M_MMAP_THRESHOLD, 64 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  return o.traced ? RunTraced(w, o, spans) : RunEndToEnd(w, o, spans);
}

}  // namespace

Result RunMixedStorm(const Options& options, SpanLog& spans) {
  return RunSim(MixedStorm(), options, spans);
}

Result RunRegionChurn(const Options& options, SpanLog& spans) {
  return RunSim(RegionChurn(), options, spans);
}

}  // namespace perfbench
