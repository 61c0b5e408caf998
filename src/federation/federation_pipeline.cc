#include "federation/federation_pipeline.h"

#include <algorithm>
#include <cstring>
#include <iterator>
#include <optional>
#include <string>

#include "common/log.h"

namespace coic::federation {
namespace {

using core::CloudService;
using core::CoicClient;
using core::EdgeService;
using proto::MessageType;
using proto::PeekMessageType;
using proto::PeekRequestId;

/// `inner` wrapped for `dest`, `hops` links away from the first sender
/// (the ttl counts the forwards after hop 1). The envelope request id
/// mirrors the inner frame's, so reply routing works on the wrapper.
Frame RelayFrame(std::uint32_t src, std::uint32_t dest, std::uint32_t hops,
                 const Frame& inner) {
  return Frame(proto::EncodeMessage(
      MessageType::kFederatedRelay, PeekRequestId(inner.span()),
      proto::FederatedRelayView{.src_edge = src,
                                .dest_edge = dest,
                                .ttl = static_cast<std::uint8_t>(hops - 1),
                                .inner = inner.span()}));
}

}  // namespace

FederationTransportConfig FederationTransportConfig::Lossy(double loss_rate) {
  FederationTransportConfig t;
  t.datagram = true;
  t.loss_rate = loss_rate;
  // Timeouts sit well above the lossless worst-case response time (a
  // multi-MB model over a 10 Mbps WAN takes seconds), so a slow reply is
  // never mistaken for a lost one — spurious retransmits would inflate
  // load and distort the sweep. Lost frames pay the timeout; that is the
  // p99 story the loss bench tells.
  t.client_retry.timeout = Duration::Millis(10'000);
  t.client_retry.max_retries = 4;
  t.client_retry.max_timeout = Duration::Millis(40'000);
  t.cloud_retry.timeout = Duration::Millis(4'000);
  t.cloud_retry.max_retries = 3;
  t.cloud_retry.max_timeout = Duration::Millis(16'000);
  t.peer_probe_timeout = Duration::Millis(500);
  t.summary_ack = true;
  return t;
}

FederationPipelineConfig FederationPipeline::ApplyTransport(
    FederationPipelineConfig config) {
  // Peer-link loss has to be stamped before BuildTopology snapshots the
  // link configs into the Topology (the constructor's init order).
  const double loss = config.transport.loss_rate;
  if (loss > 0) {
    config.peer_link.loss_rate = loss;
    for (TopologyLink& l : config.custom_links) l.link.loss_rate = loss;
  }
  return config;
}

Topology FederationPipeline::BuildTopology(
    const FederationPipelineConfig& config) {
  switch (config.topology) {
    case TopologyKind::kStar:
      return Topology::Star(config.venues, config.peer_link);
    case TopologyKind::kRing:
      return Topology::Ring(config.venues, config.peer_link);
    case TopologyKind::kFullMesh:
      return Topology::FullMesh(config.venues, config.peer_link);
    case TopologyKind::kCustom:
      return Topology::Custom(config.venues, config.custom_links);
  }
  COIC_CHECK_MSG(false, "unknown topology kind");
  return Topology::FullMesh(config.venues, config.peer_link);
}

FederationPipeline::FederationPipeline(FederationPipelineConfig config)
    : config_(ApplyTransport(std::move(config))),
      topology_(BuildTopology(config_)) {
  COIC_CHECK(config_.venues >= 1);
  COIC_CHECK(config_.mobiles_per_venue >= 1);
  COIC_CHECK(config_.probe_budget >= 1);
  if (config_.delta_gossip && config_.cache.journal_capacity == 0) {
    // Delta gossip needs the cache change journal; without one every
    // send would fall back to a full summary. Journaling is off by
    // default so non-delta caches pay nothing — enable a window deep
    // enough to cover any realistic gossip period here.
    config_.cache.journal_capacity = 4096;
  }

  // Execution plan: venue v (its edge, its mobiles, every link those
  // nodes send on) lives on shard v % S; the cloud and its outbound
  // links live on shard 0. One shard = the classic single-thread engine.
  const std::uint32_t shard_count =
      config_.execution.workers <= 1
          ? 1u
          : std::min(config_.execution.workers, config_.venues);
  shards_.reserve(shard_count);
  for (std::uint32_t s = 0; s < shard_count; ++s) {
    shards_.push_back(std::make_unique<ShardState>(config_.trace));
  }
  for (std::uint32_t v = 0; v < config_.venues; ++v) {
    ShardOf(v).venues.push_back(v);
  }

  // Every shard's Network replica adds ALL nodes in the same order, so a
  // node id names the same endpoint on every shard (cross-shard messages
  // carry ids verbatim); node_shard_ records the owner.
  const auto add_node = [this](const std::string& name, std::uint32_t shard) {
    netsim::NodeId id = 0;
    for (auto& sh : shards_) id = sh->net.AddNode(name);
    node_shard_.push_back(shard);
    return id;
  };

  cloud_node_ = add_node("cloud", 0);
  edge_nodes_.reserve(config_.venues);
  for (std::uint32_t v = 0; v < config_.venues; ++v) {
    edge_nodes_.push_back(
        add_node("edge" + std::to_string(v), ShardIndexOf(v)));
  }
  mobile_nodes_.resize(
      static_cast<std::size_t>(config_.venues) * config_.mobiles_per_venue);
  for (std::uint32_t v = 0; v < config_.venues; ++v) {
    for (std::uint32_t m = 0; m < config_.mobiles_per_venue; ++m) {
      mobile_nodes_[ClientIndex(v, m)] =
          add_node("mobile" + std::to_string(v) + "_" + std::to_string(m),
                   ShardIndexOf(v));
    }
  }

  netsim::LinkConfig wifi;
  wifi.bandwidth = config_.network.mobile_edge;
  wifi.propagation = config_.mobile_edge_propagation;
  netsim::LinkConfig wan;
  wan.bandwidth = config_.network.edge_cloud;
  wan.propagation = config_.edge_cloud_propagation;
  if (config_.transport.loss_rate > 0) {
    // Per-link rng decorrelation happens inside Network::ConnectOneWay.
    wifi.loss_rate = config_.transport.loss_rate;
    wan.loss_rate = config_.transport.loss_rate;
  }
  // A directed link is created only on the shard that owns its *sender*:
  // the sending side runs the link model (serialization, loss, delivery
  // stamp); cross-shard frames are handed over already stamped. Link rng
  // seeds mix only the directed node pair, so the per-shard split seeds
  // identically to the single-network engine. Creation order matches the
  // old single-network Connect expansion exactly (same links_ insertion
  // order, hence identical ForEachLink iteration for chaos all_links).
  const auto connect = [this](netsim::NodeId from, netsim::NodeId to,
                              const netsim::LinkConfig& link) {
    shards_[node_shard_[from]]->net.ConnectOneWay(from, to, link);
  };
  for (std::uint32_t v = 0; v < config_.venues; ++v) {
    connect(edge_nodes_[v], cloud_node_, wan);
    connect(cloud_node_, edge_nodes_[v], wan);
    for (std::uint32_t m = 0; m < config_.mobiles_per_venue; ++m) {
      connect(mobile_nodes_[ClientIndex(v, m)], edge_nodes_[v], wifi);
      connect(edge_nodes_[v], mobile_nodes_[ClientIndex(v, m)], wifi);
    }
  }
  for (const TopologyLink& l : topology_.links()) {
    connect(edge_nodes_[l.a], edge_nodes_[l.b], l.link);
    connect(edge_nodes_[l.b], edge_nodes_[l.a], l.link);
  }
  if (config_.transport.datagram) {
    for (auto& sh : shards_) {
      sh->net.EnableDatagram(config_.transport.datagram_mtu);
    }
  }

  if (shards_.size() > 1) {
    for (std::uint32_t s = 0; s < shards_.size(); ++s) {
      ShardState& sh = *shards_[s];
      for (std::uint32_t n = 0;
           n < static_cast<std::uint32_t>(node_shard_.size()); ++n) {
        if (node_shard_[n] != s) sh.net.MarkRemote(n);
      }
      sh.net.SetRemoteDispatch([this, s](netsim::NodeId from, netsim::NodeId to,
                                         SimTime deliver_at, Frame payload) {
        COIC_CHECK_MSG(runner_ != nullptr,
                       "cross-shard traffic outside RunOpenLoop");
        runner_->Send(s, node_shard_[to],
                      netsim::ShardMessage{from, to, deliver_at,
                                           std::move(payload)});
      });
    }
  }

  reachable_.resize(config_.venues);
  client_routes_.resize(config_.venues);
  summary_versions_.assign(config_.venues, 0);
  summary_frames_.resize(config_.venues);
  summary_mutations_.assign(config_.venues, 0);
  summaries_.resize(config_.venues);
  summary_cursors_.assign(config_.venues, 0);
  if (Hierarchical()) {
    std::uint32_t regions = config_.region.regions;
    if (regions == 0) {
      // floor(sqrt(venues)): minimizes per-round traffic, which is
      // O(venues/regions) intra-region fulls + O(regions) digests.
      while ((regions + 1) * (regions + 1) <= config_.venues) ++regions;
      if (regions == 0) regions = 1;
    }
    region_map_ = RegionMap(config_.venues, regions);
    digest_tables_.assign(config_.venues,
                          RegionDigestTable(region_map_.regions()));
    digest_built_versions_.assign(config_.venues, 0);
    digest_frames_.resize(config_.venues);
    digest_signatures_.assign(config_.venues, 0);
    digest_sent_version_.assign(
        config_.venues, std::vector<std::uint64_t>(config_.venues, 0));
    region_rounds_.assign(config_.venues, 0);
    own_head_view_.resize(config_.venues);
    for (std::uint32_t v = 0; v < config_.venues; ++v) {
      // Everyone starts believing the rank-0 member heads their region.
      own_head_view_[v] = region_map_.members(region_map_.region_of(v)).front();
    }
  }
  // UINT64_MAX = "never acked": the very first piggybacked ack always
  // goes out, even when the held version is 0 — that zero-ack is how a
  // peer learns its first gossip frame was lost.
  ack_sent_version_.assign(
      config_.venues,
      std::vector<std::uint64_t>(config_.venues, UINT64_MAX));
  summary_received_at_.assign(
      config_.venues, std::vector<SimTime>(config_.venues, SimTime::Epoch()));
  next_ack_resend_at_.assign(
      config_.venues, std::vector<SimTime>(config_.venues, SimTime::Epoch()));
  for (std::uint32_t v = 0; v < config_.venues; ++v) {
    reachable_[v] = topology_.ReachableWithin(v, config_.hop_limit);
    summary_tables_.emplace_back(config_.venues);
    PeerSelectConfig policy = config_.policy;
    policy.seed = config_.policy.seed ^ (0x9E37u + v);  // decorrelate edges
    policies_.push_back(MakePeerSelectPolicy(policy));
  }

  WireCloud();
  edges_.resize(config_.venues);
  clients_.resize(mobile_nodes_.size());
  for (std::uint32_t v = 0; v < config_.venues; ++v) {
    WireVenue(v);
    for (std::uint32_t m = 0; m < config_.mobiles_per_venue; ++m) {
      WireClient(v, m);
    }
  }

  // Samplers over counters whose storage already lives elsewhere: read at
  // Snapshot() time, zero cost on the hot paths that maintain them. The
  // frame-stat and cloud samplers are cluster-global (atomic counters /
  // shard-0 state), so they live on shard 0's registry only; per-network
  // stats register on their own shard and sum in MergedMetricsSnapshot.
  obs::MetricsRegistry& root = *shards_.front()->metrics;
  root.RegisterSampler("frame.copies", [] { return frame_stats().copies(); });
  root.RegisterSampler("frame.bytes_copied",
                       [] { return frame_stats().bytes_copied(); });
  root.RegisterSampler("frame.large_buffers",
                       [] { return frame_stats().large_buffers(); });
  root.RegisterSampler("frame.large_buffer_bytes",
                       [] { return frame_stats().large_buffer_bytes(); });
  root.RegisterSampler("cloud.tasks_executed",
                       [this] { return cloud_->tasks_executed(); });
  for (auto& sh : shards_) {
    netsim::Network* const net = &sh->net;
    obs::MetricsRegistry& m = *sh->metrics;
    m.RegisterSampler("net.datagram.messages_fragmented", [net] {
      return net->datagram_stats().messages_fragmented;
    });
    m.RegisterSampler("net.datagram.chunks_sent", [net] {
      return net->datagram_stats().chunks_sent;
    });
    m.RegisterSampler("net.datagram.messages_reassembled", [net] {
      return net->datagram_stats().messages_reassembled;
    });
    m.RegisterSampler("net.datagram.partials_discarded", [net] {
      return net->datagram_stats().partials_discarded;
    });
    m.RegisterSampler("net.links.frames_lost", [net] {
      std::uint64_t lost = 0;
      net->ForEachLink([&lost](const netsim::Link& l) {
        lost += l.stats().frames_dropped_loss;
      });
      return lost;
    });
    m.RegisterSampler("netsim.gather_flattens", [net] {
      std::uint64_t flattens = 0;
      net->ForEachLink([&flattens](const netsim::Link& l) {
        flattens += l.stats().gather_flattens;
      });
      return flattens;
    });
    m.RegisterSampler("netsim.gather_flatten_bytes", [net] {
      std::uint64_t bytes = 0;
      net->ForEachLink([&bytes](const netsim::Link& l) {
        bytes += l.stats().gather_flatten_bytes;
      });
      return bytes;
    });
    m.RegisterSampler("net.links.down_drops", [net] {
      std::uint64_t down = 0;
      net->ForEachLink([&down](const netsim::Link& l) {
        down += l.stats().frames_dropped_down;
      });
      return down;
    });
  }

  ArmChaos();
}

void FederationPipeline::ArmChaos() {
  if (config_.chaos.empty()) return;
  const auto shard_total = static_cast<std::uint32_t>(shards_.size());

  // Split the schedule. Every fault is armed *counted* on its home shard
  // — the one owning the faulted venue's state, which takes the metrics
  // bumps, trace marks and (for crashes) the cache wipe — and *silent*
  // on every other shard, so each replica of an affected link changes
  // state at the same instant. Single-shard runs get one counted engine
  // holding the whole schedule: exactly the old behavior.
  std::vector<netsim::FaultSchedule> counted(shard_total);
  std::vector<netsim::FaultSchedule> silent(shard_total);
  const auto place = [&](std::uint32_t home, const auto& fault, auto member) {
    for (std::uint32_t s = 0; s < shard_total; ++s) {
      ((s == home ? counted[s] : silent[s]).*member).push_back(fault);
    }
  };
  for (const auto& c : config_.chaos.crashes) {
    place(ShardIndexOf(c.venue), c, &netsim::FaultSchedule::crashes);
  }
  for (const auto& p : config_.chaos.partitions) {
    std::uint32_t home = 0;
    if (!p.island.empty()) {
      home = ShardIndexOf(*std::min_element(p.island.begin(), p.island.end()));
    }
    place(home, p, &netsim::FaultSchedule::partitions);
  }
  for (const auto& b : config_.chaos.brownouts) {
    place(ShardIndexOf(b.venue), b, &netsim::FaultSchedule::brownouts);
  }
  for (const auto& l : config_.chaos.loss_bursts) {
    place(0, l, &netsim::FaultSchedule::loss_bursts);
  }
  // A silent crash must not wipe the cache: the wipe happens exactly
  // once, on the shard that owns the edge.
  for (auto& sched : silent) {
    for (auto& c : sched.crashes) c.wipe_cache = false;
  }

  // netsim knows links, not venues: the binding resolves venue-scoped
  // fault groups to directed Links. Per-shard networks hold only the
  // directions their own nodes send on, so the pair visitor takes
  // whichever of the two exists locally.
  const auto make_binding = [this](std::uint32_t s) {
    netsim::Network* const net = &shards_[s]->net;
    const auto both_ways = [net](netsim::NodeId a, netsim::NodeId b,
                                 const netsim::ChaosBinding::LinkVisitor& fn) {
      if (net->Adjacent(a, b)) fn(net->LinkBetween(a, b));
      if (net->Adjacent(b, a)) fn(net->LinkBetween(b, a));
    };
    netsim::ChaosBinding binding;
    binding.venue_links =
        [this, both_ways](std::uint32_t venue,
                          const netsim::ChaosBinding::LinkVisitor& fn) {
          COIC_CHECK(venue < config_.venues);
          const netsim::NodeId self = edge_nodes_[venue];
          for (std::uint32_t m = 0; m < config_.mobiles_per_venue; ++m) {
            both_ways(mobile_nodes_[ClientIndex(venue, m)], self, fn);
          }
          both_ways(self, cloud_node_, fn);
          for (std::uint32_t peer = 0; peer < config_.venues; ++peer) {
            if (peer != venue && topology_.Adjacent(venue, peer)) {
              both_ways(self, edge_nodes_[peer], fn);
            }
          }
        };
    binding.cut_links =
        [this, both_ways](const std::vector<std::uint32_t>& island,
                          const netsim::ChaosBinding::LinkVisitor& fn) {
          std::vector<bool> inside(config_.venues, false);
          for (const std::uint32_t v : island) {
            COIC_CHECK(v < config_.venues);
            inside[v] = true;
          }
          for (std::uint32_t a = 0; a < config_.venues; ++a) {
            if (!inside[a]) continue;
            for (std::uint32_t b = 0; b < config_.venues; ++b) {
              if (inside[b] || !topology_.Adjacent(a, b)) continue;
              both_ways(edge_nodes_[a], edge_nodes_[b], fn);
            }
          }
        };
    binding.wan_links =
        [this, both_ways](std::uint32_t venue,
                          const netsim::ChaosBinding::LinkVisitor& fn) {
          COIC_CHECK(venue < config_.venues);
          both_ways(edge_nodes_[venue], cloud_node_, fn);
        };
    binding.all_links = [net](const netsim::ChaosBinding::LinkVisitor& fn) {
      net->ForEachMutableLink(fn);
    };
    binding.wipe_cache = [this](std::uint32_t venue) {
      COIC_CHECK(venue < config_.venues);
      edges_[venue]->mutable_cache().Clear();
    };
    return binding;
  };

  counted_chaos_.reserve(shard_total);
  for (std::uint32_t s = 0; s < shard_total; ++s) {
    ShardState& sh = *shards_[s];
    // One counted engine per shard even when its slice is empty, so
    // counted_chaos_[s] stays index-aligned with shards_.
    auto engine = std::make_unique<netsim::ChaosEngine>(
        sh.sched, make_binding(s), sh.metrics.get(), sh.tracer.get());
    engine->Apply(std::move(counted[s]));
    counted_chaos_.push_back(std::move(engine));
    if (!silent[s].empty()) {
      auto quiet = std::make_unique<netsim::ChaosEngine>(
          sh.sched, make_binding(s), /*metrics=*/nullptr, /*tracer=*/nullptr);
      quiet->Apply(std::move(silent[s]));
      silent_chaos_.push_back(std::move(quiet));
    }
  }
}

void FederationPipeline::WireCloud() {
  // The cloud lives on shard 0, as do the links it sends on.
  const core::DelayFn delay = [this](Duration d, std::function<void()> fn) {
    shards_.front()->sched.ScheduleAfter(d, std::move(fn));
  };

  CloudService::Config cloud_config;
  cloud_config.costs = config_.costs;
  cloud_config.recognition_classes = config_.recognition_classes;
  cloud_config.extractor = config_.extractor;
  // One shared cloud; replies route to whichever edge forwarded the
  // request (looked up by request id at send time).
  auto routes =
      std::make_shared<std::unordered_map<std::uint64_t, netsim::NodeId>>();
  // Under retries the cloud can process one request id twice (the edge
  // retransmitted; both copies arrived) and produce two replies for one
  // recorded route — the second is dropped here, and the edge's own
  // duplicate handling absorbs whichever one lands. With the reliable
  // transport a missing route still means a wiring bug, so keep the
  // CHECK there.
  const bool lossy = LossyTransport();
  const auto take_route =
      [routes, lossy](const Frame& reply) -> std::optional<netsim::NodeId> {
    const auto it = routes->find(PeekRequestId(reply.span()));
    if (it == routes->end()) {
      COIC_CHECK_MSG(lossy, "cloud reply with no route");
      return std::nullopt;
    }
    const netsim::NodeId target = it->second;
    routes->erase(it);
    return target;
  };
  // Render and panorama replies leave as a bare header plus the memoized
  // payload by reference; the forwarding edge caches that very buffer.
  cloud_config.gather_send = [this, take_route](core::Peer /*to*/, Frame head,
                                                Frame tail) {
    if (const auto target = take_route(head)) {
      shards_.front()->net.SendGather(cloud_node_, *target, std::move(head),
                                      std::move(tail));
    }
  };
  cloud_ = std::make_unique<CloudService>(
      cloud_config,
      [this, take_route](core::Peer /*to*/, Frame frame) {
        if (const auto target = take_route(frame)) {
          shards_.front()->net.Send(cloud_node_, *target, std::move(frame));
        }
      },
      delay);
  shards_.front()->net.SetHandler(
      cloud_node_, [this, routes](netsim::NodeId from, Frame frame) {
        (*routes)[PeekRequestId(frame.span())] = from;
        cloud_->OnFrame(std::move(frame));
      });
}

void FederationPipeline::WireVenue(std::uint32_t venue) {
  // Everything this venue touches — scheduler, network, metrics, tracer
  // — belongs to its owning shard; the lambdas re-resolve through
  // `this` so they stay valid for the pipeline's whole lifetime.
  ShardState& shard = ShardOf(venue);
  const core::DelayFn delay = [this, venue](Duration d,
                                            std::function<void()> fn) {
    SchedOf(venue).ScheduleAfter(d, std::move(fn));
  };
  const core::NowFn now = [this, venue] { return SchedOf(venue).now(); };

  EdgeService::Config edge_config;
  edge_config.costs = config_.costs;
  edge_config.cache = config_.cache;
  edge_config.metrics = shard.metrics.get();
  edge_config.metrics_prefix = "edge." + std::to_string(venue) + ".";
  edge_config.tracer = shard.tracer.get();
  edge_config.cooperative = config_.cooperative && config_.venues > 1;
  edge_config.probe_budget = config_.probe_budget;
  edge_config.coalesce_requests = config_.coalesce_requests;
  edge_config.peer_hit_adopt_min_uses = config_.peer_hit_adopt_min_uses;
  edge_config.park_peer_probes =
      config_.park_peer_probes && config_.coalesce_requests;
  // Small control frames (probes, probe replies) recycle through the
  // shard arena instead of hitting the allocator per miss.
  edge_config.frame_arena = &shard.arena;
  if (config_.peer_aware_eviction && edge_config.cooperative) {
    // Peer-aware eviction: an entry some 1-hop neighbor also advertises
    // is recoverable at peer-link cost, so evict it ahead of
    // cluster-unique content. Bloom false positives only mis-order the
    // victim scan; they never evict more than capacity demands.
    edge_config.cache.replicated_hint = [this, venue](std::uint64_t key) {
      for (const std::uint32_t peer : reachable_[venue]) {
        if (topology_.HopDistance(venue, peer) != 1) continue;
        const CacheSummary* summary = summary_tables_[venue].For(peer);
        if (summary != nullptr && summary->bloom().MayContain(key)) {
          return true;
        }
      }
      return false;
    };
  }
  edge_config.cloud_retry = config_.transport.cloud_retry;
  edge_config.peer_probe_timeout = config_.transport.peer_probe_timeout;
  edge_config.max_pending = config_.transport.edge_max_pending;
  edge_config.breaker_failure_threshold =
      config_.transport.breaker_failure_threshold;
  edge_config.breaker_open_duration = config_.transport.breaker_open_duration;
  if (config_.transport.client_retry.enabled()) {
    // Client retransmits only help if the edge can replay a reply whose
    // first copy was lost instead of re-fetching.
    edge_config.resolved_memo_capacity = 256;
  }
  edge_config.peer_send = [this, venue](std::uint32_t peer, Frame head,
                                        Frame tail) {
    // Gossip ack/nack rides on lookup traffic: before any peer-bound
    // probe or reply, tell that peer which version of its summary we
    // hold (deduplicated, so steady state adds no frames).
    MaybeSendSummaryAck(venue, peer, /*force=*/false);
    SendEdgeToEdge(venue, peer, std::move(head), std::move(tail));
  };
  if (Hierarchical()) {
    // Two-tier selection: member summaries intra-region, digests + the
    // believed head cross-region. Targets outside the hop limit are
    // dropped (SendEdgeToEdge cannot route them, and an unroutable probe
    // would hang its miss until the probe timeout).
    edge_config.peer_select =
        [this, venue](const proto::FeatureDescriptor& key) {
          std::vector<std::uint32_t> heads(region_map_.regions());
          for (std::uint32_t r = 0; r < region_map_.regions(); ++r) {
            heads[r] = HeadOf(venue, r);
          }
          auto targets = SelectHierarchical(
              key, venue, region_map_, summary_tables_[venue],
              digest_tables_[venue], heads, config_.policy.directed_fanout,
              config_.region.cross_fanout);
          std::erase_if(targets, [this, venue](std::uint32_t target) {
            return !std::binary_search(reachable_[venue].begin(),
                                       reachable_[venue].end(), target);
          });
          return targets;
        };
  } else {
    edge_config.peer_select =
        [this, venue](const proto::FeatureDescriptor& key) {
          return policies_[venue]->Select(key, reachable_[venue],
                                          summary_tables_[venue]);
        };
  }
  const netsim::NodeId self = edge_nodes_[venue];
  const bool lossy = LossyTransport();
  // Client replies: several mobiles share this edge, so route by the
  // request id recorded when the request came in. A missing route under
  // retries means a duplicate reply raced a lost request — drop it; the
  // client's own retry recovers.
  const auto take_client_route =
      [this, venue, lossy](const Frame& reply) -> std::optional<netsim::NodeId> {
    auto& routes = client_routes_[venue];
    const auto it = routes.find(PeekRequestId(reply.span()));
    if (it == routes.end()) {
      COIC_CHECK_MSG(lossy, "edge reply with no client route");
      return std::nullopt;
    }
    const netsim::NodeId target = it->second;
    routes.erase(it);
    return target;
  };
  // Scatter-gather client replies: the per-request envelope head and the
  // shared cached blob body (or a relayed cloud reply's header and
  // payload) travel as one wire frame that no hop fuses — the client
  // decodes the two segments in place (wire bytes identical to the fused
  // path).
  edge_config.gather_send = [this, venue, self, take_client_route](
                                core::Peer to, Frame head, Frame tail) {
    COIC_CHECK_MSG(to == core::Peer::kClient,
                   "edge gather_send serves clients only (peer hits gather "
                   "through peer_send)");
    if (const auto target = take_client_route(head)) {
      NetOf(venue).SendGather(self, *target, std::move(head), std::move(tail));
    }
  };
  edges_[venue] = std::make_unique<EdgeService>(
      edge_config,
      [this, venue, self, take_client_route](core::Peer to, Frame frame) {
        COIC_CHECK_MSG(to != core::Peer::kPeerEdge,
                       "federation edges route peers via peer_send");
        if (to == core::Peer::kCloud) {
          NetOf(venue).Send(self, cloud_node_, std::move(frame));
        } else if (const auto target = take_client_route(frame)) {
          NetOf(venue).Send(self, *target, std::move(frame));
        }
      },
      delay, now);

  shard.metrics->RegisterSampler(
      "edge." + std::to_string(venue) + ".pending_inflight",
      [this, venue] { return edges_[venue]->pending_inflight(); });
  shard.metrics->RegisterSampler(
      "edge." + std::to_string(venue) + ".peak_pending",
      [this, venue] { return edges_[venue]->peak_pending(); });

  shard.net.SetHandler(self, [this, venue](netsim::NodeId from, Frame frame) {
    if (from == cloud_node_) {
      edges_[venue]->OnCloudFrame(std::move(frame));
      return;
    }
    for (std::uint32_t m = 0; m < config_.mobiles_per_venue; ++m) {
      if (mobile_nodes_[ClientIndex(venue, m)] == from) {
        client_routes_[venue][PeekRequestId(frame.span())] = from;
        edges_[venue]->OnClientFrame(std::move(frame));
        return;
      }
    }
    for (std::uint32_t peer = 0; peer < config_.venues; ++peer) {
      if (edge_nodes_[peer] == from) {
        OnPeerEdgeFrame(venue, peer, std::move(frame));
        return;
      }
    }
    COIC_CHECK_MSG(false, "edge frame from unknown node");
  });
  // Gathered arrivals: cloud result replies and peer-lookup hits (the
  // only peer frames that gather, so they skip OnPeerEdgeFrame's
  // control-frame dispatch).
  shard.net.SetGatherHandler(
      self, [this, venue](netsim::NodeId from, Frame head, Frame tail) {
        if (from == cloud_node_) {
          edges_[venue]->OnCloudFrame(std::move(head), std::move(tail));
          return;
        }
        for (std::uint32_t peer = 0; peer < config_.venues; ++peer) {
          if (edge_nodes_[peer] == from) {
            edges_[venue]->OnPeerFrame(peer, std::move(head), std::move(tail));
            return;
          }
        }
        COIC_CHECK_MSG(false, "gathered edge frame from unknown node");
      });
}

void FederationPipeline::WireClient(std::uint32_t venue, std::uint32_t mobile) {
  const core::DelayFn delay = [this, venue](Duration d,
                                            std::function<void()> fn) {
    SchedOf(venue).ScheduleAfter(d, std::move(fn));
  };
  const core::NowFn now = [this, venue] { return SchedOf(venue).now(); };
  const std::uint32_t index = ClientIndex(venue, mobile);
  const netsim::NodeId client_node = mobile_nodes_[index];
  const netsim::NodeId edge_node = edge_nodes_[venue];
  ShardState& shard = ShardOf(venue);

  CoicClient::Config client_config;
  client_config.costs = config_.costs;
  client_config.mode = config_.mode;
  client_config.extractor = config_.extractor;
  client_config.user_id = index + 1;
  // Disjoint id spaces so concurrent clients' requests never collide at
  // the shared cloud or in the per-venue client routes.
  client_config.first_request_id = (std::uint64_t{index} << 40) | 1;
  client_config.retry = config_.transport.client_retry;
  client_config.metrics = shard.metrics.get();
  client_config.metrics_prefix = "client." + std::to_string(venue) + "." +
                                 std::to_string(mobile) + ".";
  client_config.tracer = shard.tracer.get();
  client_config.trace_track = venue;
  client_config.deadline = config_.transport.client_deadline;
  client_config.local_fallback = config_.transport.client_local_fallback;
  clients_[index] = std::make_unique<CoicClient>(
      client_config,
      [this, venue, client_node, edge_node](Frame frame) {
        NetOf(venue).Send(client_node, edge_node, std::move(frame));
      },
      delay, now);
  shard.net.SetHandler(client_node,
                       [this, index](netsim::NodeId, Frame frame) {
                         clients_[index]->OnEdgeFrame(std::move(frame));
                       });
  shard.net.SetGatherHandler(
      client_node, [this, index](netsim::NodeId, Frame head, Frame tail) {
        clients_[index]->OnEdgeFrame(std::move(head), std::move(tail));
      });
}

// ---------------------------------------------------------------------------
// Edge-to-edge routing and federation control frames
// ---------------------------------------------------------------------------

void FederationPipeline::SendEdgeToEdge(std::uint32_t from, std::uint32_t to,
                                        Frame frame) {
  COIC_CHECK(from != to && from < config_.venues && to < config_.venues);
  if (topology_.Adjacent(from, to)) {
    NetOf(from).Send(edge_nodes_[from], edge_nodes_[to], std::move(frame));
    return;
  }
  const std::uint32_t dist = topology_.HopDistance(from, to);
  if (dist == Topology::kUnreachable) {
    COIC_LOG(kWarn) << "federation: dropping frame for unreachable venue "
                    << to;
    return;
  }
  NetOf(from).Send(edge_nodes_[from],
                   edge_nodes_[topology_.NextHop(from, to)],
                   RelayFrame(from, to, dist, frame));
}

void FederationPipeline::SendEdgeToEdge(std::uint32_t from, std::uint32_t to,
                                        Frame head, Frame tail) {
  if (tail.empty()) {
    SendEdgeToEdge(from, to, std::move(head));
    return;
  }
  if (topology_.Adjacent(from, to)) {
    NetOf(from).SendGather(edge_nodes_[from], edge_nodes_[to], std::move(head),
                           std::move(tail));
    return;
  }
  // The relay wrapper carries one frame: fuse the pair first.
  ByteWriter fused(head.size() + tail.size());
  fused.WriteRaw(head.span());
  fused.WriteRaw(tail.span());
  SendEdgeToEdge(from, to, Frame(fused.TakeBytes()));
}

void FederationPipeline::OnPeerEdgeFrame(std::uint32_t venue,
                                         std::uint32_t src_index,
                                         Frame frame) {
  switch (PeekMessageType(frame.span())) {
    case MessageType::kFederatedRelay:
      HandleRelayFrame(venue, std::move(frame));
      return;
    case MessageType::kSummaryUpdate:
    case MessageType::kSummaryDeltaUpdate:
      HandleSummaryFrame(venue, frame);
      return;
    case MessageType::kSummaryAck:
      HandleSummaryAck(venue, frame);
      return;
    case MessageType::kRegionDigestUpdate:
      HandleRegionDigestFrame(venue, frame);
      return;
    default:
      // Head-side probe resolution intercepts *directly arrived*
      // cross-region lookups only. Relay-delivered probes (a head's
      // forward among them) enter through HandleRelayFrame's terminal
      // hop, never here — so a probe is forwarded at most once and can
      // never cycle between divergent head views.
      if (Hierarchical() &&
          PeekMessageType(frame.span()) == MessageType::kPeerLookupRequest &&
          !region_map_.SameRegion(src_index, venue) &&
          MaybeForwardProbeAsHead(venue, src_index, frame)) {
        return;
      }
      edges_[venue]->OnPeerFrame(src_index, std::move(frame));
  }
}

void FederationPipeline::HandleRelayFrame(std::uint32_t venue, Frame frame) {
  // Hot path: relay forwarding never decodes the (possibly large) inner
  // envelope. Peek the routing fields in place; an intermediate hop
  // patches the TTL byte of the uniquely-held buffer and forwards it,
  // the terminal hop strips the wrapper by slicing (both zero-copy).
  // Byte-for-byte equivalent to the old decode → mutate → re-encode
  // (covered by a proto test).
  const auto view = proto::PeekRelayFrame(frame.span());
  if (!view.ok() || view.value().dest_edge >= config_.venues ||
      view.value().src_edge >= config_.venues ||
      view.value().inner_size < proto::kEnvelopeHeaderSize) {
    COIC_LOG(kWarn) << "federation: bad relay frame";
    return;
  }
  const proto::RelayFrameView relay = view.value();
  obs::RequestTracer* const tracer = TracerOf(venue);
  if (relay.dest_edge == venue) {
    // Terminal hop: unwrap and dispatch as if it arrived directly from
    // the logical source.
    Frame inner = proto::UnwrapRelay(frame, relay);
    const MessageType inner_type = PeekMessageType(inner.span());
    if (tracer && (inner_type == MessageType::kPeerLookupRequest ||
                   inner_type == MessageType::kPeerLookupReply)) {
      // Request-scoped only: summary/ack relays reuse the id field for
      // versions, which would collide with live request timelines.
      tracer->Annotate(PeekRequestId(inner.span()), "relay-delivered",
                       SchedOf(venue).now());
    }
    if (inner_type == MessageType::kSummaryUpdate ||
        inner_type == MessageType::kSummaryDeltaUpdate) {
      HandleSummaryFrame(venue, inner);
    } else if (inner_type == MessageType::kSummaryAck) {
      HandleSummaryAck(venue, inner);
    } else if (inner_type == MessageType::kRegionDigestUpdate) {
      HandleRegionDigestFrame(venue, inner);
    } else {
      edges_[venue]->OnPeerFrame(relay.src_edge, std::move(inner));
    }
    return;
  }
  if (relay.ttl == 0) {
    COIC_LOG(kWarn) << "federation: relay TTL expired at venue " << venue;
    return;
  }
  if (tracer) {
    // Peek the inner envelope through a temporary slice, released before
    // DecrementRelayTtl needs the buffer uniquely held.
    const Frame inner = proto::UnwrapRelay(frame, relay);
    const MessageType inner_type = PeekMessageType(inner.span());
    if (inner_type == MessageType::kPeerLookupRequest ||
        inner_type == MessageType::kPeerLookupReply) {
      tracer->Annotate(PeekRequestId(inner.span()), "relay-hop",
                       SchedOf(venue).now());
    }
  }
  proto::DecrementRelayTtl(frame);
  ++Gc(venue).relay_forwards;
  NetOf(venue).Send(edge_nodes_[venue],
                    edge_nodes_[topology_.NextHop(venue, relay.dest_edge)],
                    std::move(frame));
}

void FederationPipeline::HandleSummaryFrame(std::uint32_t venue,
                                            const Frame& frame) {
  // Stale-version fast drop: a duplicate or outdated update — the
  // common case once summaries are only rebuilt on cache change — is
  // discarded without decoding the bloom bits / key list and centroid
  // vectors. Mirrors SummaryTable::Update's `<=` staleness rule; works
  // for full and delta frames alike (shared leading layout).
  if (const auto header = proto::PeekSummaryFrame(frame.span());
      header.ok() && header.value().edge_id < config_.venues) {
    // Any summary frame — fresh, stale or unusable — proves the sender
    // is alive; the age-out sweep keys off this stamp.
    summary_received_at_[venue][header.value().edge_id] = SchedOf(venue).now();
    const CacheSummary* current =
        summary_tables_[venue].For(header.value().edge_id);
    if (current != nullptr && header.value().version <= current->version()) {
      return;
    }
  }
  if (PeekMessageType(frame.span()) == MessageType::kSummaryDeltaUpdate) {
    // Base-version fast drop: a delta only applies on top of exactly its
    // base. A mismatch (missed frame on a lossy link) is not an error —
    // the table keeps its current view, which is merely stale, until the
    // sender's next full resend resynchronizes.
    const auto header = proto::PeekSummaryDeltaFrame(frame.span());
    if (!header.ok() || header.value().edge_id >= config_.venues) {
      COIC_LOG(kWarn) << "federation: bad summary-delta frame";
      return;
    }
    const CacheSummary* current =
        summary_tables_[venue].For(header.value().edge_id);
    if (current == nullptr ||
        current->version() != header.value().base_version) {
      COIC_LOG(kDebug) << "federation: delta base mismatch at venue " << venue
                       << " for edge " << header.value().edge_id;
      // Nack: tell the sender which version we actually hold (0 when
      // none) so it resends the full summary instead of stranding us on
      // a base we lost. Forced past the dedup — the sender believes we
      // are current, so only an explicit ack corrects it.
      if (header.value().edge_id != venue) {
        MaybeSendSummaryAck(venue, header.value().edge_id, /*force=*/true);
      }
      return;
    }
    auto env = proto::DecodeEnvelopeView(frame.span());
    if (!env.ok()) {
      COIC_LOG(kWarn) << "federation: undecodable summary-delta frame";
      return;
    }
    auto wire = proto::DecodePayloadAs<proto::SummaryDeltaUpdate>(
        env.value(), MessageType::kSummaryDeltaUpdate);
    if (!wire.ok()) {
      COIC_LOG(kWarn) << "federation: bad summary-delta payload";
      return;
    }
    if (const Status applied = summary_tables_[venue].ApplyDelta(wire.value());
        !applied.ok()) {
      COIC_LOG(kWarn) << "federation: unusable summary delta: "
                      << applied.ToString();
    }
    return;
  }
  auto env = proto::DecodeEnvelopeView(frame.span());
  if (!env.ok()) {
    COIC_LOG(kWarn) << "federation: undecodable summary frame";
    return;
  }
  auto wire = proto::DecodePayloadAs<proto::SummaryUpdate>(
      env.value(), MessageType::kSummaryUpdate);
  if (!wire.ok() || wire.value().edge_id >= config_.venues) {
    COIC_LOG(kWarn) << "federation: bad summary frame";
    return;
  }
  auto summary = CacheSummary::FromWire(wire.value());
  if (!summary.ok()) {
    COIC_LOG(kWarn) << "federation: unusable summary: "
                    << summary.status().ToString();
    return;
  }
  summary_tables_[venue].Update(std::move(summary).value());
}

void FederationPipeline::MaybeSendSummaryAck(std::uint32_t venue,
                                             std::uint32_t peer, bool force) {
  if (!config_.transport.summary_ack || peer == venue ||
      peer >= config_.venues) {
    return;
  }
  // Hierarchical mode gossips full summaries intra-region only; an ack
  // to a cross-region peer would trigger exactly the cross-region
  // full-summary resend the two-tier topology exists to avoid.
  if (Hierarchical() && !region_map_.SameRegion(venue, peer)) return;
  const CacheSummary* held = summary_tables_[venue].For(peer);
  const std::uint64_t version = held != nullptr ? held->version() : 0;
  if (!force && ack_sent_version_[venue][peer] == version) return;
  ack_sent_version_[venue][peer] = version;
  ++Gc(venue).summary_acks_sent;
  proto::SummaryAck ack;
  ack.acker_edge = venue;
  ack.subject_edge = peer;
  ack.version = version;
  FrameArena& arena = ArenaOf(venue);
  SendEdgeToEdge(venue, peer,
                 arena.Seal(proto::EncodeMessageInto(
                     arena.Acquire(proto::kEnvelopeHeaderSize +
                                   proto::WireSize(ack)),
                     MessageType::kSummaryAck, version, ack)));
}

void FederationPipeline::HandleSummaryAck(std::uint32_t venue,
                                          const Frame& frame) {
  auto env = proto::DecodeEnvelopeView(frame.span());
  if (!env.ok()) {
    COIC_LOG(kWarn) << "federation: undecodable summary ack";
    return;
  }
  auto ack = proto::DecodePayloadAs<proto::SummaryAck>(
      env.value(), MessageType::kSummaryAck);
  if (!ack.ok() || ack.value().subject_edge != venue ||
      ack.value().acker_edge >= config_.venues) {
    COIC_LOG(kWarn) << "federation: bad summary ack at venue " << venue;
    return;
  }
  const std::uint32_t acker = ack.value().acker_edge;
  // Mirror of the send-side gate: never let a cross-region ack trigger a
  // cross-region full-summary resend in hierarchical mode.
  if (Hierarchical() && !region_map_.SameRegion(venue, acker)) return;
  auto& sent = summary_tables_[venue].sent_to(acker);
  if (sent.version == 0 || ack.value().version >= sent.version) {
    // Nothing ever sent, or the acker is current (>= covers acks that
    // raced a newer send) — no repair needed.
    return;
  }
  // The acker holds an older version than what we already sent: a gossip
  // frame was lost (or the peer aged our summary out). Resend the full
  // summary, at most once per gossip period per peer so an ack burst
  // cannot amplify into a resend storm.
  if (SchedOf(venue).now() < next_ack_resend_at_[venue][acker]) return;
  next_ack_resend_at_[venue][acker] =
      SchedOf(venue).now() + (GossipEnabled() ? config_.gossip_period
                                              : Duration::Millis(250));
  RefreshSummary(venue);
  const Frame& full = summary_frames_[venue];
  GossipCounters& gc = Gc(venue);
  ++gc.summary_updates_sent;
  ++gc.summary_ack_resends;
  gc.summary_bytes_full += full.size();
  sent.version = summary_versions_[venue];
  sent.journal_cursor = summary_cursors_[venue];
  sent.rounds_since_full = 0;
  SendEdgeToEdge(venue, acker, full);
}

void FederationPipeline::AgeOutSummaries(std::uint32_t venue) {
  if (config_.transport.summary_max_age == Duration::Infinite()) return;
  const SimTime now = SchedOf(venue).now();
  for (const std::uint32_t peer : reachable_[venue]) {
    if (summary_tables_[venue].For(peer) == nullptr) continue;
    if (now - summary_received_at_[venue][peer] >
        config_.transport.summary_max_age) {
      // The peer has gone silent (crashed or partitioned): stop steering
      // probes at it. If it is merely slow, its next frame after our
      // erase is a full-version install or a delta whose base we no
      // longer hold — the nack/full-resend path rebuilds the view.
      summary_tables_[venue].Erase(peer);
      // Force the next piggybacked ack to announce "holding nothing".
      ack_sent_version_[venue][peer] = UINT64_MAX;
      ++Gc(venue).summaries_aged_out;
    }
  }
}

bool FederationPipeline::GossipEnabled() const noexcept {
  return config_.cooperative && config_.venues >= 2 &&
         config_.gossip_period != Duration::Infinite();
}

void FederationPipeline::RefreshSummary(std::uint32_t venue) {
  // Rebuild + re-encode only when the cache content changed since the
  // last round (IcCache's monotonic mutation counter as the signal);
  // otherwise the memoized frame under the same version stands. Wire
  // sizes are unchanged either way (version is fixed-width), so link
  // timing — and with it every closed-loop latency — is identical to
  // rebuilding each round.
  const std::uint64_t mutations = edges_[venue]->cache().mutation_count();
  if (!summary_frames_[venue].empty() &&
      summary_mutations_[venue] == mutations) {
    return;
  }
  CacheSummary summary = CacheSummary::Build(
      venue, ++summary_versions_[venue], edges_[venue]->cache(),
      config_.bloom);
  summary_frames_[venue] = Frame(proto::EncodeMessage(
      MessageType::kSummaryUpdate, summary.version(), summary.ToWire()));
  summary_mutations_[venue] = mutations;
  // Where the next delta slice starts for a peer based on this version.
  summary_cursors_[venue] = edges_[venue]->cache().journal_cursor();
  // Delta frames read the summary object back (centroids + absolute key
  // count); hierarchical heads union it into region digests and score
  // probes against it. Full-gossip flat pipelines keep only the frame.
  if (config_.delta_gossip || Hierarchical()) {
    summaries_[venue] = std::move(summary);
  }
}

void FederationPipeline::GossipEdge(std::uint32_t venue) {
  AgeOutSummaries(venue);
  if (Hierarchical()) {
    GossipEdgeHierarchical(venue);
    return;
  }
  if (config_.delta_gossip) {
    GossipEdgeDelta(venue);
    return;
  }
  RefreshSummary(venue);
  const Frame& frame = summary_frames_[venue];
  GossipCounters& gc = Gc(venue);
  for (const std::uint32_t peer : reachable_[venue]) {
    ++gc.summary_updates_sent;
    gc.summary_bytes_full += frame.size();
    // One buffer for the whole broadcast: each peer gets a refcount on
    // the memoized frame, never a payload copy.
    SendEdgeToEdge(venue, peer, frame);
  }
}

void FederationPipeline::GossipEdgeDelta(std::uint32_t venue) {
  RefreshSummary(venue);
  const Frame& full_frame = summary_frames_[venue];
  const std::uint64_t version = summary_versions_[venue];
  const cache::IcCache& cache = edges_[venue]->cache();
  GossipCounters& gc = Gc(venue);
  // In steady state every peer shares the same base version (they all
  // applied the previous send), so the delta frame is built once per
  // distinct base and copied per peer — mirroring the memoized full
  // frame. An empty memo slot records that no viable delta exists from
  // that base (journal gap, erasure in the interval, or not smaller
  // than the full frame). The memo is keyed by base version alone:
  // sent.journal_cursor is snapshotted together with sent.version, so
  // equal versions imply equal cursors.
  std::unordered_map<std::uint64_t, Frame> delta_memo;
  for (const std::uint32_t peer : reachable_[venue]) {
    auto& sent = summary_tables_[venue].sent_to(peer);
    const bool refresh_due =
        config_.delta_full_refresh_rounds != 0 &&
        sent.rounds_since_full + 1 >= config_.delta_full_refresh_rounds;
    if (sent.version == version && !refresh_due) {
      // Peer is (believed) current: say nothing — but keep counting
      // rounds, so a due refresh still reaches a peer that a lost frame
      // left stale while the cache quiesced.
      ++sent.rounds_since_full;
      continue;
    }
    // A delta applies only when the peer holds a known base, the journal
    // still covers the interval, and nothing was erased in it (Bloom
    // bits compose under insertion only); it is sent only when actually
    // smaller than re-shipping the full bit array.
    const Frame* delta_frame = nullptr;
    if (sent.version != 0 && sent.version != version && !refresh_due &&
        cache.config().journal_capacity != 0) {
      const auto [memo, first_look] = delta_memo.try_emplace(sent.version);
      if (first_look) {
        std::vector<std::uint64_t> inserted;
        bool erased = false;
        const bool covered = cache.ForEachJournaled(
            sent.journal_cursor, [&](const cache::CacheJournalEntry& entry) {
              if (entry.erased) {
                erased = true;
              } else {
                inserted.push_back(entry.index_key);
              }
            });
        if (covered && !erased) {
          const proto::SummaryDeltaUpdate delta =
              summaries_[venue].ToWireDelta(sent.version, std::move(inserted));
          if (proto::kEnvelopeHeaderSize + proto::WireSize(delta) <
              full_frame.size()) {
            memo->second = Frame(proto::EncodeMessage(
                MessageType::kSummaryDeltaUpdate, version, delta));
          }
        }
      }
      if (!memo->second.empty()) delta_frame = &memo->second;
    }
    if (delta_frame != nullptr) {
      ++gc.summary_deltas_sent;
      gc.summary_bytes_delta += delta_frame->size();
      sent.version = version;
      sent.journal_cursor = summary_cursors_[venue];
      ++sent.rounds_since_full;
      SendEdgeToEdge(venue, peer, *delta_frame);
    } else {
      ++gc.summary_updates_sent;
      gc.summary_bytes_full += full_frame.size();
      sent.version = version;
      sent.journal_cursor = summary_cursors_[venue];
      sent.rounds_since_full = 0;
      SendEdgeToEdge(venue, peer, full_frame);
    }
  }
}

// ---------------------------------------------------------------------------
// Two-tier federation (RegionConfig::hierarchical)
// ---------------------------------------------------------------------------

std::uint32_t FederationPipeline::HeadOf(std::uint32_t venue,
                                         std::uint32_t region) const {
  if (!Hierarchical()) return venue;
  const auto members = region_map_.members(region);
  if (region_map_.region_of(venue) == region) {
    // Own region: the lowest-ranked member believed alive. Members are
    // ascending by id, which is ascending succession rank; "alive" means
    // self, or a member whose summary is currently held (the max-age
    // sweep erases crashed peers' summaries, which is what demotes a
    // dead head and promotes the next rank).
    for (const std::uint32_t member : members) {
      if (member == venue || summary_tables_[venue].For(member) != nullptr) {
        return member;
      }
    }
    return venue;  // unreachable: venue is always its own live member
  }
  // Foreign region: whoever signed the accepted digest; before any
  // digest arrives, the static rank-0 default.
  if (const RegionDigest* digest = digest_tables_[venue].For(region)) {
    return digest->head_edge();
  }
  return members.front();
}

void FederationPipeline::GossipEdgeHierarchical(std::uint32_t venue) {
  const std::uint32_t own_region = region_map_.region_of(venue);
  const std::uint32_t head_now = HeadOf(venue, own_region);
  if (head_now != own_head_view_[venue]) {
    // Failover accounting: counted exactly once per succession, by the
    // member that promotes *itself* (every member notices the change,
    // but only the new head's self-promotion is the failover event).
    if (head_now == venue) ++Rc(venue).failovers;
    own_head_view_[venue] = head_now;
  }

  // Tier 1: full per-peer summaries stay inside the region, and only
  // move when the version does — members of one region see each other
  // exactly as flat gossip peers would, minus redundant resends.
  RefreshSummary(venue);
  const Frame& full = summary_frames_[venue];
  const std::uint64_t version = summary_versions_[venue];
  GossipCounters& gc = Gc(venue);
  for (const std::uint32_t peer : reachable_[venue]) {
    if (!region_map_.SameRegion(venue, peer)) continue;
    auto& sent = summary_tables_[venue].sent_to(peer);
    if (sent.version == version) continue;
    sent.version = version;
    sent.journal_cursor = summary_cursors_[venue];
    sent.rounds_since_full = 0;
    ++gc.summary_updates_sent;
    gc.summary_bytes_full += full.size();
    SendEdgeToEdge(venue, peer, full);
  }

  // Tier 2: the head aggregates the region every digest_period_rounds-th
  // round and fans the digest to *every* reachable venue — foreign
  // venues steer probes by it; own members track its version so a
  // promoted successor resumes the version chain instead of restarting
  // below what the cluster already accepted.
  const std::uint32_t period =
      std::max<std::uint32_t>(1, config_.region.digest_period_rounds);
  const bool digest_due = region_rounds_[venue]++ % period == 0;
  if (!digest_due || head_now != venue) return;

  // Rebuild only when some member's summary version moved (own version
  // included): the signature is order-sensitive over (edge, version),
  // and members enter ascending so it is deterministic.
  std::uint64_t signature = 0x9E3779B97F4A7C15ull;
  const auto mix = [&signature](std::uint64_t x) {
    signature ^= x + 0x9E3779B97F4A7C15ull + (signature << 6) +
                 (signature >> 2);
  };
  std::vector<const CacheSummary*> member_summaries;
  for (const std::uint32_t member : region_map_.members(own_region)) {
    const CacheSummary* summary = member == venue
                                      ? &summaries_[venue]
                                      : summary_tables_[venue].For(member);
    if (summary == nullptr) continue;
    mix(member);
    mix(summary->version());
    member_summaries.push_back(summary);
  }
  if (digest_signatures_[venue] != signature || digest_frames_[venue].empty()) {
    // Version continuity across successions: a promoted head has seen
    // the old head's digests (heads broadcast to their own members too),
    // so resuming past the accepted own-region version makes receivers
    // accept the succession by plain comparison.
    std::uint64_t base = digest_built_versions_[venue];
    if (const RegionDigest* held = digest_tables_[venue].For(own_region)) {
      base = std::max(base, held->version());
    }
    const std::uint64_t next_version = base + 1;
    RegionDigest digest =
        RegionDigest::Build(own_region, venue, next_version, member_summaries,
                            config_.bloom);
    const proto::RegionDigestUpdate wire = digest.ToWire();
    FrameArena& arena = ArenaOf(venue);
    digest_frames_[venue] = arena.Seal(proto::EncodeMessageInto(
        arena.Acquire(proto::kEnvelopeHeaderSize +
                      proto::WireSize(wire)),
        MessageType::kRegionDigestUpdate, next_version, wire));
    digest_built_versions_[venue] = next_version;
    digest_signatures_[venue] = signature;
    digest_tables_[venue].Update(std::move(digest), region_map_.rank_of(venue));
  }

  const std::uint64_t built = digest_built_versions_[venue];
  RegionCounters& rc = Rc(venue);
  for (const std::uint32_t peer : reachable_[venue]) {
    if (digest_sent_version_[venue][peer] >= built) continue;
    digest_sent_version_[venue][peer] = built;
    ++rc.digests_sent;
    rc.digest_bytes += digest_frames_[venue].size();
    SendEdgeToEdge(venue, peer, digest_frames_[venue]);
  }
}

void FederationPipeline::HandleRegionDigestFrame(std::uint32_t venue,
                                                 const Frame& frame) {
  if (!Hierarchical()) return;
  RegionCounters& rc = Rc(venue);
  // Stale fast-drop before the Bloom bits / centroids decode, mirroring
  // the summary path. Only same-head duplicates drop here: a different
  // claimed head must go through the full succession rule.
  if (const auto header = proto::PeekRegionDigestFrame(frame.span());
      header.ok()) {
    if (const RegionDigest* held =
            digest_tables_[venue].For(header.value().region_id);
        held != nullptr && held->head_edge() == header.value().head_edge &&
        header.value().version <= held->version()) {
      ++rc.digest_stale_drops;
      return;
    }
  }
  auto env = proto::DecodeEnvelopeView(frame.span());
  if (!env.ok()) {
    COIC_LOG(kWarn) << "federation: undecodable region digest";
    return;
  }
  auto wire = proto::DecodePayloadAs<proto::RegionDigestUpdate>(
      env.value(), MessageType::kRegionDigestUpdate);
  if (!wire.ok() || wire.value().region_id >= region_map_.regions() ||
      wire.value().head_edge >= config_.venues ||
      region_map_.region_of(wire.value().head_edge) !=
          wire.value().region_id) {
    COIC_LOG(kWarn) << "federation: bad region digest at venue " << venue;
    return;
  }
  auto digest = RegionDigest::FromWire(wire.value());
  if (!digest.ok()) {
    COIC_LOG(kWarn) << "federation: unusable region digest: "
                    << digest.status().ToString();
    return;
  }
  if (digest_tables_[venue].Update(
          std::move(digest).value(),
          region_map_.rank_of(wire.value().head_edge))) {
    ++rc.digests_applied;
  } else {
    ++rc.digest_stale_drops;
  }
}

bool FederationPipeline::MaybeForwardProbeAsHead(std::uint32_t venue,
                                                 std::uint32_t src,
                                                 const Frame& frame) {
  const std::uint32_t own_region = region_map_.region_of(venue);
  if (HeadOf(venue, own_region) != venue) return false;
  auto env = proto::DecodeEnvelopeView(frame.span());
  if (!env.ok()) return false;
  const auto wire = proto::DecodePayloadAs<proto::PeerLookupRequest>(
      env.value(), MessageType::kPeerLookupRequest);
  if (!wire.ok()) return false;
  const proto::FeatureDescriptor& key = wire.value().descriptor;
  RegionCounters& rc = Rc(venue);
  // Region -> member: hand the probe to the best-scoring member when one
  // strictly beats the head's own summary (ties serve locally — it is
  // the cheaper hop, and the head's view of itself is freshest).
  const double own_score = summaries_[venue].MatchScore(key);
  double best_score = own_score;
  std::uint32_t best_member = venue;
  for (const std::uint32_t member : region_map_.members(own_region)) {
    if (member == venue) continue;
    const CacheSummary* summary = summary_tables_[venue].For(member);
    if (summary == nullptr) continue;
    const double score = summary->MatchScore(key);
    if (score > best_score ||
        (score == best_score && best_member != venue && member < best_member)) {
      best_score = score;
      best_member = member;
    }
  }
  if (best_member == venue) {
    ++rc.head_self_serves;
    return false;
  }
  const std::uint32_t dist = topology_.HopDistance(venue, best_member);
  if (dist == Topology::kUnreachable) {
    ++rc.head_self_serves;
    return false;
  }
  // Relay-wrap with the ORIGINAL requester as source — even for an
  // adjacent member — so the member sees the probe as src's and its
  // reply routes straight back to src. HandlePeerLookupReply matches by
  // request id alone, so the reply from a peer src never probed still
  // resolves src's accounting; and relay-delivered probes are never
  // re-intercepted, so this is the probe's only forward.
  ++rc.head_forwards;
  NetOf(venue).Send(edge_nodes_[venue],
                    edge_nodes_[topology_.NextHop(venue, best_member)],
                    RelayFrame(src, best_member, dist, frame));
  return true;
}

void FederationPipeline::MaybeGossip() {
  // Closed loop only (single shard): shard 0's clock is the clock.
  ShardState& sh = *shards_.front();
  if (!GossipEnabled() || sh.sched.now() < next_gossip_) return;
  next_gossip_ = sh.sched.now() + config_.gossip_period;
  for (std::uint32_t v = 0; v < config_.venues; ++v) {
    ++sh.gossip_rounds;
    GossipEdge(v);
  }
}

void FederationPipeline::ArmGossipTimer(std::uint32_t shard) {
  // Free-running batched timer per shard, gossiping the shard's venues
  // in ascending order on the shard's own clock: the order N per-venue
  // timers armed in venue order fired in, at 1/N the scheduler events.
  // No stall bookkeeping: the ShardRunner detects stalls (idle-floor
  // match or no-progress backstop) and quiesces through StopGossipTimer.
  gossip_timers_[shard] =
      shards_[shard]->sched.ScheduleAfter(config_.gossip_period, [this, shard] {
        ShardState& sh = *shards_[shard];
        for (const std::uint32_t v : sh.venues) {
          ++sh.gossip_rounds;
          GossipEdge(v);
        }
        ArmGossipTimer(shard);
      });
}

void FederationPipeline::StopGossipTimer(std::uint32_t shard) {
  // Empty when never armed (closed loop, gossip off, no operations).
  if (gossip_timers_.empty() || gossip_timers_[shard] == 0) return;
  shards_[shard]->sched.Cancel(gossip_timers_[shard]);
  gossip_timers_[shard] = 0;
}

// ---------------------------------------------------------------------------
// Operations
// ---------------------------------------------------------------------------

core::EdgeService& FederationPipeline::edge(std::uint32_t venue) {
  COIC_CHECK(venue < config_.venues);
  return *edges_[venue];
}

std::uint64_t FederationPipeline::total_peer_probes() const {
  std::uint64_t total = 0;
  for (const auto& e : edges_) total += e->peer_probes_sent();
  return total;
}

std::uint64_t FederationPipeline::total_peer_hits() const {
  std::uint64_t total = 0;
  for (const auto& e : edges_) total += e->peer_hits();
  return total;
}

std::uint64_t FederationPipeline::total_coalesced_requests() const {
  std::uint64_t total = 0;
  for (const auto& e : edges_) total += e->coalesced_requests();
  return total;
}

std::uint64_t FederationPipeline::total_cloud_forwards() const {
  std::uint64_t total = 0;
  for (const auto& e : edges_) total += e->forwards();
  return total;
}

std::uint64_t FederationPipeline::total_client_retransmissions() const {
  std::uint64_t total = 0;
  for (const auto& c : clients_) total += c->retransmissions();
  return total;
}

std::uint64_t FederationPipeline::total_client_timeouts() const {
  std::uint64_t total = 0;
  for (const auto& c : clients_) total += c->timeouts();
  return total;
}

std::uint64_t FederationPipeline::total_cloud_retransmissions() const {
  std::uint64_t total = 0;
  for (const auto& e : edges_) total += e->cloud_retransmissions();
  return total;
}

std::uint64_t FederationPipeline::total_cloud_timeouts() const {
  std::uint64_t total = 0;
  for (const auto& e : edges_) total += e->cloud_timeouts();
  return total;
}

std::uint64_t FederationPipeline::total_leader_promotions() const {
  std::uint64_t total = 0;
  for (const auto& e : edges_) total += e->leader_promotions();
  return total;
}

std::uint64_t FederationPipeline::total_overload_sheds() const {
  std::uint64_t total = 0;
  for (const auto& e : edges_) {
    total += e->overload_sheds() + e->deadline_sheds() + e->breaker_sheds();
  }
  return total;
}

std::uint64_t FederationPipeline::total_overload_rejects() const {
  std::uint64_t total = 0;
  for (const auto& c : clients_) total += c->overload_rejects();
  return total;
}

// Gossip counters live in per-shard registry cells; the cluster-wide
// view is their sum (one non-zero cell per venue's home shard).
std::uint64_t FederationPipeline::summary_updates_sent() const noexcept {
  std::uint64_t total = 0;
  for (const auto& sh : shards_) {
    total += sh->gossip.summary_updates_sent.value();
  }
  return total;
}

std::uint64_t FederationPipeline::summary_deltas_sent() const noexcept {
  std::uint64_t total = 0;
  for (const auto& sh : shards_) {
    total += sh->gossip.summary_deltas_sent.value();
  }
  return total;
}

std::uint64_t FederationPipeline::summary_bytes_full() const noexcept {
  std::uint64_t total = 0;
  for (const auto& sh : shards_) total += sh->gossip.summary_bytes_full.value();
  return total;
}

std::uint64_t FederationPipeline::summary_bytes_delta() const noexcept {
  std::uint64_t total = 0;
  for (const auto& sh : shards_) {
    total += sh->gossip.summary_bytes_delta.value();
  }
  return total;
}

std::uint64_t FederationPipeline::relay_forwards() const noexcept {
  std::uint64_t total = 0;
  for (const auto& sh : shards_) total += sh->gossip.relay_forwards.value();
  return total;
}

std::uint64_t FederationPipeline::summary_acks_sent() const noexcept {
  std::uint64_t total = 0;
  for (const auto& sh : shards_) total += sh->gossip.summary_acks_sent.value();
  return total;
}

std::uint64_t FederationPipeline::summary_ack_resends() const noexcept {
  std::uint64_t total = 0;
  for (const auto& sh : shards_) {
    total += sh->gossip.summary_ack_resends.value();
  }
  return total;
}

std::uint64_t FederationPipeline::summaries_aged_out() const noexcept {
  std::uint64_t total = 0;
  for (const auto& sh : shards_) {
    total += sh->gossip.summaries_aged_out.value();
  }
  return total;
}

std::uint64_t FederationPipeline::region_digests_sent() const noexcept {
  std::uint64_t total = 0;
  for (const auto& sh : shards_) total += sh->region.digests_sent.value();
  return total;
}

std::uint64_t FederationPipeline::region_digest_bytes() const noexcept {
  std::uint64_t total = 0;
  for (const auto& sh : shards_) total += sh->region.digest_bytes.value();
  return total;
}

std::uint64_t FederationPipeline::region_digests_applied() const noexcept {
  std::uint64_t total = 0;
  for (const auto& sh : shards_) total += sh->region.digests_applied.value();
  return total;
}

std::uint64_t FederationPipeline::region_head_forwards() const noexcept {
  std::uint64_t total = 0;
  for (const auto& sh : shards_) total += sh->region.head_forwards.value();
  return total;
}

std::uint64_t FederationPipeline::region_head_self_serves() const noexcept {
  std::uint64_t total = 0;
  for (const auto& sh : shards_) {
    total += sh->region.head_self_serves.value();
  }
  return total;
}

std::uint64_t FederationPipeline::region_failovers() const noexcept {
  std::uint64_t total = 0;
  for (const auto& sh : shards_) total += sh->region.failovers.value();
  return total;
}

std::uint64_t FederationPipeline::arena_reuses() const noexcept {
  std::uint64_t total = 0;
  for (const auto& sh : shards_) total += sh->arena.reuses();
  return total;
}

std::uint64_t FederationPipeline::chaos_events_fired() const noexcept {
  std::uint64_t total = 0;
  for (const auto& e : counted_chaos_) total += e->events_fired();
  return total;
}

std::uint64_t FederationPipeline::TotalCompleted() const noexcept {
  std::uint64_t total = 0;
  for (const auto& sh : shards_) total += sh->completed;
  return total;
}

obs::MetricsSnapshot FederationPipeline::MergedMetricsSnapshot() const {
  obs::MetricsSnapshot merged = shards_.front()->metrics->Snapshot();
  for (std::size_t s = 1; s < shards_.size(); ++s) {
    for (const auto& [path, value] : shards_[s]->metrics->Snapshot().values) {
      merged.values[path] += value;
    }
  }
  return merged;
}

std::string FederationPipeline::DumpChromeTrace() const {
  if (shards_.front()->tracer == nullptr) return "{}";
  if (shards_.size() == 1) return shards_.front()->tracer->DumpChromeTrace();
  // Merge every shard's {"traceEvents": [...]} onto one timeline by
  // splicing the array bodies: sim clocks share one virtual time, so
  // the stamps compose without adjustment.
  std::string merged = "{\"traceEvents\": [";
  bool first = true;
  for (const auto& sh : shards_) {
    if (sh->tracer == nullptr) continue;
    const std::string dump = sh->tracer->DumpChromeTrace();
    const std::size_t open = dump.find('[');
    const std::size_t close = dump.rfind(']');
    if (open == std::string::npos || close == std::string::npos ||
        close <= open + 1) {
      continue;
    }
    const std::string body = dump.substr(open + 1, close - open - 1);
    if (body.find_first_not_of(" \t\n") == std::string::npos) continue;
    if (!first) merged += ", ";
    merged += body;
    first = false;
  }
  merged += "]}";
  return merged;
}

Digest128 FederationPipeline::RegisterModel(std::uint64_t model_id,
                                            Bytes serialized_size) {
  cloud_->RegisterModel(model_id, serialized_size);
  const auto digest = cloud_->model_registry().DigestFor(model_id);
  COIC_CHECK(digest.ok());
  model_digests_[model_id] = digest.value();
  return digest.value();
}

void FederationPipeline::EnqueueRecognitionAt(std::uint32_t venue,
                                              const vision::SceneParams& scene,
                                              std::uint32_t mobile,
                                              SimTime at) {
  const std::uint32_t index = ClientIndex(venue, mobile);
  COIC_CHECK(venue < config_.venues && mobile < config_.mobiles_per_venue);
  ops_.push_back(
      {venue, at, [this, index, scene](CoicClient::CompletionFn done) {
         clients_[index]->StartRecognition(
             scene, CloudService::LabelForScene(scene.scene_id),
             std::move(done));
       }});
}

void FederationPipeline::EnqueueRenderAt(std::uint32_t venue,
                                         std::uint64_t model_id,
                                         std::uint32_t mobile, SimTime at) {
  const std::uint32_t index = ClientIndex(venue, mobile);
  COIC_CHECK(venue < config_.venues && mobile < config_.mobiles_per_venue);
  const auto it = model_digests_.find(model_id);
  COIC_CHECK_MSG(it != model_digests_.end(),
                 "EnqueueRenderAt before RegisterModel");
  const Digest128 digest = it->second;
  ops_.push_back(
      {venue, at,
       [this, index, model_id, digest](CoicClient::CompletionFn done) {
         clients_[index]->StartRender(model_id, digest, std::move(done));
       }});
}

void FederationPipeline::EnqueuePanoramaAt(std::uint32_t venue,
                                           std::uint64_t video_id,
                                           std::uint32_t frame_index,
                                           std::uint32_t mobile, SimTime at) {
  const std::uint32_t index = ClientIndex(venue, mobile);
  COIC_CHECK(venue < config_.venues && mobile < config_.mobiles_per_venue);
  ops_.push_back({venue, at,
                  [this, index, video_id,
                   frame_index](CoicClient::CompletionFn done) {
                    clients_[index]->StartPanorama(video_id, frame_index, {},
                                                   std::move(done));
                  }});
}

void FederationPipeline::EnqueuePlaced(const trace::PlacedRecord& placed) {
  const std::uint32_t mobile =
      placed.record.user_id % config_.mobiles_per_venue;
  switch (placed.record.type) {
    case trace::IcTaskType::kRecognition:
      EnqueueRecognitionAt(placed.venue, placed.record.scene, mobile,
                           placed.record.at);
      return;
    case trace::IcTaskType::kRender:
      EnqueueRenderAt(placed.venue, placed.record.model_id, mobile,
                      placed.record.at);
      return;
    case trace::IcTaskType::kPanorama:
      EnqueuePanoramaAt(placed.venue, placed.record.video_id,
                        placed.record.frame_index, mobile, placed.record.at);
      return;
  }
  COIC_CHECK_MSG(false, "unknown trace record type");
}

void FederationPipeline::IssueNext() {
  if (ops_.empty()) return;
  MaybeGossip();
  Op op = std::move(ops_.front());
  ops_.pop_front();
  Issue(std::move(op), /*closed_loop=*/true);
}

void FederationPipeline::Issue(Op op, bool closed_loop) {
  const std::uint32_t venue = op.venue;
  ShardState& sh = ShardOf(venue);
  ++sh.inflight;
  sh.max_inflight = std::max(sh.max_inflight, sh.inflight);
  op.start([this, &sh, venue, closed_loop](core::RequestOutcome outcome) {
    sh.outcomes.push_back({venue, std::move(outcome), sh.sched.now()});
    --sh.inflight;
    ++sh.completed;
    sh.last_completion = sh.sched.now();
    // A shard that finished the whole run stops gossiping at once, not
    // at the runner's next barrier: one shard drains exactly at its
    // last completion.
    if (sh.completed == expected_) StopGossipTimer(ShardIndexOf(venue));
    if (closed_loop) IssueNext();
  });
}

std::vector<FederationOutcome> FederationPipeline::Run() {
  COIC_CHECK_MSG(shards_.size() == 1,
                 "closed-loop Run is one-request-at-a-time by definition; "
                 "sharded pipelines must use RunOpenLoop");
  return RunLoop(/*closed_loop=*/true);
}

std::vector<FederationOutcome> FederationPipeline::RunOpenLoop() {
  return RunLoop(/*closed_loop=*/false);
}

std::string FederationPipeline::StrandedDiagnostic() const {
  // A stranded run (dropped frame, lossy link) used to fail with a bare
  // count; naming the stuck request ids and where they are parked turns
  // the CHECK into a directly actionable report.
  std::string msg = "run drained with " +
                    std::to_string(expected_ - TotalCompleted()) + " of " +
                    std::to_string(expected_) + " operations incomplete:";
  constexpr std::size_t kMaxIdsNamed = 8;
  const auto append_ids = [&msg](const std::vector<std::uint64_t>& ids) {
    msg += " [ids";
    for (std::size_t i = 0; i < ids.size() && i < kMaxIdsNamed; ++i) {
      msg += ' ' + std::to_string(ids[i]);
    }
    if (ids.size() > kMaxIdsNamed) {
      msg += " +" + std::to_string(ids.size() - kMaxIdsNamed) + " more";
    }
    msg += ']';
  };
  for (std::uint32_t v = 0; v < config_.venues; ++v) {
    std::vector<std::uint64_t> client_ids;
    for (std::uint32_t m = 0; m < config_.mobiles_per_venue; ++m) {
      const auto ids = clients_[ClientIndex(v, m)]->inflight_request_ids();
      client_ids.insert(client_ids.end(), ids.begin(), ids.end());
    }
    const auto edge_ids = edges_[v]->pending_request_ids();
    if (client_ids.empty() && edge_ids.empty()) continue;
    msg += " venue " + std::to_string(v) + ": " +
           std::to_string(client_ids.size()) + " awaiting reply at clients";
    append_ids(client_ids);
    msg += ", " + std::to_string(edge_ids.size()) + " parked at edge";
    append_ids(edge_ids);
    msg += ';';
    if (obs::RequestTracer* const tracer = ShardOf(v).tracer.get()) {
      // With tracing on, say exactly which phase each stuck request is
      // parked in and for how long — "phase=cloud_fetch since=+8123ms"
      // beats grepping the scheduler for where a request went quiet.
      for (std::size_t i = 0; i < client_ids.size() && i < kMaxIdsNamed;
           ++i) {
        const std::string live = tracer->DescribeLive(client_ids[i]);
        if (!live.empty()) {
          msg += " id " + std::to_string(client_ids[i]) + " " + live + ';';
        }
      }
    }
  }
  return msg;
}

Duration FederationPipeline::CrossShardLookahead() const {
  // The conservative window: the smallest propagation delay on any link
  // whose endpoints are owned by different shards. Wifi links never
  // cross (a venue's mobiles live with their edge); WAN links cross for
  // every venue not homed on shard 0 (the cloud's shard); peer links
  // cross per the venue->shard map. Brownout LinkConditionSteps cannot
  // shrink propagation (no such field), so the minimum holds mid-chaos.
  std::int64_t lookahead = INT64_MAX;
  for (std::uint32_t v = 0; v < config_.venues; ++v) {
    if (ShardIndexOf(v) != 0) {
      lookahead =
          std::min(lookahead, config_.edge_cloud_propagation.micros());
    }
  }
  for (const TopologyLink& l : topology_.links()) {
    if (ShardIndexOf(l.a) != ShardIndexOf(l.b)) {
      lookahead = std::min(lookahead, l.link.propagation.micros());
    }
  }
  COIC_CHECK_MSG(lookahead != INT64_MAX,
                 "sharded run with no cross-shard links");
  COIC_CHECK_MSG(lookahead > 0,
                 "deterministic sharding needs nonzero cross-shard "
                 "propagation for a conservative window");
  return Duration::Micros(lookahead);
}

std::vector<FederationOutcome> FederationPipeline::RunLoop(bool closed_loop) {
  const std::size_t shard_total = shards_.size();
  open_loop_ = OpenLoopStats{};
  open_loop_.operations = ops_.size();
  expected_ = ops_.size();
  std::vector<std::uint64_t> fired_before(shard_total);
  for (std::size_t s = 0; s < shard_total; ++s) {
    ShardState& sh = *shards_[s];
    sh.outcomes.clear();
    sh.inflight = 0;
    sh.max_inflight = 0;
    sh.completed = 0;
    sh.gossip_rounds = 0;
    sh.last_completion = sh.sched.now();
    fired_before[s] = sh.sched.total_fired();
  }
  open_loop_.first_arrival = shards_.front()->sched.now();
  open_loop_.last_completion = open_loop_.first_arrival;

  if (closed_loop) {
    // One request at a time: each completion issues the next op, with
    // gossip rounds driven between ops (IssueNext/MaybeGossip).
    IssueNext();
  } else if (GossipEnabled() && expected_ > 0) {
    // Round 0 runs as the first event on each shard, at the shard's own
    // clock, gossiping its venues ascending; op events scheduled at the
    // same instant fire after it.
    gossip_timers_.assign(shard_total, 0);
    for (std::uint32_t s = 0; s < shard_total; ++s) {
      ShardState& sh = *shards_[s];
      sh.sched.ScheduleAt(sh.sched.now(), [this, s] {
        ShardState& sh = *shards_[s];
        for (const std::uint32_t v : sh.venues) {
          ++sh.gossip_rounds;
          GossipEdge(v);
        }
        ArmGossipTimer(s);
      });
    }
  }
  // Open loop: every operation at its trace arrival time. Arrivals do
  // not wait for completions, so queueing and probe/link contention show
  // up exactly as offered load dictates.
  bool first_set = false;
  while (!closed_loop && !ops_.empty()) {
    Op op = std::move(ops_.front());
    ops_.pop_front();
    ShardState& sh = ShardOf(op.venue);
    const SimTime at = std::max(op.at, sh.sched.now());
    if (!first_set || at < open_loop_.first_arrival) {
      open_loop_.first_arrival = at;
      first_set = true;
    }
    sh.sched.ScheduleAt(at, [this, op = std::move(op)]() mutable {
      Issue(std::move(op), /*closed_loop=*/false);
    });
  }

  const bool deterministic =
      config_.execution.mode == ExecutionConfig::Mode::kDeterministic;
  std::vector<netsim::ShardHooks> hooks(shard_total);
  for (std::size_t s = 0; s < shard_total; ++s) {
    ShardState& sh = *shards_[s];
    hooks[s].sched = &sh.sched;
    hooks[s].deliver = [&sh, deterministic](netsim::ShardMessage msg) {
      SimTime at = msg.deliver_at;
      if (deterministic) {
        // The sender stamped this inside window k; with window <=
        // lookahead it cannot land before the receiver's clock (which
        // sits at the window edge during the drain phase).
        COIC_CHECK_MSG(at.micros() >= sh.sched.now().micros(),
                       "cross-shard delivery in the receiver's past "
                       "(window wider than the lookahead?)");
      } else if (at.micros() < sh.sched.now().micros()) {
        // Fast mode: clamp to now. Latency shifts by < one window;
        // aggregate conservation invariants are unaffected.
        at = sh.sched.now();
      }
      sh.sched.ScheduleAt(at, [&sh, msg = std::move(msg)]() mutable {
        sh.net.DeliverRemote(msg.from, msg.to, std::move(msg.payload));
      });
    };
    hooks[s].completed = [&sh] { return sh.completed; };
    hooks[s].idle_floor = [this, s] {
      // One batched timer per shard: the shard's idle floor is 1 while
      // it is armed, 0 once quiesced.
      if (gossip_timers_.empty()) return std::uint64_t{0};
      return std::uint64_t{gossip_timers_[s] != 0 ? 1u : 0u};
    };
    hooks[s].quiesce = [this, s] {
      StopGossipTimer(static_cast<std::uint32_t>(s));
    };
  }

  netsim::ShardRunnerConfig runner_config;
  if (shard_total == 1) {
    // No cross-shard link, so the window only paces the runner's
    // completion and stall checks: one gossip period, or a second.
    runner_config.window =
        GossipEnabled() ? config_.gossip_period : Duration::Seconds(1);
  } else {
    runner_config.window = deterministic ? CrossShardLookahead()
                                         : config_.execution.fast_window;
  }
  runner_config.expected_completions = expected_;

  netsim::ShardRunner runner(runner_config, std::move(hooks));
  runner_ = &runner;
  const netsim::ShardRunner::Result result = runner.Run();
  runner_ = nullptr;
  gossip_timers_.clear();

  COIC_CHECK_MSG(TotalCompleted() == expected_, StrandedDiagnostic());

  open_loop_.sync_windows = result.windows;
  open_loop_.cross_shard_messages = result.cross_messages;
  open_loop_.per_worker_events_fired.resize(shard_total);
  std::vector<FederationOutcome> merged;
  merged.reserve(expected_);
  bool any_completion = false;
  for (std::size_t s = 0; s < shard_total; ++s) {
    ShardState& sh = *shards_[s];
    const std::uint64_t fired = sh.sched.total_fired() - fired_before[s];
    open_loop_.per_worker_events_fired[s] = fired;
    open_loop_.events_fired += fired;
    open_loop_.max_inflight += sh.max_inflight;
    open_loop_.gossip_rounds += sh.gossip_rounds;
    if (sh.completed > 0 &&
        (!any_completion ||
         open_loop_.last_completion < sh.last_completion)) {
      open_loop_.last_completion = sh.last_completion;
      any_completion = true;
    }
    merged.insert(merged.end(), std::make_move_iterator(sh.outcomes.begin()),
                  std::make_move_iterator(sh.outcomes.end()));
    sh.outcomes.clear();
  }
  // The closed loop's single stream is already in issue order. Open
  // loop: per-shard streams are each in completion order; interleave
  // them on (completed_at, venue) at every shard count. Venue breaks
  // ties deterministically because any one venue's outcomes come from a
  // single shard (stable_sort keeps their relative order).
  if (closed_loop) return merged;
  std::stable_sort(merged.begin(), merged.end(),
                   [](const FederationOutcome& a, const FederationOutcome& b) {
                     if (a.completed_at.micros() != b.completed_at.micros()) {
                       return a.completed_at.micros() < b.completed_at.micros();
                     }
                     return a.venue < b.venue;
                   });
  return merged;
}

}  // namespace coic::federation
