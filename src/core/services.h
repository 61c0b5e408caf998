// EdgeService and CloudService — the two server-side actors of Figure 1.
//
// Both are transport-agnostic message processors: they consume decoded
// envelopes and emit reply envelopes through a SendFn, with compute
// latency injected through a DelayFn. The simulator binds SendFn to
// netsim::Network and DelayFn to the event scheduler; the real TCP
// transport binds SendFn to a socket write and DelayFn to an immediate
// call (host compute is real there). One implementation, two substrates.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cache/ic_cache.h"
#include "common/frame.h"
#include "common/time.h"
#include "core/cost_model.h"
#include "core/retry.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "proto/envelope.h"
#include "render/panorama.h"
#include "render/registry.h"
#include "vision/recognition.h"

namespace coic::core {

/// Emits an encoded envelope toward a peer. `Peer` distinguishes the
/// directions an edge can talk (client side, cloud side, and — when
/// cooperation is enabled — a neighboring edge). Frames are refcounted
/// (common/frame.h): passing one is a pointer bump, never a payload
/// copy, so relays and fan-outs forward the original buffer.
enum class Peer : std::uint8_t { kClient = 0, kCloud = 1, kPeerEdge = 2 };
using SendFn = std::function<void(Peer to, Frame frame)>;

/// Optional scatter-gather emitter for client result replies: `head`
/// (the envelope header and every result field up to the blob's length
/// prefix) and `tail` (the blob body, a shared slice of the cached
/// payload) travel as one frame that nobody fuses — the transport hands
/// both segments to the receiver, which decodes them in place (see
/// proto::DecodeEnvelopeView(head, tail)). This keeps the cache-hit reply
/// path copy-free end to end. `to` is always Peer::kClient. Null => the
/// fused single-buffer encode.
using GatherSendFn = std::function<void(Peer to, Frame head, Frame tail)>;

/// Runs `fn` after simulated `delay` (scheduler-bound in the simulator,
/// immediate in the real transport).
using DelayFn = std::function<void(Duration delay, std::function<void()> fn)>;

/// Current simulated time (for cache TTL bookkeeping).
using NowFn = std::function<SimTime()>;

// ---------------------------------------------------------------------------
// CloudService
// ---------------------------------------------------------------------------

/// The cloud computing platform: executes complete IC tasks. Owns the
/// recognition DNN stand-in and the model/panorama stores.
class CloudService {
 public:
  struct Config {
    CostModel costs;
    std::uint32_t recognition_classes = 20;
    vision::FeatureExtractorConfig extractor;
    /// Optional scatter-gather sender for render and panorama replies:
    /// a bare envelope header plus the memoized payload by reference
    /// (see GatherSendFn; `to` is always Peer::kClient). Null => the
    /// fused single-buffer encode. Wire bytes are identical either way.
    GatherSendFn gather_send;
  };

  CloudService(Config config, SendFn send, DelayFn delay);

  /// Registers a 3D model of exactly `serialized_size` bytes.
  void RegisterModel(std::uint64_t model_id, Bytes serialized_size);

  /// Entry point for frames arriving from the edge.
  void OnFrame(Frame frame);

  [[nodiscard]] const vision::RecognitionModel& recognition_model() const {
    return *recognition_;
  }
  [[nodiscard]] const render::ModelRegistry& model_registry() const {
    return models_;
  }
  [[nodiscard]] const vision::FeatureExtractor& extractor() const {
    return extractor_;
  }
  [[nodiscard]] std::uint64_t tasks_executed() const noexcept {
    return tasks_executed_;
  }

  /// Canonical label for a synthetic scene — what recognition should
  /// return when it gets the right answer.
  static std::string LabelForScene(std::uint64_t scene_id);

 private:
  void HandleRecognition(const proto::EnvelopeView& env);
  void HandleRender(const proto::EnvelopeView& env);
  void HandlePanorama(const proto::EnvelopeView& env);
  /// Sends `payload` under a reply envelope: gathered (header + the
  /// payload frame itself) when gather_send is set, else fused.
  void Reply(proto::MessageType type, std::uint64_t request_id,
             const Frame& payload);
  void ReplyError(std::uint64_t request_id, StatusCode code,
                  const std::string& message);

  /// Deterministic-output memos. Annotations, encoded render payloads
  /// and encoded panorama payloads depend only on (label / model id /
  /// video+frame), so regenerating the multi-hundred-KB body per task is
  /// pure waste under open-loop request storms. Values are byte-identical
  /// to a fresh generation; the caches only trade memory for wall time,
  /// and are bounded by clearing when they outgrow `cap` (re-filled on
  /// demand, still deterministic). Values are shared Frames: handing one
  /// out is a refcount bump, each reply's delay_ lambda captures the
  /// frame, not a copy of the body, and a gathered reply sends the frame
  /// itself.
  Frame AnnotationFor(const std::string& label);
  template <typename Map>
  static void BoundMemo(Map& memo, std::size_t cap) {
    if (memo.size() > cap) memo.clear();
  }

  Config config_;
  SendFn send_;
  DelayFn delay_;
  vision::FeatureExtractor extractor_;
  std::unique_ptr<vision::RecognitionModel> recognition_;
  render::ModelRegistry models_;
  std::uint64_t tasks_executed_ = 0;
  std::unordered_map<std::string, Frame> annotation_memo_;
  /// model id -> (model byte size, encoded RenderResult payload).
  std::unordered_map<std::uint64_t, std::pair<Bytes, Frame>>
      render_payload_memo_;
  std::map<std::pair<std::uint64_t, std::uint32_t>, Frame>
      panorama_payload_memo_;
};

// ---------------------------------------------------------------------------
// EdgeService
// ---------------------------------------------------------------------------

/// The mobile-edge node: terminates client requests, owns the IC cache,
/// and forwards misses to the cloud (Figure 1's lookup/forward/insert
/// state machine). Origin-mode requests pass through untouched — the
/// baseline shares the topology but never consults the cache.
class EdgeService {
 public:
  /// Federation hooks. `PeerSendFn` delivers a frame to the peer edge
  /// with the given cluster index: `head` alone when `tail` is empty (a
  /// plain frame), else the two as one gathered wire frame. Only a
  /// peer-lookup hit has a tail: `head` is proto::EncodeGatherHead's
  /// envelope header, found flag, reply type and payload length prefix,
  /// and `tail` is the cached payload itself, shared by reference. The
  /// receiver hands a pair to OnPeerFrame(peer, head, tail).
  /// `PeerSelectFn` returns the ordered probe candidates for a
  /// descriptor (best first). When both are installed the edge runs in
  /// N-edge federation mode; otherwise a single anonymous peer is
  /// assumed (the original pairwise protocol).
  using PeerSendFn =
      std::function<void(std::uint32_t peer, Frame head, Frame tail)>;
  using PeerSelectFn =
      std::function<std::vector<std::uint32_t>(const proto::FeatureDescriptor&)>;

  struct Config {
    CostModel costs;
    cache::IcCacheConfig cache;
    /// When true, a local miss probes peer edge caches before paying the
    /// cloud WAN round trip. Pairwise mode routes the single probe via
    /// SendFn(Peer::kPeerEdge); federation mode (peer_send + peer_select
    /// set) fans out to the selected candidates instead.
    bool cooperative = false;
    PeerSendFn peer_send;      ///< Null => pairwise mode.
    PeerSelectFn peer_select;  ///< Null => pairwise mode.
    /// Per-request cap on peer probes in federation mode; candidates
    /// beyond the budget are dropped (policy order is preserved).
    std::uint32_t probe_budget = 1;
    /// Same-key request coalescing: while a CoIC miss for a descriptor
    /// is in flight (peer probes or cloud forward), later misses on the
    /// same key park on a wait-list and are served from the leader's
    /// result instead of paying their own upstream fetch. Invisible in
    /// the closed loop (never more than one request in flight); under an
    /// open-loop storm it collapses N concurrent same-object misses into
    /// one cloud fetch.
    bool coalesce_requests = true;
    /// Edge->cloud timeout/retry policy for the unreliable-transport
    /// mode. Disabled by default (reliable transport never loses the
    /// forward or the reply).
    RetryConfig cloud_retry;
    /// How long to wait for peer-probe replies before giving up on the
    /// probe round and falling through to the cloud. Infinite (default)
    /// waits forever — correct only on a lossless transport.
    Duration peer_probe_timeout = Duration::Infinite();
    /// Recently-resolved grace entries: after a coalescing leader
    /// resolves, its result is kept keyed by coalesce key until the
    /// delayed cache insert lands, so a same-key miss arriving in that
    /// window is served from the grace entry instead of starting a
    /// duplicate upstream fetch. On by default — the window is a bug,
    /// not a feature.
    bool resolved_grace = true;
    /// Idempotent-replay memo: the last N resolved request ids keep
    /// their reply so a retransmitted request whose reply was lost is
    /// answered from the memo, never re-fetched. 0 (default) disables;
    /// enable alongside client retries.
    std::size_t resolved_memo_capacity = 0;
    /// Admission control: when set (> 0), a CoIC miss arriving while
    /// `max_pending` requests are already parked is shed immediately
    /// with a kError reply carrying StatusCode::kResourceExhausted
    /// instead of joining the queue — the overloaded edge answers in
    /// O(1) and the client degrades to its local-compute fallback
    /// rather than burning its retry budget against a drowning edge.
    /// 0 (default) disables: the edge accepts everything, as before.
    std::size_t max_pending = 0;
    /// Circuit breaker on the edge->cloud path: after this many
    /// consecutive cloud-fetch failures (retry budgets spent without a
    /// reply) the breaker opens and cloud forwards fail fast with
    /// StatusCode::kUnavailable — a dead cloud stops consuming retry
    /// budgets and coalescing leaders. After `breaker_open_duration`
    /// the next forward runs as a half-open probe: success closes the
    /// breaker, failure re-opens it. 0 (default) disables.
    std::uint32_t breaker_failure_threshold = 0;
    Duration breaker_open_duration = Duration::Millis(2000);
    /// Optional scatter-gather sender for result replies (see
    /// GatherSendFn). Wire bytes are identical to the fused path.
    GatherSendFn gather_send;
    /// Observability: when set, this edge's counters live in the shared
    /// registry under `metrics_prefix` (e.g. "edge.0."); when null the
    /// edge owns a private registry. Either way the counter accessors
    /// below keep working unchanged.
    obs::MetricsRegistry* metrics = nullptr;
    std::string metrics_prefix = "edge.";
    /// Request-lifecycle tracer; null => tracing disabled, and every
    /// instrumentation site reduces to one pointer test.
    obs::RequestTracer* tracer = nullptr;
    /// Peer-hit adoption filter: a miss answered by a peer is only
    /// inserted into the local cache when the key has been requested
    /// here at least this many times (counting the current miss). 0
    /// (default) adopts everything, as before. With peers one hop away,
    /// adopting single-use content merely duplicates what the
    /// federation already serves — and the insert may evict an entry
    /// only this edge holds.
    std::uint32_t peer_hit_adopt_min_uses = 0;
    /// Probe-aware coalescing: a peer lookup that misses here while a
    /// same-key fetch of ours is in flight parks on that fetch and is
    /// answered from its result, instead of replying "miss" and sending
    /// the prober to the cloud for bytes already on the wire. Requires
    /// coalesce_requests; off by default.
    bool park_peer_probes = false;
    /// Buffer recycler for small control frames (probes, probe replies,
    /// summary acks). Null => plain allocation, byte-identical wire.
    FrameArena* frame_arena = nullptr;
  };

  EdgeService(Config config, SendFn send, DelayFn delay, NowFn now);

  /// Frames arriving from the mobile client.
  void OnClientFrame(Frame frame);

  /// Frames arriving back from the cloud. The gathered form is a bare
  /// envelope header plus the whole result payload (CloudService's
  /// gather_send): the cache adopts `tail` itself and the pair goes on
  /// to the client through gather_send.
  void OnCloudFrame(Frame frame);
  void OnCloudFrame(Frame head, Frame tail);

  /// Frames arriving from the cooperating peer edge (lookup requests we
  /// answer, and replies to lookups we issued). The anonymous overload
  /// serves pairwise mode; federation substrates pass the sender's
  /// cluster index so replies can be routed back.
  void OnPeerFrame(Frame frame);
  void OnPeerFrame(std::uint32_t from_peer, Frame frame);
  /// A gathered peer frame (a peer_send head and non-empty tail).
  void OnPeerFrame(std::uint32_t from_peer, Frame head, Frame tail);

  [[nodiscard]] const cache::IcCache& cache() const noexcept { return cache_; }
  [[nodiscard]] cache::IcCache& mutable_cache() noexcept { return cache_; }

  /// Number of requests forwarded to the cloud.
  [[nodiscard]] std::uint64_t forwards() const noexcept { return forwards_.value(); }
  /// Number of misses answered by a peer edge.
  [[nodiscard]] std::uint64_t peer_hits() const noexcept { return peer_hits_.value(); }
  /// Peer lookup queries answered for neighbors.
  [[nodiscard]] std::uint64_t peer_queries_served() const noexcept {
    return peer_queries_served_.value();
  }
  /// PeerLookupRequests this edge issued (the probe-traffic metric the
  /// federation policies trade against hit rate).
  [[nodiscard]] std::uint64_t peer_probes_sent() const noexcept {
    return peer_probes_sent_.value();
  }
  /// Misses that coalesced onto an already-in-flight fetch for the same
  /// key instead of paying their own peer probes / cloud round trip.
  [[nodiscard]] std::uint64_t coalesced_requests() const noexcept {
    return coalesced_requests_.value();
  }
  /// Requests currently parked (awaiting a cloud reply or peer probes).
  [[nodiscard]] std::size_t pending_inflight() const noexcept {
    return pending_.size();
  }
  /// High-water mark of parked requests — the queueing depth open-loop
  /// replay drives; stays at 1 in the closed-loop regime.
  [[nodiscard]] std::size_t peak_pending() const noexcept {
    return peak_pending_;
  }
  /// Ids of the requests currently parked, ascending — the stranded-
  /// workload diagnostics name these when an open-loop run fails to
  /// drain.
  [[nodiscard]] std::vector<std::uint64_t> pending_request_ids() const;

  // Unreliable-transport counters (all zero when retries are disabled).
  /// Cloud forwards retransmitted after a timeout.
  [[nodiscard]] std::uint64_t cloud_retransmissions() const noexcept {
    return cloud_retransmissions_.value();
  }
  /// Cloud fetches abandoned after the retry budget was spent.
  [[nodiscard]] std::uint64_t cloud_timeouts() const noexcept {
    return cloud_timeouts_.value();
  }
  /// Peer-probe rounds abandoned on timeout (fell through to the cloud).
  [[nodiscard]] std::uint64_t probe_timeouts() const noexcept {
    return probe_timeouts_.value();
  }
  /// Coalescing waiters promoted to leader after their leader's fetch
  /// died (the leader-loss recovery path).
  [[nodiscard]] std::uint64_t leader_promotions() const noexcept {
    return leader_promotions_.value();
  }
  /// Retransmitted requests dropped because the original is still in
  /// flight (without this, a duplicate id would double-park).
  [[nodiscard]] std::uint64_t duplicates_dropped() const noexcept {
    return duplicates_dropped_.value();
  }
  /// Retransmitted requests answered from the resolved-reply memo.
  [[nodiscard]] std::uint64_t replayed_from_memo() const noexcept {
    return replayed_from_memo_.value();
  }
  /// Misses served from a recently-resolved grace entry (the cache-
  /// insert-delay window that previously caused duplicate fetches).
  [[nodiscard]] std::uint64_t grace_hits() const noexcept {
    return grace_hits_.value();
  }

  // Overload-control counters (all zero with the controls disabled).
  /// Misses shed at admission because the pending queue was full.
  [[nodiscard]] std::uint64_t overload_sheds() const noexcept {
    return overload_sheds_.value();
  }
  /// Requests shed before a cloud fetch because their wire deadline had
  /// already expired while they queued / probed / parked.
  [[nodiscard]] std::uint64_t deadline_sheds() const noexcept {
    return deadline_sheds_.value();
  }
  /// Times the cloud circuit breaker opened (including re-opens after a
  /// failed half-open probe).
  [[nodiscard]] std::uint64_t breaker_opens() const noexcept {
    return breaker_opens_.value();
  }
  /// Cloud forwards failed fast because the breaker was open.
  [[nodiscard]] std::uint64_t breaker_sheds() const noexcept {
    return breaker_sheds_.value();
  }

  /// Peer-hit results not adopted into the local cache because the key
  /// had fewer than `peer_hit_adopt_min_uses` local requests.
  [[nodiscard]] std::uint64_t peer_adoptions_skipped() const noexcept {
    return peer_adoptions_skipped_.value();
  }
  /// Peer lookups that missed locally but parked on an in-flight
  /// same-key fetch (answered from its result, not sent away empty).
  [[nodiscard]] std::uint64_t peer_probes_parked() const noexcept {
    return peer_probes_parked_.value();
  }

  /// Cloud-path circuit-breaker state (exposed for tests/diagnostics).
  enum class BreakerState : std::uint8_t { kClosed, kOpen, kHalfOpen };
  [[nodiscard]] BreakerState breaker_state() const noexcept {
    return breaker_state_;
  }

 private:
  /// A peer lookup parked on this edge's in-flight fetch (probe-aware
  /// coalescing): when the fetch resolves, the prober is answered with
  /// a PeerLookupReply under its own probe request id.
  struct RemoteWaiter {
    std::uint32_t peer = 0;
    std::uint64_t request_id = 0;
    proto::MessageType reply_type = proto::MessageType::kRecognitionResult;
  };

  struct PendingForward {
    proto::MessageType request_type = proto::MessageType::kPing;
    proto::OffloadMode mode = proto::OffloadMode::kCoic;
    /// Result envelope type this request will be answered with (CoIC
    /// mode; serves coalesced waiters without re-deriving it).
    proto::MessageType reply_type = proto::MessageType::kRecognitionResult;
    /// Cache key to insert the result under (CoIC mode only).
    std::optional<proto::FeatureDescriptor> insert_key;
    /// Original client request frame, kept while the request is parked
    /// at the peer (a peer miss falls through to the cloud), while a
    /// cloud retry policy is armed (retransmissions resend it), and for
    /// waiters (leader promotion re-forwards it) — as-is, never
    /// re-encoded.
    Frame original;
    bool at_peer = false;
    /// Cloud-forward attempt number (0 = initial send); stale retry
    /// timers compare against it and disarm.
    std::uint32_t attempt = 0;
    /// Probes still in flight (federation mode fans out to several).
    std::uint32_t probes_outstanding = 0;
    /// A probe already hit; late replies are drained without effect.
    bool served = false;
    /// Leader bookkeeping for same-key coalescing: the key this request
    /// holds in inflight_keys_ (released when its result arrives) and
    /// the request ids waiting on that result.
    std::optional<std::uint64_t> coalesce_key;
    std::vector<std::uint64_t> waiters;
    /// True for a parked waiter: no upstream fetch of its own; it is
    /// served (or failed) when its leader completes.
    bool is_waiter = false;
    /// Absolute expiry of the wire deadline the request carried
    /// (deadline_ms, stamped by the client at send); nullopt = none.
    /// Checked at ForwardToCloud: already-expired work is shed instead
    /// of paying a cloud round trip it can no longer use.
    std::optional<SimTime> deadline_at;
    /// Peer probes parked on this fetch (probe-aware coalescing);
    /// answered — found or not — when the fetch resolves, and handed to
    /// the promoted leader on leader loss.
    std::vector<RemoteWaiter> remote_waiters;
  };

  /// Registers an in-flight request; CHECK-fails on a duplicate id. The
  /// single parking point for both the cloud-forward and peer-probe paths.
  void Park(std::uint64_t request_id, PendingForward pending);

  /// Runs the Figure 1 lookup for a CoIC request; returns true and sends
  /// the reply if it hit.
  bool TryServeFromCache(const proto::FeatureDescriptor& key,
                         proto::MessageType reply_type,
                         std::uint64_t request_id);
  /// Handles the local-miss path: coalesce onto an in-flight same-key
  /// fetch when possible, else peer probe(s) if cooperative, else cloud.
  void OnLocalMiss(Frame frame, proto::FeatureDescriptor descriptor,
                   proto::MessageType reply_type,
                   std::optional<SimTime> deadline_at);
  void ForwardToCloud(Frame request_frame, PendingForward pending);
  /// `tail` is empty for a plain frame.
  void DispatchPeerFrame(std::optional<std::uint32_t> from_peer, Frame head,
                         Frame tail);
  void HandlePeerLookupRequest(const proto::EnvelopeView& env,
                               std::optional<std::uint32_t> from_peer);
  void HandlePeerLookupReply(const Frame& head, const Frame& tail,
                             const proto::EnvelopeView& env);
  /// Answers a peer lookup: through peer_send to `peer` (a hit gathered,
  /// the cached payload by reference), or fused through
  /// SendFn(Peer::kPeerEdge) in pairwise mode.
  void SendPeerReply(std::optional<std::uint32_t> peer,
                     std::uint64_t request_id, proto::MessageType reply_type,
                     bool found, const Frame& payload);
  /// Relays a cloud reply to the client as it arrived: one frame, or a
  /// gathered pair through gather_send.
  void RelayCloudReply(Frame head, Frame tail);

  /// Same-key coalescing identity of a descriptor: content-hash keys use
  /// their index key, vector keys a hash of the raw float bits (exact
  /// re-extractions coalesce; merely similar vectors do not — those are
  /// the cache's approximate-match job, not the wait-list's).
  static std::uint64_t CoalesceKey(const proto::FeatureDescriptor& key) noexcept;

  /// Serves waiter requests with the leader's result payload, each under
  /// its own reply envelope type with `source` patched in (the result
  /// was produced once upstream and fanned out at the edge). Waiters are
  /// unparked as they are served.
  void ServeWaiters(const std::vector<std::uint64_t>& waiters,
                    const Frame& payload, proto::ResultSource source);
  /// Fails waiter requests with the leader's error payload.
  void FailWaiters(const std::vector<std::uint64_t>& waiters,
                   std::span<const std::uint8_t> error_payload);
  /// Answers parked peer probes with the leader's outcome: a
  /// PeerLookupReply per waiter under its probe request id — found=1
  /// with the result payload, or found=0 (empty payload) so the prober
  /// falls through to its remaining peers / the cloud.
  void AnswerRemoteWaiters(const std::vector<RemoteWaiter>& waiters,
                           bool found, const Frame& payload);
  /// Encodes `msg` in an envelope, recycling an arena buffer when one is
  /// configured. Wire bytes match the plain path exactly.
  template <typename Message>
  [[nodiscard]] Frame EncodeFrame(proto::MessageType type,
                                  std::uint64_t request_id,
                                  const Message& msg) {
    FrameArena* arena = config_.frame_arena;
    if (arena == nullptr) {
      return Frame(proto::EncodeMessage(type, request_id, msg));
    }
    return arena->Seal(proto::EncodeMessageInto(
        arena->Acquire(proto::kEnvelopeHeaderSize + proto::WireSize(msg)),
        type, request_id, msg));
  }
  /// proto::EncodeGatherHead of `msg` (the frame up to its final blob's
  /// length prefix), through the arena like EncodeFrame.
  template <typename Message>
  [[nodiscard]] Frame EncodeGatherHeadFrame(proto::MessageType type,
                                            std::uint64_t request_id,
                                            const Message& msg) {
    FrameArena* arena = config_.frame_arena;
    if (arena == nullptr) {
      return Frame(proto::EncodeGatherHead(type, request_id, msg));
    }
    return arena->Seal(proto::EncodeGatherHeadInto(arena->Acquire(0), type,
                                                   request_id, msg));
  }
  /// Records a local request for `coalesce_key` (bounded map; counts
  /// feed the peer-hit adoption filter). No-op unless the filter is on.
  void NoteKeyUse(std::uint64_t coalesce_key);
  [[nodiscard]] std::uint32_t KeyUses(std::uint64_t coalesce_key) const noexcept;
  /// Drops the in-flight marker for `key` (no-op for nullopt). Done the
  /// moment the leader's outcome is known: later same-key misses start a
  /// fresh fetch instead of waiting on a resolved leader.
  void ReleaseCoalesceKey(const std::optional<std::uint64_t>& key);

  /// Wraps a cached result payload in a reply envelope with `source`
  /// stamped in place (one copy; the result body is never decoded).
  static Frame EncodePatchedResult(proto::MessageType type,
                                   std::uint64_t request_id,
                                   std::span<const std::uint8_t> payload,
                                   proto::ResultSource source);

  /// Sends a result payload to the client under `reply_type` with
  /// `source` stamped in. With gather_send configured the payload is
  /// split just past the result blob's length prefix and the blob body
  /// is shared by reference (copy-free hit replies); otherwise it falls
  /// back to the fused one-copy EncodePatchedResult. Wire bytes are
  /// identical either way.
  void SendResultToClient(proto::MessageType reply_type,
                          std::uint64_t request_id, const Frame& payload,
                          proto::ResultSource source);
  /// SendResultToClient plus resolved-memo bookkeeping — the terminal
  /// resolution of a fetched (leader/waiter/grace) request.
  void ResolveToClient(std::uint64_t request_id,
                       proto::MessageType reply_type, const Frame& payload,
                       proto::ResultSource source);

  /// The registry cell backing counter `name` (shared registry under the
  /// configured prefix, or the private fallback). Constructor-only.
  [[nodiscard]] obs::Counter& Metric(const char* name) {
    return (config_.metrics ? *config_.metrics : *own_metrics_)
        .GetCounter(config_.metrics_prefix + name);
  }

  /// Replay memo for resolved requests (idempotent duplicate handling).
  /// Either a complete pre-encoded reply frame, or a payload re-wrapped
  /// per replay.
  struct ResolvedMemo {
    Frame reply;
    Frame payload;
    proto::MessageType reply_type = proto::MessageType::kRecognitionResult;
    proto::ResultSource source = proto::ResultSource::kEdgeCache;
  };
  void MemoizeResolved(std::uint64_t request_id, ResolvedMemo memo);
  /// Serves a retransmitted request from the memo; false if unknown.
  bool TryReplayFromMemo(std::uint64_t request_id);

  // Cloud-forward retry machinery (no-ops unless cloud_retry.enabled()).
  void ArmCloudRetryTimer(std::uint64_t request_id, std::uint32_t attempt);
  void OnCloudRetryTimer(std::uint64_t request_id, std::uint32_t attempt);
  /// Retry budget spent: error the leader's client and promote the
  /// oldest parked waiter to run its own fetch (leader-loss recovery).
  void HandleCloudFetchFailure(std::uint64_t request_id);
  /// Peer-probe round abandoned: fall through to the cloud.
  void OnProbeTimeout(std::uint64_t request_id);

  /// Sends an immediate kError reply with `code` (the shed contract the
  /// client's degradation path keys on), memoized for duplicate replay.
  void ShedToClient(std::uint64_t request_id, StatusCode code,
                    const char* message, const char* annotation);
  /// Sheds a not-yet-parked request plus its coalesced waiters; the
  /// single exit for the breaker / deadline fail-fast paths.
  void ShedPending(std::uint64_t request_id, PendingForward pending,
                   StatusCode code, const char* message,
                   const char* annotation);
  /// True when the breaker currently refuses this forward (also runs
  /// the open -> half-open transition and claims the probe slot).
  [[nodiscard]] bool BreakerRefusesForward(std::uint64_t request_id);
  /// Breaker bookkeeping for a cloud-fetch failure / success.
  void OnBreakerFailure(std::uint64_t request_id);
  void OnBreakerSuccess();

  Config config_;
  SendFn send_;
  DelayFn delay_;
  NowFn now_;
  cache::IcCache cache_;
  std::unordered_map<std::uint64_t, PendingForward> pending_;
  /// Coalesce key -> leader request id, for keys with a fetch in flight.
  std::unordered_map<std::uint64_t, std::uint64_t> inflight_keys_;
  /// Recently-resolved results awaiting their delayed cache insert,
  /// keyed by coalesce key. `gen` disambiguates re-resolutions of the
  /// same key so a stale erase cannot drop a newer entry.
  struct GraceEntry {
    Frame payload;
    std::uint64_t gen = 0;
  };
  std::unordered_map<std::uint64_t, GraceEntry> grace_;
  std::uint64_t grace_gen_ = 0;
  /// Bounded FIFO of resolved replies for duplicate replay.
  std::unordered_map<std::uint64_t, ResolvedMemo> resolved_memo_;
  std::deque<std::uint64_t> resolved_memo_fifo_;
  /// Private registry backing the counters when no shared one is
  /// configured. Declared before the Counter& members: they bind to it
  /// in the constructor initializer list.
  std::unique_ptr<obs::MetricsRegistry> own_metrics_;
  obs::RequestTracer* tracer_ = nullptr;
  obs::Counter& forwards_;
  obs::Counter& peer_hits_;
  obs::Counter& peer_queries_served_;
  obs::Counter& peer_probes_sent_;
  obs::Counter& coalesced_requests_;
  obs::Counter& cloud_retransmissions_;
  obs::Counter& cloud_timeouts_;
  obs::Counter& probe_timeouts_;
  obs::Counter& leader_promotions_;
  obs::Counter& duplicates_dropped_;
  obs::Counter& replayed_from_memo_;
  obs::Counter& grace_hits_;
  obs::Counter& overload_sheds_;
  obs::Counter& deadline_sheds_;
  obs::Counter& breaker_opens_;
  obs::Counter& breaker_sheds_;
  obs::Counter& peer_adoptions_skipped_;
  obs::Counter& peer_probes_parked_;
  /// Bounded per-key local request counts backing the peer-hit adoption
  /// filter (FIFO-evicted; empty unless peer_hit_adopt_min_uses > 0).
  std::unordered_map<std::uint64_t, std::uint32_t> key_uses_;
  std::deque<std::uint64_t> key_uses_fifo_;
  std::size_t peak_pending_ = 0;
  // Cloud-path circuit breaker (inert unless breaker_failure_threshold
  // is set). Consecutive counts only full fetch failures — retry
  // budgets spent without any cloud reply.
  BreakerState breaker_state_ = BreakerState::kClosed;
  std::uint32_t consecutive_cloud_failures_ = 0;
  SimTime breaker_reopen_at_ = SimTime::Epoch();
  bool breaker_probe_inflight_ = false;
};

}  // namespace coic::core
