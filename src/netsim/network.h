// Network topology: named nodes joined by duplex link pairs, with
// handler-based message dispatch.
//
// This is the substrate the CoIC pipelines run on. The three-tier layout
// of the paper (mobile -> edge -> cloud) is just a Network with three
// nodes and two duplex links whose bandwidths are swept per Figure 2a's
// x-axis (B_M->E, B_E->C).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/bytes.h"
#include "common/frame.h"
#include "netsim/link.h"
#include "netsim/scheduler.h"

namespace coic::netsim {

using NodeId = std::uint32_t;
inline constexpr NodeId kInvalidNode = 0xFFFFFFFF;

/// Receives frames addressed to a node. `from` is the sending node.
using MessageHandler = std::function<void(NodeId from, Frame payload)>;
/// Receives gathered frames (Network::SendGather) as the two segments the
/// sender gave: `head`, then `tail`, the body of the message's final blob.
using GatherHandler = std::function<void(NodeId from, Frame head, Frame tail)>;

/// Datagram (unreliable, MTU-bounded) transport mode. Off by default:
/// the reliable mode delivers any frame size in one piece, which is the
/// stream-transport model every pre-loss bench row was measured under.
/// When enabled, frames larger than `mtu` are fragmented into
/// kDatagramChunk envelopes that share a per-directed-pair sequence
/// number; links are FIFO so the receiver reassembles in order, and a
/// lost chunk silently discards the whole message — exactly the UDP
/// failure mode the request-level retry layer above is built to absorb.
struct DatagramConfig {
  bool enabled = false;
  /// Maximum chunk *data* bytes. A frame whose total size is <= mtu
  /// rides unfragmented (no chunk header overhead on small frames).
  Bytes mtu = 16 * 1024;
};

/// Aggregate datagram-mode counters.
struct DatagramStats {
  std::uint64_t messages_fragmented = 0;
  std::uint64_t chunks_sent = 0;
  std::uint64_t messages_reassembled = 0;
  /// Partials abandoned because a chunk went missing (detected when the
  /// next message's first chunk arrives or a gap breaks the sequence)
  /// or because the link went down mid-train (flushed immediately — a
  /// crashed pair may never see a next message).
  std::uint64_t partials_discarded = 0;
};

class Network {
 public:
  explicit Network(EventScheduler& sched) : sched_(sched) {}

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Adds a node; name is used in link names and diagnostics.
  NodeId AddNode(std::string name);

  /// Installs (or replaces) the frame handler for `node`.
  void SetHandler(NodeId node, MessageHandler handler);

  /// Installs (or replaces) the gathered-frame handler for `node`: the
  /// receiver of SendGather pairs that arrive unfused. A gathered frame
  /// the transport had to flatten (over-MTU or cross-shard) arrives at
  /// the plain handler instead.
  void SetGatherHandler(NodeId node, GatherHandler handler);

  /// Connects a and b with a pair of unidirectional links.
  void Connect(NodeId a, NodeId b, const LinkConfig& a_to_b,
               const LinkConfig& b_to_a);

  /// Symmetric convenience overload.
  void Connect(NodeId a, NodeId b, const LinkConfig& both) {
    Connect(a, b, both, both);
  }

  /// Creates only the directed from->to link. The sharded engine builds
  /// each shard's Network with exactly the links whose *sender* the
  /// shard owns; the per-link rng seed mixing is identical to Connect's,
  /// so a sharded cluster draws the same loss/jitter sequence per link
  /// as the single-thread engine.
  void ConnectOneWay(NodeId from, NodeId to, const LinkConfig& config);

  /// Marks `node` as owned by another shard: frames sent to it still run
  /// the full local link model (serialization, loss, jitter), but the
  /// surviving frame is handed to the remote-dispatch hook synchronously
  /// at *send* time, stamped with its computed delivery time — the
  /// conservative-PDES handoff that gives the receiving shard a full
  /// lookahead window of warning. Reassembled datagram trains cross as
  /// one message; chunks never ride the hook.
  void MarkRemote(NodeId node);
  [[nodiscard]] bool IsRemote(NodeId node) const {
    return nodes_.at(node).remote;
  }
  /// One hook per Network: receives (from, to, deliver_at, payload) for
  /// every surviving frame addressed to a remote node. The sharded
  /// engine enqueues it on the owning shard's inbox; that shard
  /// schedules the arrival at deliver_at on its own clock.
  using RemoteDispatchFn =
      std::function<void(NodeId from, NodeId to, SimTime deliver_at,
                         Frame payload)>;
  void SetRemoteDispatch(RemoteDispatchFn fn) {
    remote_dispatch_ = std::move(fn);
  }

  /// Entry point for frames arriving from another shard: invokes `to`'s
  /// local handler directly. The sending shard already modeled the link
  /// (this is the receiving half of the remote-dispatch hook), so no
  /// further delay applies here.
  void DeliverRemote(NodeId from, NodeId to, Frame payload);

  /// The directed link from->to. CHECK-fails if the nodes are not
  /// adjacent; topology is static after setup by design.
  Link& LinkBetween(NodeId from, NodeId to);
  [[nodiscard]] bool Adjacent(NodeId from, NodeId to) const;

  /// Sends `payload` from->to through the connecting link. Delivery
  /// invokes the destination handler at the simulated delivery time.
  /// Drops (loss/overflow) invoke `on_dropped` if provided. The frame is
  /// shared, not copied: broadcast senders pass the same Frame to many
  /// Send calls.
  void Send(NodeId from, NodeId to, Frame payload,
            Link::DropFn on_dropped = nullptr);

  /// Scatter-gather Send: `head` and `tail` travel as one frame (see
  /// Link::SendGather) and reach `to`'s gather handler as the same two
  /// segments — no copy on the way. Two cases must materialize the frame
  /// first, counted on the link (LinkStats::gather_flattens): a combined
  /// size above the datagram MTU (flatten + fragment) and a remote `to`
  /// (the cross-shard handoff carries one frame); both then arrive at
  /// the plain handler.
  void SendGather(NodeId from, NodeId to, Frame head, Frame tail,
                  Link::DropFn on_dropped = nullptr);

  /// Switches every node pair to datagram transport (see DatagramConfig).
  /// Call during setup, before traffic flows.
  void EnableDatagram(Bytes mtu);
  [[nodiscard]] const DatagramConfig& datagram_config() const noexcept {
    return datagram_;
  }
  [[nodiscard]] const DatagramStats& datagram_stats() const noexcept {
    return datagram_stats_;
  }

  /// Visits every directed link once (stats aggregation in benches and
  /// diagnostics; iteration order is unspecified).
  void ForEachLink(const std::function<void(const Link&)>& fn) const {
    for (const auto& [key, link] : links_) fn(*link);
  }

  /// Mutable visit — the chaos engine's lever for cluster-wide condition
  /// changes (burst-loss windows touch every link at once). Distinct
  /// name: an overload would make const-visitor lambdas ambiguous.
  void ForEachMutableLink(const std::function<void(Link&)>& fn) {
    for (auto& [key, link] : links_) fn(*link);
  }

  [[nodiscard]] const std::string& NodeName(NodeId id) const;
  [[nodiscard]] std::size_t node_count() const noexcept { return nodes_.size(); }
  [[nodiscard]] EventScheduler& scheduler() noexcept { return sched_; }

 private:
  struct NodeState {
    std::string name;
    MessageHandler handler;
    GatherHandler gather_handler;
    /// Owned by another shard: deliveries route via remote_dispatch_.
    bool remote = false;
  };

  /// In-progress reassembly for one directed pair. Links are FIFO, so at
  /// most one message is ever mid-reassembly per pair; anything that
  /// breaks the in-order chunk run means loss, and the partial is
  /// discarded.
  struct Partial {
    std::uint64_t seq = 0;
    std::uint16_t next_index = 0;
    std::uint16_t count = 0;
    ByteWriter assembled;
  };

  static std::uint64_t EdgeKey(NodeId from, NodeId to) noexcept {
    return (static_cast<std::uint64_t>(from) << 32) | to;
  }

  /// Delivers a frame to `to`'s local handler (terminal step of every
  /// local Send; remote destinations divert to the hook before this).
  void Dispatch(NodeId from, NodeId to, Frame payload);

  /// Fragments `payload` into kDatagramChunk frames on the from->to link.
  void SendChunked(NodeId from, NodeId to, Frame payload,
                   Link::DropFn on_dropped);

  /// Feeds a delivered kDatagramChunk into the pair's reassembly state;
  /// dispatches the original message when the last chunk lands (to the
  /// remote hook, stamped `deliver_at`, when `to` is remote — chunk
  /// trains reassemble entirely on the sender's shard).
  void OnChunkDelivered(NodeId from, NodeId to, const Frame& chunk_frame,
                        SimTime deliver_at);

  /// Abandons the directed pair's in-progress reassembly (link went
  /// down: the train's remaining chunks are dead). Counted in
  /// partials_discarded.
  void FlushPartial(NodeId from, NodeId to);

  EventScheduler& sched_;
  std::vector<NodeState> nodes_;
  std::unordered_map<std::uint64_t, std::unique_ptr<Link>> links_;
  RemoteDispatchFn remote_dispatch_;
  DatagramConfig datagram_;
  DatagramStats datagram_stats_;
  /// Per directed pair: next fragmentation sequence number (sender side)
  /// and the current partial (receiver side).
  std::unordered_map<std::uint64_t, std::uint64_t> next_seq_;
  std::unordered_map<std::uint64_t, Partial> partials_;
};

}  // namespace coic::netsim
