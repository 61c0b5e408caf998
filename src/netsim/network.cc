#include "netsim/network.h"

#include <algorithm>
#include <memory>

#include "proto/envelope.h"

namespace coic::netsim {

NodeId Network::AddNode(std::string name) {
  const auto id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(NodeState{std::move(name), nullptr, nullptr});
  return id;
}

void Network::SetHandler(NodeId node, MessageHandler handler) {
  COIC_CHECK(node < nodes_.size());
  nodes_[node].handler = std::move(handler);
}

void Network::SetGatherHandler(NodeId node, GatherHandler handler) {
  COIC_CHECK(node < nodes_.size());
  nodes_[node].gather_handler = std::move(handler);
}

void Network::Connect(NodeId a, NodeId b, const LinkConfig& a_to_b,
                      const LinkConfig& b_to_a) {
  ConnectOneWay(a, b, a_to_b);
  ConnectOneWay(b, a, b_to_a);
}

void Network::ConnectOneWay(NodeId from, NodeId to, const LinkConfig& config) {
  COIC_CHECK(from < nodes_.size() && to < nodes_.size());
  COIC_CHECK_MSG(from != to, "self-links are not supported");
  COIC_CHECK_MSG(links_.count(EdgeKey(from, to)) == 0,
                 "nodes already connected");
  // Decorrelate the loss/jitter rng per directed link: many links are
  // stamped from one shared LinkConfig (every wifi link, every peer link
  // of a regular topology), and with a shared seed they would drop
  // exactly the same frame indices — every probe of a broadcast round
  // lost together, which no real network exhibits. Links that never draw
  // (loss 0, jitter 0) are unaffected. The mix depends only on the
  // directed pair, so per-shard networks (which build one direction per
  // link) seed identically to the single-thread engine.
  LinkConfig mixed = config;
  mixed.seed ^= 0x9E3779B97F4A7C15ULL * (EdgeKey(from, to) + 1);
  auto link = std::make_unique<Link>(
      sched_, nodes_[from].name + "->" + nodes_[to].name, mixed);
  // A crash/partition that takes the link down kills the tail of any
  // datagram train mid-flight; drop the receiver's partial immediately
  // instead of leaking it until the next message on this pair (which,
  // after a crash, may never come).
  link->SetDownObserver([this, from, to](bool down) {
    if (down) FlushPartial(from, to);
  });
  links_[EdgeKey(from, to)] = std::move(link);
}

void Network::MarkRemote(NodeId node) {
  COIC_CHECK(node < nodes_.size());
  nodes_[node].remote = true;
}

Link& Network::LinkBetween(NodeId from, NodeId to) {
  const auto it = links_.find(EdgeKey(from, to));
  COIC_CHECK_MSG(it != links_.end(), "nodes are not adjacent");
  return *it->second;
}

bool Network::Adjacent(NodeId from, NodeId to) const {
  return links_.count(EdgeKey(from, to)) > 0;
}

void Network::EnableDatagram(Bytes mtu) {
  COIC_CHECK_MSG(mtu > 0, "datagram mtu must be positive");
  datagram_.enabled = true;
  datagram_.mtu = mtu;
}

void Network::Dispatch(NodeId from, NodeId to, Frame payload) {
  COIC_CHECK(to < nodes_.size());
  COIC_CHECK_MSG(!nodes_[to].remote,
                 "local dispatch to a remote node (send path missed the "
                 "remote divert)");
  auto& handler = nodes_[to].handler;
  COIC_CHECK_MSG(handler != nullptr,
                 "frame delivered to node without a handler");
  handler(from, std::move(payload));
}

void Network::DeliverRemote(NodeId from, NodeId to, Frame payload) {
  COIC_CHECK(to < nodes_.size());
  COIC_CHECK_MSG(!nodes_[to].remote,
                 "cross-shard frame arrived at a node this shard does not own");
  auto& handler = nodes_[to].handler;
  COIC_CHECK_MSG(handler != nullptr,
                 "frame delivered to node without a handler");
  handler(from, std::move(payload));
}

void Network::FlushPartial(NodeId from, NodeId to) {
  const auto it = partials_.find(EdgeKey(from, to));
  if (it == partials_.end()) return;
  ++datagram_stats_.partials_discarded;
  partials_.erase(it);
}

void Network::Send(NodeId from, NodeId to, Frame payload,
                   Link::DropFn on_dropped) {
  if (datagram_.enabled && payload.size() > datagram_.mtu) {
    SendChunked(from, to, std::move(payload), std::move(on_dropped));
    return;
  }
  Link& link = LinkBetween(from, to);
  if (nodes_[to].remote) {
    COIC_CHECK_MSG(remote_dispatch_ != nullptr,
                   "send to a remote node without a dispatch hook");
    link.SendTimed(std::move(payload),
                   [this, from, to](SimTime at, Frame delivered) {
                     remote_dispatch_(from, to, at, std::move(delivered));
                   },
                   std::move(on_dropped));
    return;
  }
  link.Send(std::move(payload),
            [this, from, to](Frame delivered) {
              Dispatch(from, to, std::move(delivered));
            },
            std::move(on_dropped));
}

void Network::SendGather(NodeId from, NodeId to, Frame head, Frame tail,
                         Link::DropFn on_dropped) {
  Link& link = LinkBetween(from, to);
  // Fragmentation and the cross-shard handoff both carry one frame.
  if ((datagram_.enabled && head.size() + tail.size() > datagram_.mtu) ||
      nodes_[to].remote) {
    Send(from, to, link.FlattenGather(std::move(head), tail),
         std::move(on_dropped));
    return;
  }
  link.SendGather(std::move(head), std::move(tail),
                  [this, from, to](Frame delivered_head, Frame delivered_tail) {
                    auto& handler = nodes_[to].gather_handler;
                    COIC_CHECK_MSG(handler != nullptr,
                                   "gathered frame delivered to node without "
                                   "a gather handler");
                    handler(from, std::move(delivered_head),
                            std::move(delivered_tail));
                  },
                  std::move(on_dropped));
}

void Network::SendChunked(NodeId from, NodeId to, Frame payload,
                          Link::DropFn on_dropped) {
  Link& link = LinkBetween(from, to);
  const std::uint64_t seq = ++next_seq_[EdgeKey(from, to)];
  const std::size_t total = payload.size();
  const std::size_t mtu = datagram_.mtu;
  const std::size_t count = (total + mtu - 1) / mtu;
  COIC_CHECK_MSG(count <= 0xFFFF, "payload needs more than 65535 chunks");

  ++datagram_stats_.messages_fragmented;

  // The caller's drop handler fires at most once, with the original
  // (unfragmented) payload — losing any chunk loses the whole message.
  std::shared_ptr<bool> reported;
  Link::DropFn chunk_drop;
  if (on_dropped) {
    reported = std::make_shared<bool>(false);
    chunk_drop = [reported, payload, on_dropped = std::move(on_dropped)](
                     DropReason reason, Frame /*chunk*/) {
      if (*reported) return;
      *reported = true;
      on_dropped(reason, payload);
    };
  }

  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t off = i * mtu;
    const std::size_t len = std::min(mtu, total - off);
    // The chunk view borrows the payload slice: one copy, onto the wire.
    Frame chunk(proto::EncodeMessage(
        proto::MessageType::kDatagramChunk, seq,
        proto::DatagramChunkView{
            .chunk_index = static_cast<std::uint16_t>(i),
            .chunk_count = static_cast<std::uint16_t>(count),
            .data = payload.span().subspan(off, len)}));
    ++datagram_stats_.chunks_sent;
    if (nodes_[to].remote) {
      // Chunk trains to a remote node reassemble here on the sender's
      // shard, synchronously in send order (links are FIFO, so send
      // order is delivery order); the completed message rides the
      // remote hook stamped with the last chunk's delivery time.
      link.SendTimed(std::move(chunk),
                     [this, from, to](SimTime at, Frame delivered) {
                       OnChunkDelivered(from, to, delivered, at);
                     },
                     chunk_drop);
    } else {
      link.Send(std::move(chunk),
                [this, from, to](Frame delivered) {
                  OnChunkDelivered(from, to, delivered, sched_.now());
                },
                chunk_drop);
    }
  }
}

void Network::OnChunkDelivered(NodeId from, NodeId to,
                               const Frame& chunk_frame, SimTime deliver_at) {
  const auto env = proto::DecodeEnvelopeView(chunk_frame.span());
  COIC_CHECK_MSG(env.ok(), "malformed datagram chunk envelope");
  const auto chunk = proto::DecodePayloadAs<proto::DatagramChunkView>(
      env.value(), proto::MessageType::kDatagramChunk);
  COIC_CHECK_MSG(chunk.ok(), "malformed datagram chunk payload");
  const std::uint64_t seq = env.value().request_id;
  const proto::DatagramChunkView& v = chunk.value();

  const std::uint64_t key = EdgeKey(from, to);
  auto it = partials_.find(key);

  if (v.chunk_index == 0) {
    // First chunk of a message. An active partial here means its tail
    // was lost (links are FIFO) — abandon it.
    if (it != partials_.end()) {
      ++datagram_stats_.partials_discarded;
      partials_.erase(it);
    }
    Partial p;
    p.seq = seq;
    p.next_index = 0;
    p.count = v.chunk_count;
    p.assembled = ByteWriter(static_cast<std::size_t>(v.chunk_count) *
                             v.data.size());
    it = partials_.emplace(key, std::move(p)).first;
  } else if (it == partials_.end() || it->second.seq != seq ||
             it->second.next_index != v.chunk_index ||
             it->second.count != v.chunk_count) {
    // Orphan or out-of-run chunk: some earlier chunk was lost. Drop it,
    // and any partial it no longer continues.
    if (it != partials_.end()) {
      ++datagram_stats_.partials_discarded;
      partials_.erase(it);
    }
    return;
  }

  Partial& p = it->second;
  p.assembled.WriteRaw(v.data);
  ++p.next_index;
  if (p.next_index == p.count) {
    Frame message(p.assembled.TakeBytes());
    partials_.erase(it);
    ++datagram_stats_.messages_reassembled;
    if (nodes_[to].remote) {
      COIC_CHECK_MSG(remote_dispatch_ != nullptr,
                     "send to a remote node without a dispatch hook");
      remote_dispatch_(from, to, deliver_at, std::move(message));
    } else {
      Dispatch(from, to, std::move(message));
    }
  }
}

const std::string& Network::NodeName(NodeId id) const {
  COIC_CHECK(id < nodes_.size());
  return nodes_[id].name;
}

}  // namespace coic::netsim
