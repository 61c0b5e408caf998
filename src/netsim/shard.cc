#include "netsim/shard.h"

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cstddef>
#include <thread>
#include <utility>

#include "common/status.h"
#include "netsim/spsc_queue.h"

namespace coic::netsim {

struct ShardRunner::Impl {
  /// Per-shard counters published in the drain phase and read by the
  /// decide barrier's completion step. Written only by the owning
  /// worker, read only inside the completion step — the barrier itself
  /// provides the ordering; cache-line padding avoids false sharing.
  struct alignas(64) Slot {
    std::uint64_t pending = 0;
    std::uint64_t completed = 0;
    std::uint64_t idle_floor = 0;
    std::int64_t next_event_micros = 0;
    std::uint64_t sent = 0;  ///< Cross-shard messages pushed (stat).
    std::uint8_t quiesced = 0;
  };

  struct Decide {
    ShardRunner* runner;
    void operator()() noexcept { runner->OnDecideBarrier(); }
  };

  Impl(ShardRunner* runner, std::ptrdiff_t n)
      : queues(static_cast<std::size_t>(n * n)),
        slots(static_cast<std::size_t>(n)),
        decide(n, Decide{runner}),
        window_edge(n) {}

  /// queues[from * S + to]: one SPSC lane per directed shard pair.
  std::vector<SpscQueue<ShardMessage>> queues;
  std::vector<Slot> slots;
  std::barrier<Decide> decide;
  std::barrier<> window_edge;
  /// Pushed-minus-popped across all lanes. Every message pushed in
  /// window k is drained before the next decide barrier, so this must
  /// read zero inside the completion step (CHECKed there).
  std::atomic<std::int64_t> cross_inflight{0};

  // Decision state: written only by the decide completion step (all
  // workers blocked), read by workers after release — no atomics needed.
  std::int64_t window_end_micros = 0;
  std::uint64_t windows = 0;
  std::uint64_t last_completed = 0;
  std::uint64_t windows_no_progress = 0;
  bool quiesce = false;
  bool done = false;
  bool stalled = false;
};

ShardRunner::ShardRunner(ShardRunnerConfig config,
                         std::vector<ShardHooks> shards)
    : config_(config), shards_(std::move(shards)) {
  COIC_CHECK_MSG(!shards_.empty(), "shard runner needs at least one shard");
  COIC_CHECK_MSG(config_.window > Duration::Zero(),
                 "synchronization window must be positive");
  for (const ShardHooks& h : shards_) {
    COIC_CHECK(h.sched != nullptr);
    COIC_CHECK(h.deliver != nullptr);
  }
  impl_ = new Impl(this, static_cast<std::ptrdiff_t>(shards_.size()));
  // Starts at the epoch, not at one window: the first decide barrier
  // advances it, so a non-zero start would make the first window twice
  // the lookahead and break the deterministic-mode delivery bound.
  impl_->window_end_micros = 0;
}

ShardRunner::~ShardRunner() { delete impl_; }

void ShardRunner::Send(std::uint32_t from_shard, std::uint32_t to_shard,
                       ShardMessage msg) {
  COIC_CHECK(from_shard < shards_.size() && to_shard < shards_.size());
  COIC_CHECK_MSG(from_shard != to_shard,
                 "cross-shard send addressed to the sending shard");
  impl_->cross_inflight.fetch_add(1, std::memory_order_relaxed);
  ++impl_->slots[from_shard].sent;
  impl_->queues[from_shard * shards_.size() + to_shard].Push(std::move(msg));
}

ShardRunner::Result ShardRunner::Run() {
  const auto count = static_cast<std::uint32_t>(shards_.size());
  std::vector<std::thread> workers;
  workers.reserve(count - 1);
  for (std::uint32_t s = 1; s < count; ++s) {
    workers.emplace_back([this, s] { WorkerLoop(s); });
  }
  WorkerLoop(0);  // shard 0 runs on the calling thread
  for (std::thread& t : workers) t.join();

  Result result;
  result.windows = impl_->windows;
  result.stalled = impl_->stalled;
  for (const Impl::Slot& slot : impl_->slots) {
    result.cross_messages += slot.sent;
  }
  return result;
}

void ShardRunner::WorkerLoop(std::uint32_t shard) {
  ShardHooks& hooks = shards_[shard];
  hooks.sched->BindOwnerThread();
  const auto count = static_cast<std::uint32_t>(shards_.size());
  bool quiesced = false;

  for (;;) {
    // Drain inboxes in fixed producer order: arrivals at equal delivery
    // times get their scheduler tiebreak ids in a reproducible order.
    for (std::uint32_t p = 0; p < count; ++p) {
      if (p == shard) continue;
      SpscQueue<ShardMessage>& lane = impl_->queues[p * count + shard];
      ShardMessage msg;
      while (lane.Pop(msg)) {
        impl_->cross_inflight.fetch_sub(1, std::memory_order_relaxed);
        hooks.deliver(std::move(msg));
      }
    }

    Impl::Slot& slot = impl_->slots[shard];
    slot.pending = hooks.sched->pending();
    slot.next_event_micros = hooks.sched->NextEventMicros();
    slot.completed = hooks.completed ? hooks.completed() : 0;
    slot.idle_floor = hooks.idle_floor ? hooks.idle_floor() : 0;
    slot.quiesced = quiesced ? 1 : 0;

    impl_->decide.arrive_and_wait();
    if (impl_->done) break;
    if (impl_->quiesce && !quiesced) {
      if (hooks.quiesce) hooks.quiesce();
      quiesced = true;
    }

    hooks.sched->RunUntil(SimTime::FromMicros(impl_->window_end_micros));

    // Edge barrier: every sender has finished the window (all its
    // cross-shard pushes are in the lanes) before anyone drains.
    impl_->window_edge.arrive_and_wait();
  }

  hooks.sched->ClearOwnerThread();
}

void ShardRunner::OnDecideBarrier() noexcept {
  Impl& im = *impl_;
  ++im.windows;

  std::uint64_t pending = 0;
  std::uint64_t completed = 0;
  std::uint64_t floor = 0;
  std::int64_t next_min = INT64_MAX;
  bool all_quiesced = true;
  for (const Impl::Slot& slot : im.slots) {
    pending += slot.pending;
    completed += slot.completed;
    floor += slot.idle_floor;
    next_min = std::min(next_min, slot.next_event_micros);
    all_quiesced = all_quiesced && slot.quiesced != 0;
  }
  // Window-k traffic was fully pushed before the edge barrier and fully
  // drained before this one; anything left is a protocol bug.
  COIC_CHECK_MSG(im.cross_inflight.load(std::memory_order_relaxed) == 0,
                 "cross-shard messages survived the drain phase");

  if (completed != im.last_completed) {
    im.last_completed = completed;
    im.windows_no_progress = 0;
  } else {
    ++im.windows_no_progress;
  }

  if (!im.quiesce) {
    if (completed >= config_.expected_completions) {
      im.quiesce = true;
    } else if (pending == floor) {
      // Every pending event in the cluster is a self-rearming timer and
      // nothing is in flight: no operation can ever complete again.
      im.quiesce = true;
      im.stalled = true;
    } else if (im.windows_no_progress > config_.stall_backstop_windows) {
      im.quiesce = true;
      im.stalled = true;
    }
  }

  if (im.quiesce && all_quiesced && pending == 0) {
    im.done = true;
    return;
  }

  // Advance the window, skipping idle gaps: with nothing in flight
  // (checked above) no shard can hear anything before the globally
  // earliest pending event plus one lookahead window. With nothing
  // pending at all (the run is draining its quiesce round) the window
  // stays put, so clocks end at most one window past the last event.
  if (next_min == INT64_MAX) return;
  im.window_end_micros =
      std::max(im.window_end_micros, next_min) + config_.window.micros();
}

}  // namespace coic::netsim
