// ShardedRuntime — conservative windowed parallel discrete-event runtime.
//
// Runs N logical processes (LPs) — each owning a PRIVATE EventLoop and
// whatever simulation state hangs off it — across W worker threads, while
// producing results that are bit-identical for every W >= 1. The classic
// conservative (Chandy–Misra style, window-barrier variant) recipe:
//
//   - Every cross-LP interaction is a message posted through Post() with a
//     delivery time at least `lookahead` ahead of the sender's clock. In
//     this codebase the only cross-shard boundary is the fabric hop
//     (host shard <-> device shard), so the lookahead is the minimum
//     one-way fabric latency — which is why sharded mode requires a
//     non-instant fabric.
//   - Execution proceeds in global windows [G, G + lookahead), where G is
//     the earliest pending event or message across all LPs (windows SKIP
//     idle gaps instead of stepping fixed quanta). Within a window every LP
//     runs its local events independently on its worker thread: no event
//     it executes can affect another LP before the window ends, by the
//     lookahead guarantee.
//   - Messages travel through lock-free MPSC mailboxes (mpsc_mailbox.h);
//     the event hot path takes no locks. Mailboxes are drained at the
//     window barrier, and the drained batch is sorted by the deterministic
//     key (deliver_at, source LP, source sequence) before scheduling — so
//     the merge order, and therefore every downstream RNG draw and
//     counter, is independent of thread timing. Determinism by sort key,
//     not by arrival order.
//
// The barrier is a sense-reversing spin barrier over std::atomic (cheap at
// the ~microsecond window cadence fabric latencies produce, and fully
// visible to TSan). The main thread coordinates: it drains mailboxes and
// picks the next window while workers wait, so mailbox consumption never
// races producers.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "common/event_loop.h"
#include "common/mpsc_mailbox.h"
#include "common/types.h"

namespace sdm {

/// Reusable N-party sense-reversing barrier. Spins with periodic yields:
/// parties are worker threads pinned to a round cadence of microseconds,
/// where parking on a futex would dominate the window itself.
class SpinBarrier {
 public:
  explicit SpinBarrier(uint32_t parties) : parties_(parties) {}

  SpinBarrier(const SpinBarrier&) = delete;
  SpinBarrier& operator=(const SpinBarrier&) = delete;

  void Arrive() {
    const uint64_t gen = generation_.load(std::memory_order_acquire);
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == parties_) {
      arrived_.store(0, std::memory_order_relaxed);
      generation_.fetch_add(1, std::memory_order_release);  // releases the rest
      return;
    }
    uint32_t spins = 0;
    while (generation_.load(std::memory_order_acquire) == gen) {
      if (++spins >= kSpinsBeforeYield) {
        spins = 0;
        std::this_thread::yield();
      }
    }
  }

 private:
  static constexpr uint32_t kSpinsBeforeYield = 4096;
  const uint32_t parties_;
  std::atomic<uint32_t> arrived_{0};
  std::atomic<uint64_t> generation_{0};
};

class ShardedRuntime {
 public:
  /// `num_workers` worker threads execute LP windows (>= 1). LPs are
  /// statically assigned round-robin; results never depend on the count.
  explicit ShardedRuntime(size_t num_workers);

  ShardedRuntime(const ShardedRuntime&) = delete;
  ShardedRuntime& operator=(const ShardedRuntime&) = delete;

  /// Registers one logical process and returns its id. All processes must
  /// be added before Run(); the runtime owns their loops.
  size_t AddProcess();

  [[nodiscard]] size_t process_count() const { return lps_.size(); }
  [[nodiscard]] EventLoop& loop(size_t lp) { return lps_[lp]->loop; }

  /// Cross-LP send: schedules `fn` on `to`'s loop at absolute time `at`.
  /// Must be called from an event executing on `from`'s loop (or before
  /// Run() starts), with `at` at least one lookahead past `from`'s clock —
  /// the conservative-correctness contract, asserted in debug builds.
  /// Lock-free; safe concurrently from every worker.
  void Post(size_t from, size_t to, SimTime at, EventLoop::Callback fn);

  /// Runs every process to global idle using conservative windows of width
  /// `lookahead` (> 0). Returns total events executed across all loops.
  /// May be called repeatedly (e.g. one serving run after another); clocks
  /// carry over exactly like a single EventLoop's would.
  uint64_t Run(SimDuration lookahead);

  /// Total events executed across every LP's loop (all Run() calls).
  [[nodiscard]] uint64_t events_run() const;
  /// Windows executed across all Run() calls (idle gaps are skipped, so
  /// this is the number of barrier rounds actually paid).
  [[nodiscard]] uint64_t windows() const { return windows_; }
  /// Cross-LP messages delivered across all Run() calls.
  [[nodiscard]] uint64_t messages_delivered() const { return messages_delivered_; }

 private:
  struct Message : MpscMailbox<Message>::Node {
    SimTime at;
    uint32_t from = 0;  ///< sender LP (deterministic tie-break, not identity)
    uint64_t seq = 0;   ///< sender-local monotonic sequence
    EventLoop::Callback fn;
  };

  struct Process {
    EventLoop loop;
    MpscMailbox<Message> mailbox;
    std::vector<Message*> staged;  ///< drained, not yet scheduled
    uint64_t send_seq = 0;         ///< written only by this LP's worker
  };

  /// Serial (coordinator) part of a round: drains every mailbox and picks
  /// the next window [G, G+L). Returns false when everything is idle.
  bool PrepareWindow(SimDuration lookahead, SimTime* window_end);

  /// Parallel part: one worker executes its LPs' windows.
  void RunWorkerSlice(size_t worker, SimTime window_end);

  const size_t num_workers_;
  /// Effective worker count of the active Run() — num_workers_ clamped to
  /// LP count and hardware concurrency; the LP->worker stride.
  size_t active_workers_ = 1;
  std::vector<std::unique_ptr<Process>> lps_;
  uint64_t windows_ = 0;
  uint64_t messages_delivered_ = 0;
#ifndef NDEBUG
  SimDuration lookahead_{0};  ///< active Run()'s lookahead, for the contract assert
#endif

  // Round coordination (valid during Run only).
  SpinBarrier* start_barrier_ = nullptr;
  SpinBarrier* end_barrier_ = nullptr;
  std::atomic<bool> stop_{false};
  SimTime window_end_{0};  ///< written serially, read by workers post-barrier
};

}  // namespace sdm
