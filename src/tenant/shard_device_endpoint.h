// ShardDeviceEndpoint — the device shard's doorbell server in the sharded
// simulation runtime (src/common/sharded_runtime.h).
//
// In single-loop disaggregated mode every host's reads funnel through ONE
// shared per-device BatchScheduler + IoEngine, which is where cross-host
// single-flight and the global queue-depth bound live. The sharded runtime
// moves schedulers host-side (each host shard owns its stack — that is
// what makes shards independent within a window), so the endpoint provides
// the device-side halves those shared components used to:
//
//   - the PER-DEVICE QUEUE-DEPTH BOUND across all hosts: ops beyond
//     tuning.io_queue_depth wait in a FIFO exactly like the shared
//     engine's spill queue;
//   - CROSS-HOST SINGLE-FLIGHT at device granularity: an op whose exact
//     (offset, length, sub_block) span is already in flight — or queued —
//     joins it instead of re-reading; when the joiner is a DIFFERENT host
//     than the issuer, that is a cross-host hit (the counterpart of the
//     shared scheduler's cross_tenant_hits). Exact-span matching catches
//     the common case — replicas issue identical block-aligned runs for
//     shared hot blocks — without re-implementing the scheduler's span
//     cover logic device-side;
//   - completion fan-out with ONE interrupt per device completion
//     (mirroring the engine's reap-then-deliver), each subscriber's
//     payload copied into its own response message.
//
// Single-threaded on the device shard's loop: doorbells arrive as sorted
// cross-shard messages, device completions are local events. Responses
// leave through per-host Respond callbacks supplied by the caller (the
// sharded cluster glue), which own the response-direction fabric timing.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <tuple>
#include <vector>

#include "common/event_loop.h"
#include "common/result.h"
#include "common/types.h"
#include "tenant/shared_device_service.h"

namespace sdm {

class ShardDeviceEndpoint {
 public:
  /// Delivers one op's outcome toward its host shard. Runs on the DEVICE
  /// loop at completion time; the implementation pays the response fabric
  /// hop and posts cross-shard. `payload` is empty on error (the transfer
  /// still crosses — byte accounting uses the op's payload_bytes).
  using Respond = std::function<void(Status status, std::vector<uint8_t> payload)>;

  /// One SQE of an arriving doorbell.
  struct Op {
    Bytes offset = 0;
    Bytes length = 0;
    bool sub_block = false;
    Bytes payload_bytes = 0;  ///< NvmeDevice::BusBytes of the request
    size_t host = 0;          ///< submitting host (cross-host attribution)
    Respond respond;
  };

  /// `stack` owns the physical devices; must outlive the endpoint.
  /// `num_hosts` sizes the per-host attribution ledgers.
  ShardDeviceEndpoint(SharedDeviceService* stack, size_t num_hosts);

  ShardDeviceEndpoint(const ShardDeviceEndpoint&) = delete;
  ShardDeviceEndpoint& operator=(const ShardDeviceEndpoint&) = delete;

  /// Processes one doorbell for device `port` (called on the device loop
  /// at the doorbell message's delivery time). Ops run in vector order.
  void OnDoorbell(size_t port, std::vector<Op> ops);

  // ---- Attribution ---------------------------------------------------------

  /// Ops of `host` served by a read ANOTHER host paid for (the sharded
  /// counterpart of the shared scheduler's cross_tenant_hits).
  [[nodiscard]] uint64_t cross_host_hits(size_t host) const {
    return cross_host_hits_[host];
  }
  [[nodiscard]] Bytes cross_host_bytes_saved(size_t host) const {
    return cross_host_bytes_saved_[host];
  }
  [[nodiscard]] uint64_t doorbells() const { return doorbells_; }

 private:
  using Key = std::tuple<Bytes, Bytes, bool>;  // offset, length, sub_block

  struct InFlight {
    std::vector<uint8_t> buffer;  ///< device DMA target, payload_bytes big
    std::vector<Op> waiters;      ///< waiters[0] is the issuer
    size_t issuer_host = 0;
    bool submitted = false;  ///< false while waiting in the spill FIFO
  };

  struct Port {
    std::map<Key, InFlight> inflight;  ///< submitted + spilled ops
    std::deque<Key> spill;             ///< FIFO beyond the queue-depth bound
    int outstanding = 0;
  };

  void Submit(size_t port, Key key);
  void OnComplete(size_t port, Key key, Status status);
  /// Fans the finished read out to every waiter and retires the entry.
  void Finish(size_t port, Key key, Status status);

  SharedDeviceService* stack_;
  EventLoop* loop_;
  int queue_depth_;
  std::vector<Port> ports_;
  std::vector<uint64_t> cross_host_hits_;
  std::vector<Bytes> cross_host_bytes_saved_;
  uint64_t doorbells_ = 0;
};

}  // namespace sdm
