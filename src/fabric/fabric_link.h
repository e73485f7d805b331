// FabricLink — the fabric hop in front of a disaggregated SM device stack
// (ROADMAP "Multi-host queues / disaggregated SM"; the measured version of
// the §5.2 ScaleOutModel's fixed analytic network penalty).
//
// Models one full-duplex host-side port of a fabric-attached device: each
// direction has a one-way propagation latency, an optional finite bandwidth
// (a transfer pays payload/bandwidth serialization time), and optional
// per-hop FIFO queueing — a transfer cannot start serializing until the
// previous one in its direction finished, the store-and-forward queue of a
// fabric switch port. Requests (ring doorbells carrying SQEs) and responses
// (read payloads coming back) ride opposite directions and never contend
// with each other.
//
// An INSTANT link (zero latency, unlimited bandwidth) delivers callbacks
// synchronously, so a zero-latency fabric is event-order identical to no
// fabric at all — the byte-identity anchor the cluster tests pin
// (disaggregated mode with an instant fabric == MultiTenantHost::RunShared
// with the same stores). Traffic is still accounted, so an instant link
// reports how many bytes WOULD have crossed.
#pragma once

#include "common/event_loop.h"
#include "common/types.h"
#include "obs/observability.h"

namespace sdm {

struct FabricLinkConfig {
  /// One-way propagation latency per direction.
  SimDuration latency{0};
  /// Serialization bandwidth per direction (bytes/sec; 0 = unlimited).
  double bandwidth_bytes_per_sec = 0;
  /// Per-hop FIFO queueing: transfers in one direction serialize behind
  /// each other. Meaningless without a finite bandwidth.
  bool queueing = true;

  /// Instant links add no virtual time and deliver synchronously.
  [[nodiscard]] bool instant() const {
    return latency <= SimDuration(0) && bandwidth_bytes_per_sec <= 0;
  }
};

struct FabricLinkStats {
  uint64_t requests = 0;   ///< host->device transfers (doorbells)
  uint64_t responses = 0;  ///< device->host transfers (read payloads)
  Bytes request_bytes = 0;
  Bytes response_bytes = 0;
  /// Total time transfers waited behind earlier ones in their direction
  /// (nonzero only with queueing and a finite bandwidth).
  SimDuration queue_time;
  /// Transfers lost to injected fabric-drop windows (the payload vanished;
  /// only an IO deadline recovers the waiting request).
  uint64_t dropped = 0;
  /// Transfers that waited out an injected partition window.
  uint64_t partition_deferred = 0;

  /// This-minus-base per-run delta (stats are cumulative across runs).
  [[nodiscard]] FabricLinkStats Since(const FabricLinkStats& base) const;
  /// Field-by-field sum: folds per-link stats into one.
  FabricLinkStats& operator+=(const FabricLinkStats& other);
};

class FaultInjector;

class FabricLink {
 public:
  FabricLink(FabricLinkConfig config, EventLoop* loop);

  FabricLink(const FabricLink&) = delete;
  FabricLink& operator=(const FabricLink&) = delete;

  /// Carries `payload` bytes host->device, then runs `deliver`. Instant
  /// links run it synchronously.
  void Request(Bytes payload, EventLoop::Callback deliver);

  /// Carries `payload` bytes device->host, then runs `deliver`.
  void Response(Bytes payload, EventLoop::Callback deliver);

  [[nodiscard]] const FabricLinkConfig& config() const { return config_; }
  [[nodiscard]] const FabricLinkStats& stats() const { return stats_; }

  /// Installs (or clears, with nullptr) a scripted fault injector
  /// (src/fault): drop windows lose transfers (the deliver callback is
  /// discarded), partition windows defer a transfer's start until the
  /// window heals. Fabric faults apply only to non-instant links — an
  /// instant link models no fabric at all, so it cannot fail. A null
  /// injector is byte-identical to today.
  void set_fault_injector(FaultInjector* injector, int device_index) {
    injector_ = injector;
    device_index_ = device_index;
  }

  /// Cross-shard delivery (src/common/sharded_runtime.h): when set, a
  /// transfer's arrival is handed to `deliver_to(arrival_time, cb)` —
  /// which posts it to the RECEIVING shard's loop — instead of being
  /// scheduled on this link's own loop. Timing (serialization, queueing,
  /// partition deferral) is still computed here against the SENDING
  /// shard's clock, which owns this direction's busy state. The one-way
  /// latency is then the sharded runtime's lookahead, so arrival_time is
  /// always at least one lookahead ahead of the sender.
  using Delivery = std::function<void(SimTime at, EventLoop::Callback cb)>;
  void set_remote_delivery(Delivery deliver_to) { delivery_ = std::move(deliver_to); }

  /// Observability (src/obs): windowed metrics under `<name>fabric/` and one
  /// trace track for transfer spans. Null obs keeps every handle null.
  void set_obs(Observability* obs, const std::string& name);

 private:
  /// One direction's serialization state.
  struct Direction {
    SimTime busy_until{};
  };

  void Traverse(Direction& dir, Bytes payload, EventLoop::Callback deliver,
                const char* span_name);

  FabricLinkConfig config_;
  EventLoop* loop_;
  Delivery delivery_;  ///< cross-shard handoff; empty = deliver locally
  FaultInjector* injector_ = nullptr;
  int device_index_ = -1;
  Direction request_dir_;
  Direction response_dir_;
  FabricLinkStats stats_;

  // ---- Observability (src/obs); all null when off ----
  WindowedCounter* obs_transfers_ = nullptr;
  WindowedCounter* obs_bytes_ = nullptr;
  WindowedCounter* obs_dropped_ = nullptr;
  WindowedCounter* obs_deferred_ = nullptr;
  SpanRecorder* obs_spans_ = nullptr;
  SpanRecorder::TrackId obs_track_ = 0;
};

}  // namespace sdm
