#include "tenant/shard_device_endpoint.h"

#include <cassert>
#include <utility>

namespace sdm {

ShardDeviceEndpoint::ShardDeviceEndpoint(SharedDeviceService* stack, size_t num_hosts)
    : stack_(stack),
      loop_(stack->loop()),
      queue_depth_(stack->config().tuning.io_queue_depth),
      ports_(stack->device_count()),
      cross_host_hits_(num_hosts, 0),
      cross_host_bytes_saved_(num_hosts, 0) {
  assert(!stack->remote());
  assert(queue_depth_ >= 1);
}

void ShardDeviceEndpoint::OnDoorbell(size_t port, std::vector<Op> ops) {
  assert(port < ports_.size());
  Port& p = ports_[port];
  ++doorbells_;
  for (Op& op : ops) {
    const Key key{op.offset, op.length, op.sub_block};
    if (auto it = p.inflight.find(key); it != p.inflight.end()) {
      // Exact-span join: ride the read already queued or in flight. A
      // different submitting host makes this a cross-host hit — the bytes
      // the issuer's read saves this host from pulling over the fabric.
      InFlight& entry = it->second;
      if (op.host != entry.issuer_host) {
        ++cross_host_hits_[op.host];
        cross_host_bytes_saved_[op.host] += op.payload_bytes;
      }
      entry.waiters.push_back(std::move(op));
      continue;
    }
    InFlight entry;
    entry.buffer.resize(static_cast<size_t>(op.payload_bytes));
    entry.issuer_host = op.host;
    entry.waiters.push_back(std::move(op));
    p.inflight.emplace(key, std::move(entry));
    if (p.outstanding >= queue_depth_) {
      // Past the device's global queue-depth bound: wait in arrival order,
      // exactly like the single-loop shared engine's spill queue.
      p.spill.push_back(key);
      continue;
    }
    Submit(port, key);
  }
}

void ShardDeviceEndpoint::Submit(size_t port, Key key) {
  Port& p = ports_[port];
  InFlight& entry = p.inflight.at(key);
  entry.submitted = true;
  ++p.outstanding;
  NvmeDevice::ReadRequest req;
  req.offset = std::get<0>(key);
  req.length = std::get<1>(key);
  req.sub_block = std::get<2>(key);
  req.dest = std::span<uint8_t>(entry.buffer);
  req.on_complete = [this, port, key](Status status, SimDuration /*device_latency*/) {
    OnComplete(port, key, std::move(status));
  };
  stack_->device(port).SubmitRead(std::move(req));
}

void ShardDeviceEndpoint::OnComplete(size_t port, Key key, Status status) {
  Port& p = ports_[port];
  --p.outstanding;
  assert(p.outstanding >= 0);

  // Refill the device queue before delivering, like the engine does.
  if (!p.spill.empty() && p.outstanding < queue_depth_) {
    const Key next = p.spill.front();
    p.spill.pop_front();
    Submit(port, next);
  }

  // Interrupt-mode delivery delay is paid HERE, device-side — where the
  // single-loop shared engine's completion path paid it — so the response
  // hits the fabric at the same instant as in single-loop mode. The host
  // engine charges its reap CPU on arrival but adds no second delay.
  const IoEngineConfig& ecfg = stack_->io_engine(port).config();
  const SimDuration delay = ecfg.completion_mode == CompletionMode::kInterrupt
                                ? ecfg.interrupt_delay
                                : SimDuration(0);
  if (delay > SimDuration(0)) {
    loop_->ScheduleAfter(delay,
                         [this, port, key, status = std::move(status)]() mutable {
                           Finish(port, key, std::move(status));
                         });
  } else {
    Finish(port, key, std::move(status));
  }
}

void ShardDeviceEndpoint::Finish(size_t port, Key key, Status status) {
  Port& p = ports_[port];
  auto node = p.inflight.extract(key);
  assert(!node.empty());
  InFlight& entry = node.mapped();
  // Fan out in arrival order; every waiter's response message gets its own
  // payload copy (each crosses shards independently). The last waiter
  // steals the DMA buffer. Errors fan out with no payload — the response
  // transfer still crosses and is byte-accounted by the channel.
  for (size_t i = 0; i < entry.waiters.size(); ++i) {
    Op& op = entry.waiters[i];
    std::vector<uint8_t> payload;
    if (status.ok()) {
      payload = (i + 1 == entry.waiters.size()) ? std::move(entry.buffer)
                                                : entry.buffer;
    }
    op.respond(status, std::move(payload));
  }
}

}  // namespace sdm
