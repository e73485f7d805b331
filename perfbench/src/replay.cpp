// Layer replays for the traced run.
//
// Row-cache probes, IO planning, scheduler flushes, IO-engine doorbells and
// fabric transfers happen inside event callbacks, where the benchmark's
// spans cannot reach. Each layer is instead driven through its own public
// entry point, on a private instance configured like the served stack's,
// with inputs derived from the workload's queries: the SM row-key stream
// probes a fresh row cache of the same capacity, its misses are planned by
// IoPlanner, and the planned runs feed a BatchScheduler, an IoEngine and a
// FabricLink. Only host time is taken from replays; virtual metrics come
// from the served stack itself.
#include <algorithm>
#include <memory>

#include "bench.h"
#include "cache/dual_cache.h"
#include "core/sdm_store.h"
#include "fabric/fabric_link.h"
#include "io/buffer_arena.h"
#include "io/io_engine.h"
#include "sched/batch_scheduler.h"
#include "sched/io_planner.h"

namespace perfbench {

using namespace sdm;

void RecordSmLookups(SdmStore& store, const Query& q, ReplayInput* input) {
  auto& lookups = input->queries.emplace_back();
  for (size_t t = 0; t < q.indices.size(); ++t) {
    const TableRuntime& table = store.table(MakeTableId(static_cast<uint32_t>(t)));
    if (table.tier == MemoryTier::kSm && !q.indices[t].empty()) {
      lookups.emplace_back(table.id, q.indices[t]);
    }
  }
}

void AddReplayMetrics(const Tracer& tracer, Metrics* per_layer) {
  for (const char* name : {"cache.probe", "cache.insert", "sched.plan", "sched.flush",
                           "io.submit_batch", "fabric.transmit"}) {
    (*per_layer)[std::string(name) + "_ns"] = tracer.MeanNs(name);
  }
}

namespace {

/// One device's private scheduler and engine chain.
struct DeviceReplay {
  EventLoop sched_loop;
  std::unique_ptr<NvmeDevice> sched_device;
  std::unique_ptr<IoEngine> sched_engine;
  BufferArena arena;
  std::unique_ptr<BatchScheduler> scheduler;
  EventLoop io_loop;
  std::unique_ptr<NvmeDevice> io_device;
  std::unique_ptr<IoEngine> io_engine;
  std::vector<PlannedRun> runs;  ///< this query's runs on the device
  bool sub_block = false;
};

}  // namespace

void ReplayLayers(SdmStore& store, const ReplayInput& input, bool with_fabric, Tracer* tr) {
  std::unique_ptr<DualRowCache> cache;
  if (store.row_cache() != nullptr) {
    DualCacheConfig cc = store.tuning().row_cache;
    cc.capacity = store.row_cache()->capacity();
    cache = std::make_unique<DualRowCache>(cc);
    for (size_t t = 0; t < store.table_count(); ++t) {
      const TableRuntime& table = store.table(MakeTableId(static_cast<uint32_t>(t)));
      cache->RegisterTable(table.id, table.config.row_bytes());
    }
  }

  // Devices only need to back the extents the tables occupy.
  std::vector<Bytes> extent_end(store.sm_device_count(), kBlockSize);
  for (size_t t = 0; t < store.table_count(); ++t) {
    const TableRuntime& table = store.table(MakeTableId(static_cast<uint32_t>(t)));
    if (table.tier != MemoryTier::kSm) continue;
    Bytes& end = extent_end[table.sm_device];
    end = std::max(end, table.offset + table.config.total_bytes() + kBlockSize);
  }
  std::vector<std::unique_ptr<DeviceReplay>> devices;
  for (size_t d = 0; d < store.sm_device_count(); ++d) {
    auto r = std::make_unique<DeviceReplay>();
    const DeviceSpec& spec = store.sm_device(d).spec();
    const Bytes backing = BlocksFor(extent_end[d]) * kBlockSize;
    r->sched_device = std::make_unique<NvmeDevice>(spec, backing, &r->sched_loop, 0x5eed + d);
    r->sched_engine = std::make_unique<IoEngine>(r->sched_device.get(), &r->sched_loop,
                                                 store.io_engine(d).config());
    r->scheduler = std::make_unique<BatchScheduler>(r->sched_engine.get(), &r->arena,
                                                    &r->sched_loop, store.scheduler(d).config());
    r->io_device = std::make_unique<NvmeDevice>(spec, backing, &r->io_loop, 0x5eed + d);
    r->io_engine = std::make_unique<IoEngine>(r->io_device.get(), &r->io_loop,
                                              store.io_engine(d).config());
    r->sub_block = store.reader(d).sub_block();
    devices.push_back(std::move(r));
  }
  EventLoop fabric_loop;
  FabricLinkConfig fcfg;
  fcfg.latency = store.tuning().fabric_latency;
  fcfg.bandwidth_bytes_per_sec = store.tuning().fabric_bandwidth_bytes_per_sec;
  fcfg.queueing = store.tuning().fabric_queueing;
  FabricLink link(fcfg, &fabric_loop);

  std::vector<uint8_t> row(kBlockSize);
  uint64_t request = 0;
  for (const auto& lookups : input.queries) {
    ++request;
    for (const auto& [table_id, indices] : lookups) {
      const TableRuntime& table = store.table(table_id);
      const Bytes rb = table.config.row_bytes();
      std::vector<RowIndex> rows = indices;
      std::sort(rows.begin(), rows.end());
      rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
      const bool cached = cache != nullptr && table.cache_enabled;
      std::vector<IoPlanner::Miss> misses;
      for (uint32_t slot = 0; slot < rows.size(); ++slot) {
        bool hit = false;
        if (cached) {
          Scope probe(tr, "cache.probe", request);
          size_t len = 0;
          hit = cache->Lookup(RowKey{table_id, rows[slot]}, row, &len);
        }
        if (!hit) misses.push_back(IoPlanner::Miss{slot, table.offset + rows[slot] * rb});
      }
      if (misses.empty()) continue;
      DeviceReplay& dev = *devices[table.sm_device];
      PlannerConfig pc;
      pc.row_bytes = rb;
      pc.sub_block = dev.sub_block;
      pc.max_coalesce_bytes = store.tuning().max_coalesce_bytes;
      pc.coalesce_gap_bytes = store.tuning().coalesce_gap_bytes;
      if (cached) {
        for (const auto& miss : misses) {
          Scope insert(tr, "cache.insert", request);
          cache->Insert(RowKey{table_id, rows[miss.slot]}, std::span(row.data(), rb));
        }
      }
      IoPlan plan;
      {
        Scope planning(tr, "sched.plan", request);
        plan = IoPlanner::Plan(std::move(misses), pc);
      }
      for (auto& run : plan.runs) dev.runs.push_back(std::move(run));
    }

    for (auto& dev : devices) {
      if (dev->runs.empty()) continue;
      for (const PlannedRun& run : dev->runs) {
        BatchScheduler::ReadRequest req;
        req.span_begin = run.span_begin;
        req.span_end = run.span_end;
        req.first_block = run.first_block;
        req.last_block = run.last_block;
        req.sub_block = dev->sub_block;
        req.rows = static_cast<uint32_t>(run.slot_indices.size());
        req.per_row_bus = run.per_row_bus;
        req.cb = [](Status, const uint8_t*, Bytes) {};
        (void)dev->scheduler->Enqueue(std::move(req));
      }
      {
        Scope flush(tr, "sched.flush", request);
        dev->scheduler->Flush();
      }
      dev->sched_loop.RunUntilIdle();

      std::vector<std::vector<uint8_t>> buffers;
      std::vector<IoEngine::ReadOp> ops;
      for (const PlannedRun& run : dev->runs) {
        IoEngine::ReadOp op;
        if (dev->sub_block) {
          op.offset = run.span_begin;
          op.length = run.span_end - run.span_begin;
        } else {
          op.offset = run.first_block * kBlockSize;
          op.length = (run.last_block - run.first_block + 1) * kBlockSize;
        }
        op.sub_block = dev->sub_block;
        buffers.emplace_back(NvmeDevice::BusBytes(op.offset, op.length, op.sub_block));
        op.dest = buffers.back();
        op.cb = [](Status, SimDuration) {};
        op.merged_reads = static_cast<uint32_t>(run.slot_indices.size());
        ops.push_back(std::move(op));
      }
      {
        Scope submit(tr, "io.submit_batch", request);
        dev->io_engine->SubmitBatch(ops);
      }
      dev->io_loop.RunUntilIdle();

      if (with_fabric) {
        {
          Scope transmit(tr, "fabric.transmit", request);
          link.Request(64 * ops.size(), [] {});
        }
        for (const auto& op : ops) {
          Scope transmit(tr, "fabric.transmit", request);
          link.Response(op.dest.size(), [] {});
        }
        fabric_loop.RunUntilIdle();
      }
      dev->runs.clear();
    }
  }
}

}  // namespace perfbench
