#include "sched/io_planner.h"

#include <algorithm>

#include "device/nvme_device.h"

namespace sdm {

IoPlan IoPlanner::Plan(std::vector<Miss> misses, const PlannerConfig& config) {
  std::sort(misses.begin(), misses.end(),
            [](const Miss& a, const Miss& b) { return a.offset < b.offset; });

  const Bytes rb = config.row_bytes;
  IoPlan plan;
  for (const Miss& m : misses) {
    const uint64_t first = m.offset / kBlockSize;
    const uint64_t last = (m.offset + rb - 1) / kBlockSize;
    const Bytes end = m.offset + rb;
    const Bytes solo_bus = NvmeDevice::BusBytes(m.offset, rb, config.sub_block);
    if (!plan.runs.empty()) {
      PlannedRun& r = plan.runs.back();
      // Block path: whole blocks cross the bus anyway, so a row starting in
      // the run's last block or the next one joins while the cap holds.
      // Sub-block path: merge only across small dead gaps too
      // (request-merging semantics) so scattered rows don't inflate bus
      // traffic.
      const uint64_t merged_last = std::max(r.last_block, last);
      const bool adjacent = first == r.last_block || first == r.last_block + 1;
      const bool fits =
          (merged_last - r.first_block + 1) * kBlockSize <= config.max_coalesce_bytes;
      const bool gap_ok =
          !config.sub_block || m.offset <= r.span_end + config.coalesce_gap_bytes;
      if (adjacent && fits && gap_ok) {
        r.last_block = merged_last;
        r.span_end = std::max(r.span_end, end);
        r.slot_indices.push_back(m.slot);
        r.per_row_bus += solo_bus;
        continue;
      }
    }
    PlannedRun r;
    r.first_block = first;
    r.last_block = last;
    r.span_begin = m.offset;
    r.span_end = end;
    r.slot_indices = {m.slot};
    r.per_row_bus = solo_bus;
    plan.runs.push_back(std::move(r));
  }
  return plan;
}

}  // namespace sdm
