// IoPlanner — pure, device-free planning of coalesced embedding reads.
//
// Extracted from LookupEngine::StartIoPhase so the dedup/grouping policy is
// unit-testable without an event loop and reusable by any component that
// turns row misses into device reads (lookups, the prefetcher). The planner
// answers one question: given a set of missing rows on one device, which
// byte spans should be read? Every miss lands in exactly one run:
//
//  - misses are sorted by device offset; a row joins the previous run when
//    it starts in that run's last 4KB block or the next one and the merged
//    run's whole blocks stay within `max_coalesce_bytes` — so N rows in one
//    block cost one read, adjacent blocks merge into multi-block runs, and
//    a row straddling a block boundary is simply a two-block run;
//  - in sub-block (SGL) mode a merge may only bridge a dead gap of
//    `coalesce_gap_bytes` between consecutive rows, so scattered rows don't
//    inflate bus traffic (block-layer request-merging semantics);
//  - `max_coalesce_bytes = 0` merges nothing: one run per miss, the
//    per-row ablation baseline.
//
// Planning is per-request; cross-request combining of the planned runs is
// the BatchScheduler's job.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"

namespace sdm {

/// One planned device read: a run of same-or-adjacent-block rows served by
/// a single SQE and scattered back to its slots at completion.
struct PlannedRun {
  uint64_t first_block = 0;
  uint64_t last_block = 0;
  Bytes span_begin = 0;  ///< device offset of the first useful byte
  Bytes span_end = 0;    ///< one past the last useful byte
  /// Caller-defined handles (LookupEngine: request slot indices) of the
  /// rows this run carries, in device-offset order.
  std::vector<uint32_t> slot_indices;
  /// Bus bytes the per-row path would have moved for these rows.
  Bytes per_row_bus = 0;
};

struct IoPlan {
  std::vector<PlannedRun> runs;
};

struct PlannerConfig {
  Bytes row_bytes = 0;
  /// SGL bit-bucket mode: spans are DWORD- instead of block-rounded on the
  /// bus, and merges are gap-bounded.
  bool sub_block = false;
  /// Cap on a run's whole-block footprint; 0 plans one run per miss.
  Bytes max_coalesce_bytes = 64 * kKiB;
  Bytes coalesce_gap_bytes = 512;
};

class IoPlanner {
 public:
  /// One missing row: an opaque caller handle plus its device byte offset.
  struct Miss {
    uint32_t slot = 0;
    Bytes offset = 0;
  };

  /// Pure function of (misses, config); `misses` may arrive in any order.
  [[nodiscard]] static IoPlan Plan(std::vector<Miss> misses, const PlannerConfig& config);
};

}  // namespace sdm
