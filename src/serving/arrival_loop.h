// RunInterleavedArrivals — the one open-loop arrival driver behind every
// serving experiment that runs on a single EventLoop.
//
// Its users differ only in how many participants they pass and in the
// routing hook:
//   - HostSimulation::Run / RunUsers: one participant (a host serving its
//     own Poisson stream);
//   - MultiTenantHost::RunShared: one participant per tenant, identity
//     route, so concurrent tenants' reads meet in the shared
//     BatchSchedulers;
//   - ClusterSimulation::RunDisaggregated: N HOSTS on one loop, with a
//     router deciding which host's engine each arrival enters.
//
// The loop:
//   - each participant runs an independent Poisson process (qps_each,
//     queries_each) seeded by its own arrival_seed, all interleaved on one
//     EventLoop;
//   - an arrival draws the next query from its SOURCE participant's query
//     source, then `route(source, query)` picks the participant whose
//     engine serves it (identity when no route is given);
//   - stats are attributed to the SERVING participant: `served` counts
//     arrivals entering its engine, `completed` and `latencies` its OK
//     completions.
//
// The sharded cluster runtime replays the same draws in a precomputed
// arrival plan (it cannot share one loop) and records completions through
// the same ArrivalStats::Record.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/event_loop.h"
#include "common/histogram.h"
#include "serving/inference_engine.h"
#include "trace/trace_gen.h"

namespace sdm {

/// Draws a participant's next query (a QueryGenerator's Next, or a replay
/// of an explicit user sequence).
using QuerySource = std::function<Query()>;

struct ArrivalParticipant {
  InferenceEngine* engine = nullptr;
  QuerySource next_query;
  /// Seeds this participant's independent Poisson arrival process.
  uint64_t arrival_seed = 0;
};

struct ArrivalStats {
  Histogram latencies;
  uint64_t served = 0;     ///< arrivals that entered this participant's engine
  uint64_t completed = 0;  ///< queries that finished OK there
  /// Of `completed`, queries whose pooled output is missing rows (some
  /// embedding IO exhausted retries or was shed; graceful degradation).
  uint64_t degraded = 0;

  /// Folds one query completion in (errored queries count nowhere).
  void Record(const Status& status, const QueryTrace& trace) {
    if (!status.ok()) return;
    latencies.Record(trace.total);
    ++completed;
    if (trace.degraded) ++degraded;
  }
};

/// Maps (source participant, drawn query) to the serving participant.
using ArrivalRoute = std::function<size_t(size_t source, const Query& query)>;

/// Schedules every participant's arrivals, runs the loop to idle, and
/// returns per-participant stats (indexed like `participants`). An empty
/// `route` serves every arrival at its source.
std::vector<ArrivalStats> RunInterleavedArrivals(
    EventLoop& loop, std::span<const ArrivalParticipant> participants,
    double qps_each, uint64_t queries_each, const ArrivalRoute& route = {});

}  // namespace sdm
