#include "serving/arrival_loop.h"

#include <cassert>

#include "common/rng.h"

namespace sdm {

std::vector<ArrivalStats> RunInterleavedArrivals(
    EventLoop& loop, std::span<const ArrivalParticipant> participants,
    double qps_each, uint64_t queries_each, const ArrivalRoute& route) {
  assert(qps_each > 0);
  std::vector<ArrivalStats> stats(participants.size());
  for (size_t i = 0; i < participants.size(); ++i) {
    Rng arrivals(participants[i].arrival_seed);
    SimTime next_arrival = loop.Now();
    for (uint64_t q = 0; q < queries_each; ++q) {
      next_arrival += Seconds(arrivals.NextExponential(1.0 / qps_each));
      loop.ScheduleAt(next_arrival, [&participants, &stats, &route, i] {
        const Query query = participants[i].next_query();
        const size_t target = route ? route(i, query) : i;
        ArrivalStats& st = stats[target];
        ++st.served;
        participants[target].engine->Submit(
            query, [&st](Status status, const QueryTrace& trace) { st.Record(status, trace); });
      });
    }
  }
  loop.RunUntilIdle();
  return stats;
}

}  // namespace sdm
