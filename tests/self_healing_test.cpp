// Self-healing storage tests (src/fault + src/core):
//  - per-block checksums turn silent bit rot into detectable (transient)
//    read errors, and are byte-inert on fault-free runs;
//  - read-repair serves checksum-failed reads from an extent replica
//    instead of zero-filling;
//  - the ReplicationManager re-replicates a sick endpoint's extents onto a
//    healthy device and lookups route there while the endpoint is sick;
//  - probe-driven recovery returns traffic to the primary;
//  - chronically degraded tables migrate to FM at the next model update,
//    and the placement overload that drives it.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/lookup_engine.h"
#include "core/model_loader.h"
#include "core/model_updater.h"
#include "core/placement.h"
#include "core/sdm_store.h"
#include "dlrm/model_zoo.h"
#include "fault/fault_injector.h"
#include "fault/replication_manager.h"
#include "serving/host.h"

namespace sdm {
namespace {

/// Absolute virtual time `d` past the epoch (loops start at SimTime(0)).
constexpr SimTime At(SimDuration d) { return SimTime(0) + d; }

// ---------------------------------------------------------------------------
// Host-level harness (the fault_injection_test profile: 2 Optane devices).
// ---------------------------------------------------------------------------

HostSimConfig HealHostConfig() {
  HostSimConfig cfg;
  cfg.host = MakeHwAO();
  cfg.fm_capacity = 8 * kMiB;
  cfg.sm_backing_per_device = 16 * kMiB;
  cfg.workload.num_users = 1000;
  cfg.workload.seed = 5;
  cfg.seed = 5;
  return cfg;
}

ModelConfig HealModel() { return MakeTinyUniformModel(16, 2, 1, 2000); }

void ExpectReportsIdentical(const HostRunReport& a, const HostRunReport& b) {
  EXPECT_EQ(a.queries_completed, b.queries_completed);
  EXPECT_EQ(a.queries_served, b.queries_served);
  EXPECT_EQ(a.p50.nanos(), b.p50.nanos());
  EXPECT_EQ(a.p99.nanos(), b.p99.nanos());
  EXPECT_EQ(a.mean.nanos(), b.mean.nanos());
  EXPECT_EQ(a.io_errors, b.io_errors);
  EXPECT_EQ(a.io_retries, b.io_retries);
  EXPECT_EQ(a.rows_failed, b.rows_failed);
  EXPECT_EQ(a.Summary(), b.Summary());
}

/// One full host run with `tuning` layered onto the base profile and an
/// optional fault plan installed across the device stack.
HostRunReport RunHost(const TuningConfig& tuning, const FaultPlan* plan,
                      uint64_t seed = 5) {
  HostSimConfig cfg = HealHostConfig();
  cfg.tuning = tuning;
  HostSimulation sim(cfg);
  EXPECT_TRUE(sim.LoadModel(HealModel()).ok());
  std::unique_ptr<FaultInjector> inj;
  if (plan != nullptr) {
    inj = std::make_unique<FaultInjector>(*plan, &sim.loop(), seed);
    sim.store().device_service().InstallFaultInjector(inj.get());
  }
  return sim.Run(200, 400);
}

// ---------------------------------------------------------------------------
// Checksums: byte-inert when fault-free, detection under bit rot.
// ---------------------------------------------------------------------------

TEST(SelfHealing, HealingKnobsAreByteInertOnFaultFreeRuns) {
  // The full self-healing stack enabled — checksums stamped and replication
  // armed — must not move a single reported byte on a healthy run: no
  // endpoint ever sickens, no checksum ever misses.
  TuningConfig off;
  TuningConfig on;
  on.enable_checksums = true;
  on.enable_health_monitor = true;
  on.enable_replication = true;
  const HostRunReport a = RunHost(off, nullptr);
  const HostRunReport b = RunHost(on, nullptr);
  ExpectReportsIdentical(a, b);
  EXPECT_EQ(b.blocks_corrupt, 0u);
  EXPECT_EQ(b.read_repairs, 0u);
  EXPECT_EQ(b.replica_reads, 0u);
  EXPECT_EQ(b.extents_replicated, 0u);
}

TEST(SelfHealing, BitRotIsSilentWithoutChecksums) {
  FaultPlan plan;
  plan.BitRot(At(Millis(200)), At(Seconds(5)), /*probability=*/1.0);
  TuningConfig tuning;  // checksums off
  tuning.sub_block_reads = false;  // block-aligned reads (the checksummed unit)
  const HostRunReport r = RunHost(tuning, &plan);
  // Every row still "reads" fine — the corruption sails through undetected.
  EXPECT_EQ(r.blocks_corrupt, 0u);
  EXPECT_EQ(r.io_errors, 0u);
  EXPECT_EQ(r.rows_failed, 0u);
  EXPECT_EQ(r.queries_completed, r.queries_served);
}

TEST(SelfHealing, ChecksumsTurnBitRotIntoDegradedRows) {
  FaultPlan plan;
  plan.BitRot(At(Millis(200)), At(Seconds(5)), /*probability=*/1.0);
  TuningConfig tuning;
  tuning.enable_checksums = true;
  // Checksums verify whole 4KB blocks at bounce-buffer fill; sub-block SGL
  // reads never materialize a full block and sail past them (silent — same
  // as checksums off). Run the checksummed path.
  tuning.sub_block_reads = false;
  const HostRunReport r = RunHost(tuning, &plan);
  // Detection: corrupt blocks counted, reads failed, retries spent (the
  // mismatch is a TRANSIENT kDataLoss — a redraw could heal a burst)...
  EXPECT_GT(r.blocks_corrupt, 0u);
  EXPECT_GT(r.io_errors, 0u);
  EXPECT_GT(r.io_retries, 0u);
  // ...but with no replica anywhere, exhausted reads degrade to zero-fill.
  EXPECT_GT(r.rows_failed, 0u);
  EXPECT_GT(r.queries_degraded, 0u);
  EXPECT_EQ(r.read_repairs, 0u);
}

// ---------------------------------------------------------------------------
// Read-repair from a replica.
// ---------------------------------------------------------------------------

TEST(SelfHealing, ReadRepairRescuesEveryWouldBeZeroFilledRow) {
  // Device 0 rots EVERY read for the whole run. A replica of each device-0
  // extent is staged on device 1 up front (what the ReplicationManager
  // would have produced): terminally-failing reads must repair from it
  // instead of zero-filling.
  HostSimConfig cfg = HealHostConfig();
  cfg.tuning.enable_checksums = true;
  cfg.tuning.sub_block_reads = false;
  HostSimulation sim(cfg);
  ASSERT_TRUE(sim.LoadModel(HealModel()).ok());

  SharedDeviceService& svc = sim.store().device_service();
  ASSERT_GE(svc.device_count(), 2u);
  size_t staged = 0;
  for (size_t i = 0; i < 3; ++i) {  // 2 user tables + 1 item table
    const TableRuntime& rt = sim.store().table(MakeTableId(i));
    if (rt.tier != MemoryTier::kSm || rt.sm_device != 0) continue;
    const auto span = svc.ExtentInfoFor(rt.extent_id);
    ASSERT_TRUE(span.has_value());
    const auto loc = svc.AllocateReplica(rt.extent_id, /*target=*/1);
    ASSERT_TRUE(loc.ok()) << loc.status().ToString();
    ASSERT_TRUE(svc.device(1)
                    .Write(loc.value().offset,
                           svc.device(0).backing().subspan(span->offset, span->size))
                    .ok());
    svc.AddReplicaRoute(rt.extent_id, loc.value());
    ++staged;
  }
  ASSERT_GT(staged, 0u);

  FaultPlan plan;
  plan.BitRot(At(SimDuration(0)), At(Seconds(10'000)), /*probability=*/1.0,
              /*device=*/0);
  FaultInjector inj(plan, &sim.loop(), /*seed=*/5);
  svc.InstallFaultInjector(&inj);

  const HostRunReport r = sim.Run(200, 400);
  EXPECT_GT(r.blocks_corrupt, 0u);
  EXPECT_GT(r.read_repairs, 0u);
  // The rescue is total: every row that would have zero-filled was served
  // from the replica instead.
  EXPECT_EQ(r.rows_failed, 0u);
  EXPECT_EQ(r.queries_degraded, 0u);
  EXPECT_EQ(r.queries_completed, r.queries_served);
}

// ---------------------------------------------------------------------------
// Re-replication off a sick endpoint + probe-driven recovery.
// ---------------------------------------------------------------------------

TEST(SelfHealing, SickEndpointReplicatesRoutesAndRecovers) {
  HostSimConfig cfg = HealHostConfig();
  cfg.tuning.enable_checksums = true;
  cfg.tuning.enable_health_monitor = true;
  // A wide window and sparse probes keep the endpoint condemned long
  // enough for the background copy to publish while traffic still needs
  // the replica (washing 32 errors below 50% takes ~17 probe successes).
  cfg.tuning.health_window = 32;
  cfg.tuning.health_probe_interval = 16;
  cfg.tuning.enable_replication = true;
  HostSimulation sim(cfg);
  ASSERT_TRUE(sim.LoadModel(HealModel()).ok());

  SharedDeviceService& svc = sim.store().device_service();
  ReplicationManager* repl = svc.replication();
  ASSERT_NE(repl, nullptr);
  ASSERT_EQ(repl->extents_replicated(), 0u);

  // Simulate the tail of a fault episode: the monitor has just condemned
  // endpoint 0 (the device itself reads fine again — e.g. a controller
  // reset behind a past error burst).
  for (int i = 0; i < 32; ++i) svc.health().Record(0, false);
  ASSERT_TRUE(svc.health().Sick(0));

  const HostRunReport r = sim.Run(200, 2000);
  // The sick transition drove a background copy of device 0's extents onto
  // the healthy peer...
  EXPECT_GT(repl->extents_replicated(), 0u);
  EXPECT_EQ(repl->extents_replicated(), r.extents_replicated);
  EXPECT_GT(repl->bytes_copied(), 0u);
  // ...demand reads routed to the replica while the endpoint was sick...
  EXPECT_GT(r.replica_reads, 0u);
  // ...and probe successes washed the endpoint healthy again (the device
  // was never actually broken), so the run ends fully recovered.
  EXPECT_FALSE(svc.health().Sick(0));
  EXPECT_EQ(r.queries_completed, r.queries_served);
}

/// One sick-endpoint episode (the harness of the test above) under `tuning`'s
/// replication knobs; reports the copy counters and how many primary extents
/// endpoint 0 actually held (the replication candidate pool).
struct ReplicationEpisode {
  uint64_t extents_replicated = 0;
  uint64_t extents_abandoned = 0;
  uint64_t bytes_copied = 0;
  size_t extents_on_sick_device = 0;
};

ReplicationEpisode RunSickEndpointEpisode(const TuningConfig& knobs) {
  HostSimConfig cfg = HealHostConfig();
  cfg.tuning = knobs;
  cfg.tuning.enable_checksums = true;
  cfg.tuning.enable_health_monitor = true;
  cfg.tuning.health_window = 32;
  cfg.tuning.health_probe_interval = 16;
  cfg.tuning.enable_replication = true;
  HostSimulation sim(cfg);
  EXPECT_TRUE(sim.LoadModel(HealModel()).ok());

  SharedDeviceService& svc = sim.store().device_service();
  ReplicationEpisode ep;
  for (size_t i = 0; i < 3; ++i) {  // 2 user tables + 1 item table
    const TableRuntime& rt = sim.store().table(MakeTableId(i));
    if (rt.tier == MemoryTier::kSm && rt.sm_device == 0) ++ep.extents_on_sick_device;
  }
  for (int i = 0; i < 32; ++i) svc.health().Record(0, false);
  EXPECT_TRUE(svc.health().Sick(0));

  sim.Run(200, 2000);
  ReplicationManager* repl = svc.replication();
  EXPECT_NE(repl, nullptr);
  ep.extents_replicated = repl->extents_replicated();
  ep.extents_abandoned = repl->extents_abandoned();
  ep.bytes_copied = repl->bytes_copied();
  return ep;
}

TEST(SelfHealing, AggregatedIoStatsKeepReplicaHedges) {
  // A sick-endpoint episode replicates device 0's extents; a later
  // fail-slow window on device 0 then makes its reads hedge, and the hedges
  // route to those replicas. The stack-wide stats must equal the sum of the
  // per-device scheduler snapshots in every field, replica_hedges included.
  HostSimConfig cfg = HealHostConfig();
  cfg.tuning.enable_checksums = true;
  cfg.tuning.enable_health_monitor = true;
  cfg.tuning.health_window = 32;
  cfg.tuning.health_probe_interval = 16;
  cfg.tuning.enable_replication = true;
  cfg.tuning.hedge_latency_factor = 1.5;
  cfg.tuning.hedge_min_samples = 16;
  HostSimulation sim(cfg);
  ASSERT_TRUE(sim.LoadModel(HealModel()).ok());
  SdmStore& store = sim.store();
  SharedDeviceService& svc = store.device_service();
  for (int i = 0; i < 32; ++i) svc.health().Record(0, false);
  (void)sim.Run(200, 2000);
  ASSERT_GT(svc.replication()->extents_replicated(), 0u);

  FaultPlan plan;
  plan.FailSlow(sim.loop().Now(), sim.loop().Now() + Seconds(60), /*multiplier=*/20.0,
                /*device=*/0);
  FaultInjector inj(plan, &sim.loop(), 5);
  svc.InstallFaultInjector(&inj);
  (void)sim.Run(200, 2000);
  svc.InstallFaultInjector(nullptr);

  CrossRequestIoStats sum;
  for (size_t d = 0; d < store.sm_device_count(); ++d) {
    const CrossRequestIoStats one = store.scheduler(d).Snapshot();
    sum.device_reads += one.device_reads;
    sum.cross_request_merges += one.cross_request_merges;
    sum.singleflight_hits += one.singleflight_hits;
    sum.singleflight_bytes_saved += one.singleflight_bytes_saved;
    sum.flushes += one.flushes;
    sum.prefetch_reads += one.prefetch_reads;
    sum.prefetch_dropped += one.prefetch_dropped;
    sum.prefetch_promoted += one.prefetch_promoted;
    sum.background_reads += one.background_reads;
    sum.background_parked += one.background_parked;
    sum.background_promoted += one.background_promoted;
    sum.deadline_expired += one.deadline_expired;
    sum.hedges_issued += one.hedges_issued;
    sum.hedges_won += one.hedges_won;
    sum.replica_hedges += one.replica_hedges;
  }
  const CrossRequestIoStats agg = store.cross_request_io_stats();
  EXPECT_EQ(agg.device_reads, sum.device_reads);
  EXPECT_EQ(agg.cross_request_merges, sum.cross_request_merges);
  EXPECT_EQ(agg.singleflight_hits, sum.singleflight_hits);
  EXPECT_EQ(agg.singleflight_bytes_saved, sum.singleflight_bytes_saved);
  EXPECT_EQ(agg.flushes, sum.flushes);
  EXPECT_EQ(agg.prefetch_reads, sum.prefetch_reads);
  EXPECT_EQ(agg.prefetch_dropped, sum.prefetch_dropped);
  EXPECT_EQ(agg.prefetch_promoted, sum.prefetch_promoted);
  EXPECT_EQ(agg.background_reads, sum.background_reads);
  EXPECT_EQ(agg.background_parked, sum.background_parked);
  EXPECT_EQ(agg.background_promoted, sum.background_promoted);
  EXPECT_EQ(agg.deadline_expired, sum.deadline_expired);
  EXPECT_EQ(agg.hedges_issued, sum.hedges_issued);
  EXPECT_EQ(agg.hedges_won, sum.hedges_won);
  EXPECT_EQ(agg.replica_hedges, sum.replica_hedges);
  EXPECT_GT(agg.replica_hedges, 0u);
}

TEST(SelfHealing, ReplicationHotExtentsKnobCapsExtentsPerTransition) {
  TuningConfig one;
  one.replication_hot_extents = 1;
  TuningConfig many;
  many.replication_hot_extents = 8;
  const ReplicationEpisode capped = RunSickEndpointEpisode(one);
  const ReplicationEpisode open = RunSickEndpointEpisode(many);
  // The cap binds: exactly one extent copied per transition regardless of
  // how many the sick endpoint held...
  ASSERT_GE(capped.extents_on_sick_device, 1u);
  EXPECT_EQ(capped.extents_replicated, 1u);
  // ...and with the cap above the pool size, every primary extent moves.
  EXPECT_EQ(open.extents_replicated,
            static_cast<uint64_t>(open.extents_on_sick_device));
}

TEST(SelfHealing, ReplicationByteBudgetKnobSkipsOversizedExtents) {
  // Each tiny-model extent is ~10s of KiB; a one-block budget admits none
  // of them, so the sick transition replicates nothing at all.
  TuningConfig starved;
  starved.replication_chunk_bytes = 4 * kKiB;
  starved.replication_byte_budget = 4 * kKiB;
  const ReplicationEpisode ep = RunSickEndpointEpisode(starved);
  ASSERT_GE(ep.extents_on_sick_device, 1u);
  EXPECT_EQ(ep.extents_replicated, 0u);
  EXPECT_EQ(ep.bytes_copied, 0u);
}

TEST(SelfHealing, ReplicationChunkBytesKnobIsInertOnCopiedBytes) {
  // Chunking only slices the background staging reads; the bytes that land
  // on the replica are the extents themselves either way.
  TuningConfig small_chunks;
  small_chunks.replication_chunk_bytes = 4 * kKiB;
  TuningConfig big_chunks;
  big_chunks.replication_chunk_bytes = 256 * kKiB;
  const ReplicationEpisode a = RunSickEndpointEpisode(small_chunks);
  const ReplicationEpisode b = RunSickEndpointEpisode(big_chunks);
  EXPECT_GT(a.bytes_copied, 0u);
  EXPECT_EQ(a.bytes_copied, b.bytes_copied);
  EXPECT_EQ(a.extents_replicated, b.extents_replicated);
}

TEST(SelfHealing, PerRowLookupsFailOverToReplicas) {
  // The per-row ablation shares the one IO path, replica routing included:
  // with every device-0 extent already replicated, lookups on the sick
  // primary read the replica instead of shedding.
  HostSimConfig cfg = HealHostConfig();
  cfg.tuning.coalesce_io = false;
  cfg.tuning.enable_health_monitor = true;
  cfg.tuning.health_window = 32;
  cfg.tuning.health_probe_interval = 16;
  cfg.tuning.enable_replication = true;
  HostSimulation sim(cfg);
  ASSERT_TRUE(sim.LoadModel(HealModel()).ok());

  SharedDeviceService& svc = sim.store().device_service();
  size_t staged = 0;
  for (size_t i = 0; i < 3; ++i) {  // 2 user tables + 1 item table
    const TableRuntime& rt = sim.store().table(MakeTableId(i));
    if (rt.tier != MemoryTier::kSm || rt.sm_device != 0) continue;
    const auto span = svc.ExtentInfoFor(rt.extent_id);
    ASSERT_TRUE(span.has_value());
    const auto loc = svc.AllocateReplica(rt.extent_id, /*target=*/1);
    ASSERT_TRUE(loc.ok()) << loc.status().ToString();
    ASSERT_TRUE(svc.device(1)
                    .Write(loc.value().offset,
                           svc.device(0).backing().subspan(span->offset, span->size))
                    .ok());
    svc.AddReplicaRoute(rt.extent_id, loc.value());
    ++staged;
  }
  ASSERT_GT(staged, 0u);
  for (int i = 0; i < 32; ++i) svc.health().Record(0, false);
  ASSERT_TRUE(svc.health().Sick(0));

  const HostRunReport r = sim.Run(200, 400);
  EXPECT_GT(r.replica_reads, 0u);
  EXPECT_EQ(r.lookups_shed, 0u);
  EXPECT_EQ(r.queries_completed, r.queries_served);
}

// ---------------------------------------------------------------------------
// Degraded-row-aware placement: feedback into ComputePlacement and the
// ModelUpdater's migration pass.
// ---------------------------------------------------------------------------

TuningConfig MigrationTuning() {
  TuningConfig t;
  t.degraded_placement_feedback = true;
  // FM headroom for the migrated table: no row cache eating the slack.
  t.enable_row_cache = false;
  t.row_cache.capacity = 0;
  return t;
}

struct LoadedStore {
  EventLoop loop;
  std::unique_ptr<SdmStore> store;
  ModelConfig model;
};

std::unique_ptr<LoadedStore> MakeLoadedStore(TuningConfig tuning) {
  auto ls = std::make_unique<LoadedStore>();
  ls->model = MakeTinyUniformModel(16, 2, 1, 2000);
  SdmStoreConfig cfg;
  cfg.fm_capacity = 8 * kMiB;
  cfg.sm_specs = {MakeOptaneSsdSpec()};
  cfg.sm_backing_bytes = {16 * kMiB};
  cfg.tuning = std::move(tuning);
  ls->store = std::make_unique<SdmStore>(cfg, &ls->loop);
  EXPECT_TRUE(ModelLoader::Load(ls->model, {}, ls->store.get()).ok());
  return ls;
}

/// Runs one lookup synchronously; returns the pooled vector.
std::vector<float> PooledLookup(LoadedStore& ls, LookupEngine& engine, TableId table,
                                std::vector<RowIndex> indices) {
  std::vector<float> pooled;
  bool done = false;
  LookupRequest req;
  req.table = table;
  req.indices = std::move(indices);
  req.mode = PoolingMode::kSum;
  engine.Lookup(std::move(req),
                [&](Status s, std::vector<float> out, const LookupTrace&) {
                  EXPECT_TRUE(s.ok()) << s.ToString();
                  pooled = std::move(out);
                  done = true;
                });
  ls.loop.RunUntilIdle();
  EXPECT_TRUE(done);
  return pooled;
}

TEST(DegradedPlacement, UpdaterMigratesChronicallyDegradedTableToFm) {
  auto ls = MakeLoadedStore(MigrationTuning());
  const TableId victim = MakeTableId(0);
  ASSERT_EQ(ls->store->table(victim).tier, MemoryTier::kSm);

  // Last generation zero-filled 100 rows out of this table (>= the
  // degraded_rows_min floor of 64); a neighbor stayed under the floor.
  ls->store->RecordTableDegradedRows(victim, 100);
  ls->store->RecordTableDegradedRows(MakeTableId(1), 10);

  ModelUpdater updater(ls->store.get());
  UpdateOptions opts;
  opts.row_fraction = 0.1;
  const auto report = updater.Update(opts);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report.value().tables_migrated, 1u);
  EXPECT_EQ(ls->store->table(victim).tier, MemoryTier::kFm);
  EXPECT_EQ(ls->store->table(MakeTableId(1)).tier, MemoryTier::kSm);

  // The migrated copy serves the exact same bytes from FM.
  LookupEngine engine(ls->store.get());
  const std::vector<RowIndex> indices = {11, 22, 33};
  const auto pooled = PooledLookup(*ls, engine, victim, indices);
  const TableConfig& tc = ls->model.tables[0];
  const uint64_t seed = LoaderOptions{}.seed ^ (0xabcdef12345678ULL * 1);
  const auto image = EmbeddingTableImage::GenerateRandom(tc, seed);
  std::vector<float> expected(tc.dim, 0.0f);
  for (const RowIndex idx : indices) {
    const auto row = image.DequantizedRow(idx);
    for (size_t i = 0; i < expected.size(); ++i) expected[i] += row[i];
  }
  ASSERT_EQ(pooled.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) EXPECT_NEAR(pooled[i], expected[i], 1e-4f);

  // A second refresh finds nothing left to migrate.
  const auto again = updater.Update(opts);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().tables_migrated, 0u);
}

TEST(DegradedPlacement, FeedbackOffLeavesDegradedTablesOnSm) {
  TuningConfig t = MigrationTuning();
  t.degraded_placement_feedback = false;
  auto ls = MakeLoadedStore(t);
  ls->store->RecordTableDegradedRows(MakeTableId(0), 1000);
  ModelUpdater updater(ls->store.get());
  UpdateOptions opts;
  opts.row_fraction = 0.1;
  const auto report = updater.Update(opts);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().tables_migrated, 0u);
  EXPECT_EQ(ls->store->table(MakeTableId(0)).tier, MemoryTier::kSm);
}

TEST(DegradedPlacement, PlacementOverloadForcesDegradedTablesOntoFm) {
  const ModelConfig model = MakeTinyUniformModel(16, 2, 1, 2000);
  TuningConfig tuning;
  const auto base = ComputePlacement(model, tuning);
  ASSERT_TRUE(base.ok());
  ASSERT_EQ(base.value().For(MakeTableId(0)).tier, MemoryTier::kSm);

  const auto healed =
      ComputePlacement(model, tuning, /*degraded_tables=*/{MakeTableId(0)});
  ASSERT_TRUE(healed.ok());
  const TablePlacement& forced = healed.value().For(MakeTableId(0));
  EXPECT_EQ(forced.tier, MemoryTier::kFm);
  EXPECT_FALSE(forced.cache_enabled);
  EXPECT_NE(forced.reason.find("degraded"), std::string::npos);
  // The byte ledgers moved with the table.
  EXPECT_GT(healed.value().fm_direct_bytes, base.value().fm_direct_bytes);
  EXPECT_LT(healed.value().sm_bytes, base.value().sm_bytes);
  // Untouched tables keep their base decision.
  EXPECT_EQ(healed.value().For(MakeTableId(1)).tier,
            base.value().For(MakeTableId(1)).tier);
}

}  // namespace
}  // namespace sdm
