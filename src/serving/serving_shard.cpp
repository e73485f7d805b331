#include "serving/serving_shard.h"

#include "serving/host.h"

namespace sdm {

Bytes ServingShard::fm_used() const {
  return store->fm_direct_bytes() + store->fm_mapping_bytes() +
         (store->row_cache() != nullptr ? store->row_cache()->capacity() : 0);
}

ArrivalParticipant ServingShard::Participant(uint64_t arrival_seed) const {
  return ArrivalParticipant{engine.get(), [gen = workload.get()] { return gen->Next(); },
                            arrival_seed};
}

Result<ServingShard> BuildServingShard(const HostSimConfig& host, const ModelConfig& model,
                                       const ShardSpec& spec, EventLoop* loop) {
  SdmStoreConfig scfg;
  scfg.fm_capacity = spec.fm_capacity;
  if (spec.shared_device == nullptr) {
    for (const auto& ssd : host.host.ssds) {
      scfg.sm_specs.push_back(ssd);
      scfg.sm_backing_bytes.push_back(host.sm_backing_per_device);
    }
  }
  scfg.tuning = host.tuning;
  scfg.seed = spec.store_seed;
  scfg.shared_device = spec.shared_device;
  scfg.tenant_id = spec.tenant_id;
  scfg.tenant_class = spec.tenant_class;
  scfg.obs = spec.obs;
  scfg.obs_prefix = spec.obs_prefix;

  ServingShard shard;
  shard.store = std::make_unique<SdmStore>(scfg, loop);
  auto report = ModelLoader::Load(model, host.loader, shard.store.get());
  if (!report.ok()) return report.status();
  shard.load_report = std::move(report).value();

  InferenceConfig icfg = host.inference;
  icfg.accelerator = host.host.accelerator;
  icfg.dense.flops_per_sec = host.host.dense_flops;
  // One in-flight query occupies roughly one core.
  if (icfg.max_concurrent_queries <= 0) icfg.max_concurrent_queries = host.host.cores();
  shard.engine = std::make_unique<InferenceEngine>(shard.store.get(), model, icfg);

  WorkloadConfig wcfg = host.workload;
  wcfg.seed = spec.workload_seed;
  shard.workload = std::make_unique<QueryGenerator>(model, wcfg);
  shard.cores = host.host.cores();
  return shard;
}

}  // namespace sdm
