#include "fabric/fabric_attached_service.h"

#include <cassert>
#include <utility>

namespace sdm {

FabricAttachedService::FabricAttachedService(FabricServiceConfig config, EventLoop* loop)
    : link_config_(config.link), service_(std::move(config.device), loop) {
  assert(loop != nullptr);
  links_.reserve(service_.device_count());
  for (size_t d = 0; d < service_.device_count(); ++d) {
    links_.push_back(std::make_unique<FabricLink>(link_config_, loop));
    service_.io_engine(d).set_fabric_link(links_.back().get());
    if (service_.config().obs != nullptr) {
      links_.back()->set_obs(
          service_.config().obs,
          service_.config().obs_prefix + "dev" + std::to_string(d) + "/");
    }
  }
}

TenantId FabricAttachedService::AttachHost(std::string name, TenantClass cls) {
  return service_.RegisterTenant(std::move(name), cls);
}

void FabricAttachedService::InstallFaultInjector(FaultInjector* injector) {
  service_.InstallFaultInjector(injector);
  for (size_t d = 0; d < links_.size(); ++d) {
    links_[d]->set_fault_injector(injector, static_cast<int>(d));
  }
}

FabricLinkStats FabricAttachedService::fabric_stats() const {
  FabricLinkStats agg;
  for (const auto& link : links_) agg += link->stats();
  return agg;
}

}  // namespace sdm
