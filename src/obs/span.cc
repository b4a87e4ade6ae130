#include "obs/span.h"

namespace kwikr::obs {

void EventLoopMetricsProbe::OnExecuted(const char* type, sim::Time /*at*/) {
  auto it = by_type_.find(std::string_view(type));
  if (it == by_type_.end()) {
    Counter* count =
        &registry_->GetCounter("sim_events_total", {{"type", type}});
    it = by_type_.emplace(std::string(type), count).first;
  }
  it->second->Add();
  ++total_;
}

}  // namespace kwikr::obs
