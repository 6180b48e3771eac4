/// \file system_model.h
/// \brief The façade the simulator talks to: fleet + straggler policy.
///
/// A `SystemModel` owns a `FleetModel` and a `StragglerPolicy`: the engine
/// times each dispatched client against its profile and lets the policy
/// judge it (admit / admit-partial / drop) as that client's completion
/// event (sys/event_queue.h). It is stateless — the engine owns the
/// simulated clock — so the same model can be shared by sequential runs.

#ifndef FEDADMM_SYS_SYSTEM_MODEL_H_
#define FEDADMM_SYS_SYSTEM_MODEL_H_

#include <memory>
#include <string>
#include <utility>

#include "fl/types.h"
#include "sys/profiles.h"
#include "sys/straggler.h"
#include "sys/virtual_clock.h"

namespace fedadmm {

/// \brief Bundles the fleet and the straggler policy behind one interface.
class SystemModel {
 public:
  SystemModel(FleetModel fleet, std::unique_ptr<StragglerPolicy> policy)
      : fleet_(std::move(fleet)), policy_(std::move(policy)) {
    FEDADMM_CHECK_MSG(policy_ != nullptr, "SystemModel: policy is required");
  }

  const FleetModel& fleet() const { return fleet_; }
  const StragglerPolicy& policy() const { return *policy_; }

  /// "<fleet>/<policy>", e.g. "cellular/deadline-drop".
  std::string name() const { return fleet_.name() + "/" + policy_->name(); }

 private:
  FleetModel fleet_;
  std::unique_ptr<StragglerPolicy> policy_;
};

/// \brief Builds the policy named by `name` ("wait-for-all",
/// "deadline-drop", "deadline-admit-partial"); deadline policies require
/// `deadline_seconds` > 0. Returns InvalidArgument for unknown names.
Result<std::unique_ptr<StragglerPolicy>> MakeStragglerPolicy(
    const std::string& name, double deadline_seconds);

}  // namespace fedadmm

#endif  // FEDADMM_SYS_SYSTEM_MODEL_H_
