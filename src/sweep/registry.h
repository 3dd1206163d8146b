// Named, ready-to-run sweep plans. The first three are the paper's
// ablations (ablation_geometry, temp_sensitivity,
// ablation_vrm_placement) as data: same design points, same metrics,
// runnable on every core through the SweepRunner.
#ifndef BRIGHTSI_SWEEP_REGISTRY_H
#define BRIGHTSI_SWEEP_REGISTRY_H

#include <string>
#include <vector>

#include "sweep/plan.h"

namespace brightsi::sweep {

/// A registry entry: the plan name plus a one-line summary for --list.
struct PlanDescription {
  std::string name;
  std::string summary;
};

/// All registered plan names with summaries, in presentation order.
[[nodiscard]] const std::vector<PlanDescription>& registered_plans();

/// Builds the named plan (scenarios fully expanded). Throws
/// std::invalid_argument on an unknown name.
[[nodiscard]] SweepPlan make_registered_plan(const std::string& name);

}  // namespace brightsi::sweep

#endif  // BRIGHTSI_SWEEP_REGISTRY_H
