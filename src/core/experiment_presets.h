// Named experiment presets — the paper's figures, ablations and
// validations as ready-made core::ExperimentSpec values.  This is the
// ONE place the evaluation grids are defined: the figure benches, the
// sharding tools, run_experiment and ci.sh all derive their work from
// these names, so two processes that agree on (name, smoke) agree on
// the entire experiment (grid, backends, Monte-Carlo schedule, seeds).
//
//   fig2 / fig3 / fig4 / fig5       analytic figure grids (full axes)
//   fig2_val .. fig5_val            their CI-gated validation twins
//                                   (Analytic + DES, thinned in smoke)
//   attacker_matrix(+_val)          3×3×TIDS adaptive-defense matrix
//   sensitivity_surface             λc × TIDS response surface
//   host_ids_quality                p1 = p2 × TIDS quality sweep
//   val_des                         scaled-down DES validation grid
//   val_protocol                    packet-level protocol validation
//   mission                         survival-horizon reliability grid
//   mission_phased                  3-phase mission (infiltration /
//                                   assault / recovery) at paper N=100
//   attacker_surge                  λc×4 surge schedule through all
//                                   three backends (small population)
#pragma once

#include <string>
#include <vector>

#include "core/experiment.h"

namespace midas::core {

/// Every name experiment_preset() accepts.
[[nodiscard]] std::vector<std::string> experiment_preset_names();

/// Builds the named preset.  `smoke` thins validation axes and loosens
/// CI targets for CI runtimes (figure grids keep their full axes).
/// Throws std::invalid_argument listing the known names otherwise.
[[nodiscard]] ExperimentSpec experiment_preset(const std::string& name,
                                               bool smoke);

}  // namespace midas::core
