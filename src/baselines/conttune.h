// ContTune (Lian et al., VLDB'23): conservative Bayesian optimization.
//
// Per operator, a Gaussian-process surrogate models the relationship between
// the parallelism degree and the operator's observed processing ability,
// trained on the target job's own tuning history. Tuning follows the
// "big-small" algorithm: when an operator cannot sustain its target rate the
// degree jumps up aggressively (Big), otherwise the GP searches downward for
// the smallest degree whose conservative estimate (LCB: mean - alpha * std)
// still sustains the rate (small). Like DS2 it consumes the noisy
// useful-time metric, and unlike StreamTune it uses no cross-job knowledge.

#pragma once

#include <map>
#include <memory>
#include <vector>

#include "baselines/ds2.h"
#include "baselines/tuner.h"
#include "ml/gaussian_process.h"

namespace streamtune::baselines {

/// Options for the ContTune tuner.
struct ContTuneOptions {
  int max_iterations = 15;
  /// Conservatism alpha in the LCB score (paper's optimal setting: 3).
  double alpha = 3.0;
  /// Multiplier for the Big phase (jump factor on the deficit ratio).
  double big_factor = 1.2;
  ml::GpConfig gp;
};

/// One (operator, parallelism) -> processing-ability observation, the unit
/// the per-operator GP surrogates are fitted on. Exported/imported so a
/// knowledge base can persist a job's accumulated observations across
/// tuning sessions (the way ContTune keeps reusing them within a session).
struct GpSample {
  int op = 0;
  double parallelism = 0;
  double ability = 0;
};

/// The ContTune conservative-BO controller.
class ContTuneTuner : public Tuner {
 public:
  explicit ContTuneTuner(ContTuneOptions options = {}) : options_(options) {}

  std::string name() const override { return "ContTune"; }

  /// DS2's session loop with ContTune's big-small rule; each Step() grows
  /// this tuner's GP history.
  Result<std::unique_ptr<TuningSession>> NewSession(
      sim::StreamEngine* engine) override;

  /// Clears the accumulated per-operator tuning history (a new job).
  void ResetHistory() { history_.clear(); }

  /// All accumulated observations, flattened in operator order.
  std::vector<GpSample> ExportHistory() const;
  /// Appends previously exported observations (e.g. loaded from a
  /// knowledge base) to the per-operator histories.
  void ImportHistory(const std::vector<GpSample>& samples);

 private:
  /// Observations for one operator: parallelism -> processing abilities.
  struct OpHistory {
    std::vector<double> parallelism;
    std::vector<double> ability;
  };

  std::vector<int> Recommend(const sim::StreamEngine& engine,
                             const sim::JobMetrics& metrics);

  ContTuneOptions options_;
  std::map<int, OpHistory> history_;  // operator id -> observations
};

}  // namespace streamtune::baselines
