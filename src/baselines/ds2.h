// DS2 (Kalavri et al., OSDI'18): analytical scaling on the linearity
// assumption.
//
// For every operator DS2 estimates the *true processing rate* as
// observed-rate / useful-time and assumes capacity grows linearly with
// parallelism. Target input rates are propagated from the sources through
// the DAG with observed selectivities; the recommended degree is
// ceil(target_rate / per-instance true rate). The method iterates ("three
// steps is all you need") because the linearity assumption and the noisy
// useful-time measurements leave residual error after each step.

#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "baselines/robust_loop.h"
#include "baselines/tuner.h"

namespace streamtune::baselines {

/// Unthrottled input rate each operator would see if every upstream
/// operator kept up: source demand propagated downstream through the
/// observed selectivities. Shared by DS2 and ContTune.
std::vector<double> TargetInputRates(const JobGraph& g,
                                     const sim::JobMetrics& metrics);

/// The reactive tuning process DS2 and ContTune share: each Step() measures,
/// rolls a regression back (hardened mode), asks the method's rule for a
/// recommendation, clamps it (hardened mode), and deploys it — or stops once
/// the recommendation equals the deployment or the iteration budget is
/// spent. Finish() takes a trailing measurement for the backpressure
/// verdict.
class RuleSession final : public TuningSession {
 public:
  /// The method's recommendation for the current deployment and metrics.
  using Rule = std::function<std::vector<int>(const sim::StreamEngine&,
                                              const sim::JobMetrics&)>;

  RuleSession(sim::StreamEngine* engine, int max_iterations, Rule rule);

  /// Errors only for a failed initial measurement on a pristine engine (a
  /// caller error, e.g. never deployed); every later failure degrades
  /// gracefully and stops the process.
  Result<bool> Step() override;
  Result<TuningOutcome> Finish() override;

 private:
  sim::StreamEngine* engine_;
  const int max_iterations_;
  const Rule rule_;
  RobustLoop loop_;
  TuningOutcome outcome_;
  bool last_severe_ = false;
  /// Set once the process stopped, also by an error: a caller that retries
  /// Step() after an error (the control plane does) then finds it stopped.
  bool done_ = false;
};

/// Options for the DS2 tuner.
struct Ds2Options {
  int max_iterations = 10;
};

/// The DS2 scaling controller.
class Ds2Tuner : public Tuner {
 public:
  explicit Ds2Tuner(Ds2Options options = {}) : options_(options) {}

  std::string name() const override { return "DS2"; }

  /// A DS2 session keeps no reference to the tuner: it may outlive it.
  Result<std::unique_ptr<TuningSession>> NewSession(
      sim::StreamEngine* engine) override;

  /// One DS2 policy step: given metrics of the current deployment, the new
  /// recommended parallelism per operator. StreamTune falls back to it
  /// when M_f cannot be fitted.
  static std::vector<int> Recommend(const sim::StreamEngine& engine,
                                    const sim::JobMetrics& metrics);

 private:
  Ds2Options options_;
};

}  // namespace streamtune::baselines
