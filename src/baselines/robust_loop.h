// Shared hardening harness and outcome accounting for every tuning session.
//
// Every tuner (DS2, ContTune, ZeroTune, StreamTune) drives its engine
// through a RobustLoop: Measure() retries transient dropouts and sanitizes
// samples, Deploy() retries transient reconfiguration failures, and — once
// a fault has actually been observed ("hardened mode") — recommendations
// are clamped to bounded per-iteration steps and regressions beyond a
// lambda margin roll back to the last known-good deployment. The loop also
// remembers the engine's counters at the start of the process, so the
// outcome accounting (FillProgress, FillFaults) exists once.
//
// Determinism contract: on a fault-free run the loop stays in pristine
// mode — one engine call per Measure/Deploy, no clamping, no rollback — so
// tuner outcomes with chaos disabled are bit-identical to the unhardened
// implementation. Hardened mode latches only on observed faults (retries
// or rejected samples), which cannot occur on a clean engine.

#pragma once

#include <vector>

#include "baselines/tuner.h"
#include "common/retry.h"
#include "sim/metrics_sanitizer.h"

namespace streamtune::baselines {

/// Per-tuning-process harness wrapping one engine. Stateful: construct one
/// per tuning session, when the process starts.
class RobustLoop {
 public:
  /// Hardened mode only: per-iteration parallelism deltas are clamped to
  /// within this factor of the current degree (both directions), so one
  /// corrupted window cannot trigger a wild reconfiguration.
  static constexpr double kMaxStepFactor = 4.0;
  /// Hardened mode only: roll back to the last known-good deployment when
  /// a reconfiguration regresses the sustained rate fraction (lambda) by
  /// more than this margin below the best clean run seen.
  static constexpr double kRollbackLambdaMargin = 0.10;

  explicit RobustLoop(sim::StreamEngine* engine)
      : engine_(engine),
        reconfig_before_(engine->reconfiguration_count()),
        minutes_before_(engine->virtual_minutes()) {}

  /// Measure with retry + sanitization (see sim::MeasureSanitized).
  Result<sim::JobMetrics> Measure() {
    return sim::MeasureSanitized(engine_, &sanitizer_, RetryOptions{},
                                 &retry_stats_);
  }

  /// Deploy with retry on transient failures.
  Status Deploy(const std::vector<int>& parallelism) {
    return sim::DeployWithRetry(engine_, parallelism, RetryOptions{},
                                &retry_stats_);
  }

  /// True once any fault has been observed (a retried call or a rejected
  /// sample). Clamping and rollback only engage in hardened mode.
  bool hardened() const {
    return retry_stats_.retries > 0 || sanitizer_.stats().rejected > 0;
  }

  /// Hardened mode: clamps each operator's recommended change to within
  /// kMaxStepFactor of its currently deployed degree. Pristine: no-op.
  void ClampStep(std::vector<int>* rec) const;

  /// Call with each accepted measurement. Tracks the best clean deployment
  /// seen; in hardened mode, if the current deployment regressed lambda
  /// beyond the margin, redeploys the known-good configuration and returns
  /// true (callers should re-measure before recommending again). Never
  /// returns an error: a failed rollback degrades to "keep going".
  bool MaybeRollback(const sim::JobMetrics& m);

  /// Copies the deployed degrees, their sum, and the reconfigurations and
  /// virtual minutes spent since this loop was constructed into `outcome`.
  void FillProgress(TuningOutcome* outcome) const;

  /// Copies fault/retry/rollback counters into the outcome.
  void FillFaults(TuningOutcome* outcome) const {
    outcome->retries = retry_stats_.retries;
    outcome->rollbacks += rollbacks_;
    outcome->faults_survived =
        retry_stats_.retries + sanitizer_.stats().rejected;
  }

 private:
  sim::StreamEngine* engine_;
  sim::MetricsSanitizer sanitizer_;
  RetryStats retry_stats_;
  const int reconfig_before_;
  const double minutes_before_;
  int rollbacks_ = 0;
  std::vector<int> known_good_;
  double known_good_lambda_ = -1.0;
};

}  // namespace streamtune::baselines
