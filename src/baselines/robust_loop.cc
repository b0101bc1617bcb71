#include "baselines/robust_loop.h"

#include <algorithm>
#include <cmath>

namespace streamtune::baselines {

void RobustLoop::ClampStep(std::vector<int>* rec) const {
  if (!hardened()) return;
  const std::vector<int>& cur = engine_->parallelism();
  if (cur.size() != rec->size()) return;
  for (size_t v = 0; v < rec->size(); ++v) {
    const int lo =
        std::max(1, static_cast<int>(std::floor(cur[v] / kMaxStepFactor)));
    const int hi =
        std::max(lo, static_cast<int>(std::ceil(cur[v] * kMaxStepFactor)));
    (*rec)[v] = std::clamp((*rec)[v], lo, hi);
  }
}

bool RobustLoop::MaybeRollback(const sim::JobMetrics& m) {
  // A clean run at least as good as the best seen becomes the new
  // known-good deployment.
  if (!m.job_backpressure && m.lambda >= known_good_lambda_) {
    known_good_ = engine_->parallelism();
    known_good_lambda_ = m.lambda;
    return false;
  }
  if (!hardened() || known_good_.empty()) return false;
  if (engine_->parallelism() == known_good_) return false;
  if (m.lambda >= known_good_lambda_ - kRollbackLambdaMargin) return false;
  // The reconfiguration regressed the sustained rate past the margin:
  // restore the last deployment known to run clean. A rollback that itself
  // fails transiently is abandoned — the normal loop keeps iterating.
  if (!Deploy(known_good_).ok()) return false;
  ++rollbacks_;
  return true;
}

void RobustLoop::FillProgress(TuningOutcome* outcome) const {
  outcome->final_parallelism = engine_->parallelism();
  int total = 0;
  for (int p : outcome->final_parallelism) total += p;
  outcome->total_parallelism = total;
  outcome->reconfigurations =
      engine_->reconfiguration_count() - reconfig_before_;
  outcome->tuning_minutes = engine_->virtual_minutes() - minutes_before_;
}

}  // namespace streamtune::baselines
