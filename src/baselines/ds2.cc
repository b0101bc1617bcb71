#include "baselines/ds2.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace streamtune::baselines {

std::vector<double> TargetInputRates(const JobGraph& g,
                                     const sim::JobMetrics& metrics) {
  const int n = g.num_operators();

  // Observed selectivities from the rate logs.
  std::vector<double> sel(n, 1.0);
  for (int v = 0; v < n; ++v) {
    const sim::OperatorMetrics& m = metrics.ops[v];
    sel[v] = m.input_rate > 1e-9 ? m.output_rate / m.input_rate : 1.0;
  }

  // Propagate target (unthrottled) rates from the sources downstream.
  auto order = g.TopologicalOrder();
  assert(order.ok() && "deployed job graphs are acyclic");
  std::vector<double> target_in(n, 0.0), target_out(n, 0.0);
  for (int v : order.value()) {
    if (g.upstream(v).empty()) {
      target_in[v] = metrics.ops[v].desired_input_rate;
    } else {
      double in = 0;
      for (int u : g.upstream(v)) in += target_out[u];
      target_in[v] = in;
    }
    target_out[v] = target_in[v] * sel[v];
  }
  return target_in;
}

std::vector<int> Ds2Tuner::Recommend(const sim::StreamEngine& engine,
                                     const sim::JobMetrics& metrics) {
  const int n = engine.graph().num_operators();
  const int p_max = engine.max_parallelism();
  const std::vector<int>& p_cur = engine.parallelism();
  const std::vector<double> target_in =
      TargetInputRates(engine.graph(), metrics);

  std::vector<int> rec(n, 1);
  for (int v = 0; v < n; ++v) {
    const sim::OperatorMetrics& m = metrics.ops[v];
    if (m.input_rate <= 1e-9) {
      // No data observed: nothing to extrapolate from, keep the current
      // degree.
      rec[v] = p_cur[v];
      continue;
    }
    // DS2's core: true rate = processed / useful time, assumed linear in p.
    double true_rate = m.input_rate / m.useful_time_frac_observed;
    double per_instance = true_rate / p_cur[v];
    double needed = target_in[v] / per_instance;
    rec[v] = static_cast<int>(
        std::clamp(std::ceil(needed - 1e-9), 1.0,
                   static_cast<double>(p_max)));
  }
  return rec;
}

Result<std::unique_ptr<TuningSession>> Ds2Tuner::NewSession(
    sim::StreamEngine* engine) {
  return std::unique_ptr<TuningSession>(std::make_unique<RuleSession>(
      engine, options_.max_iterations, &Ds2Tuner::Recommend));
}

RuleSession::RuleSession(sim::StreamEngine* engine, int max_iterations,
                         Rule rule)
    : engine_(engine),
      max_iterations_(max_iterations),
      rule_(std::move(rule)),
      loop_(engine) {}

Result<bool> RuleSession::Step() {
  if (done_) return true;
  const int iter = outcome_.iterations;
  if (iter >= max_iterations_) {
    done_ = true;
    return true;
  }
  outcome_.iterations = iter + 1;

  Result<sim::JobMetrics> metrics_r = loop_.Measure();
  if (!metrics_r.ok()) {
    done_ = true;
    // A failed *initial* measurement on a fault-free engine is a caller
    // error (e.g. never deployed) and propagates; once faults are in
    // play the process degrades gracefully and keeps what it has.
    if (iter == 0 && !loop_.hardened()) return metrics_r.status();
    return true;
  }
  const sim::JobMetrics& metrics = *metrics_r;
  last_severe_ = metrics.severe_backpressure;
  // The iteration-0 measurement reflects the pre-tuning state shared by
  // all methods; only backpressure after this tuner's own deployments is
  // attributed to it (Table III semantics).
  if (iter > 0 && metrics.job_backpressure) ++outcome_.backpressure_events;
  const bool budget_spent = iter + 1 >= max_iterations_;
  if (loop_.MaybeRollback(metrics)) return budget_spent;
  std::vector<int> rec = rule_(*engine_, metrics);
  loop_.ClampStep(&rec);
  if (rec == engine_->parallelism()) {
    done_ = true;
    return true;
  }
  if (!loop_.Deploy(rec).ok()) {  // persistent failure: keep current
    done_ = true;
    return true;
  }
  return budget_spent;
}

Result<TuningOutcome> RuleSession::Finish() {
  loop_.FillProgress(&outcome_);
  Result<sim::JobMetrics> final_metrics = loop_.Measure();
  outcome_.ended_with_backpressure = final_metrics.ok()
                                         ? final_metrics->severe_backpressure
                                         : last_severe_;
  loop_.FillFaults(&outcome_);
  return outcome_;
}

}  // namespace streamtune::baselines
