#include "baselines/conttune.h"

#include <algorithm>
#include <cmath>

namespace streamtune::baselines {

std::vector<GpSample> ContTuneTuner::ExportHistory() const {
  std::vector<GpSample> samples;
  for (const auto& [op, h] : history_) {
    for (size_t i = 0; i < h.parallelism.size(); ++i) {
      samples.push_back({op, h.parallelism[i], h.ability[i]});
    }
  }
  return samples;
}

void ContTuneTuner::ImportHistory(const std::vector<GpSample>& samples) {
  for (const GpSample& s : samples) {
    OpHistory& h = history_[s.op];
    h.parallelism.push_back(s.parallelism);
    h.ability.push_back(s.ability);
  }
}

std::vector<int> ContTuneTuner::Recommend(const sim::StreamEngine& engine,
                                          const sim::JobMetrics& metrics) {
  const JobGraph& g = engine.graph();
  const int n = g.num_operators();
  const int p_max = engine.max_parallelism();
  const std::vector<int>& p_cur = engine.parallelism();

  // Target rates via observed selectivities (as in DS2).
  const std::vector<double> target_in = TargetInputRates(g, metrics);

  std::vector<int> rec = p_cur;
  for (int v = 0; v < n; ++v) {
    const sim::OperatorMetrics& m = metrics.ops[v];
    if (m.input_rate <= 1e-9) continue;

    // Observe processing ability at the current degree and record it in the
    // job's own tuning history.
    double ability = m.input_rate / m.useful_time_frac_observed;
    OpHistory& h = history_[v];
    h.parallelism.push_back(static_cast<double>(p_cur[v]));
    h.ability.push_back(ability);

    if (ability < target_in[v]) {
      // Big phase: scale up proportionally to the deficit, with margin.
      double factor = target_in[v] / std::max(ability, 1e-9);
      int jump = static_cast<int>(
          std::ceil(p_cur[v] * factor * options_.big_factor));
      rec[v] = std::clamp(jump, p_cur[v] + 1, p_max);
      continue;
    }

    // Small phase: conservative downward search on the GP surrogate.
    if (h.parallelism.size() < 2) continue;  // not enough evidence yet
    ml::GaussianProcess gp(options_.gp);
    if (!gp.Fit(h.parallelism, h.ability).ok()) continue;
    int best = p_cur[v];
    for (int cand = 1; cand < p_cur[v]; ++cand) {
      if (gp.Lcb(static_cast<double>(cand), options_.alpha) >= target_in[v]) {
        best = cand;
        break;
      }
    }
    rec[v] = best;
  }
  return rec;
}

Result<std::unique_ptr<TuningSession>> ContTuneTuner::NewSession(
    sim::StreamEngine* engine) {
  return std::unique_ptr<TuningSession>(std::make_unique<RuleSession>(
      engine, options_.max_iterations,
      [this](const sim::StreamEngine& e, const sim::JobMetrics& m) {
        return Recommend(e, m);
      }));
}

}  // namespace streamtune::baselines
