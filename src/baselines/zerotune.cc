#include "baselines/zerotune.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "baselines/robust_loop.h"

namespace streamtune::baselines {

ZeroTuneTuner::ZeroTuneTuner(ZeroTuneOptions options)
    : options_(options), rng_(options.seed) {
  ml::GnnConfig cfg;
  cfg.feature_dim = FeatureEncoder::FeatureDim();
  cfg.hidden_dim = options_.hidden_dim;
  cfg.num_layers = options_.gnn_layers;
  cfg.seed = options_.seed;
  gnn_ = ml::GnnEncoder(cfg);
  Rng init_rng(options_.seed + 1);
  readout_ = ml::Mlp({options_.hidden_dim, options_.hidden_dim, 1},
                     ml::Activation::kRelu, &init_rng);
}

namespace {

ml::Matrix FeatureMatrix(const FeatureEncoder& encoder, const JobGraph& g) {
  auto rows = encoder.EncodeGraph(g);
  return ml::Matrix::FromRows(rows);
}

ml::Matrix ParallelismColumn(const FeatureEncoder& encoder,
                             const std::vector<int>& p) {
  ml::Matrix col(static_cast<int>(p.size()), 1);
  for (size_t i = 0; i < p.size(); ++i) {
    col.at(static_cast<int>(i), 0) = encoder.ScaleParallelism(p[i]);
  }
  return col;
}

}  // namespace

Status ZeroTuneTuner::Train(const std::vector<ZeroTuneExample>& data) {
  if (data.empty()) return Status::InvalidArgument("empty training set");
  for (const ZeroTuneExample& ex : data) {
    if (static_cast<int>(ex.parallelism.size()) != ex.graph.num_operators()) {
      return Status::InvalidArgument("parallelism size mismatch in example");
    }
  }

  // Standardize the cost target (log-scale: costs are heavy-tailed).
  std::vector<double> logc;
  logc.reserve(data.size());
  for (const ZeroTuneExample& ex : data) logc.push_back(std::log1p(ex.cost));
  double mean = 0;
  for (double c : logc) mean += c;
  mean /= static_cast<double>(logc.size());
  double var = 0;
  for (double c : logc) var += (c - mean) * (c - mean);
  double stddev = std::sqrt(var / static_cast<double>(logc.size()));
  if (stddev < 1e-9) stddev = 1.0;

  std::vector<ml::Var> params = gnn_.Params();
  for (const ml::Var& p : readout_.Params()) params.push_back(p);
  ml::Adam opt(params, options_.learning_rate);

  // Per-example inputs are fixed across epochs: prepare once, then drive
  // one persistent tape (allocation-free from the second epoch on).
  struct Prepared {
    ml::GraphContext ctx;
    ml::Matrix features, pcol, target;
  };
  std::vector<Prepared> prepared(data.size());
  for (size_t i = 0; i < data.size(); ++i) {
    prepared[i].ctx = ml::GraphContext::Build(data[i].graph);
    prepared[i].features = FeatureMatrix(encoder_, data[i].graph);
    prepared[i].pcol = ParallelismColumn(encoder_, data[i].parallelism);
    prepared[i].target = ml::Matrix(1, 1);
    prepared[i].target.at(0, 0) = (logc[i] - mean) / stddev;
  }

  ml::Tape tape;
  for (int epoch = 0; epoch < options_.epochs; ++epoch) {
    for (const Prepared& p : prepared) {
      tape.Reset();
      ml::Tape::Ref emb = gnn_.Forward(&tape, p.ctx, p.features, p.pcol);
      ml::Tape::Ref pred = readout_.Forward(&tape, tape.MeanRows(emb));
      ml::Tape::Ref loss = tape.MseLoss(pred, &p.target);
      tape.Backward(loss);
      opt.Step();
    }
  }
  trained_ = true;
  return Status::OK();
}

Result<double> ZeroTuneTuner::PredictCost(
    const JobGraph& graph, const std::vector<int>& parallelism) const {
  if (!trained_) return Status::FailedPrecondition("model not trained");
  if (static_cast<int>(parallelism.size()) != graph.num_operators()) {
    return Status::InvalidArgument("parallelism size mismatch");
  }
  ml::Matrix features = FeatureMatrix(encoder_, graph);
  ml::Matrix pcol = ParallelismColumn(encoder_, parallelism);
  ml::GraphContext ctx = ml::GraphContext::Build(graph);
  thread_local ml::Tape tape;
  tape.Reset();
  ml::Tape::Ref emb = gnn_.Forward(&tape, ctx, features, pcol);
  ml::Tape::Ref pred = readout_.Forward(&tape, tape.MeanRows(emb));
  return tape.value(pred).at(0, 0);
}

Result<std::vector<int>> ZeroTuneTuner::PickConfiguration(
    const sim::StreamEngine& engine) {
  const JobGraph& g = engine.graph();
  const int n = g.num_operators();
  const int p_max = engine.max_parallelism();

  // Sample candidates (half of them from the upper half of the range) and
  // score them with the cost model.
  std::vector<std::pair<std::vector<int>, double>> scored;
  double best_cost = std::numeric_limits<double>::infinity();
  for (int s = 0; s < options_.num_samples; ++s) {
    std::vector<int> cand(n);
    int lo = (s % 2 == 0) ? 1 : std::max(1, p_max / 2);
    for (int v = 0; v < n; ++v) cand[v] = rng_.UniformInt(lo, p_max);
    ST_ASSIGN_OR_RETURN(double cost, PredictCost(g, cand));
    best_cost = std::min(best_cost, cost);
    scored.emplace_back(std::move(cand), cost);
  }
  // ZeroTune optimizes the performance metric alone — resource efficiency
  // is not part of its objective (the paper's C1 critique). Among the
  // candidates whose predicted cost is statistically indistinguishable from
  // the best, it has no reason to prefer fewer resources; picking the most
  // provisioned one reproduces its characteristic over-provisioning and
  // zero backpressure (Fig. 6 / Table III). Costs are in standardized
  // log-cost units, so a 0.1 band is a small fraction of one stddev.
  constexpr double kCostTolerance = 0.1;
  std::vector<int> best;
  int best_total = -1;
  for (auto& [cand, cost] : scored) {
    if (cost > best_cost + kCostTolerance) continue;
    int total = 0;
    for (int p : cand) total += p;
    if (total > best_total) {
      best_total = total;
      best = cand;
    }
  }
  return best;
}

class ZeroTuneTuner::Session final : public TuningSession {
 public:
  Session(ZeroTuneTuner* tuner, sim::StreamEngine* engine)
      : tuner_(tuner), engine_(engine), loop_(engine) {}

  // Pick, deploy, measure once; always the last step.
  Result<bool> Step() override {
    ST_ASSIGN_OR_RETURN(std::vector<int> best,
                        tuner_->PickConfiguration(*engine_));
    Status deploy_status = loop_.Deploy(best);
    if (!deploy_status.ok()) {
      // A persistent failure on a fault-free engine is a caller error;
      // under faults ZeroTune degrades to the current deployment.
      if (!loop_.hardened()) return deploy_status;
    }
    outcome_.iterations = 1;
    Result<sim::JobMetrics> metrics_r = loop_.Measure();
    if (!metrics_r.ok()) {
      if (!loop_.hardened()) return metrics_r.status();
    } else {
      if (metrics_r->job_backpressure) ++outcome_.backpressure_events;
      outcome_.ended_with_backpressure = metrics_r->severe_backpressure;
    }
    return true;
  }

  Result<TuningOutcome> Finish() override {
    loop_.FillProgress(&outcome_);
    loop_.FillFaults(&outcome_);
    return outcome_;
  }

 private:
  ZeroTuneTuner* tuner_;
  sim::StreamEngine* engine_;
  RobustLoop loop_;
  TuningOutcome outcome_;
};

Result<std::unique_ptr<TuningSession>> ZeroTuneTuner::NewSession(
    sim::StreamEngine* engine) {
  if (!trained_) return Status::FailedPrecondition("model not trained");
  return std::unique_ptr<TuningSession>(
      std::make_unique<Session>(this, engine));
}

}  // namespace streamtune::baselines
