#include "core/streamtune_tuner.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "baselines/ds2.h"
#include "baselines/robust_loop.h"

namespace streamtune::core {

const char* FineTuneModelName(FineTuneModel m) {
  switch (m) {
    case FineTuneModel::kSvm:
      return "SVM";
    case FineTuneModel::kXgboost:
      return "XGBoost";
    case FineTuneModel::kNn:
      return "NN";
  }
  return "?";
}

StreamTuneTuner::StreamTuneTuner(
    std::shared_ptr<const PretrainedBundle> bundle, StreamTuneOptions options)
    : bundle_(std::move(bundle)), options_(options) {}

std::string StreamTuneTuner::name() const {
  return options_.model == FineTuneModel::kXgboost
             ? "StreamTune"
             : std::string("StreamTune-") + FineTuneModelName(options_.model);
}

std::unique_ptr<ml::BottleneckModel> StreamTuneTuner::MakeModel(
    int embedding_dim) const {
  switch (options_.model) {
    case FineTuneModel::kSvm:
      return std::make_unique<ml::MonotonicSvm>(embedding_dim, options_.svm);
    case FineTuneModel::kXgboost:
      return std::make_unique<ml::MonotonicGbdt>(embedding_dim,
                                                 options_.gbdt);
    case FineTuneModel::kNn:
      return std::make_unique<ml::NnClassifier>(embedding_dim, options_.nn);
  }
  return nullptr;
}

void StreamTuneTuner::SeedFeedback(const std::string& job,
                                   std::vector<ml::LabeledSample> samples) {
  if (samples.size() > kMaxAccumulatedSamples) {
    samples.erase(samples.begin(),
                  samples.begin() + (samples.size() - kMaxAccumulatedSamples));
  }
  accumulated_[job] = std::move(samples);
}

const std::vector<ml::LabeledSample>& StreamTuneTuner::FeedbackFor(
    const std::string& job) const {
  static const std::vector<ml::LabeledSample> kEmpty;
  auto it = accumulated_.find(job);
  return it == accumulated_.end() ? kEmpty : it->second;
}

void StreamTuneTuner::BatchedInference(const std::vector<PendingJob>& jobs) {
  // Group the stale-cache jobs by (bundle, cluster) — each group shares one
  // frozen encoder, so its members can ride one batched forward. First-seen
  // order; batches are scheduler-sized, so linear search beats a map here.
  struct Group {
    const PretrainedBundle* bundle = nullptr;
    int cluster = -1;
    std::vector<size_t> members;
  };
  std::vector<Group> groups;
  for (size_t i = 0; i < jobs.size(); ++i) {
    const PendingJob& job = jobs[i];
    assert(job.tuner != nullptr && job.graph != nullptr &&
           job.rates != nullptr);
    const PretrainedBundle* bundle = job.tuner->bundle_.get();
    const int cluster = bundle->AssignCluster(*job.graph);
    const EmbeddingCache& c = job.tuner->embedding_cache_;
    if (c.valid && c.cluster == cluster && c.graph_name == job.graph->name() &&
        c.num_operators == job.graph->num_operators() &&
        c.rates == *job.rates) {
      continue;  // already primed for exactly this query
    }
    Group* g = nullptr;
    for (Group& cand : groups) {
      if (cand.bundle == bundle && cand.cluster == cluster) {
        g = &cand;
        break;
      }
    }
    if (g == nullptr) {
      groups.push_back(Group{bundle, cluster, {}});
      g = &groups.back();
    }
    g->members.push_back(i);
  }

  for (const Group& g : groups) {
    std::vector<PretrainedBundle::EmbeddingQuery> queries;
    queries.reserve(g.members.size());
    for (size_t i : g.members) {
      queries.push_back(
          PretrainedBundle::EmbeddingQuery{jobs[i].graph, jobs[i].rates});
    }
    std::vector<ml::Matrix> embeddings =
        g.bundle->BatchedAgnosticEmbeddings(g.cluster, queries);
    for (size_t k = 0; k < g.members.size(); ++k) {
      const PendingJob& job = jobs[g.members[k]];
      EmbeddingCache& c = job.tuner->embedding_cache_;
      c.embeddings = std::move(embeddings[k]);
      c.cluster = g.cluster;
      c.graph_name = job.graph->name();
      c.num_operators = job.graph->num_operators();
      c.rates = *job.rates;
      c.valid = true;
    }
  }
}

const ml::Matrix& StreamTuneTuner::CachedAgnosticEmbeddings(
    int cluster, const JobGraph& g, const std::vector<double>& rates) const {
  EmbeddingCache& c = embedding_cache_;
  if (c.valid && c.cluster == cluster && c.graph_name == g.name() &&
      c.num_operators == g.num_operators() && c.rates == rates) {
    return c.embeddings;
  }
  c.embeddings = bundle_->AgnosticEmbeddings(cluster, g, rates);
  c.cluster = cluster;
  c.graph_name = g.name();
  c.num_operators = g.num_operators();
  c.rates = rates;
  c.valid = true;
  return c.embeddings;
}

int StreamTuneTuner::MinSafeParallelism(const ml::BottleneckModel& model,
                                        const std::vector<double>& embedding,
                                        int p_max) const {
  const double thr = options_.probability_threshold;
  if (model.PredictProbability(embedding, p_max) >= thr) return p_max;
  if (model.PredictProbability(embedding, 1) < thr) return 1;
  int lo = 1, hi = p_max;  // prob(lo) >= thr > prob(hi)
  while (lo + 1 < hi) {
    int mid = (lo + hi) / 2;
    if (model.PredictProbability(embedding, mid) < thr) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return hi;
}

std::vector<int> StreamTuneTuner::Recommend(const sim::StreamEngine& engine,
                                            const ml::BottleneckModel& model,
                                            int cluster) const {
  const JobGraph& g = engine.graph();
  const ml::Matrix& emb =
      CachedAgnosticEmbeddings(cluster, g, engine.current_source_rates());
  std::vector<int> rec(g.num_operators(), 1);
  auto order = g.TopologicalOrder();
  assert(order.ok() && "deployed job graphs are acyclic");
  for (int v : order.value()) {
    rec[v] = MinSafeParallelism(model, emb.Row(v), engine.max_parallelism());
  }
  return rec;
}

class StreamTuneTuner::Session final : public baselines::TuningSession {
 public:
  Session(StreamTuneTuner* tuner, sim::StreamEngine* engine)
      : tuner_(tuner), engine_(engine), loop_(engine) {}

  /// Warm-up dataset + the shared pre-tuning measurement (Algorithm 2
  /// lines 3-4); the only part that can fail on a pristine engine.
  Status Init();
  Result<bool> Step() override;
  Result<baselines::TuningOutcome> Finish() override;

 private:
  StreamTuneTuner* tuner_;
  sim::StreamEngine* engine_;
  baselines::RobustLoop loop_;
  baselines::TuningOutcome outcome_;
  int cluster_ = 0;
  int emb_dim_ = 0;
  std::vector<ml::LabeledSample> dataset_;
  /// The tuner's per-job feedback accumulator (stable std::map ref).
  std::vector<ml::LabeledSample>* accumulated_ = nullptr;
  sim::JobMetrics last_metrics_;
  std::vector<int> last_labels_;
  bool last_backpressure_ = false;
  bool last_severe_ = false;
  /// Last deployment observed to run without backpressure.
  std::vector<int> last_clean_;
  /// Per-operator bracket pinned by this process's own observations.
  std::vector<int> bracket_lo_, bracket_hi_;
};

Status StreamTuneTuner::Session::Init() {
  cluster_ = tuner_->bundle_->AssignCluster(engine_->graph());
  emb_dim_ =
      tuner_->bundle_->cluster(cluster_).encoder.config().hidden_dim +
      FeatureEncoder::kRateFeatures;

  // Algorithm 2, line 3: warm-up dataset from the cluster's history, plus
  // the feedback this tuner has already accumulated for this job from
  // earlier tuning processes ("iteratively refines ... for the target job").
  dataset_ = tuner_->bundle_->WarmUpDataset(
      cluster_, tuner_->options_.warmup_records, tuner_->options_.seed);
  accumulated_ = &tuner_->accumulated_[engine_->graph().name()];
  dataset_.insert(dataset_.end(), accumulated_->begin(), accumulated_->end());

  // The pre-tuning state, shared by every method, tells Algorithm 1 where
  // the current bottlenecks are before the first recommendation.
  ST_ASSIGN_OR_RETURN(last_metrics_, loop_.Measure());
  last_labels_ = LabelBottlenecks(engine_->graph(), last_metrics_);
  last_backpressure_ = last_metrics_.job_backpressure;
  last_severe_ = last_metrics_.severe_backpressure;

  // The last deployment observed to run without backpressure; used to
  // revert a failed scale-down probe.
  if (!last_backpressure_) last_clean_ = engine_->parallelism();

  // Within-process bracketing from this process's own observations at the
  // current rates: a bottleneck at degree d pins the lower bound above d,
  // a clean run at degree d pins the upper bound at d. Clamping every
  // recommendation into the bracket makes the process converge
  // monotonically instead of ping-ponging across the threshold.
  const int n_ops = engine_->graph().num_operators();
  bracket_lo_.assign(n_ops, 1);
  bracket_hi_.assign(n_ops, engine_->max_parallelism());
  return Status::OK();
}

Result<bool> StreamTuneTuner::Session::Step() {
  const int iter = outcome_.iterations;
  if (iter >= tuner_->options_.max_iterations) return true;
  outcome_.iterations = iter + 1;
  const bool budget_spent = iter + 1 >= tuner_->options_.max_iterations;
  sim::StreamEngine* engine = engine_;
  const int n_ops = engine->graph().num_operators();

  auto total_of = [](const std::vector<int>& p) {
    int t = 0;
    for (int x : p) t += x;
    return t;
  };

  // Line 5: fit the monotonic model to the dataset.
  std::unique_ptr<ml::BottleneckModel> model = tuner_->MakeModel(emb_dim_);
  bool fitted = false;
  if (!dataset_.empty()) {
    fitted = model->Fit(dataset_).ok();
  }

  // Lines 6-9: recommend in topological order. Graceful degradation:
  // when M_f cannot be fitted (e.g. a corrupted dataset under faults),
  // fall back to the DS2-style rate rule for this iteration rather than
  // aborting the tuning process.
  std::vector<int> rec;
  if (fitted) {
    rec = tuner_->Recommend(*engine, *model, cluster_);
  } else if (dataset_.empty()) {
    rec = engine->parallelism();
  } else {
    rec = baselines::Ds2Tuner::Recommend(*engine, last_metrics_);
  }

  // Progress guard: an operator that was just observed to be a bottleneck
  // at its current degree must strictly scale up, even if the refitted
  // model's boundary has not yet moved past it. Guarantees the loop makes
  // progress toward eliminating backpressure instead of stalling.
  if (last_backpressure_) {
    const std::vector<int>& cur = engine->parallelism();
    for (int v = 0; v < engine->graph().num_operators(); ++v) {
      if (last_labels_[v] != 1) continue;
      if (bracket_hi_[v] < engine->max_parallelism()) {
        // A clean degree is already known above: bisect toward it.
        rec[v] = std::max(rec[v], (bracket_lo_[v] + bracket_hi_[v] + 1) / 2);
      } else {
        // No upper evidence yet: jump by the observed demand deficit
        // (unthrottled demand over achieved rate — the same rate logs
        // Algorithm 1 reads), with a small margin; fall back to doubling
        // when no rate was observed.
        const sim::OperatorMetrics& om = last_metrics_.ops[v];
        double factor = om.input_rate > 1e-9
                            ? om.desired_input_rate / om.input_rate
                            : 2.0;
        factor = std::clamp(factor * 1.1, 1.25, 8.0);
        rec[v] = std::min(engine->max_parallelism(),
                          static_cast<int>(std::ceil(cur[v] * factor)));
      }
    }
  } else {
    // Scale-down probes move at most halfway down per step: a drastically
    // wrong downward recommendation would cost a reconfiguration and a
    // backpressure episode to discover.
    const std::vector<int>& cur = engine->parallelism();
    for (int v = 0; v < engine->graph().num_operators(); ++v) {
      rec[v] = std::max(rec[v], (cur[v] + 1) / 2);
    }
  }

  // Clamp into the bracket established by this process's observations,
  // then (hardened mode only) into a bounded step from the deployment.
  for (int v = 0; v < n_ops; ++v) {
    rec[v] = std::clamp(rec[v], bracket_lo_[v], bracket_hi_[v]);
  }
  loop_.ClampStep(&rec);

  // Stop rule (Algorithm 2, line 12): stop when the recommendation no
  // longer differs from the deployed configuration, with hysteresis —
  // once the job runs clean, a redeployment is only worth its cost if the
  // recommendation saves a meaningful amount of parallelism (small +-1
  // model jitter must not trigger endless reconfigurations).
  if (rec == engine->parallelism()) {
    return true;
  }
  if (!last_backpressure_) {
    int cur_total = total_of(engine->parallelism());
    int rec_total = total_of(rec);
    int margin = std::max(1, cur_total / 20);
    if (rec_total >= cur_total - margin) {
      return true;
    }
  }

  // Line 10: redeploy and monitor. A persistently failing Deploy or
  // Measure degrades gracefully: the loop stops and keeps what it has.
  if (!loop_.Deploy(rec).ok()) {
    return true;
  }
  Result<sim::JobMetrics> measured = loop_.Measure();
  if (!measured.ok()) {
    return true;
  }
  last_metrics_ = *measured;
  const sim::JobMetrics& metrics = last_metrics_;
  if (metrics.job_backpressure) ++outcome_.backpressure_events;
  if (loop_.MaybeRollback(metrics)) {
    // The regressed deployment was replaced by the last known-good one;
    // refresh the observation so the next iteration labels the restored
    // configuration, and skip folding the regressed sample into the
    // dataset.
    Result<sim::JobMetrics> restored = loop_.Measure();
    if (!restored.ok()) {
      return true;
    }
    last_metrics_ = *restored;
    last_labels_ = LabelBottlenecks(engine->graph(), last_metrics_);
    last_backpressure_ = last_metrics_.job_backpressure;
    last_severe_ = last_metrics_.severe_backpressure;
    if (!last_backpressure_) last_clean_ = engine->parallelism();
    return budget_spent;
  }

  // Line 11: fold the fresh Algorithm-1 labels into the dataset (and the
  // per-job accumulator used by future tuning processes). The monotonic
  // assumption licenses augmentation — a bottleneck at p is a bottleneck
  // at every p' < p, and a safe degree stays safe at every p' > p — and
  // job-specific feedback is replicated so it is not drowned out by the
  // generic warm-up samples.
  last_labels_ = LabelBottlenecks(engine->graph(), metrics);
  last_backpressure_ = metrics.job_backpressure;
  last_severe_ = metrics.severe_backpressure;
  if (!last_backpressure_) last_clean_ = engine->parallelism();
  for (int v = 0; v < n_ops; ++v) {
    if (last_labels_[v] == 1) {
      bracket_lo_[v] = std::max(bracket_lo_[v], rec[v] + 1);
      // Bottleneck evidence wins a contradiction (noise can mislabel 0).
      bracket_hi_[v] = std::max(bracket_hi_[v], bracket_lo_[v]);
    } else if (last_labels_[v] == 0) {
      bracket_hi_[v] =
          std::max(bracket_lo_[v], std::min(bracket_hi_[v], rec[v]));
    }
  }
  const ml::Matrix& emb = tuner_->CachedAgnosticEmbeddings(
      cluster_, engine->graph(), engine->current_source_rates());
  const int p_max = engine->max_parallelism();
  for (int v = 0; v < engine->graph().num_operators(); ++v) {
    if (last_labels_[v] < 0) continue;
    ml::LabeledSample s;
    s.embedding = emb.Row(v);
    s.parallelism = rec[v];
    s.label = last_labels_[v];
    std::vector<ml::LabeledSample> induced{s, s, s};  // 3x weight
    if (s.label == 1 && s.parallelism > 1) {
      ml::LabeledSample lower = s;
      lower.parallelism = std::max(1, s.parallelism / 2);
      induced.push_back(lower);
    } else if (s.label == 0 && s.parallelism < p_max) {
      ml::LabeledSample higher = s;
      higher.parallelism = std::min(p_max, 2 * s.parallelism);
      induced.push_back(higher);
    }
    for (ml::LabeledSample& is : induced) {
      dataset_.push_back(is);
      accumulated_->push_back(std::move(is));
    }
    // FIFO eviction: recent feedback reflects the current workload and
    // model state; stale scale-up labels must not dominate forever.
    if (accumulated_->size() > kMaxAccumulatedSamples) {
      accumulated_->erase(
          accumulated_->begin(),
          accumulated_->begin() +
              (accumulated_->size() - kMaxAccumulatedSamples));
    }
  }
  return budget_spent;
}

Result<baselines::TuningOutcome> StreamTuneTuner::Session::Finish() {
  // A failed scale-down probe at the iteration limit must not leave the job
  // backpressured: revert to the last configuration known to run clean.
  if (last_backpressure_ && !last_clean_.empty() &&
      last_clean_ != engine_->parallelism()) {
    ST_RETURN_NOT_OK(loop_.Deploy(last_clean_));
    ST_ASSIGN_OR_RETURN(sim::JobMetrics metrics, loop_.Measure());
    last_backpressure_ = metrics.job_backpressure;
    last_severe_ = metrics.severe_backpressure;
    ++outcome_.rollbacks;
  }

  loop_.FillProgress(&outcome_);
  outcome_.ended_with_backpressure = last_severe_;
  loop_.FillFaults(&outcome_);
  return outcome_;
}

Result<std::unique_ptr<baselines::TuningSession>>
StreamTuneTuner::NewSession(sim::StreamEngine* engine) {
  auto session = std::make_unique<Session>(this, engine);
  ST_RETURN_NOT_OK(session->Init());
  return std::unique_ptr<baselines::TuningSession>(std::move(session));
}

}  // namespace streamtune::core
