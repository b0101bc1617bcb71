// StreamTune's online fine-tuning phase — Algorithm 2.
//
// Given the pre-trained bundle: assign the target DAG to its nearest cluster
// (GED), retrieve the frozen encoder, build a warm-up dataset of
// (embedding, parallelism, label) samples, then iterate: fit the monotonic
// bottleneck model M_f, recommend — per operator, in topological order — the
// minimum parallelism whose predicted bottleneck probability clears the
// threshold (a binary search, valid because M_f is monotonic), redeploy,
// monitor, fold the fresh Algorithm-1 labels back into the dataset. Stops
// when no backpressure is observed and the recommendation is stable.

#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "baselines/tuner.h"
#include "core/pretrain.h"
#include "ml/gbdt.h"
#include "ml/nn_classifier.h"
#include "ml/svm.h"

namespace streamtune::core {

/// Which model family backs the fine-tuned prediction layer M_f.
enum class FineTuneModel { kSvm, kXgboost, kNn };

const char* FineTuneModelName(FineTuneModel m);

/// Online-phase knobs.
struct StreamTuneOptions {
  /// Default M_f family. The paper reports SVM and XGBoost as comparable
  /// (Fig. 11a) and uses SVM for its headline runs; in this implementation
  /// the monotonic GBDT brackets per-operator thresholds noticeably more
  /// tightly than the random-Fourier-feature SVM approximation, so it is
  /// the default.
  FineTuneModel model = FineTuneModel::kXgboost;
  int max_iterations = 14;
  /// History records sampled into the warm-up dataset (Algorithm 2 line 3).
  int warmup_records = 120;
  /// An operator is considered safe at parallelism p when
  /// P(bottleneck | h, p) falls below this.
  double probability_threshold = 0.5;
  ml::SvmConfig svm;
  ml::GbdtConfig gbdt;
  ml::NnClassifierConfig nn;
  uint64_t seed = 19;
};

/// The StreamTune online tuner.
class StreamTuneTuner : public baselines::Tuner {
 public:
  StreamTuneTuner(std::shared_ptr<const PretrainedBundle> bundle,
                  StreamTuneOptions options = {});

  std::string name() const override;

  /// Starts one resumable Algorithm-2 tuning process on `engine` (already
  /// deployed): assigns the cluster, builds the warm-up dataset and takes
  /// the pre-tuning measurement, the only part that can fail on a pristine
  /// engine. Each Step() is one fit -> recommend -> deploy -> measure ->
  /// fold iteration; Finish() reverts a failed scale-down probe to the last
  /// clean deployment. The tuner must outlive the session; a tuner's
  /// sessions must not overlap (they share the embedding cache and feedback
  /// accumulator).
  Result<std::unique_ptr<baselines::TuningSession>> NewSession(
      sim::StreamEngine* engine) override;

  /// One pending tuning decision for BatchedInference: the tuner about to
  /// run, the job graph it will tune, and the source rates its first
  /// recommendation will see. All pointers are caller-owned and must
  /// outlive the call.
  struct PendingJob {
    StreamTuneTuner* tuner = nullptr;
    const JobGraph* graph = nullptr;
    const std::vector<double>* rates = nullptr;
  };

  /// Cross-job batched inference: primes each pending tuner's embedding
  /// cache with one batched encoder pass per (bundle, cluster) group
  /// instead of one full GNN forward per job (see
  /// PretrainedBundle::BatchedAgnosticEmbeddings). Jobs whose cache is
  /// already valid for (cluster, graph, rates) are skipped; when a tuner
  /// appears twice the last entry wins. The primed embeddings are
  /// bit-identical to what the tuner's own lazy path would compute, so this
  /// is purely a throughput optimization for schedulers that dispatch many
  /// tuning sessions at once.
  static void BatchedInference(const std::vector<PendingJob>& jobs);

  /// One recommendation pass (Algorithm 2 lines 6-9) with a fitted model:
  /// per operator, the minimum degree predicted bottleneck-free. Exposed
  /// for unit tests.
  std::vector<int> Recommend(const sim::StreamEngine& engine,
                             const ml::BottleneckModel& model,
                             int cluster) const;

  /// Fresh, unfitted M_f of the configured family.
  std::unique_ptr<ml::BottleneckModel> MakeModel(int embedding_dim) const;

  /// Seeds the per-job feedback accumulator with samples from earlier
  /// tuning sessions (e.g. a knowledge base), so a fresh process
  /// warm-starts with the job's own fine-tune data instead of only the
  /// cluster's generic warm-up corpus. Replaces any existing accumulation
  /// for `job`; truncated FIFO to the accumulator bound.
  void SeedFeedback(const std::string& job,
                    std::vector<ml::LabeledSample> samples);

  /// The fine-tune samples accumulated for `job` across this tuner's
  /// sessions — the payload a knowledge-base admission persists.
  const std::vector<ml::LabeledSample>& FeedbackFor(
      const std::string& job) const;

 private:
  class Session;

  /// Minimum p in [1, p_max] with P(bottleneck) below the threshold; p_max
  /// if none qualifies. Binary search (monotonic models) — the same search
  /// is applied to the NN ablation, whose non-monotonic predictions can
  /// mislead it (Fig. 11a).
  int MinSafeParallelism(const ml::BottleneckModel& model,
                         const std::vector<double>& embedding,
                         int p_max) const;

  /// Returns the cached agnostic embeddings when (cluster, graph, rates)
  /// are unchanged since the previous call; re-encodes otherwise. Within a
  /// tuning session the graph never changes and the rates rarely do, yet
  /// every Recommend and every feedback fold used to re-run the frozen
  /// encoder from scratch.
  const ml::Matrix& CachedAgnosticEmbeddings(
      int cluster, const JobGraph& g,
      const std::vector<double>& rates) const;

  std::shared_ptr<const PretrainedBundle> bundle_;
  StreamTuneOptions options_;

  struct EmbeddingCache {
    bool valid = false;
    int cluster = -1;
    std::string graph_name;
    int num_operators = 0;
    std::vector<double> rates;
    ml::Matrix embeddings;
  };
  /// mutable: a pure memo — Recommend() is logically const. The tuner is
  /// single-threaded (like its accumulated_ state).
  mutable EmbeddingCache embedding_cache_;

  /// Per-job feedback collected across tuning processes (keyed by job
  /// name); bounded so long schedules cannot grow the fit unboundedly.
  static constexpr size_t kMaxAccumulatedSamples = 1500;
  std::map<std::string, std::vector<ml::LabeledSample>> accumulated_;
};

}  // namespace streamtune::core
