// Offline pre-training phase (Sec. III / IV-A).
//
// Pipeline: cluster the historical dataflow DAGs with GED k-means (Sec.
// IV-C), then per cluster train a GNN-based encoder + MLP prediction head on
// the operator-level bottleneck classification task, with the recorded
// parallelism degrees injected through the FUSE layer and masked BCE over
// the Algorithm-1 labels. The resulting bundle serves the online phase:
// nearest-cluster lookup, frozen encoders, and warm-up datasets of
// (parallelism-agnostic embedding, parallelism, label) samples.

#pragma once

#include <vector>

#include "core/history.h"
#include "dataflow/feature_encoder.h"
#include "graph/ged_kmeans.h"
#include "index/nearest_center_index.h"
#include "ml/bottleneck_model.h"
#include "ml/gnn.h"
#include "ml/nn.h"

namespace streamtune::core {

/// Pre-training knobs.
struct PretrainOptions {
  /// When false, skip clustering and train one global encoder (the paper's
  /// limited-dataset fallback, Sec. VII).
  bool use_clustering = true;
  /// Number of clusters; 0 = choose with the elbow method over [2, max_k].
  int k = 0;
  int max_k = 5;
  graph::KMeansOptions kmeans;
  int hidden_dim = 32;
  int gnn_layers = 3;
  int epochs = 30;
  double learning_rate = 3e-3;
  uint64_t seed = 13;
  /// Worker threads for the offline pipeline (clustering + per-cluster
  /// training). 0 = hardware_concurrency, 1 = the old serial behaviour.
  /// Overrides `kmeans.num_threads`. Every per-cluster RNG stream is drawn
  /// up front in cluster order, so trained weights are bit-identical for
  /// any thread count.
  int num_threads = 0;
};

/// One cluster's trained artifacts.
struct ClusterModel {
  ml::GnnEncoder encoder;
  ml::Mlp head;  ///< pre-training prediction head (2-layer MLP -> logit)
  JobGraph center;
  /// Indices into the corpus of the records assigned to this cluster.
  std::vector<int> record_indices;
};

/// The output of pre-training: per-cluster encoders plus corpus access.
class PretrainedBundle {
 public:
  PretrainedBundle(std::vector<ClusterModel> clusters,
                   std::vector<HistoryRecord> records,
                   FeatureEncoder encoder)
      : clusters_(std::move(clusters)),
        records_(std::move(records)),
        feature_encoder_(encoder) {
    for (const ClusterModel& c : clusters_) center_index_.Insert(c.center);
  }

  int num_clusters() const { return static_cast<int>(clusters_.size()); }
  const ClusterModel& cluster(int c) const { return clusters_[c]; }
  const std::vector<HistoryRecord>& records() const { return records_; }
  const FeatureEncoder& feature_encoder() const { return feature_encoder_; }

  /// Nearest cluster for a target DAG by GED to the cluster centers
  /// (Algorithm 2, line 1). Served by the center index's lower-bound
  /// pruned search — bit-identical to a linear center scan.
  int AssignCluster(const JobGraph& g) const;

  /// The nearest-center index over the cluster centers (one feature block
  /// per center), built at construction.
  /// Admission uses it with the KB's shared GedCache; AssignCluster uses
  /// it cache-less (both give the same answer — see
  /// index/nearest_center_index.h on order independence).
  const index::NearestCenterIndex& center_index() const {
    return center_index_;
  }

  /// Parallelism-agnostic embeddings of `g`'s operators (rows) under
  /// cluster c's frozen encoder, with `rates` as the current source rates.
  /// Each row is [H^(T)_v | mean source-rate encoding of the job]: the
  /// appended rate block is a skip connection that hands the fine-tuned
  /// model the job's rate level directly (width = hidden_dim +
  /// FeatureEncoder::kRateFeatures).
  ml::Matrix AgnosticEmbeddings(int c, const JobGraph& g,
                                const std::vector<double>& rates) const;

  /// One job's inputs to BatchedAgnosticEmbeddings (caller-owned, must
  /// outlive the call).
  struct EmbeddingQuery {
    const JobGraph* graph = nullptr;
    const std::vector<double>* rates = nullptr;
  };

  /// Batched AgnosticEmbeddings: one GNN-layer matmul for the whole batch
  /// instead of one per job (see GnnEncoder::ForwardAgnosticBatched), with
  /// graph contexts deduplicated by graph name within the batch. Element i
  /// of the result is bit-identical to
  /// AgnosticEmbeddings(c, *queries[i].graph, *queries[i].rates) under the
  /// active kernel dispatch.
  std::vector<ml::Matrix> BatchedAgnosticEmbeddings(
      int c, const std::vector<EmbeddingQuery>& queries) const;

  /// Bottleneck probability from the *pre-training* head (used to sanity-
  /// check pre-training; the online phase swaps in the fine-tuned model).
  std::vector<double> PretrainHeadProbabilities(
      int c, const JobGraph& g, const std::vector<double>& rates,
      const std::vector<int>& parallelism) const;

  /// Warm-up dataset for fine-tuning (Algorithm 2, line 3): embeddings +
  /// recorded parallelisms + labels from up to `max_records` sampled records
  /// of cluster c.
  std::vector<ml::LabeledSample> WarmUpDataset(int c, int max_records,
                                               uint64_t seed) const;

 private:
  std::vector<ClusterModel> clusters_;
  std::vector<HistoryRecord> records_;
  FeatureEncoder feature_encoder_;
  index::NearestCenterIndex center_index_;
};

/// Runs clustering + per-cluster supervised pre-training on a corpus.
class Pretrainer {
 public:
  explicit Pretrainer(PretrainOptions options = {}) : options_(options) {}

  /// Trains and returns the bundle. Requires a non-empty corpus with at
  /// least one labeled operator.
  Result<PretrainedBundle> Run(std::vector<HistoryRecord> records) const;

  const PretrainOptions& options() const { return options_; }

 private:
  PretrainOptions options_;
};

}  // namespace streamtune::core
