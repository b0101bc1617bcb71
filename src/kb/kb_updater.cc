#include "kb/kb_updater.h"

#include <algorithm>
#include <utility>

#include "core/serialization.h"
#include "index/nearest_center_index.h"

namespace streamtune::kb {

namespace {

Status ValidateRecord(const core::HistoryRecord& rec) {
  ST_RETURN_NOT_OK(rec.graph.Validate());
  ST_RETURN_NOT_OK(core::ValidateGraphNames(rec.graph));
  const size_t n = static_cast<size_t>(rec.graph.num_operators());
  if (rec.parallelism.size() != n || rec.source_rates.size() != n ||
      rec.labels.size() != n) {
    return Status::InvalidArgument(
        "admission record vectors do not match operator count");
  }
  for (int p : rec.parallelism) {
    if (p < 1) return Status::InvalidArgument("parallelism degree < 1");
  }
  for (int l : rec.labels) {
    if (l < -1 || l > 1) {
      return Status::InvalidArgument("label out of range");
    }
  }
  return Status::OK();
}

/// Appends `extra` to `acc` and keeps only the newest `cap` entries.
template <typename T>
void AppendBounded(std::vector<T>* acc, const std::vector<T>& extra,
                   size_t cap) {
  acc->insert(acc->end(), extra.begin(), extra.end());
  if (acc->size() > cap) {
    acc->erase(acc->begin(), acc->begin() + (acc->size() - cap));
  }
}

}  // namespace

Result<AdmissionOutcome> KbUpdater::Admit(KnowledgeBase* kb,
                                          const AdmissionRecord& rec) const {
  ST_RETURN_NOT_OK(ValidateKb(*kb));
  ST_RETURN_NOT_OK(ValidateRecord(rec.record));
  const core::PretrainedBundle& old = *kb->bundle;

  // Nearest-center assignment by GED (Algorithm 2 line 1, reused for the
  // feedback edge), served by the bundle's center index: the sound lower
  // bound orders and prunes the centers, GED (through the shared cache)
  // verifies survivors. Returns the identical (cluster, exact distance)
  // pair a linear DistancesToCenters scan produces — see
  // index/nearest_center_index.h.
  const index::NearestCenterIndex::NearestResult nearest =
      old.center_index().Nearest(
          rec.record.graph,
          [&old](int c) -> const JobGraph& { return old.cluster(c).center; },
          cache_);
  const int cluster = nearest.index;

  // Append to the corpus: a new bundle sharing the existing cluster models
  // (encoders/heads are immutable once trained, so shallow ClusterModel
  // copies that share parameter nodes are safe for concurrent readers).
  std::vector<core::ClusterModel> clusters;
  clusters.reserve(old.num_clusters());
  for (int c = 0; c < old.num_clusters(); ++c) {
    clusters.push_back(old.cluster(c));
  }
  std::vector<core::HistoryRecord> records = old.records();
  clusters[cluster].record_indices.push_back(
      static_cast<int>(records.size()));
  records.push_back(rec.record);
  auto bundle = std::make_shared<const core::PretrainedBundle>(
      std::move(clusters), std::move(records), old.feature_encoder());
  WarmBundleGraphs(*bundle);
  kb->bundle = std::move(bundle);

  AdmissionOutcome outcome;
  outcome.cluster = cluster;
  outcome.distance = nearest.distance;
  outcome.drifted = nearest.distance > options_.drift_distance;

  kb->appearance[cluster] += 1;
  kb->admissions_total += 1;
  if (outcome.drifted) kb->drifted_since_pretrain += 1;

  JobKnowledge& job = kb->jobs[rec.record.graph.name()];
  job.admissions += 1;
  AppendBounded(&job.feedback, rec.feedback, options_.max_feedback_per_job);
  AppendBounded(&job.gp_observations, rec.gp_observations,
                options_.max_gp_per_job);
  return outcome;
}

bool KbUpdater::NeedsRepretrain(const KnowledgeBase& kb) const {
  if (!kb.bundle) return false;
  const long long corpus = static_cast<long long>(kb.bundle->records().size());
  const long long fresh = corpus - kb.pretrain_corpus_size;
  if (fresh < options_.min_new_records) return false;
  if (kb.drifted_since_pretrain >= options_.drifted_trigger) return true;
  if (kb.pretrain_corpus_size > 0 &&
      static_cast<double>(fresh) /
              static_cast<double>(kb.pretrain_corpus_size) >=
          options_.growth_fraction) {
    return true;
  }
  return false;
}

Status KbUpdater::Repretrain(KnowledgeBase* kb) const {
  ST_RETURN_NOT_OK(ValidateKb(*kb));
  std::vector<core::HistoryRecord> records = kb->bundle->records();
  core::Pretrainer pretrainer(options_.pretrain);
  ST_ASSIGN_OR_RETURN(core::PretrainedBundle trained,
                      pretrainer.Run(std::move(records)));
  auto bundle =
      std::make_shared<const core::PretrainedBundle>(std::move(trained));
  WarmBundleGraphs(*bundle);

  // Re-clustering invalidates the old per-cluster counters: re-seed the
  // appearance counts with the fresh cluster sizes and reset drift state.
  kb->appearance.assign(bundle->num_clusters(), 0);
  for (int c = 0; c < bundle->num_clusters(); ++c) {
    kb->appearance[c] =
        static_cast<long long>(bundle->cluster(c).record_indices.size());
  }
  kb->pretrain_corpus_size =
      static_cast<long long>(bundle->records().size());
  kb->drifted_since_pretrain = 0;
  kb->bundle = std::move(bundle);
  return Status::OK();
}

}  // namespace streamtune::kb
