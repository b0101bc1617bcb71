#include "kb/kb_service.h"

#include <utility>

namespace streamtune::kb {

namespace {

/// Initial KB state around a bundle: appearance counts seeded with the
/// cluster sizes, the whole corpus counted as pre-trained.
KnowledgeBase StateFromBundle(
    std::shared_ptr<const core::PretrainedBundle> bundle) {
  KnowledgeBase kb;
  kb.appearance.assign(bundle->num_clusters(), 0);
  for (int c = 0; c < bundle->num_clusters(); ++c) {
    kb.appearance[c] =
        static_cast<long long>(bundle->cluster(c).record_indices.size());
  }
  kb.pretrain_corpus_size = static_cast<long long>(bundle->records().size());
  kb.bundle = std::move(bundle);
  return kb;
}

}  // namespace

const JobKnowledge* KbSnapshot::job(const std::string& name) const {
  auto it = kb_.jobs.find(name);
  return it == kb_.jobs.end() ? nullptr : &it->second;
}

std::unique_ptr<core::StreamTuneTuner> KbSnapshot::NewTuner(
    const std::string& job_name, core::StreamTuneOptions options) const {
  auto tuner = std::make_unique<core::StreamTuneTuner>(kb_.bundle, options);
  if (const JobKnowledge* known = job(job_name)) {
    tuner->SeedFeedback(job_name, known->feedback);
  }
  return tuner;
}

std::vector<std::unique_ptr<core::StreamTuneTuner>>
KbSnapshot::NewTunersBatched(const std::vector<TunerRequest>& requests,
                             core::StreamTuneOptions options) const {
  std::vector<std::unique_ptr<core::StreamTuneTuner>> tuners;
  tuners.reserve(requests.size());
  std::vector<core::StreamTuneTuner::PendingJob> pending;
  pending.reserve(requests.size());
  for (const TunerRequest& req : requests) {
    tuners.push_back(NewTuner(req.job, options));
    if (req.graph != nullptr && req.rates != nullptr) {
      pending.push_back(core::StreamTuneTuner::PendingJob{
          tuners.back().get(), req.graph, req.rates});
    }
  }
  core::StreamTuneTuner::BatchedInference(pending);
  return tuners;
}

KbService::KbService(KnowledgeBase kb, KbUpdateOptions options)
    : updater_(options, &cache_) {
  auto snapshot = std::make_shared<KbSnapshot>();
  snapshot->kb_ = std::move(kb);
  snapshot->version_ = 0;
  snapshot_ = std::move(snapshot);
}

Result<std::unique_ptr<KbService>> KbService::Open(const std::string& path,
                                                   KbUpdateOptions options) {
  ST_ASSIGN_OR_RETURN(KnowledgeBase kb, LoadKb(path));
  return std::unique_ptr<KbService>(
      new KbService(std::move(kb), std::move(options)));
}

Result<std::unique_ptr<KbService>> KbService::Build(
    std::vector<core::HistoryRecord> records, KbUpdateOptions options) {
  core::Pretrainer pretrainer(options.pretrain);
  ST_ASSIGN_OR_RETURN(core::PretrainedBundle trained,
                      pretrainer.Run(std::move(records)));
  auto bundle =
      std::make_shared<const core::PretrainedBundle>(std::move(trained));
  return FromBundle(std::move(bundle), std::move(options));
}

std::unique_ptr<KbService> KbService::FromBundle(
    std::shared_ptr<const core::PretrainedBundle> bundle,
    KbUpdateOptions options) {
  WarmBundleGraphs(*bundle);
  return std::unique_ptr<KbService>(
      new KbService(StateFromBundle(std::move(bundle)), std::move(options)));
}

std::shared_ptr<const KbSnapshot> KbService::Snapshot() const {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  return snapshot_;
}

Result<AdmissionOutcome> KbService::Admit(const AdmissionRecord& rec) {
  // The queue-depth signal counts this writer from the moment it arrives,
  // including the time it spends waiting on writer_mu_; a failed admission
  // un-counts itself so the depth converges back to zero.
  admissions_started_.fetch_add(1, std::memory_order_relaxed);
  Result<AdmissionOutcome> outcome = AdmitImpl(rec);
  if (!outcome.ok()) {
    admissions_started_.fetch_sub(1, std::memory_order_relaxed);
  }
  return outcome;
}

Result<AdmissionOutcome> KbService::AdmitImpl(const AdmissionRecord& rec) {
  std::lock_guard<std::mutex> writer(writer_mu_);

  // Copy-on-write: mutate a private copy of the current state. The copy
  // shares the (immutable) bundle pointer; the updater replaces it rather
  // than mutating through it, so published snapshots are never touched.
  std::shared_ptr<const KbSnapshot> current = Snapshot();
  KnowledgeBase kb = current->kb();

  ST_ASSIGN_OR_RETURN(AdmissionOutcome outcome, updater_.Admit(&kb, rec));
  if (updater_.NeedsRepretrain(kb)) {
    ST_RETURN_NOT_OK(updater_.Repretrain(&kb));
    outcome.repretrained = true;
  }

  auto next = std::make_shared<KbSnapshot>();
  next->kb_ = std::move(kb);
  next->version_ = current->version() + 1;
  {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    snapshot_ = std::move(next);
    ++admissions_completed_;
    if (outcome.repretrained) ++repretrains_;
  }
  return outcome;
}

KbServiceStats KbService::Stats() const {
  KbServiceStats stats;
  {
    // Version and completion counters advance together under snapshot_mu_,
    // so this block yields an internally consistent sample.
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    stats.snapshot_version = snapshot_->version();
    stats.admissions_completed = admissions_completed_;
    stats.repretrains = repretrains_;
  }
  // Read `started` after `completed`: concurrent writers can only grow it,
  // so started >= completed holds in every sample.
  stats.admissions_started = admissions_started_.load(std::memory_order_relaxed);
  // GED-cache counters are sampled outside the consistent block: they are
  // individually monotone atomics, which is all MonotoneSince() asserts.
  const graph::GedCache::Stats ged = cache_.stats();
  stats.ged_hits_exact = static_cast<long long>(ged.hits_exact);
  stats.ged_hits_certified = static_cast<long long>(ged.hits_certified);
  stats.ged_misses = static_cast<long long>(ged.misses);
  stats.ged_entries = static_cast<long long>(ged.entries);
  stats.ged_policy_exact = static_cast<long long>(ged.policy_exact);
  stats.ged_policy_bounded = static_cast<long long>(ged.policy_bounded);
  stats.ged_policy_upper = static_cast<long long>(ged.policy_upper);
  stats.ged_budget_exhausted = static_cast<long long>(ged.budget_exhausted);
  return stats;
}

Status KbService::Save(const std::string& path) const {
  std::shared_ptr<const KbSnapshot> snapshot = Snapshot();
  return SaveKb(snapshot->kb(), path);
}

}  // namespace streamtune::kb
