// Concurrent knowledge-base service: snapshot-isolated reads, one writer.
//
// Many tuning sessions run at once against one KB. Readers must never see a
// torn state (a bundle from one pre-training with appearance counts from
// another), and admissions must not block in-flight sessions. The classic
// answer is copy-on-write snapshot isolation:
//
//   - the service holds a shared_ptr to an immutable KbSnapshot; Snapshot()
//     hands out that pointer under a brief mutex, so a session keeps one
//     consistent view for as long as it likes, no matter what writers do;
//   - Admit() is the single writer path: it copies the current state,
//     applies the admission (and, when the drift trigger fires, a full
//     re-pre-training) to the private copy, then publishes the copy with a
//     pointer swap. Writers serialize among themselves; readers never wait
//     on a writer and vice versa.
//
// The snapshot's job graphs are adjacency-warmed and its models are frozen,
// so concurrent sessions can run inference against one snapshot safely.

#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/annotations.h"
#include "core/streamtune_tuner.h"
#include "kb/kb_store.h"
#include "kb/kb_updater.h"

namespace streamtune::kb {

/// One immutable, versioned view of the knowledge base.
class KbSnapshot {
 public:
  const KnowledgeBase& kb() const { return kb_; }
  /// Monotonically increasing publication counter (0 = initial state).
  long long version() const { return version_; }
  std::shared_ptr<const core::PretrainedBundle> bundle() const {
    return kb_.bundle;
  }
  /// What the KB knows about `job`; nullptr when it was never admitted.
  const JobKnowledge* job(const std::string& name) const;

  /// A StreamTune tuner over this snapshot's bundle, with `job`'s
  /// accumulated fine-tune feedback pre-seeded (the warm start).
  std::unique_ptr<core::StreamTuneTuner> NewTuner(
      const std::string& job, core::StreamTuneOptions options = {}) const;

  /// One request to NewTunersBatched: the job to warm-start, plus (when
  /// known up front) the graph and rates its first recommendation will see,
  /// so the new tuner's embedding cache can be primed by the batched
  /// encoder pass. `graph`/`rates` are caller-owned and may be null — such
  /// tuners are created but skip the batched pass.
  struct TunerRequest {
    std::string job;
    const JobGraph* graph = nullptr;
    const std::vector<double>* rates = nullptr;
  };

  /// NewTuner for a whole scheduler wave: creates one warm-started tuner
  /// per request, then runs core::StreamTuneTuner::BatchedInference over
  /// every request that supplied its graph and rates — one batched GNN
  /// forward per cluster instead of one per job. Result order matches
  /// `requests`.
  std::vector<std::unique_ptr<core::StreamTuneTuner>> NewTunersBatched(
      const std::vector<TunerRequest>& requests,
      core::StreamTuneOptions options = {}) const;

 private:
  friend class KbService;
  KnowledgeBase kb_;
  long long version_ = 0;
};

/// Writer-side load signals, the control plane's backpressure input. A
/// consistent sample: counters are monotone across successive Stats() calls
/// and always satisfy the invariants checked by Consistent().
struct KbServiceStats {
  /// Version of the currently published snapshot (one bump per admission).
  long long snapshot_version = 0;
  /// Admissions that entered Admit() so far (includes in-flight ones).
  long long admissions_started = 0;
  /// Admissions that published a snapshot and returned.
  long long admissions_completed = 0;
  /// Admissions that triggered an inline re-pre-training.
  long long repretrains = 0;

  /// GED-cache counters at sample time — how much GED work the cache saved
  /// the admission path's nearest-center searches (bench + watchdog
  /// signal). Sampled from the shared cache's atomics right after the
  /// consistent block; monotone like the other counters.
  long long ged_hits_exact = 0;
  long long ged_hits_certified = 0;
  long long ged_misses = 0;
  long long ged_entries = 0;

  /// Per-pair GED policy histogram (how cache misses were routed: exact
  /// A*, bounded AStar+-LSa, or structural upper bound only) plus how many
  /// searches ran out of expansion budget. Same sampling discipline as the
  /// hit/miss counters above.
  long long ged_policy_exact = 0;
  long long ged_policy_bounded = 0;
  long long ged_policy_upper = 0;
  long long ged_budget_exhausted = 0;

  long long ged_hits() const { return ged_hits_exact + ged_hits_certified; }
  double ged_hit_rate() const {
    const long long total = ged_hits() + ged_misses;
    return total == 0 ? 0.0 : static_cast<double>(ged_hits()) / total;
  }

  /// Writers queued or in flight behind the copy-on-write writer lock.
  long long writer_queue_depth() const {
    return admissions_started - admissions_completed;
  }
  /// Admissions the published snapshot does not yet reflect — how far the
  /// reader-visible state lags the write stream ("snapshot age").
  long long snapshot_age() const { return writer_queue_depth(); }

  /// Internal invariants of one sample.
  bool Consistent() const {
    return admissions_started >= admissions_completed &&
           admissions_completed >= 0 && snapshot_version >= 0 &&
           repretrains >= 0 && repretrains <= admissions_completed &&
           snapshot_version == admissions_completed &&
           ged_hits_exact >= 0 && ged_hits_certified >= 0 &&
           ged_misses >= 0 && ged_entries >= 0 && ged_policy_exact >= 0 &&
           ged_policy_bounded >= 0 && ged_policy_upper >= 0 &&
           ged_budget_exhausted >= 0 &&
           ged_budget_exhausted <= ged_policy_exact + ged_policy_bounded;
  }
  /// Monotonicity between an earlier sample and this one.
  bool MonotoneSince(const KbServiceStats& earlier) const {
    return snapshot_version >= earlier.snapshot_version &&
           admissions_started >= earlier.admissions_started &&
           admissions_completed >= earlier.admissions_completed &&
           repretrains >= earlier.repretrains &&
           ged_hits_exact >= earlier.ged_hits_exact &&
           ged_hits_certified >= earlier.ged_hits_certified &&
           ged_misses >= earlier.ged_misses &&
           ged_entries >= earlier.ged_entries &&
           ged_policy_exact >= earlier.ged_policy_exact &&
           ged_policy_bounded >= earlier.ged_policy_bounded &&
           ged_policy_upper >= earlier.ged_policy_upper &&
           ged_budget_exhausted >= earlier.ged_budget_exhausted;
  }
};

/// The multi-session KB server. Thread-safe: any number of threads may call
/// Snapshot()/Admit()/Save() concurrently.
class KbService {
 public:
  /// Opens a KB previously written with Save()/SaveKb().
  static Result<std::unique_ptr<KbService>> Open(const std::string& path,
                                                 KbUpdateOptions options = {});

  /// Builds a fresh KB by pre-training over `records` (options.pretrain).
  static Result<std::unique_ptr<KbService>> Build(
      std::vector<core::HistoryRecord> records, KbUpdateOptions options = {});

  /// Wraps an already pre-trained bundle (e.g. LoadBundle output).
  static std::unique_ptr<KbService> FromBundle(
      std::shared_ptr<const core::PretrainedBundle> bundle,
      KbUpdateOptions options = {});

  /// The current immutable snapshot. Never blocks on writers beyond a
  /// pointer copy; the returned view stays valid and consistent for the
  /// lifetime of the shared_ptr.
  std::shared_ptr<const KbSnapshot> Snapshot() const;

  /// Admits one converged tuning session. Serialized with other writers;
  /// runs drift-triggered re-pre-training inline when due (the outcome's
  /// `repretrained` flag reports it) and publishes a new snapshot.
  Result<AdmissionOutcome> Admit(const AdmissionRecord& rec);

  /// Durably saves the latest snapshot (atomic temp-file + rename).
  Status Save(const std::string& path) const;

  /// One consistent sample of the writer-side load counters. Samples taken
  /// later observe counters at least as large (monotone), and every sample
  /// satisfies KbServiceStats::Consistent().
  KbServiceStats Stats() const;

  /// The latest published version.
  long long version() const { return Snapshot()->version(); }

  const KbUpdateOptions& options() const { return updater_.options(); }
  graph::GedCache* ged_cache() { return &cache_; }

 private:
  KbService(KnowledgeBase kb, KbUpdateOptions options);

  Result<AdmissionOutcome> AdmitImpl(const AdmissionRecord& rec);

  graph::GedCache cache_;
  KbUpdater updater_;

  /// Serializes Admit() writers (copy -> mutate -> publish).
  std::mutex writer_mu_;
  /// Guards only the snapshot pointer swap/read.
  mutable std::mutex snapshot_mu_;
  std::shared_ptr<const KbSnapshot> snapshot_
      STREAMTUNE_GUARDED_BY(snapshot_mu_);
  /// Bumped on Admit() entry, before the writer lock — the queue-depth
  /// signal must see writers that are still waiting.
  std::atomic<long long> admissions_started_{0};
  /// Completion counters advance together with the snapshot swap, under
  /// snapshot_mu_, so a Stats() sample is internally consistent.
  long long admissions_completed_ STREAMTUNE_GUARDED_BY(snapshot_mu_) = 0;
  long long repretrains_ STREAMTUNE_GUARDED_BY(snapshot_mu_) = 0;
};

}  // namespace streamtune::kb
