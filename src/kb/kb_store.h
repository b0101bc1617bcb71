// Knowledge-base persistence: a versioned, checksummed on-disk format.
//
// StreamTune's "learning from the past" loop needs durable state shared
// across processes: the pre-trained bundle (cluster centers + GNN weights +
// corpus), per-cluster appearance counts, and per-job artifacts accumulated
// by online tuning (fine-tune samples and ContTune-style GP observations).
// This file defines that state (KnowledgeBase) and its round-trip.
//
// File layout (text, self-describing):
//
//   STKB <version>
//   sections <n>
//   section <name> <byte-count> <crc32>
//   <exactly byte-count bytes of section body>
//   ...
//
// SaveKb writes version 1: the sections bundle, stats and jobs, in that
// order. LoadKb also accepts version 2, which appends a fourth section
// "index" (per-record graph signatures that nothing reads any more): its
// header, exact length and CRC are checked like any other section, then
// its body is discarded.
//
// Every section body is length-prefixed and CRC-32 checksummed, so any
// truncation and any bit flip in a persisted KB is detected at load time
// (truncation shortens an exact-length read; flips fail the CRC or the
// header parse). Writes go through CheckedFileWriter (temp file + atomic
// rename), so a crashed or failed save never clobbers the previous KB.

#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "baselines/conttune.h"
#include "core/pretrain.h"
#include "core/serialization.h"
#include "ml/bottleneck_model.h"

namespace streamtune::kb {

/// A (operator, parallelism, ability) observation persisted per job; the
/// same unit ContTuneTuner exports/imports.
using GpObservation = baselines::GpSample;

/// Everything the KB remembers about one job (keyed by graph name).
struct JobKnowledge {
  /// Fine-tune samples from converged tuning sessions (StreamTune M_f).
  std::vector<ml::LabeledSample> feedback;
  /// GP observations from converged tuning sessions (ContTune surrogate).
  std::vector<GpObservation> gp_observations;
  /// Tuning sessions admitted for this job.
  long long admissions = 0;
};

/// The full knowledge-base state. Snapshots share the (immutable) bundle by
/// pointer; writers replace it wholesale, never mutate it in place.
struct KnowledgeBase {
  std::shared_ptr<const core::PretrainedBundle> bundle;
  /// Admissions assigned per cluster since the last (re-)pre-training,
  /// seeded with the cluster sizes (the paper's appearance counts feed the
  /// similarity-center choice; here they drive the drift trigger).
  std::vector<long long> appearance;
  /// Per-job accumulated artifacts.
  std::map<std::string, JobKnowledge> jobs;
  /// Corpus size when the bundle was last (re-)pre-trained.
  long long pretrain_corpus_size = 0;
  /// Admissions since the last pre-training whose assignment distance
  /// exceeded the drift threshold.
  long long drifted_since_pretrain = 0;
  /// Total admissions over the KB's lifetime.
  long long admissions_total = 0;
};

/// Structural invariants every in-memory and loaded KB must satisfy
/// (non-null bundle, appearance size == cluster count, counters coherent).
Status ValidateKb(const KnowledgeBase& kb);

/// Saves `kb` to `path`: temp file + atomic rename, per-section CRC-32.
[[nodiscard]] Status SaveKb(const KnowledgeBase& kb, const std::string& path);

/// Loads a KB saved with SaveKb. Strict: version mismatches, truncation,
/// checksum failures and malformed bodies all return an error Status (never
/// abort). All contained job graphs are adjacency-warmed, so the returned
/// state can be shared read-only across threads.
[[nodiscard]] Result<KnowledgeBase> LoadKb(const std::string& path);

/// Warms the lazy adjacency caches of every graph reachable from `bundle`
/// (cluster centers + corpus records). Must run before a bundle is shared
/// across threads — see JobGraph::WarmAdjacency.
void WarmBundleGraphs(const core::PretrainedBundle& bundle);

}  // namespace streamtune::kb
