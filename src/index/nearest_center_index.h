// Exact nearest-center search: sound lower-bound prune -> GED only on
// survivors.
//
// Drop-in replacement for the linear graph::NearestCenter scan over a
// bundle's cluster centers (Algorithm 2, line 1, and the KB admission
// path). The result is bit-identical to the linear scan — same index, same
// distance — while most centers are settled by a cheap bound instead of an
// A* search:
//
//   1. BOUND (sound, cheap): FeatureLowerBound over each column's stored
//      scalar features (node count, edge count, operator-type histogram)
//      is an admissible GED lower bound.
//   2. PRUNE + VERIFY: columns are visited in (lower bound ascending, id
//      ascending) order. The first one — the *probe*, the lowest-id
//      column with the minimum bound — gets the single unthresholded GED
//      call, so `best` starts small. Every later column whose bound does
//      not exceed `best` is
//      measured with a threshold-pruned GED search at threshold = best;
//      the first one whose bound exceeds `best` ends the search outright
//      (everything after it is bounded even higher).
//
// Exactness argument (property-tested in tests/index_test.cc, documented in
// DESIGN.md §13): `best` is always an exact distance achieved by some
// candidate, and it only decreases. A candidate with true distance d* =
// min never gets pruned (its lower bound is <= d* <= best) and its search
// runs at threshold >= d*, so it completes exactly. Threshold-pruned
// non-answers report a value strictly greater than the threshold (hence
// greater than the final best) and cannot displace the minimum; equal
// distances resolve to the lowest index, matching std::min_element. The
// one precondition is that no search exhausts its expansion budget — with
// the default 500k budget and the <= 63-operator DAGs this repo builds,
// exhaustion does not occur (and the randomized equality test would catch
// it if it did).
//
// Thread safety: Nearest() is const and safe to call concurrently on a
// shared index (query stats sit behind an internal mutex), provided the
// usual graph contract holds — accessor-returned graphs adjacency-warmed
// before publication, exactly as KB snapshots already guarantee. Copies
// and moves transfer the columns but start with cold query stats,
// mirroring how graph copies start with cold lazy caches
// (JobGraph::WarmAdjacency).

#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <limits>
#include <mutex>
#include <vector>

#include "common/annotations.h"
#include "dataflow/job_graph.h"
#include "dataflow/operator.h"
#include "graph/ged_cache.h"

namespace streamtune::index {

/// The scalar features feeding the sound lower bound: exactly the signals
/// graph::LabelSetLowerBound reads (label multiset + edge count).
struct GraphFeatures {
  int32_t nodes = 0;
  int32_t edges = 0;
  std::array<int32_t, kNumOperatorTypes> type_hist{};

  bool operator==(const GraphFeatures&) const = default;
};

/// Isomorphism-invariant: node count, edge count and the operator-type
/// multiset do not depend on operator ids.
GraphFeatures ComputeGraphFeatures(const JobGraph& g);

/// Admissible GED lower bound from features alone. For valid DAGs (no
/// antiparallel edge pairs — guaranteed by JobGraph::Validate, which every
/// admitted record passes) this equals graph::LabelSetLowerBound(a, b):
/// max(n_a, n_b) - sum_t min(hist_a[t], hist_b[t]) + |e_a - e_b|.
double FeatureLowerBound(const GraphFeatures& a, const GraphFeatures& b);

class NearestCenterIndex {
 public:
  /// Resolves a column id to its graph. The index stores only features
  /// (40 B per graph); graph ownership stays with the caller — a bundle's
  /// cluster vector, say.
  using GraphAccessor = std::function<const JobGraph&(int)>;

  NearestCenterIndex() = default;
  NearestCenterIndex(const NearestCenterIndex& other) { CopyFrom(other); }
  NearestCenterIndex& operator=(const NearestCenterIndex& other) {
    if (this != &other) CopyFrom(other);
    return *this;
  }
  NearestCenterIndex(NearestCenterIndex&& other) noexcept {
    MoveFrom(other);
  }
  NearestCenterIndex& operator=(NearestCenterIndex&& other) noexcept {
    if (this != &other) MoveFrom(other);
    return *this;
  }

  /// Appends `g` as the next column (computes its features).
  void Insert(const JobGraph& g);

  int size() const { return static_cast<int>(features_.size()); }
  bool empty() const { return features_.empty(); }

  struct NearestResult {
    /// Argmin column (-1 on an empty index). On ties the lowest index,
    /// matching std::min_element over a full distance vector.
    int index = -1;
    /// Exact GED to column `index` (+inf on an empty index).
    double distance = std::numeric_limits<double>::infinity();
    /// GED searches issued (including cache-served ones).
    int evaluated = 0;
  };

  /// The pruned search. `graph_at` must resolve every id in [0, size());
  /// `cache` (optional) is consulted exactly like the linear scan consults
  /// it — GedCache's order-independent answer policy is what keeps results
  /// stable under either traversal order.
  NearestResult Nearest(const JobGraph& query, const GraphAccessor& graph_at,
                        graph::GedCache* cache = nullptr) const;

  /// Cumulative query-side counters since construction (copies start at
  /// zero). candidates - evaluated = total GED calls avoided.
  struct QueryStats {
    long long queries = 0;
    long long candidates = 0;
    long long evaluated = 0;
  };
  QueryStats query_stats() const;

 private:
  void CopyFrom(const NearestCenterIndex& other);
  void MoveFrom(NearestCenterIndex& other);
  void RecordQuery(int candidates, int evaluated) const;

  std::vector<GraphFeatures> features_;

  /// Guards only the cumulative counters: Nearest() is logically const and
  /// concurrent, so the stats it maintains live behind their own mutex
  /// (same shape as the lazily-warmed members of PerfModel).
  mutable std::mutex stats_mu_;
  mutable QueryStats stats_ STREAMTUNE_GUARDED_BY(stats_mu_);
};

}  // namespace streamtune::index
