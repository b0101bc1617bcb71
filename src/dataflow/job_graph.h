// Logical dataflow DAG (JobGraph).
//
// The unit everything else operates on: the simulators deploy it, the GNN
// encodes it, GED compares it, and the tuners recommend one parallelism per
// logical operator in it.

#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "dataflow/operator.h"

namespace streamtune {

/// A directed acyclic graph of logical dataflow operators.
///
/// Operators are addressed by dense integer ids in insertion order. Edges are
/// directed upstream -> downstream. The graph owns derived structure
/// (adjacency, topological order) which is recomputed lazily on demand.
class JobGraph {
 public:
  JobGraph() = default;
  explicit JobGraph(std::string name) : name_(std::move(name)) {}

  // The memoized canonical hash is an atomic, which deletes the default
  // copy/move special members; these transfer the cached value (the hash is
  // a pure function of operators + edges, so a copy shares it).
  JobGraph(const JobGraph& other) { CopyFrom(other); }
  JobGraph& operator=(const JobGraph& other) {
    if (this != &other) CopyFrom(other);
    return *this;
  }
  JobGraph(JobGraph&& other) noexcept { MoveFrom(other); }
  JobGraph& operator=(JobGraph&& other) noexcept {
    if (this != &other) MoveFrom(other);
    return *this;
  }

  /// Adds an operator and returns its id.
  int AddOperator(OperatorSpec spec);

  /// Adds a directed edge from operator `from` to operator `to`.
  /// Returns InvalidArgument for out-of-range ids, self loops, or duplicates.
  Status AddEdge(int from, int to);

  const std::string& name() const { return name_; }
  void set_name(std::string n) { name_ = std::move(n); }

  int num_operators() const { return static_cast<int>(operators_.size()); }
  int num_edges() const { return static_cast<int>(edges_.size()); }

  const OperatorSpec& op(int id) const { return operators_[id]; }
  OperatorSpec& mutable_op(int id) {
    // The caller may change the operator type through the returned
    // reference, so pessimistically drop the memoized canonical hash.
    canonical_hash_.store(0, std::memory_order_relaxed);
    return operators_[id];
  }
  const std::vector<OperatorSpec>& operators() const { return operators_; }
  const std::vector<std::pair<int, int>>& edges() const { return edges_; }

  /// Operator ids with an edge into `id` (its upstream operators).
  const std::vector<int>& upstream(int id) const;
  /// Operator ids that `id` feeds (its downstream operators).
  const std::vector<int>& downstream(int id) const;

  /// Ids of source operators (in-degree 0). In a valid graph these are
  /// exactly the kSource operators.
  std::vector<int> SourceIds() const;

  /// Ids of first-level downstream operators: non-sources fed directly by at
  /// least one source.
  std::vector<int> FirstLevelDownstream() const;

  /// Checks structure: acyclic, connected enough to execute (every
  /// non-source has an upstream; sources have none and are kSource).
  Status Validate() const;

  /// Topological order of operator ids; FailedPrecondition if cyclic.
  Result<std::vector<int>> TopologicalOrder() const;

  /// Canonical Weisfeiler-Leman-style structural hash: invariant under
  /// operator relabeling/reordering (isomorphic graphs — same operator
  /// types, same wiring — hash equal regardless of insertion order).
  /// Depends only on operator types and edge structure, i.e. exactly the
  /// signals the GED cost model sees, so it is a sound memoization key for
  /// GED computations (up to the usual WL blind spots, which do not occur
  /// for the labeled DAGs in this repo).
  ///
  /// Memoized on the immutable-after-build graph: the first call pays the
  /// WL refinement, later calls return the cached value. Unlike the
  /// WarmAdjacency caches this is safe to race — the memo is a single
  /// relaxed atomic and every writer stores the same value — so no warm-up
  /// step is needed before sharing a graph across threads. Mutation
  /// (AddOperator/AddEdge/mutable_op) invalidates the memo.
  uint64_t CanonicalHash() const;

  /// True if the graph contains a directed cycle.
  bool HasCycle() const;

  /// Forces the lazy adjacency caches to be built now. The first call to
  /// upstream()/downstream() mutates the mutable cache members, so a graph
  /// shared read-only across threads (e.g. a knowledge-base snapshot) must
  /// be warmed once before publication; afterwards every access is a pure
  /// read. Copies of a warmed graph are themselves warm.
  void WarmAdjacency() const {
    if (adjacency_dirty_) RebuildAdjacency();
  }

 private:
  /// One full WL color-refinement pass: the per-node final colors that
  /// CanonicalHash() folds into the graph hash. Node v's color captures
  /// its operator type plus the types/wiring of everything within
  /// min(n, 16) hops, separating in- from out-neighborhoods. Pure
  /// function of the graph — no lazy caches touched, safe to call
  /// concurrently.
  std::vector<uint64_t> WlColors() const;

  void RebuildAdjacency() const;
  void CopyFrom(const JobGraph& other);
  void MoveFrom(JobGraph& other);

  std::string name_;
  std::vector<OperatorSpec> operators_;
  std::vector<std::pair<int, int>> edges_;

  // Lazily rebuilt adjacency caches.
  mutable bool adjacency_dirty_ = true;
  mutable std::vector<std::vector<int>> upstream_;
  mutable std::vector<std::vector<int>> downstream_;

  // Memoized CanonicalHash(); 0 means "not computed yet". A genuine hash of
  // 0 is never cached (it just recomputes), which keeps the sentinel sound.
  // Relaxed is enough: all writers store the same pure-function value.
  mutable std::atomic<uint64_t> canonical_hash_{0};
};

}  // namespace streamtune
