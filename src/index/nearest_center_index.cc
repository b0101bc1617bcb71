#include "index/nearest_center_index.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <numeric>

#include "graph/ged_policy.h"

namespace streamtune::index {

namespace {

constexpr double kEps = 1e-9;

}  // namespace

GraphFeatures ComputeGraphFeatures(const JobGraph& g) {
  GraphFeatures f;
  f.nodes = g.num_operators();
  f.edges = g.num_edges();
  for (const OperatorSpec& op : g.operators()) {
    ++f.type_hist[static_cast<int>(op.type) % kNumOperatorTypes];
  }
  return f;
}

double FeatureLowerBound(const GraphFeatures& a, const GraphFeatures& b) {
  int common = 0;
  for (int t = 0; t < kNumOperatorTypes; ++t) {
    common += std::min(a.type_hist[t], b.type_hist[t]);
  }
  const int node_lb = std::max(a.nodes, b.nodes) - common;
  const int edge_lb = std::abs(a.edges - b.edges);
  return static_cast<double>(node_lb + edge_lb);
}

void NearestCenterIndex::CopyFrom(const NearestCenterIndex& other) {
  features_ = other.features_;
  // Query stats deliberately start cold (see the header's thread-safety
  // note); don't touch other's mutex — only our own, in case a stale
  // reader still samples this object mid-assignment.
  std::lock_guard<std::mutex> lock(stats_mu_);
  stats_ = QueryStats{};
}

void NearestCenterIndex::MoveFrom(NearestCenterIndex& other) {
  features_ = std::move(other.features_);
  std::lock_guard<std::mutex> lock(stats_mu_);
  stats_ = QueryStats{};
}

void NearestCenterIndex::Insert(const JobGraph& g) {
  features_.push_back(ComputeGraphFeatures(g));
}

void NearestCenterIndex::RecordQuery(int candidates, int evaluated) const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  stats_.queries += 1;
  stats_.candidates += candidates;
  stats_.evaluated += evaluated;
}

NearestCenterIndex::QueryStats NearestCenterIndex::query_stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

NearestCenterIndex::NearestResult NearestCenterIndex::Nearest(
    const JobGraph& query, const GraphAccessor& graph_at,
    graph::GedCache* cache) const {
  NearestResult result;
  const int n = size();
  if (n == 0) return result;

  const GraphFeatures qf = ComputeGraphFeatures(query);
  std::vector<double> lbs(n);
  for (int i = 0; i < n; ++i) lbs[i] = FeatureLowerBound(qf, features_[i]);
  // Visit order: lower bound ascending, ties by ascending id.
  std::vector<int> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&lbs](int a, int b) { return lbs[a] < lbs[b]; });

  // The one unthresholded GED call goes to the probe, order[0]: the
  // lowest-id lower-bound argmin, the structurally closest column, so
  // `best` starts small and every later search runs hard-thresholded.
  // Uncached searches take the same per-pair policy route the cache's miss
  // path takes (exact answers are policy-independent, so the exactness
  // argument in the header is unaffected).
  const auto ged = [&](int idx, const graph::GedOptions& opts) {
    const JobGraph& candidate = graph_at(idx);
    return cache ? cache->Compute(query, candidate, opts)
                 : graph::PolicyComputeGed(query, candidate, opts);
  };
  int best_idx = order[0];
  double best = ged(best_idx, graph::GedOptions{}).distance;
  int evaluated = 1;
  // A distance of zero ends the search, at the probe or later: a ged-0
  // column has lower bound 0 (lb <= ged), so every ged-0 column sits in
  // the lb-0 prefix of the order, which is visited in ascending id. Any
  // ged-0 column after the current one therefore has a higher id and can
  // only tie, never win.
  for (int k = 1; k < n && best > kEps; ++k) {
    const int idx = order[k];
    // Sound prune: ged >= lb > best means this column cannot hold the
    // minimum and cannot even tie it (a tie needs ged == best < lb <=
    // ged). lb == best is NOT pruned — the column could tie at a lower
    // index. The order is lb-ascending and `best` only decreases, so
    // every later column is pruned too: stop outright.
    if (lbs[idx] > best + kEps) break;
    graph::GedOptions opts;
    opts.threshold = best;
    const graph::GedResult r = ged(idx, opts);
    ++evaluated;
    if (r.distance < best - kEps) {
      // The probe ran unthresholded, so `best` starts exact; later
      // improvements completed under threshold = old best, so they are
      // exact too (pruned searches report > threshold, never less).
      best = r.distance;
      best_idx = idx;
    } else if (r.exact && std::abs(r.distance - best) <= kEps &&
               idx < best_idx) {
      best_idx = idx;
    }
  }

  RecordQuery(n, evaluated);
  result.index = best_idx;
  result.distance = best;
  result.evaluated = evaluated;
  return result;
}

}  // namespace streamtune::index
