#include "graph/similarity.h"

#include <algorithm>

#include "common/parallel_reduce.h"
#include "graph/ged_cache.h"
#include "graph/ged_policy.h"

namespace streamtune::graph {

namespace {

constexpr double kEps = 1e-9;

bool Within(const JobGraph& a, const JobGraph& b, double tau,
            SearchMethod method, GedCache* cache) {
  if (method == SearchMethod::kAStarLsa) {
    if (cache != nullptr) return cache->WithinThreshold(a, b, tau);
    // Mirror the cache's miss path: lower-bound screen, then the
    // policy-routed threshold search — uncached runs do the same searches
    // a cold cache would.
    if (LabelSetLowerBound(a, b) > tau + kEps) return false;
    GedOptions opts;
    opts.threshold = tau;
    GedResult r = PolicyComputeGed(a, b, opts);
    return r.exact && r.distance <= tau + kEps;
  }
  // Direct: pay for the full exact computation, then compare. This is the
  // Fig. 11b ablation baseline — deliberately not policy-routed.
  GedOptions opts;
  opts.use_lower_bound = false;
  GedResult r = cache ? cache->Compute(a, b, opts) : ComputeGed(a, b, opts);
  return r.distance <= tau + 1e-9;
}

}  // namespace

std::vector<int> SimilaritySearch(const std::vector<JobGraph>& dataset,
                                  const JobGraph& query, double tau,
                                  SearchMethod method, GedCache* cache,
                                  ThreadPool* pool) {
  const int n = static_cast<int>(dataset.size());
  // Hit-list building is a reduction under concatenation; the index-order
  // fold returns the hits in ascending index order.
  return ParallelReduce(
      pool, 0, n, std::vector<int>{},
      [&](int64_t i) {
        std::vector<int> hit;
        if (Within(dataset[i], query, tau, method, cache)) {
          hit.push_back(static_cast<int>(i));
        }
        return hit;
      },
      [](std::vector<int>& a, const std::vector<int>& b) {
        a.insert(a.end(), b.begin(), b.end());
      });
}

std::vector<int> AppearanceCounts(const std::vector<JobGraph>& cluster,
                                  double tau, SearchMethod method,
                                  GedCache* cache, ThreadPool* pool) {
  const int m = static_cast<int>(cluster.size());
  std::vector<int> counts(m, 0);
  // Each row g owns its own count, so the all-pairs sweep parallelizes over
  // g with no reduction step.
  auto row = [&](int64_t g) {
    int c = 0;
    for (int q = 0; q < m; ++q) {
      // GED is symmetric, but we follow Def. 2 literally: g appears in the
      // search result of query q (including q itself, ged = 0 <= tau).
      if (g == q || Within(cluster[g], cluster[q], tau, method, cache)) {
        ++c;
      }
    }
    counts[g] = c;
  };
  if (pool) {
    pool->ParallelFor(0, m, row);
  } else {
    for (int g = 0; g < m; ++g) row(g);
  }
  return counts;
}

int SimilarityCenter(const std::vector<JobGraph>& cluster, double tau,
                     SearchMethod method, GedCache* cache, ThreadPool* pool) {
  if (cluster.empty()) return -1;
  std::vector<int> counts = AppearanceCounts(cluster, tau, method, cache, pool);
  return static_cast<int>(
      std::max_element(counts.begin(), counts.end()) - counts.begin());
}

}  // namespace streamtune::graph
