#include "graph/ged_kmeans.h"

#include <algorithm>
#include <limits>

#include "common/parallel_reduce.h"
#include "common/status.h"
#include "graph/ged_policy.h"

namespace streamtune::graph {

namespace {

GedResult ComputeMaybeCached(const JobGraph& a, const JobGraph& b,
                             const GedOptions& opts, GedCache* cache) {
  if (cache != nullptr) return cache->Compute(a, b, opts);
  // Uncached comparisons take the same per-pair policy route the cache's
  // miss path takes, so cached and uncached runs do identical searches.
  return opts.use_lower_bound ? PolicyComputeGed(a, b, opts)
                              : ComputeGed(a, b, opts);
}

}  // namespace

std::vector<double> DistancesToCenters(const JobGraph& g,
                                       const std::vector<JobGraph>& centers,
                                       GedCache* cache) {
  std::vector<double> dist(centers.size(),
                           std::numeric_limits<double>::infinity());
  double best = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < centers.size(); ++i) {
    GedOptions opts;
    // Branch-and-bound across centers: once a center at distance `best` is
    // known, a deeper search than that is pointless for the assignment.
    if (best < std::numeric_limits<double>::infinity()) {
      opts.threshold = best;
    }
    GedResult r = ComputeMaybeCached(g, centers[i], opts, cache);
    dist[i] = r.distance;
    best = std::min(best, r.distance);
  }
  return dist;
}

int NearestCenter(const JobGraph& g, const std::vector<JobGraph>& centers,
                  GedCache* cache) {
  std::vector<double> dist = DistancesToCenters(g, centers, cache);
  return static_cast<int>(
      std::min_element(dist.begin(), dist.end()) - dist.begin());
}

Result<KMeansResult> ClusterDags(const std::vector<JobGraph>& dataset,
                                 const KMeansOptions& options) {
  const int n = static_cast<int>(dataset.size());
  if (n == 0) return Status::InvalidArgument("empty dataset");
  if (options.k < 1 || options.k > n) {
    return Status::InvalidArgument("k must be in [1, dataset size]");
  }

  GedCache local_cache;
  GedCache* cache =
      options.cache ? options.cache : (options.use_cache ? &local_cache : nullptr);
  ThreadPool pool(options.num_threads);

  Rng rng(options.seed);
  // Init: farthest-point seeding (k-means++-style). A random first center,
  // then each next center is the graph farthest from all chosen centers —
  // structurally distinct families reliably get their own seed. The
  // distance refresh and the argmax run as one ParallelReduce; ties go to
  // the lowest index, as in a serial first-wins scan.
  struct Farthest {
    double dist = -1.0;
    int64_t index = 0;
  };
  std::vector<int> center_idx;
  center_idx.push_back(rng.UniformInt(0, n - 1));
  std::vector<double> min_dist(n, std::numeric_limits<double>::infinity());
  while (static_cast<int>(center_idx.size()) < options.k) {
    int last = center_idx.back();
    const Farthest far = ParallelReduce(
        &pool, 0, n, Farthest{},
        [&](int64_t i) {
          GedOptions opts;
          opts.threshold = min_dist[i];  // prune beyond the current minimum
          GedResult r =
              ComputeMaybeCached(dataset[i], dataset[last], opts, cache);
          min_dist[i] = std::min(min_dist[i], r.distance);
          return Farthest{min_dist[i], i};
        },
        [](Farthest& a, const Farthest& b) {
          if (b.dist > a.dist || (b.dist == a.dist && b.index < a.index)) {
            a = b;
          }
        });
    center_idx.push_back(static_cast<int>(far.index));
  }

  KMeansResult result;
  result.assignment.assign(n, 0);

  // Assignment step: one ParallelReduce per iteration — the map assigns
  // graph i to its nearest center (center scan + assignment write), the
  // fold accumulates inertia and the changed flag. The inertia sum is a
  // running double sum of arbitrary values, i.e. order-sensitive, which the
  // index-order fold keeps bit-identical to the serial loop.
  struct AssignOutcome {
    double dist = 0.0;
    bool changed = false;
  };

  for (int iter = 0; iter < options.max_iterations; ++iter) {
    result.iterations = iter + 1;
    std::vector<JobGraph> centers;
    centers.reserve(options.k);
    for (int c : center_idx) centers.push_back(dataset[c]);
    AssignOutcome total = ParallelReduce(
        &pool, 0, n, AssignOutcome{},
        [&](int64_t i) {
          std::vector<double> dist =
              DistancesToCenters(dataset[i], centers, cache);
          int best = static_cast<int>(
              std::min_element(dist.begin(), dist.end()) - dist.begin());
          AssignOutcome out{dist[best], result.assignment[i] != best};
          if (out.changed) result.assignment[i] = best;
          return out;
        },
        [](AssignOutcome& a, const AssignOutcome& b) {
          a.dist += b.dist;
          a.changed |= b.changed;
        });
    result.within_cluster_distance = total.dist;
    if (!total.changed && iter > 0) break;

    // Update step: similarity center per cluster (all-pairs sweep runs on
    // the pool).
    std::vector<int> new_centers = center_idx;
    for (int c = 0; c < options.k; ++c) {
      std::vector<JobGraph> members;
      std::vector<int> member_ids;
      for (int i = 0; i < n; ++i) {
        if (result.assignment[i] == c) {
          members.push_back(dataset[i]);
          member_ids.push_back(i);
        }
      }
      if (members.empty()) continue;  // keep the old center for empty cells
      int sc = SimilarityCenter(members, options.center_tau, options.method,
                                cache, &pool);
      new_centers[c] = member_ids[sc];
    }
    if (new_centers == center_idx) break;
    center_idx = new_centers;
  }

  result.center_indices = center_idx;
  return result;
}

Result<int> SelectKByElbow(const std::vector<JobGraph>& dataset, int k_min,
                           int k_max, const KMeansOptions& base_options) {
  if (k_min < 1 || k_max < k_min ||
      k_max > static_cast<int>(dataset.size())) {
    return Status::InvalidArgument("invalid k range");
  }
  // Curvature needs >= 3 inertia points; with fewer the answer is k_min
  // regardless, so skip the clusterings entirely.
  if (k_max - k_min < 2) return k_min;

  GedCache local_cache;
  GedCache* shared = base_options.cache
                         ? base_options.cache
                         : (base_options.use_cache ? &local_cache : nullptr);
  const int count = k_max - k_min + 1;
  std::vector<double> inertia(count, 0.0);

  // The per-k runs are independent given a shared memo table; run them on
  // the pool (each inner ClusterDags degrades to serial on a worker). The
  // fold keeps the first error in k order: a later error must not displace
  // an earlier one.
  ThreadPool pool(base_options.num_threads);
  Status first_error = ParallelReduce(
      &pool, 0, count, Status::OK(),
      [&](int64_t i) {
        KMeansOptions opts = base_options;
        opts.k = k_min + static_cast<int>(i);
        opts.cache = shared;
        auto res = ClusterDags(dataset, opts);
        if (!res.ok()) return res.status();
        inertia[i] = res->within_cluster_distance;
        return Status::OK();
      },
      [](Status& a, const Status& b) {
        if (a.ok()) a = b;
      });
  if (!first_error.ok()) return first_error;

  // Elbow = maximum positive curvature of the inertia curve.
  int best_k = k_min + 1;
  double best_curv = -std::numeric_limits<double>::infinity();
  for (size_t i = 1; i + 1 < inertia.size(); ++i) {
    double curv = inertia[i - 1] - 2 * inertia[i] + inertia[i + 1];
    if (curv > best_curv) {
      best_curv = curv;
      best_k = k_min + static_cast<int>(i);
    }
  }
  return best_k;
}

}  // namespace streamtune::graph
