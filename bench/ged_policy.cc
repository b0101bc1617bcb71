// Adaptive per-pair GED policy, measured on pre-train assignment
// (DESIGN.md §14).
//
// Assigns a random-DAG corpus to its nearest center by threshold-pruned
// GED, once with the per-pair policy pinned to the fixed bounded search
// (STREAMTUNE_GED_POLICY=bounded) and once adaptive. The adaptive run must
// produce the identical assignment (outcome invariance) while skipping
// Prepare + greedy + A* for every pair the lower-bound screen already
// proves dissimilar.
//
// Writes BENCH_gedpolicy.json with host provenance and the GED policy
// histogram.
//
// Environment knobs:
//   ST_BENCH_GED_CORPUS            corpus size (default 10000)
//   ST_BENCH_GED_CENTERS           number of centers (default 32)
//   ST_BENCH_GATE                  1 enforces the CI gates, exit 1 on miss
//   ST_GATE_GED_SPEEDUP_PCT        min adaptive-over-pinned speedup, %%
//                                  (default 200)

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "graph/ged_cache.h"
#include "graph/ged_policy.h"
#include "workloads/random_dag.h"

using namespace streamtune;

namespace {

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct GedPhase {
  long long corpus = 0;
  int centers = 0;
  double pinned_ms = 0;
  double adaptive_ms = 0;
  double speedup = 0;
  bool assignments_match = true;
  graph::GedCache::Stats adaptive_stats;
};

}  // namespace

int main() {
  const long long ged_corpus = bench::EnvInt("ST_BENCH_GED_CORPUS", 10000);
  const int ged_centers = bench::EnvInt("ST_BENCH_GED_CENTERS", 32);

  // A policy pin in the environment would make both runs the same.
  unsetenv("STREAMTUNE_GED_POLICY");

  // The clustered pre-train regime the paper's KB is built on: workloads
  // recur, so the corpus is duplicates and small variants of a handful of
  // structurally distinct job shapes (the cluster centers). Each graph is
  // assigned to the nearest center within tau (Def. 1), the threshold
  // tightening to the best distance found so far — exactly the pruning
  // structure of the kmeans assignment step. For every far pair the label
  // set lower bound already proves ged > threshold; the pinned policy
  // still pays Prepare + greedy + a pruned root expansion there, the
  // adaptive policy answers from the screen.
  GedPhase ged;
  ged.corpus = ged_corpus;
  ged.centers = ged_centers;
  {
    const double tau = 2.0;
    // Centers: random jobs kept only if the lower bound to every earlier
    // center clears tau with margin (distinct clusters have distinct
    // shapes; the margin keeps one-edit variants screenable too).
    std::vector<JobGraph> centers;
    {
      Rng center_rng(0xACE);
      int attempts = 0;
      while (static_cast<int>(centers.size()) < ged_centers &&
             attempts < 100 * ged_centers) {
        ++attempts;
        // Vary the shape envelope so mutually distant centers exist: size
        // spread is what drives the label-set bound apart.
        workloads::RandomDagConfig cfg;
        cfg.min_sources = 1 + attempts % 3;
        cfg.max_sources = cfg.min_sources;
        cfg.max_chain_length = 1 + (attempts / 3) % 6;
        JobGraph candidate = workloads::GenerateRandomDag(&center_rng, cfg);
        bool distinct = true;
        for (const JobGraph& c : centers) {
          if (graph::LabelSetLowerBound(candidate, c) <= tau + 3.0) {
            distinct = false;
            break;
          }
        }
        if (distinct) centers.push_back(std::move(candidate));
      }
      ged.centers = static_cast<int>(centers.size());
    }

    // Corpus: each graph recurs as a copy of its center, a quarter of them
    // with one operator relabeled (distance <= 2, still within tau).
    std::vector<JobGraph> corpus;
    corpus.reserve(static_cast<size_t>(ged_corpus));
    for (long long i = 0; i < ged_corpus; ++i) {
      JobGraph g = centers[static_cast<size_t>(i) % centers.size()];
      if (i % 4 == 0) {
        for (int v = 0; v < g.num_operators(); ++v) {
          OperatorType& t = g.mutable_op(v).type;
          if (t == OperatorType::kMap) {
            t = OperatorType::kFilter;
            break;
          }
          if (t == OperatorType::kFilter) {
            t = OperatorType::kMap;
            break;
          }
        }
      }
      corpus.push_back(std::move(g));
    }

    auto assign_all = [&](graph::GedPolicyCounters* counters) {
      std::vector<int> assignment(corpus.size(), -1);
      for (size_t i = 0; i < corpus.size(); ++i) {
        double best = tau;
        for (size_t c = 0; c < centers.size(); ++c) {
          graph::GedOptions opts;
          opts.threshold = best;
          const graph::GedResult r =
              graph::PolicyComputeGed(corpus[i], centers[c], opts, counters);
          if (r.exact && r.distance <= best) {
            best = r.distance;
            assignment[i] = static_cast<int>(c);
          }
        }
      }
      return assignment;
    };

    setenv("STREAMTUNE_GED_POLICY", "bounded", 1);
    double t0 = NowMs();
    const std::vector<int> pinned = assign_all(nullptr);
    ged.pinned_ms = NowMs() - t0;

    unsetenv("STREAMTUNE_GED_POLICY");
    graph::GedPolicyCounters counters;
    t0 = NowMs();
    const std::vector<int> adaptive = assign_all(&counters);
    ged.adaptive_ms = NowMs() - t0;

    ged.assignments_match = adaptive == pinned;
    bool all_assigned = true;
    for (int a : adaptive) all_assigned &= a >= 0;
    ged.assignments_match &= all_assigned;
    ged.speedup = ged.adaptive_ms > 0 ? ged.pinned_ms / ged.adaptive_ms : 0;
    ged.adaptive_stats.policy_upper = counters.upper.load();
    ged.adaptive_stats.policy_bounded = counters.bounded.load();
    ged.adaptive_stats.policy_exact = counters.exact.load();
    ged.adaptive_stats.budget_exhausted = counters.budget_exhausted.load();
    std::printf(
        "[ged corpus=%lld centers=%d] pinned %8.1f ms | adaptive %8.1f ms "
        "-> %5.2fx | upper %llu bounded %llu exact %llu budget %llu%s\n",
        ged.corpus, ged.centers, ged.pinned_ms, ged.adaptive_ms, ged.speedup,
        static_cast<unsigned long long>(ged.adaptive_stats.policy_upper),
        static_cast<unsigned long long>(ged.adaptive_stats.policy_bounded),
        static_cast<unsigned long long>(ged.adaptive_stats.policy_exact),
        static_cast<unsigned long long>(ged.adaptive_stats.budget_exhausted),
        ged.assignments_match ? "" : "  ASSIGNMENT MISMATCH (BUG)");
  }

  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "  \"ged_assignment\": {\"corpus\": %lld, \"centers\": %d, "
      "\"pinned_ms\": %.1f, \"adaptive_ms\": %.1f, \"speedup\": %.3f, "
      "\"assignments_match\": %s, \"policy_upper\": %llu, "
      "\"policy_bounded\": %llu, \"policy_exact\": %llu, "
      "\"budget_exhausted\": %llu},\n"
      "  \"headline_ged_speedup\": %.3f\n}\n",
      ged.corpus, ged.centers, ged.pinned_ms, ged.adaptive_ms, ged.speedup,
      ged.assignments_match ? "true" : "false",
      static_cast<unsigned long long>(ged.adaptive_stats.policy_upper),
      static_cast<unsigned long long>(ged.adaptive_stats.policy_bounded),
      static_cast<unsigned long long>(ged.adaptive_stats.policy_exact),
      static_cast<unsigned long long>(ged.adaptive_stats.budget_exhausted),
      ged.speedup);
  {
    std::ofstream f("BENCH_gedpolicy.json", std::ios::trunc);
    f << "{\n  \"host\": " << bench::HostInfoJson() << ",\n" << buf;
  }
  std::printf("wrote BENCH_gedpolicy.json\n");

  // Self-enforcing CI gates.
  if (bench::EnvInt("ST_BENCH_GATE", 0) != 0) {
    const double min_ged =
        bench::EnvInt("ST_GATE_GED_SPEEDUP_PCT", 200) / 100.0;
    int failures = 0;
    if (!ged.assignments_match) {
      std::fprintf(stderr, "GATE: assignments differ\n");
      ++failures;
    }
    if (ged.speedup < min_ged) {
      std::fprintf(stderr, "GATE: ged speedup %.2f < %.2f\n", ged.speedup,
                   min_ged);
      ++failures;
    }
    if (failures > 0) return 1;
    std::printf("gates: OK (ged >= %.2fx, identical assignments)\n", min_ged);
  }
  return 0;
}
