// Per-pair GED execution policy (DESIGN.md §14).
//
// Every comparison used to run one fixed search: AStar+-LSa with the
// label-set heuristic. That is the right call for mid-sized, plausibly
// similar pairs — and a waste everywhere else. The chooser routes each pair
// from statistics that are already on hand (node/edge counts and the O(n+e)
// LabelSetLowerBound — the same scalar features the PR 8 WL index stores):
//
//   kUpperBoundOnly  threshold query whose lower bound already exceeds the
//                    threshold: the screen *is* the proof (lb <= ged), so
//                    skip Prepare + greedy + A* entirely and report a
//                    kPruned result carrying the free structural upper
//                    bound. This is where the pre-train assignment speedup
//                    comes from: most graph-to-center comparisons die here.
//   kExactAStar      tiny pairs (both graphs <= 5 nodes): the state space
//                    is trivial, the per-expansion heuristic costs more
//                    than the expansions it saves — run plain A* (h = 0).
//   kBoundedLsa      everything else: today's AStar+-LSa search, unchanged.
//
// Outcome invariance (the reason adaptive mode is safe to run by default):
// exact answers are policy-independent — every route returns the true GED
// when it completes within the threshold — and inexact answers are only
// ever produced for pairs proven > threshold, whose reported value callers
// consume solely through min()/threshold comparisons. So assignments,
// centers, inertia and within-threshold booleans are bit-identical across
// policies; only the work done (and the incidental upper-bound values)
// differs. Pinning STREAMTUNE_GED_POLICY=bounded reproduces the pre-PR
// fixed policy to the byte, including those incidental values.
//
// The policy applies only to AStar+-LSa-mode call sites
// (GedOptions::use_lower_bound == true). The kDirectGed ablation baseline
// (Fig. 11b) bypasses it by construction.

#pragma once

#include <atomic>
#include <cstdint>

#include "graph/ged.h"

namespace streamtune::graph {

/// The competing per-pair search routes.
enum class GedPolicy {
  kExactAStar = 0,  ///< plain A*, h = 0
  kBoundedLsa,      ///< AStar+-LSa with the label-set heuristic (pre-PR)
  kUpperBoundOnly,  ///< lower-bound screen proved ged > threshold; no search
};

/// Global pin, from STREAMTUNE_GED_POLICY: "auto" (default) adapts per
/// pair; "bounded" reproduces the pre-PR fixed kBoundedLsa policy exactly;
/// "exact" forces h = 0 searches (ablation: what does the heuristic buy).
/// There is deliberately no "upper" pin — upper-bound-only is only sound
/// when the screen proves dissimilarity, which is a per-pair fact.
enum class GedPolicyMode {
  kAuto = 0,
  kBounded,
  kExact,
};

const char* ToString(GedPolicy p);
const char* ToString(GedPolicyMode m);

/// Parses STREAMTUNE_GED_POLICY (auto|bounded|exact); kAuto when unset or
/// unrecognized. Read per call so tests can flip it.
GedPolicyMode GedPolicyModeFromEnv();

/// The per-pair policy histogram plus the budget-exhaustion count
/// (satellite observability; embedded in GedCache and sampled into
/// GedCache::Stats / KbServiceStats / bench JSON).
struct GedPolicyCounters {
  std::atomic<uint64_t> exact{0};
  std::atomic<uint64_t> bounded{0};
  std::atomic<uint64_t> upper{0};
  /// Searches that ended with GedTermination::kBudget.
  std::atomic<uint64_t> budget_exhausted{0};

  void CountChoice(GedPolicy p);
  void CountResult(const GedResult& r);
  void Reset();
};

/// Routes one pair. Deterministic: a pure function of the two graphs'
/// structural statistics, the query options and the (env) mode — never of
/// timing — so distributed/parallel runs agree on every choice.
GedPolicy ChooseGedPolicy(const JobGraph& a, const JobGraph& b,
                          const GedOptions& options,
                          GedPolicyMode mode = GedPolicyModeFromEnv());

/// Policy-routed drop-in for ComputeGed at AStar+-LSa call sites
/// (options.use_lower_bound must be true — direct-GED callers keep calling
/// ComputeGed). Counts the choice and the outcome into `counters` when
/// given.
GedResult PolicyComputeGed(const JobGraph& a, const JobGraph& b,
                           const GedOptions& options,
                           GedPolicyCounters* counters = nullptr);

}  // namespace streamtune::graph
