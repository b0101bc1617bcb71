// Monotonic gradient-boosted decision trees (Sec. IV-B, model choice (b)).
//
// An XGBoost-style ensemble on logistic loss with exact greedy split search.
// The parallelism feature (the last input column) carries a monotone
// *decreasing* constraint, enforced exactly as the paper describes:
//   - a split on the constrained feature whose tentative child values would
//     violate the ordering (left/low-p value < right/high-p value) has its
//     gain set to -inf, excluding it;
//   - accepted constrained splits propagate [lower, upper] value bounds into
//     the subtrees so every leaf respects the monotone order.
// Since each tree is individually non-increasing in p, the ensemble is too.
//
// Fit uses the presorted exact-greedy layout (Chen & Guestrin, KDD'16). The
// features are stored column-major, and each column's row ids are sorted
// once per Fit in the canonical (value, row) order: ties go by ascending
// row id. A tree node owns the range [begin, end) of every sorted list, so
// its split scan walks each feature in order without sorting; an accepted
// split stable-partitions the lists, which keeps both children sorted. The
// canonical order fixes the order in which tied rows' gradients are summed,
// so the fitted ensemble is the same as re-sorting every feature at every
// node with that order.
//
// Fit first collapses identical training rows (equal embedding bit for bit,
// parallelism and label) into one weighted row; distinct rows keep the order
// of their first occurrence. A row with c copies carries c times its
// gradient and hessian, and min_samples_leaf counts copies, as do the class
// weights and the prior. So the fitted ensemble depends only on the multiset
// of training rows (and the first-occurrence order of the distinct ones), and
// on a duplicate-free set every count is 1 and the fit is the unweighted one
// bit for bit. With duplicates it equals the unweighted fit in exact
// arithmetic; only the rounding of the gradient sums differs.

#pragma once

#include <vector>

#include "ml/bottleneck_model.h"

namespace streamtune::ml {

/// Hyperparameters for MonotonicGbdt.
struct GbdtConfig {
  int num_trees = 40;
  int max_depth = 4;
  double learning_rate = 0.2;
  double reg_lambda = 1.0;      ///< L2 regularization on leaf values
  double min_split_gain = 0.0;  ///< gamma
  double min_child_hessian = 1e-3;
  int min_samples_leaf = 2;
  double parallelism_scale = 100.0;
  /// When false, the monotone constraint is dropped (for ablations/tests).
  bool enforce_monotonic = true;
};

/// Gradient-boosted bottleneck classifier with a monotone-decreasing
/// constraint on the parallelism feature.
class MonotonicGbdt : public BottleneckModel {
 public:
  explicit MonotonicGbdt(int embedding_dim, GbdtConfig config = {});

  Status Fit(const std::vector<LabeledSample>& data) override;
  double PredictProbability(const std::vector<double>& h,
                            int parallelism) const override;
  bool is_monotonic() const override { return config_.enforce_monotonic; }
  std::string name() const override { return "XGBoost"; }

  /// Raw additive score (log-odds of being a bottleneck).
  double PredictLogit(const std::vector<double>& h, int parallelism) const;

  int num_trees_built() const { return static_cast<int>(trees_.size()); }

 private:
  struct TreeNode {
    int feature = -1;        // -1 for leaves
    double threshold = 0.0;  // go left if x[feature] < threshold
    int left = -1, right = -1;
    double value = 0.0;  // leaf value (already shrunk by learning_rate)
  };
  struct Tree {
    std::vector<TreeNode> nodes;
    double Predict(const std::vector<double>& x) const;
  };

  struct FitState;  // presorted columns and per-tree buffers of one Fit

  std::vector<double> MakeFeatures(const std::vector<double>& h,
                                   int parallelism) const;
  int BuildNode(Tree* tree, FitState* state, int begin, int end, int depth,
                double lower, double upper);

  int embedding_dim_;
  GbdtConfig config_;
  double base_score_ = 0.0;  // initial log-odds
  std::vector<Tree> trees_;
};

}  // namespace streamtune::ml
