#include "ml/gbdt.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numeric>

#include "common/math_util.h"

namespace streamtune::ml {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

// Whether a node at `depth` holding `rows` rows, counting copies, searches
// for a split. Fewer than two rows have no split point whatever
// min_samples_leaf is.
bool SearchesSplit(const GbdtConfig& config, int depth, int rows) {
  return depth < config.max_depth && rows >= 2 &&
         rows >= 2 * config.min_samples_leaf;
}

// The distinct rows of a training set: `first[i]` is the index in the data
// of distinct row i's first occurrence (ascending), `copies[i]` how often it
// occurs. Rows are identical when their embeddings are equal bit for bit
// and their parallelism and label are equal.
struct DistinctRows {
  std::vector<int> first;
  std::vector<int> copies;
};

DistinctRows CollapseDuplicates(const std::vector<LabeledSample>& data) {
  const size_t n = data.size();
  auto hash_of = [](const LabeledSample& s) {
    uint64_t h = static_cast<uint64_t>(s.parallelism) * 2 + (s.label == 1);
    for (double v : s.embedding) {
      uint64_t bits;
      std::memcpy(&bits, &v, sizeof(bits));
      h = (h ^ bits) * 0x9e3779b97f4a7c15ull;
      h ^= h >> 29;
    }
    return h;
  };
  auto same = [&data](int a, int b) {
    const LabeledSample& x = data[a];
    const LabeledSample& y = data[b];
    return x.parallelism == y.parallelism && x.label == y.label &&
           std::memcmp(x.embedding.data(), y.embedding.data(),
                       x.embedding.size() * sizeof(double)) == 0;
  };
  // Open addressing over at least 2n slots, each holding a distinct row id.
  size_t slots = 1;
  while (slots < 2 * n) slots *= 2;
  std::vector<int> table(slots, -1);
  DistinctRows rows;
  for (size_t i = 0; i < n; ++i) {
    size_t slot = hash_of(data[i]) & (slots - 1);
    while (table[slot] >= 0 &&
           !same(rows.first[table[slot]], static_cast<int>(i))) {
      slot = (slot + 1) & (slots - 1);
    }
    if (table[slot] >= 0) {
      ++rows.copies[table[slot]];
      continue;
    }
    table[slot] = static_cast<int>(rows.first.size());
    rows.first.push_back(static_cast<int>(i));
    rows.copies.push_back(1);
  }
  return rows;
}

// Threshold between adjacent distinct sorted values a < b; rows with
// x < threshold go left. The midpoint, unless it rounds onto a (adjacent
// doubles) or overflows past b: then b itself, so neither child is empty.
double SplitThreshold(double a, double b) {
  const double mid = 0.5 * (a + b);
  return a < mid && mid <= b ? mid : b;
}
}  // namespace

/// Everything one Fit shares across its trees. A row here is a distinct
/// training row, standing for `copies[row]` identical ones. With F features
/// and n rows, `order` holds F + 1 lists of n row ids: list f < F sorted by
/// (cols[f * n + row], row), list F by row. Each tree starts from a copy of
/// `sorted` and every node partitions its own [begin, end) of each list.
struct MonotonicGbdt::FitState {
  size_t n = 0;
  int num_features = 0;
  std::vector<int> copies;
  std::vector<double> cols;  // column-major: cols[f * n + row]
  std::vector<int> sorted;   // the lists as sorted at the root
  std::vector<int> order;    // the lists as partitioned by the current tree
  std::vector<int> scratch;  // right-hand rows while partitioning one list
  std::vector<char> goes_left;
  std::vector<double> grad, hess, margin;

  const double* col(int f) const { return cols.data() + f * n; }
  int* list(int f) { return order.data() + f * n; }
};

MonotonicGbdt::MonotonicGbdt(int embedding_dim, GbdtConfig config)
    : embedding_dim_(embedding_dim), config_(config) {
  assert(embedding_dim > 0);
}

std::vector<double> MonotonicGbdt::MakeFeatures(const std::vector<double>& h,
                                                int parallelism) const {
  std::vector<double> x = h;
  x.push_back(parallelism / config_.parallelism_scale);
  return x;
}

double MonotonicGbdt::Tree::Predict(const std::vector<double>& x) const {
  int node = 0;
  while (nodes[node].feature >= 0) {
    node = x[nodes[node].feature] < nodes[node].threshold ? nodes[node].left
                                                          : nodes[node].right;
  }
  return nodes[node].value;
}

int MonotonicGbdt::BuildNode(Tree* tree, FitState* state, int begin, int end,
                             int depth, double lower, double upper) {
  const int num_features = state->num_features;
  const double* grad = state->grad.data();
  const double* hess = state->hess.data();
  const int* copies = state->copies.data();
  const int* rows = state->list(num_features);  // ascending row ids
  double g_total = 0, h_total = 0;
  int count = 0;  // rows in the node, counting copies
  for (int k = begin; k < end; ++k) {
    g_total += grad[rows[k]];
    h_total += hess[rows[k]];
    count += copies[rows[k]];
  }
  const double lam = config_.reg_lambda;
  auto leaf_value = [&](double g, double h, double lo, double hi) {
    return Clamp(-g / (h + lam), lo, hi);
  };

  int node_id = static_cast<int>(tree->nodes.size());
  tree->nodes.emplace_back();
  const double value =
      config_.learning_rate * leaf_value(g_total, h_total, lower, upper);
  tree->nodes[node_id].value = value;
  auto make_leaf = [&] {
    for (int k = begin; k < end; ++k) state->margin[rows[k]] += value;
    return node_id;
  };

  if (!SearchesSplit(config_, depth, count)) return make_leaf();

  const int p_feature = num_features - 1;  // constrained feature

  double parent_score = g_total * g_total / (h_total + lam);
  double best_gain = config_.min_split_gain;
  int best_feature = -1;
  double best_threshold = 0;
  double best_wl = 0, best_wr = 0;
  int best_left_count = 0;

  for (int f = 0; f < num_features; ++f) {
    const int* ids = state->list(f);
    const double* x = state->col(f);
    // A feature constant within the node has no split point. Its list is
    // left unpartitioned below, which stays correct: every row of the
    // node's range, in whatever order, still has this one value.
    if (x[ids[begin]] == x[ids[end - 1]]) continue;
    double gl = 0, hl = 0;
    int cl = 0;
    for (int k = begin; k + 1 < end; ++k) {
      int i = ids[k];
      gl += grad[i];
      hl += hess[i];
      cl += copies[i];
      // Only split between distinct feature values.
      if (x[i] >= x[ids[k + 1]]) continue;
      double gr = g_total - gl, hr = h_total - hl;
      if (hl < config_.min_child_hessian || hr < config_.min_child_hessian) {
        continue;
      }
      if (cl < config_.min_samples_leaf ||
          count - cl < config_.min_samples_leaf) {
        continue;
      }
      double gain = 0.5 * (gl * gl / (hl + lam) + gr * gr / (hr + lam) -
                           parent_score);
      if (config_.enforce_monotonic && f == p_feature) {
        // Monotone DECREASING in p: left child (smaller p) must not predict
        // a lower value than the right child. Violations get gain = -inf
        // (i.e. are skipped).
        double wl = -gl / (hl + lam);
        double wr = -gr / (hr + lam);
        if (wl < wr) continue;
      }
      if (gain > best_gain) {
        best_gain = gain;
        best_feature = f;
        best_threshold = SplitThreshold(x[i], x[ids[k + 1]]);
        best_wl = Clamp(-gl / (hl + lam), lower, upper);
        best_wr = Clamp(-gr / (hr + lam), lower, upper);
        best_left_count = cl;
      }
    }
  }

  if (best_feature < 0) return make_leaf();  // no admissible split

  // Route each row as Tree::Predict will, then stable-partition the lists so
  // both children's ranges stay sorted. The row list is always partitioned;
  // the feature lists only when a child will search them.
  const double* split_col = state->col(best_feature);
  int mid = begin;
  for (int k = begin; k < end; ++k) {
    bool left = split_col[rows[k]] < best_threshold;
    state->goes_left[rows[k]] = left;
    mid += left;
  }
  assert(mid > begin && mid < end);
  const bool children_search =
      SearchesSplit(config_, depth + 1, best_left_count) ||
      SearchesSplit(config_, depth + 1, count - best_left_count);
  int* scratch = state->scratch.data();
  for (int f = children_search ? 0 : num_features; f <= num_features; ++f) {
    int* ids = state->list(f);
    if (f < num_features) {
      const double* x = state->col(f);
      if (x[ids[begin]] == x[ids[end - 1]]) continue;
    }
    // Branch-free: each row is written to both places, and only the cursor
    // on its side advances.
    int out = begin, spilled = 0;
    for (int k = begin; k < end; ++k) {
      int i = ids[k];
      int left = state->goes_left[i];
      ids[out] = i;
      scratch[spilled] = i;
      out += left;
      spilled += 1 - left;
    }
    std::copy(scratch, scratch + spilled, ids + out);
  }

  double l_lower = lower, l_upper = upper;
  double r_lower = lower, r_upper = upper;
  if (config_.enforce_monotonic && best_feature == p_feature) {
    // Propagate value bounds: left (small p) stays >= bound, right <= it.
    double bound = 0.5 * (best_wl + best_wr);
    l_lower = std::max(l_lower, bound);
    r_upper = std::min(r_upper, bound);
  }

  int left = BuildNode(tree, state, begin, mid, depth + 1, l_lower, l_upper);
  int right = BuildNode(tree, state, mid, end, depth + 1, r_lower, r_upper);
  tree->nodes[node_id].feature = best_feature;
  tree->nodes[node_id].threshold = best_threshold;
  tree->nodes[node_id].left = left;
  tree->nodes[node_id].right = right;
  return node_id;
}

Status MonotonicGbdt::Fit(const std::vector<LabeledSample>& data) {
  if (data.empty()) return Status::InvalidArgument("empty training set");
  for (const LabeledSample& s : data) {
    if (static_cast<int>(s.embedding.size()) != embedding_dim_) {
      return Status::InvalidArgument("embedding dimension mismatch");
    }
    for (double v : s.embedding) {
      if (!std::isfinite(v)) {
        return Status::InvalidArgument("non-finite embedding value");
      }
    }
  }
  // Fit on distinct rows: a row with c copies enters every gradient and
  // hessian sum once, weighted by c. Class weights and the prior count
  // copies.
  DistinctRows distinct = CollapseDuplicates(data);
  const size_t total = data.size();
  const size_t n = distinct.first.size();
  const int num_features = embedding_dim_ + 1;
  FitState state;
  state.n = n;
  state.num_features = num_features;
  state.copies = std::move(distinct.copies);
  state.cols.resize(num_features * n);
  std::vector<double> y(n);
  size_t positives = 0;
  for (size_t i = 0; i < n; ++i) {
    const LabeledSample& s = data[distinct.first[i]];
    const std::vector<double>& h = s.embedding;
    for (int f = 0; f < embedding_dim_; ++f) state.cols[f * n + i] = h[f];
    state.cols[embedding_dim_ * n + i] =
        s.parallelism / config_.parallelism_scale;
    y[i] = s.label == 1 ? 1.0 : 0.0;
    if (s.label == 1) positives += state.copies[i];
  }
  double w_pos = positives == 0 ? 1.0 : 0.5 * total / positives;
  double w_neg = positives == total ? 1.0 : 0.5 * total / (total - positives);

  double prior = Clamp(static_cast<double>(positives) / total, 0.02, 0.98);
  base_score_ = std::log(prior / (1.0 - prior));

  state.sorted.resize((num_features + 1) * n);
  for (int f = 0; f <= num_features; ++f) {
    int* ids = state.sorted.data() + f * n;
    std::iota(ids, ids + n, 0);
    if (f == num_features) break;  // the row list stays ascending
    const double* x = state.col(f);
    std::sort(ids, ids + n, [x](int a, int b) {
      return x[a] < x[b] || (x[a] == x[b] && a < b);
    });
  }
  state.scratch.resize(n);
  state.goes_left.resize(n);
  state.grad.resize(n);
  state.hess.resize(n);
  state.margin.assign(n, base_score_);

  trees_.clear();
  for (int m = 0; m < config_.num_trees; ++m) {
    for (size_t i = 0; i < n; ++i) {
      double s = Sigmoid(state.margin[i]);
      double w = y[i] > 0.5 ? w_pos : w_neg;
      double c = state.copies[i];  // exact: 1 * x == x
      state.grad[i] = c * (w * (s - y[i]));
      state.hess[i] = c * std::max(w * s * (1.0 - s), 1e-9);
    }
    state.order = state.sorted;
    Tree tree;
    // Adds each leaf's value to the margins of the rows that reach it.
    BuildNode(&tree, &state, 0, static_cast<int>(n), 0, -kInf, kInf);
    trees_.push_back(std::move(tree));
  }
  return Status::OK();
}

double MonotonicGbdt::PredictLogit(const std::vector<double>& h,
                                   int parallelism) const {
  std::vector<double> x = MakeFeatures(h, parallelism);
  double s = base_score_;
  for (const Tree& t : trees_) s += t.Predict(x);
  return s;
}

double MonotonicGbdt::PredictProbability(const std::vector<double>& h,
                                         int parallelism) const {
  return Sigmoid(PredictLogit(h, parallelism));
}

}  // namespace streamtune::ml
