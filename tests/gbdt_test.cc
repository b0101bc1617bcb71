#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <tuple>

#include "common/math_util.h"
#include "common/rng.h"
#include "ml/gbdt.h"

namespace streamtune::ml {
namespace {

std::vector<LabeledSample> ThresholdDataset(int n, Rng* rng) {
  std::vector<LabeledSample> data;
  for (int i = 0; i < n; ++i) {
    double knob = rng->Uniform();
    double threshold = 10 + 40 * knob;
    LabeledSample s;
    s.embedding = {knob, rng->Uniform(), rng->Uniform(), rng->Uniform()};
    s.parallelism = rng->UniformInt(1, 60);
    s.label = s.parallelism < threshold ? 1 : 0;
    data.push_back(std::move(s));
  }
  return data;
}

TEST(GbdtTest, RejectsBadInput) {
  MonotonicGbdt gbdt(4);
  EXPECT_FALSE(gbdt.Fit({}).ok());
  LabeledSample bad;
  bad.embedding = {1.0, 2.0};
  EXPECT_FALSE(gbdt.Fit({bad}).ok());
}

// A NaN breaks the strict weak ordering the presort relies on, and an
// infinity makes split thresholds meaningless: Fit refuses both, so the
// tuner falls back to its DS2 rule for that iteration.
TEST(GbdtTest, RejectsNonFiniteEmbedding) {
  const double kBad[] = {std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity()};
  for (double bad : kBad) {
    Rng rng(39);
    auto data = ThresholdDataset(7, &rng);
    data[3].embedding[2] = bad;
    MonotonicGbdt gbdt(4);
    Status st = gbdt.Fit(data);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << bad;
    EXPECT_EQ(gbdt.num_trees_built(), 0) << bad;
  }
}

TEST(GbdtTest, LearnsThresholdTask) {
  Rng rng(42);
  auto data = ThresholdDataset(500, &rng);
  MonotonicGbdt gbdt(4);
  ASSERT_TRUE(gbdt.Fit(data).ok());
  EXPECT_EQ(gbdt.num_trees_built(), GbdtConfig{}.num_trees);
  auto test = ThresholdDataset(200, &rng);
  int correct = 0;
  for (const auto& s : test) {
    if (gbdt.PredictBottleneck(s.embedding, s.parallelism) ==
        (s.label == 1)) {
      ++correct;
    }
  }
  EXPECT_GT(correct, 165) << "accuracy " << correct / 200.0;
}

// Property: the ensemble is non-increasing in the parallelism feature for
// arbitrary embeddings — the constraint must hold off-distribution too.
class GbdtMonotonicityTest : public ::testing::TestWithParam<int> {};

TEST_P(GbdtMonotonicityTest, LogitNonIncreasingInParallelism) {
  Rng rng(200 + GetParam());
  MonotonicGbdt gbdt(4);
  ASSERT_TRUE(gbdt.Fit(ThresholdDataset(300, &rng)).ok());
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> h{rng.Uniform(), rng.Uniform(), rng.Uniform(),
                          rng.Uniform()};
    double prev = gbdt.PredictLogit(h, 1);
    for (int p = 2; p <= 100; ++p) {
      double cur = gbdt.PredictLogit(h, p);
      EXPECT_LE(cur, prev + 1e-9) << "p=" << p << " trial=" << trial;
      prev = cur;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GbdtMonotonicityTest,
                         ::testing::Values(0, 1, 2, 3, 4));

TEST(GbdtTest, UnconstrainedModelCanViolateMonotonicity) {
  // Adversarial dataset: bottlenecks at HIGH parallelism (inverted world).
  // The unconstrained model should follow the data; the constrained one
  // cannot.
  Rng rng(31);
  std::vector<LabeledSample> data;
  for (int i = 0; i < 300; ++i) {
    LabeledSample s;
    s.embedding = {rng.Uniform(), rng.Uniform(), rng.Uniform(),
                   rng.Uniform()};
    s.parallelism = rng.UniformInt(1, 60);
    s.label = s.parallelism > 30 ? 1 : 0;  // inverted
    data.push_back(std::move(s));
  }
  GbdtConfig free_cfg;
  free_cfg.enforce_monotonic = false;
  MonotonicGbdt unconstrained(4, free_cfg);
  ASSERT_TRUE(unconstrained.Fit(data).ok());
  EXPECT_FALSE(unconstrained.is_monotonic());
  std::vector<double> h{0.5, 0.5, 0.5, 0.5};
  // Unconstrained follows the inverted data.
  EXPECT_GT(unconstrained.PredictLogit(h, 55),
            unconstrained.PredictLogit(h, 5));

  MonotonicGbdt constrained(4);
  ASSERT_TRUE(constrained.Fit(data).ok());
  EXPECT_TRUE(constrained.is_monotonic());
  // Constrained refuses to increase with p even on inverted data.
  double prev = constrained.PredictLogit(h, 1);
  for (int p = 2; p <= 60; ++p) {
    double cur = constrained.PredictLogit(h, p);
    EXPECT_LE(cur, prev + 1e-9);
    prev = cur;
  }
}

TEST(GbdtTest, SingleClassDataIsStable) {
  Rng rng(33);
  auto data = ThresholdDataset(100, &rng);
  for (auto& s : data) s.label = 1;
  MonotonicGbdt gbdt(4);
  ASSERT_TRUE(gbdt.Fit(data).ok());
  std::vector<double> h{0.5, 0.5, 0.5, 0.5};
  EXPECT_GT(gbdt.PredictProbability(h, 10), 0.5);
}

TEST(GbdtTest, RefitReplacesModel) {
  Rng rng(35);
  MonotonicGbdt gbdt(4);
  ASSERT_TRUE(gbdt.Fit(ThresholdDataset(100, &rng)).ok());
  int trees_before = gbdt.num_trees_built();
  ASSERT_TRUE(gbdt.Fit(ThresholdDataset(100, &rng)).ok());
  EXPECT_EQ(gbdt.num_trees_built(), trees_before);  // replaced, not appended
}

TEST(GbdtTest, DepthLimitRespected) {
  // With max_depth 1 the trees are stumps; prediction must still work.
  GbdtConfig cfg;
  cfg.max_depth = 1;
  cfg.num_trees = 10;
  Rng rng(37);
  MonotonicGbdt gbdt(4, cfg);
  ASSERT_TRUE(gbdt.Fit(ThresholdDataset(200, &rng)).ok());
  std::vector<double> h{0.5, 0.5, 0.5, 0.5};
  double p = gbdt.PredictProbability(h, 10);
  EXPECT_GE(p, 0.0);
  EXPECT_LE(p, 1.0);
}

// Same embedding bit for bit, same parallelism, same label.
bool Identical(const LabeledSample& a, const LabeledSample& b) {
  return a.parallelism == b.parallelism && a.label == b.label &&
         a.embedding.size() == b.embedding.size() &&
         std::memcmp(a.embedding.data(), b.embedding.data(),
                     a.embedding.size() * sizeof(double)) == 0;
}

// The per-node-sort exact greedy fit that MonotonicGbdt::Fit replaced: it
// re-sorts every feature by (value, row) at every node and routes rows with
// Predict. With `collapse` it first merges identical rows into weighted
// ones by a quadratic search, as Fit does with its hash table; without, it
// is the unweighted fit. The presorted Fit must build the very same
// ensemble as the collapsing reference.
class ReferenceGbdt {
 public:
  explicit ReferenceGbdt(const GbdtConfig& cfg) : cfg_(cfg) {}

  void RefFit(const std::vector<LabeledSample>& data, bool collapse = true) {
    std::vector<const LabeledSample*> rows;  // first occurrences
    copies_.clear();
    for (const LabeledSample& s : data) {
      size_t d = collapse ? 0 : rows.size();
      while (d < rows.size() && !Identical(*rows[d], s)) ++d;
      if (d == rows.size()) {
        rows.push_back(&s);
        copies_.push_back(0);
      }
      ++copies_[d];
    }
    const size_t total = data.size();
    const size_t n = rows.size();
    std::vector<std::vector<double>> x(n);
    std::vector<double> y(n);
    size_t pos = 0;
    for (size_t i = 0; i < n; ++i) {
      x[i] = Features(rows[i]->embedding, rows[i]->parallelism);
      y[i] = rows[i]->label == 1 ? 1.0 : 0.0;
      if (rows[i]->label == 1) pos += copies_[i];
    }
    double w_pos = pos == 0 ? 1.0 : 0.5 * total / pos;
    double w_neg = pos == total ? 1.0 : 0.5 * total / (total - pos);
    double prior = Clamp(static_cast<double>(pos) / total, 0.02, 0.98);
    base_ = std::log(prior / (1.0 - prior));
    std::vector<double> margin(n, base_), grad(n), hess(n);
    std::vector<int> all(n);
    std::iota(all.begin(), all.end(), 0);
    for (int m = 0; m < cfg_.num_trees; ++m) {
      for (size_t i = 0; i < n; ++i) {
        double s = Sigmoid(margin[i]);
        double w = y[i] > 0.5 ? w_pos : w_neg;
        grad[i] = copies_[i] * (w * (s - y[i]));
        hess[i] = copies_[i] * std::max(w * s * (1.0 - s), 1e-9);
      }
      trees_.emplace_back();
      Grow(&trees_.back(), x, grad, hess, all, 0, -kInf, kInf);
      for (size_t i = 0; i < n; ++i) margin[i] += Walk(trees_.back(), x[i]);
    }
  }

  double RefLogit(const std::vector<double>& h, int p) const {
    std::vector<double> x = Features(h, p);
    double s = base_;
    for (const Tree& t : trees_) s += Walk(t, x);
    return s;
  }

 private:
  static constexpr double kInf = std::numeric_limits<double>::infinity();
  struct Node {
    int feature = -1, left = -1, right = -1;
    double threshold = 0, value = 0;
  };
  using Tree = std::vector<Node>;

  std::vector<double> Features(const std::vector<double>& h, int p) const {
    std::vector<double> x = h;
    x.push_back(p / cfg_.parallelism_scale);
    return x;
  }

  static double Walk(const Tree& t, const std::vector<double>& x) {
    int v = 0;
    while (t[v].feature >= 0) {
      v = x[t[v].feature] < t[v].threshold ? t[v].left : t[v].right;
    }
    return t[v].value;
  }

  int Grow(Tree* t, const std::vector<std::vector<double>>& x,
           const std::vector<double>& g, const std::vector<double>& h,
           const std::vector<int>& idx, int depth, double lo, double hi) {
    double gt = 0, ht = 0;
    int sz = 0;  // rows, counting copies
    for (int i : idx) gt += g[i], ht += h[i], sz += copies_[i];
    const double lam = cfg_.reg_lambda;
    int id = static_cast<int>(t->size());
    t->emplace_back();
    (*t)[id].value = cfg_.learning_rate * Clamp(-gt / (ht + lam), lo, hi);
    if (depth >= cfg_.max_depth || sz < 2 * cfg_.min_samples_leaf) return id;
    const int nf = static_cast<int>(x[0].size());
    double parent = gt * gt / (ht + lam), best = cfg_.min_split_gain;
    int bf = -1;
    double thr = 0, bwl = 0, bwr = 0;
    std::vector<int> s = idx;
    for (int f = 0; f < nf; ++f) {
      std::sort(s.begin(), s.end(), [&](int a, int b) {
        return x[a][f] < x[b][f] || (x[a][f] == x[b][f] && a < b);
      });
      double gl = 0, hl = 0;
      int cl = 0;
      for (size_t k = 0; k + 1 < s.size(); ++k) {
        gl += g[s[k]], hl += h[s[k]], cl += copies_[s[k]];
        if (x[s[k]][f] >= x[s[k + 1]][f]) continue;
        double gr = gt - gl, hr = ht - hl;
        if (hl < cfg_.min_child_hessian || hr < cfg_.min_child_hessian) continue;
        if (cl < cfg_.min_samples_leaf || sz - cl < cfg_.min_samples_leaf)
          continue;
        double gain =
            0.5 * (gl * gl / (hl + lam) + gr * gr / (hr + lam) - parent);
        double wl = -gl / (hl + lam), wr = -gr / (hr + lam);
        if (cfg_.enforce_monotonic && f == nf - 1 && wl < wr) continue;
        if (gain > best) {
          best = gain, bf = f;
          thr = 0.5 * (x[s[k]][f] + x[s[k + 1]][f]);
          // Adjacent doubles (or overflow): split at the upper value.
          if (!(x[s[k]][f] < thr && thr <= x[s[k + 1]][f])) {
            thr = x[s[k + 1]][f];
          }
          bwl = Clamp(wl, lo, hi), bwr = Clamp(wr, lo, hi);
        }
      }
    }
    if (bf < 0) return id;
    std::vector<int> li, ri;
    for (int i : idx) (x[i][bf] < thr ? li : ri).push_back(i);
    double l_lo = lo, r_hi = hi;
    if (cfg_.enforce_monotonic && bf == nf - 1) {
      l_lo = std::max(lo, 0.5 * (bwl + bwr));
      r_hi = std::min(hi, 0.5 * (bwl + bwr));
    }
    int l = Grow(t, x, g, h, li, depth + 1, l_lo, hi);
    int r = Grow(t, x, g, h, ri, depth + 1, lo, r_hi);
    (*t)[id].feature = bf, (*t)[id].threshold = thr;
    (*t)[id].left = l, (*t)[id].right = r;
    return id;
  }

  GbdtConfig cfg_;
  std::vector<int> copies_;  // per distinct row
  double base_ = 0;
  std::vector<Tree> trees_;
};

constexpr int kTunerDim = 6;
constexpr int kTunerMaxP = 64;

// Shaped like a tuner's M_f training set: ~120 diverse warm-up rows on a
// coarse value grid, then feedback rows from a few operators whose
// embeddings repeat every iteration, each repeated `copies` times (the
// tuner triples them) and followed by its halved-p (bottleneck) or
// doubled-p (clean) augmentation. Column 1 is the same in every row.
std::vector<LabeledSample> TunerLikeDataset(uint64_t seed, int copies = 3) {
  Rng rng(seed);
  auto grid = [&rng] { return rng.UniformInt(0, 8) / 8.0; };
  std::vector<LabeledSample> data;
  for (int i = 0; i < 120; ++i) {
    LabeledSample s;
    s.embedding = {grid(), 0.5, grid(), rng.Uniform(), grid(), grid()};
    s.parallelism = rng.UniformInt(1, kTunerMaxP);
    s.label = s.parallelism < 8 + 40 * s.embedding[0] ? 1 : 0;
    data.push_back(std::move(s));
  }
  std::vector<std::vector<double>> ops;
  for (int v = 0; v < 4; ++v) {
    ops.push_back({grid(), 0.5, grid(), rng.Uniform(), grid(), grid()});
  }
  for (int iter = 0; iter < 12; ++iter) {
    for (size_t v = 0; v < ops.size(); ++v) {
      LabeledSample s;
      s.embedding = ops[v];
      s.parallelism = rng.UniformInt(1, kTunerMaxP);
      s.label = s.parallelism < 10 + 8 * static_cast<int>(v) ? 1 : 0;
      std::vector<LabeledSample> induced(copies, s);
      if (s.label == 1 && s.parallelism > 1) {
        induced.push_back(s);
        induced.back().parallelism = s.parallelism / 2;
      } else if (s.label == 0 && s.parallelism < kTunerMaxP) {
        induced.push_back(s);
        induced.back().parallelism = std::min(kTunerMaxP, 2 * s.parallelism);
      }
      data.insert(data.end(), induced.begin(), induced.end());
    }
  }
  return data;
}

// Every training embedding and a few fresh ones.
std::vector<std::vector<double>> Probes(
    const std::vector<LabeledSample>& data) {
  std::vector<std::vector<double>> probes;
  for (const LabeledSample& s : data) probes.push_back(s.embedding);
  Rng rng(41);
  for (int i = 0; i < 8; ++i) {
    probes.push_back({rng.Uniform(), rng.Uniform(), rng.Uniform(),
                      rng.Uniform(), rng.Uniform(), rng.Uniform()});
  }
  return probes;
}

// Fits both implementations and compares PredictLogit bit for bit at every
// probe, for every degree 1..kTunerMaxP+1. `collapse_ref` picks the
// reference's weighted (true) or unweighted (false) fit.
void ExpectSameEnsemble(const std::vector<LabeledSample>& data,
                        const GbdtConfig& cfg, bool collapse_ref = true) {
  MonotonicGbdt gbdt(kTunerDim, cfg);
  ASSERT_TRUE(gbdt.Fit(data).ok());
  ReferenceGbdt ref(cfg);
  ref.RefFit(data, collapse_ref);
  const std::vector<std::vector<double>> probes = Probes(data);
  for (size_t e = 0; e < probes.size(); ++e) {
    for (int p = 1; p <= kTunerMaxP + 1; ++p) {
      double got = gbdt.PredictLogit(probes[e], p);
      double want = ref.RefLogit(probes[e], p);
      EXPECT_EQ(got, want) << "probe " << e << " p=" << p;
      if (got != want) return;  // one report per ensemble
    }
  }
}

using EqualityParam = std::tuple<bool, int, int>;  // monotone, depth, leaf
class GbdtEqualityTest : public ::testing::TestWithParam<EqualityParam> {};

TEST_P(GbdtEqualityTest, PresortedFitMatchesPerNodeSort) {
  GbdtConfig cfg;
  std::tie(cfg.enforce_monotonic, cfg.max_depth, cfg.min_samples_leaf) =
      GetParam();
  for (uint64_t seed : {1, 2}) {
    SCOPED_TRACE(seed);
    ExpectSameEnsemble(TunerLikeDataset(seed), cfg);
  }
}

INSTANTIATE_TEST_SUITE_P(Configs, GbdtEqualityTest,
                         ::testing::Combine(::testing::Bool(),
                                            ::testing::Values(1, 4, 6),
                                            ::testing::Values(1, 2, 5)));

// Without duplicates every copy count is 1, so Fit must be the unweighted
// fit bit for bit. The tuner-shaped rows without their {s, s, s} copies can
// still repeat (an operator seen twice at one degree); those are dropped.
TEST(GbdtTest, DuplicateFreeFitMatchesUncollapsedReference) {
  for (uint64_t seed : {1, 2}) {
    std::vector<LabeledSample> data;
    for (LabeledSample& s : TunerLikeDataset(seed, /*copies=*/1)) {
      bool seen = false;
      for (const LabeledSample& kept : data) seen = seen || Identical(kept, s);
      if (!seen) data.push_back(std::move(s));
    }
    for (bool monotone : {false, true}) {
      for (int depth : {1, 4, 6}) {
        for (int leaf : {1, 2, 5}) {
          SCOPED_TRACE(::testing::Message()
                       << "seed " << seed << " monotone " << monotone
                       << " depth " << depth << " leaf " << leaf);
          GbdtConfig cfg;
          cfg.enforce_monotonic = monotone;
          cfg.max_depth = depth;
          cfg.min_samples_leaf = leaf;
          ExpectSameEnsemble(data, cfg, /*collapse_ref=*/false);
        }
      }
    }
  }
}

// The ensemble is a function of the multiset of rows (with distinct rows in
// first-occurrence order): moving every repeat of a row from next to its
// first occurrence to the end of the data changes nothing.
TEST(GbdtTest, FitDependsOnlyOnRowMultiset) {
  for (uint64_t seed : {1, 2}) {
    SCOPED_TRACE(seed);
    const std::vector<LabeledSample> adjacent = TunerLikeDataset(seed);
    std::vector<LabeledSample> firsts, repeats;
    for (const LabeledSample& s : adjacent) {
      bool seen = false;
      for (const LabeledSample& f : firsts) seen = seen || Identical(f, s);
      (seen ? repeats : firsts).push_back(s);
    }
    ASSERT_GT(repeats.size(), adjacent.size() / 3);
    std::vector<LabeledSample> appended = firsts;
    appended.insert(appended.end(), repeats.begin(), repeats.end());

    for (int leaf : {1, 2, 5}) {
      GbdtConfig cfg;
      cfg.min_samples_leaf = leaf;
      MonotonicGbdt a(kTunerDim, cfg), b(kTunerDim, cfg);
      ASSERT_TRUE(a.Fit(adjacent).ok());
      ASSERT_TRUE(b.Fit(appended).ok());
      for (const std::vector<double>& h : Probes(adjacent)) {
        for (int p = 1; p <= kTunerMaxP + 1; ++p) {
          ASSERT_EQ(a.PredictLogit(h, p), b.PredictLogit(h, p))
              << "leaf " << leaf << " p=" << p;
        }
      }
    }
  }
}

TEST(GbdtTest, PresortedFitMatchesPerNodeSortOnTinyInputs) {
  auto data = TunerLikeDataset(3);
  for (int leaf : {1, 2}) {
    GbdtConfig cfg;
    cfg.min_samples_leaf = leaf;
    for (size_t n : {1, 2, 3, 7}) {
      SCOPED_TRACE(::testing::Message() << "n=" << n << " leaf=" << leaf);
      ExpectSameEnsemble({data.end() - n, data.end()}, cfg);
    }
  }
}

TEST(GbdtTest, PresortedFitMatchesPerNodeSortWhenEveryValueTies) {
  // Every column constant, labels mixed: no split point exists anywhere.
  std::vector<LabeledSample> data(30);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i].embedding.assign(kTunerDim, 0.25);
    data[i].parallelism = 16;
    data[i].label = i % 3 == 0 ? 1 : 0;
  }
  ExpectSameEnsemble(data, GbdtConfig{});
}

// Adjacent doubles a < b: 0.5 * (a + b) rounds onto a, so a threshold at
// the midpoint routes every row right and leaves the left child empty.
// Near the top of the range the midpoint overflows instead. Either way the
// split must fall back to b and separate the two values.
TEST(GbdtTest, SplitsBetweenAdjacentAndHugeValues) {
  const double kPairs[][2] = {{1.0, std::nextafter(1.0, 2.0)},
                              {1.5e308, 1.6e308}};
  for (const auto& [a, b] : kPairs) {
    SCOPED_TRACE(::testing::Message() << a << " < " << b);
    std::vector<LabeledSample> data(8);
    for (size_t i = 0; i < data.size(); ++i) {
      data[i].embedding.assign(kTunerDim, 0.5);
      data[i].embedding[0] = i < 4 ? a : b;
      data[i].parallelism = 16;
      data[i].label = i < 4 ? 1 : 0;
    }
    MonotonicGbdt gbdt(kTunerDim);
    ASSERT_TRUE(gbdt.Fit(data).ok());
    EXPECT_GT(gbdt.PredictProbability(data.front().embedding, 16), 0.5);
    EXPECT_LT(gbdt.PredictProbability(data.back().embedding, 16), 0.5);
    ExpectSameEnsemble(data, GbdtConfig{});
  }
}

}  // namespace
}  // namespace streamtune::ml
