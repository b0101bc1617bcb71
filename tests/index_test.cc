#include "index/nearest_center_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <thread>

#include "graph/ged.h"
#include "graph/ged_cache.h"
#include "graph/ged_kmeans.h"
#include "workloads/pqp.h"
#include "workloads/random_dag.h"

namespace streamtune::index {
namespace {

JobGraph Pqp(workloads::PqpTemplate t, int variant) {
  return workloads::BuildPqpJob(t, variant);
}

// Compact DAG shape for the high-count property tests: the exactness
// contract is shape-independent, and small graphs keep the *linear-scan
// reference side* (unpruned A* GED per pair) affordable at 1k x 32 scale.
workloads::RandomDagConfig CompactShape() {
  workloads::RandomDagConfig cfg;
  cfg.max_sources = 2;
  cfg.max_chain_length = 2;
  return cfg;
}

// The same wiring inserted in two different operator orders.
JobGraph DiamondInOrder(bool reversed) {
  JobGraph g("diamond");
  OperatorSpec src;
  src.name = "src";
  src.type = OperatorType::kSource;
  src.source_rate = 1000;
  OperatorSpec map;
  map.name = "map";
  map.type = OperatorType::kMap;
  OperatorSpec filter;
  filter.name = "filter";
  filter.type = OperatorType::kFilter;
  OperatorSpec sink;
  sink.name = "sink";
  sink.type = OperatorType::kSink;
  if (!reversed) {
    int s = g.AddOperator(src), m = g.AddOperator(map),
        f = g.AddOperator(filter), k = g.AddOperator(sink);
    EXPECT_TRUE(g.AddEdge(s, m).ok());
    EXPECT_TRUE(g.AddEdge(s, f).ok());
    EXPECT_TRUE(g.AddEdge(m, k).ok());
    EXPECT_TRUE(g.AddEdge(f, k).ok());
  } else {
    int k = g.AddOperator(sink), f = g.AddOperator(filter),
        m = g.AddOperator(map), s = g.AddOperator(src);
    EXPECT_TRUE(g.AddEdge(s, m).ok());
    EXPECT_TRUE(g.AddEdge(s, f).ok());
    EXPECT_TRUE(g.AddEdge(m, k).ok());
    EXPECT_TRUE(g.AddEdge(f, k).ok());
  }
  return g;
}

// The graph's WL signature is its CanonicalHash; the index keys on the
// scalar features. Both must ignore operator insertion order.
TEST(WlSignatureTest, IsomorphicGraphsShareSignatureAndFeatures) {
  JobGraph a = DiamondInOrder(false);
  JobGraph b = DiamondInOrder(true);
  EXPECT_EQ(ComputeGraphFeatures(a), ComputeGraphFeatures(b));
  EXPECT_EQ(a.CanonicalHash(), b.CanonicalHash());
}

TEST(WlSignatureTest, DifferentStructuresDiffer) {
  JobGraph a = Pqp(workloads::PqpTemplate::kLinear, 0);
  JobGraph b = Pqp(workloads::PqpTemplate::kThreeWayJoin, 0);
  EXPECT_FALSE(ComputeGraphFeatures(a) == ComputeGraphFeatures(b));
  EXPECT_NE(a.CanonicalHash(), b.CanonicalHash());
  EXPECT_GT(
      FeatureLowerBound(ComputeGraphFeatures(a), ComputeGraphFeatures(b)),
      0.0);
}

TEST(WlSignatureTest, FeatureLowerBoundEqualsLabelSetLowerBound) {
  auto graphs = workloads::GenerateRandomDags(60, /*seed=*/271);
  for (size_t i = 0; i + 1 < graphs.size(); i += 2) {
    const JobGraph& a = graphs[i];
    const JobGraph& b = graphs[i + 1];
    EXPECT_DOUBLE_EQ(
        FeatureLowerBound(ComputeGraphFeatures(a), ComputeGraphFeatures(b)),
        graph::LabelSetLowerBound(a, b))
        << "pair " << i;
  }
}

TEST(WlSignatureTest, LowerBoundIsSoundOnRandomPairs) {
  auto graphs = workloads::GenerateRandomDags(40, /*seed=*/99);
  for (size_t i = 0; i + 1 < graphs.size(); i += 2) {
    const JobGraph& a = graphs[i];
    const JobGraph& b = graphs[i + 1];
    const double lb =
        FeatureLowerBound(ComputeGraphFeatures(a), ComputeGraphFeatures(b));
    const graph::GedResult r = graph::ComputeGed(a, b);
    ASSERT_TRUE(r.exact);
    EXPECT_LE(lb, r.distance + 1e-9);
  }
}

// ---- The exactness contract ------------------------------------------------

// Two-stage nearest == linear scan, bit for bit: same center index, same
// distance, over 1k random graphs x 32 random centers (seeded).
TEST(NearestCenterIndexTest, TwoStageMatchesLinearScanOn1kx32) {
  const auto centers =
      workloads::GenerateRandomDags(32, /*seed=*/4242, CompactShape());
  const auto queries =
      workloads::GenerateRandomDags(1000, /*seed=*/1717, CompactShape());

  NearestCenterIndex idx;
  for (const JobGraph& c : centers) idx.Insert(c);
  const auto at = [&centers](int i) -> const JobGraph& {
    return centers[i];
  };

  // Independent caches per path: GedCache's order-independent answer
  // policy is exactly what makes results agree no matter which path
  // warmed which entries.
  graph::GedCache linear_cache;
  graph::GedCache indexed_cache;

  long long evaluated = 0;
  for (const JobGraph& q : queries) {
    const std::vector<double> dist =
        graph::DistancesToCenters(q, centers, &linear_cache);
    const int linear_idx = static_cast<int>(
        std::min_element(dist.begin(), dist.end()) - dist.begin());
    const double linear_dist = dist[linear_idx];

    const NearestCenterIndex::NearestResult two_stage =
        idx.Nearest(q, at, &indexed_cache);
    ASSERT_EQ(two_stage.index, linear_idx) << q.name();
    ASSERT_DOUBLE_EQ(two_stage.distance, linear_dist) << q.name();
    evaluated += two_stage.evaluated;
  }

  const NearestCenterIndex::QueryStats stats = idx.query_stats();
  EXPECT_EQ(stats.queries, 1000);
  EXPECT_EQ(stats.candidates, 32 * 1000);
  EXPECT_EQ(stats.evaluated, evaluated);
  // The index must actually prune; random 32-center corpora leave plenty
  // of lower-bound slack.
  EXPECT_LT(stats.evaluated, stats.candidates);
}

TEST(NearestCenterIndexTest, CacheLessPathMatchesToo) {
  const auto centers =
      workloads::GenerateRandomDags(16, /*seed=*/5, CompactShape());
  const auto queries =
      workloads::GenerateRandomDags(50, /*seed=*/6, CompactShape());
  NearestCenterIndex idx;
  for (const JobGraph& c : centers) idx.Insert(c);
  const auto at = [&centers](int i) -> const JobGraph& {
    return centers[i];
  };
  for (const JobGraph& q : queries) {
    const int linear = graph::NearestCenter(q, centers);
    const auto r = idx.Nearest(q, at);
    EXPECT_EQ(r.index, linear);
  }
}

// Same equality at the default (larger) DAG shape, smaller count: catches
// anything the compact shape can't reach (deeper WL refinement, wider
// feature histograms).
TEST(NearestCenterIndexTest, TwoStageMatchesLinearScanAtDefaultShape) {
  const auto centers = workloads::GenerateRandomDags(8, /*seed=*/8080);
  const auto queries = workloads::GenerateRandomDags(10, /*seed=*/8081);
  NearestCenterIndex idx;
  for (const JobGraph& c : centers) idx.Insert(c);
  const auto at = [&centers](int i) -> const JobGraph& {
    return centers[i];
  };
  graph::GedCache linear_cache;
  graph::GedCache indexed_cache;
  for (const JobGraph& q : queries) {
    const std::vector<double> dist =
        graph::DistancesToCenters(q, centers, &linear_cache);
    const int linear_idx = static_cast<int>(
        std::min_element(dist.begin(), dist.end()) - dist.begin());
    const auto r = idx.Nearest(q, at, &indexed_cache);
    ASSERT_EQ(r.index, linear_idx) << q.name();
    ASSERT_DOUBLE_EQ(r.distance, dist[linear_idx]) << q.name();
  }
}

TEST(NearestCenterIndexTest, FindsExactDuplicateAtDistanceZero) {
  const auto centers = workloads::GenerateRandomDags(8, /*seed=*/31);
  NearestCenterIndex idx;
  for (const JobGraph& c : centers) idx.Insert(c);
  const auto at = [&centers](int i) -> const JobGraph& {
    return centers[i];
  };
  for (int i = 0; i < static_cast<int>(centers.size()); ++i) {
    const auto r = idx.Nearest(centers[i], at);
    EXPECT_EQ(r.index, i);
    EXPECT_DOUBLE_EQ(r.distance, 0.0);
  }
}

// Every ged-0 column has lower bound 0, and the lb-0 prefix is visited in
// ascending id. No other center here shares the query's features, so the
// lowest-id duplicate is the probe and its distance 0 ends the search after
// one GED call.
TEST(NearestCenterIndexTest, DuplicateCentersResolveToLowestIdInOneSearch) {
  const auto graphs = workloads::GenerateRandomDags(6, /*seed=*/41);
  ASSERT_FALSE(ComputeGraphFeatures(graphs[0]) ==
               ComputeGraphFeatures(graphs[1]));
  const std::vector<JobGraph> centers = {graphs[0], graphs[1], graphs[2],
                                         graphs[1], graphs[3], graphs[1]};
  NearestCenterIndex idx;
  for (const JobGraph& c : centers) idx.Insert(c);
  const auto at = [&centers](int i) -> const JobGraph& {
    return centers[i];
  };
  const auto r = idx.Nearest(graphs[1], at);
  EXPECT_EQ(r.index, 1);
  EXPECT_DOUBLE_EQ(r.distance, 0.0);
  EXPECT_EQ(r.evaluated, 1);
}

TEST(NearestCenterIndexTest, ConcurrentQueriesAgreeWithSerialAnswers) {
  const auto centers =
      workloads::GenerateRandomDags(24, /*seed=*/303, CompactShape());
  const auto queries =
      workloads::GenerateRandomDags(48, /*seed=*/304, CompactShape());
  NearestCenterIndex idx;
  for (const JobGraph& c : centers) idx.Insert(c);
  // The shared-graph contract: adjacency warmed before publication.
  for (const JobGraph& c : centers) c.WarmAdjacency();
  for (const JobGraph& q : queries) q.WarmAdjacency();
  const auto at = [&centers](int i) -> const JobGraph& {
    return centers[i];
  };

  std::vector<int> serial(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    serial[i] = idx.Nearest(queries[i], at).index;
  }

  constexpr int kThreads = 8;
  std::vector<std::array<int, 48>> got(kThreads);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (size_t i = 0; i < queries.size(); ++i) {
        got[t][i] = idx.Nearest(queries[i], at).index;
      }
    });
  }
  for (std::thread& w : workers) w.join();
  for (int t = 0; t < kThreads; ++t) {
    for (size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(got[t][i], serial[i]) << "thread " << t << " query " << i;
    }
  }
  const NearestCenterIndex::QueryStats stats = idx.query_stats();
  EXPECT_EQ(stats.queries,
            static_cast<long long>((kThreads + 1) * queries.size()));
}

TEST(NearestCenterIndexTest, EmptyIndexReturnsNoResult) {
  NearestCenterIndex idx;
  const JobGraph q = Pqp(workloads::PqpTemplate::kLinear, 0);
  const auto r = idx.Nearest(q, [&q](int) -> const JobGraph& { return q; });
  EXPECT_EQ(r.index, -1);
  EXPECT_TRUE(std::isinf(r.distance));
  EXPECT_EQ(r.evaluated, 0);
}

TEST(NearestCenterIndexTest, CopiesKeepColumnsButStartWithColdStats) {
  const auto centers = workloads::GenerateRandomDags(8, /*seed=*/12);
  NearestCenterIndex idx;
  for (const JobGraph& c : centers) idx.Insert(c);
  const auto at = [&centers](int i) -> const JobGraph& {
    return centers[i];
  };
  (void)idx.Nearest(centers[3], at);
  ASSERT_EQ(idx.query_stats().queries, 1);

  NearestCenterIndex copy = idx;
  EXPECT_EQ(copy.size(), idx.size());
  EXPECT_EQ(copy.query_stats().queries, 0);
  // The copy still answers correctly, from every column.
  for (int i = 0; i < idx.size(); ++i) {
    EXPECT_EQ(copy.Nearest(centers[i], at).index, i);
  }
}

}  // namespace
}  // namespace streamtune::index
