// Property tests for the ParallelReduce determinism contract: at every
// thread count and with the null pool, the parallel map + index-order fold
// is bit-identical to the serial left fold — on integer, double, struct and
// vector accumulators.

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

#include "common/parallel_reduce.h"
#include "common/thread_pool.h"

namespace streamtune {
namespace {

// Runs fn(pool, threads) with the null pool (threads == 0) and with real
// pools of 1, 2 and 8 threads.
template <typename Fn>
void ForEachPool(const Fn& fn) {
  fn(static_cast<ThreadPool*>(nullptr), 0);
  for (int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    fn(&pool, threads);
  }
}

// Deterministic pseudo-random doubles that are NOT exactly reassociable
// (many mantissa bits set).
double Noisy(int64_t i) {
  return 1.0 / static_cast<double>(i + 3) + static_cast<double>(i % 7);
}

TEST(ParallelReduceTest, IntSumMatchesSerialFoldEverywhere) {
  const int64_t n = 1000;
  int64_t expected = 0;
  for (int64_t i = 0; i < n; ++i) expected += i * i - 3 * i;
  ForEachPool([&](ThreadPool* pool, int threads) {
    const int64_t got = ParallelReduce(
        pool, 0, n, int64_t{0}, [](int64_t i) { return i * i - 3 * i; },
        [](int64_t& a, int64_t b) { a += b; });
    EXPECT_EQ(got, expected) << "x" << threads;
  });
}

TEST(ParallelReduceTest, ExactDoubleSumMatchesSerialFoldEverywhere) {
  // Multiples of 0.25 up to a few thousand: every partial sum is
  // representable. Bit-identity, not tolerance.
  const int64_t n = 4096;
  auto quarter = [](int64_t i) { return 0.25 * static_cast<double>(i % 97); };
  double expected = 0.0;
  for (int64_t i = 0; i < n; ++i) expected += quarter(i);
  ForEachPool([&](ThreadPool* pool, int threads) {
    const double got = ParallelReduce(pool, 0, n, 0.0, quarter,
                                      [](double& a, double b) { a += b; });
    EXPECT_EQ(got, expected) << "x" << threads;
  });
}

TEST(ParallelReduceTest, OrderedOnlyDoubleSumClampsToSerialOrder) {
  // An arbitrary double sum is NOT reassociable: only the serial combine
  // order reproduces it to the bit, so the fold must keep index order at
  // every pool width.
  const int64_t n = 777;
  double expected = 0.0;
  for (int64_t i = 0; i < n; ++i) expected += Noisy(i);
  ForEachPool([&](ThreadPool* pool, int threads) {
    const double got = ParallelReduce(pool, 0, n, 0.0, Noisy,
                                      [](double& a, double b) { a += b; });
    EXPECT_EQ(got, expected) << "x" << threads;
  });
}

struct ArgMax {
  double value = -1e300;
  int64_t index = -1;
};

TEST(ParallelReduceTest, StructArgmaxWithTieBreakEverywhere) {
  // value(i) collides on purpose (i % 50) so the lowest-index tie-break
  // decides the answer.
  const int64_t n = 500;
  auto value = [](int64_t i) { return static_cast<double>(i % 50); };
  auto combine = [](ArgMax& a, const ArgMax& b) {
    if (b.value > a.value || (b.value == a.value && b.index < a.index)) a = b;
  };
  ArgMax expected;
  for (int64_t i = 0; i < n; ++i) combine(expected, ArgMax{value(i), i});
  ForEachPool([&](ThreadPool* pool, int threads) {
    const ArgMax got = ParallelReduce(
        pool, 0, n, ArgMax{}, [&](int64_t i) { return ArgMax{value(i), i}; },
        combine);
    EXPECT_EQ(got.value, expected.value) << "x" << threads;
    EXPECT_EQ(got.index, expected.index) << "x" << threads;
  });
}

TEST(ParallelReduceTest, VectorConcatIsAssociativeNotCommutative) {
  // Concatenation is order-sensitive: the fold must keep index order.
  const int64_t n = 300;
  std::vector<int> expected;
  for (int64_t i = 0; i < n; ++i) expected.push_back(static_cast<int>(i));
  ForEachPool([&](ThreadPool* pool, int threads) {
    const std::vector<int> got = ParallelReduce(
        pool, 0, n, std::vector<int>{},
        [](int64_t i) { return std::vector<int>{static_cast<int>(i)}; },
        [](std::vector<int>& a, const std::vector<int>& b) {
          a.insert(a.end(), b.begin(), b.end());
        });
    EXPECT_EQ(got, expected) << "x" << threads;
  });
}

TEST(ParallelReduceTest, EmptyRangeReturnsInit) {
  ForEachPool([&](ThreadPool* pool, int threads) {
    const int got = ParallelReduce(
        pool, 10, 10, 42, [](int64_t) { return 1; },
        [](int& a, int b) { a += b; });
    EXPECT_EQ(got, 42) << "x" << threads;
  });
}

TEST(ParallelReduceTest, NullPoolRunsSerialReferenceFold) {
  const int64_t n = 100;
  double expected = 0.0;
  for (int64_t i = 0; i < n; ++i) expected += Noisy(i);
  const double got = ParallelReduce(
      static_cast<ThreadPool*>(nullptr), 0, n, 0.0, Noisy,
      [](double& a, double b) { a += b; });
  EXPECT_EQ(got, expected);
}

TEST(ParallelReduceTest, MapRunsExactlyOncePerIndex) {
  const int64_t n = 1024;
  ForEachPool([&](ThreadPool* pool, int threads) {
    std::vector<std::atomic<int>> calls(n);
    for (auto& c : calls) c.store(0);
    (void)ParallelReduce(
        pool, 0, n, int64_t{0},
        [&](int64_t i) {
          calls[i].fetch_add(1, std::memory_order_relaxed);
          return i;
        },
        [](int64_t& a, int64_t b) { a += b; });
    for (int64_t i = 0; i < n; ++i) {
      ASSERT_EQ(calls[i].load(), 1) << "x" << threads << " index " << i;
    }
  });
}

TEST(ParallelReduceTest, ExceptionPropagatesFromMap) {
  // Two indices fail; the lowest one's exception is the one rethrown.
  ForEachPool([&](ThreadPool* pool, int threads) {
    try {
      (void)ParallelReduce(
          pool, 0, 512, 0,
          [](int64_t i) -> int {
            if (i == 300) throw std::runtime_error("boom 300");
            if (i == 400) throw std::runtime_error("boom 400");
            return 1;
          },
          [](int& a, int b) { a += b; });
      ADD_FAILURE() << "no exception x" << threads;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "boom 300") << "x" << threads;
    }
  });
}

}  // namespace
}  // namespace streamtune
