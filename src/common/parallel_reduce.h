// ParallelReduce: a deterministic parallel map with an ordered fold
// (DESIGN.md §14).
//
// Reduces map(i) over i in [begin, end) into `init` with `combine`:
//
//   T acc = init;
//   for (i = begin; i < end; ++i) combine(acc, map(i));   // the reference
//
// ParallelFor writes map(i) into slot i, then the calling thread folds the
// slots in index order. The combines therefore run in exactly the serial
// order, so the result is bit-identical to the reference fold at any thread
// count for every combine, including order-sensitive ones such as a double
// sum. A null pool runs the reference fold itself.
//
// map(i) runs exactly once per index (side effects such as cache fills are
// safe). T must be copy-constructible (the slots are seeded by copying
// `init`). Exceptions surface like ParallelFor's: the lowest failing unit is
// rethrown on the caller.

#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/thread_pool.h"

namespace streamtune {

template <typename T, typename MapFn, typename CombineFn>
T ParallelReduce(ThreadPool* pool, int64_t begin, int64_t end, T init,
                 const MapFn& map, const CombineFn& combine) {
  T acc = std::move(init);
  const int64_t n = end - begin;
  if (n <= 0) return acc;

  if (pool == nullptr) {
    for (int64_t i = begin; i < end; ++i) combine(acc, map(i));
    return acc;
  }

  std::vector<T> slots(n, acc);  // overwritten below, value irrelevant
  pool->ParallelFor(begin, end, [&](int64_t i) { slots[i - begin] = map(i); });
  for (int64_t j = 0; j < n; ++j) combine(acc, slots[j]);
  return acc;
}

}  // namespace streamtune
