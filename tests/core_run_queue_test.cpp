// core::RunQueue without a machine: most urgent priority first, FIFO
// within a priority, ring wrap and growth, clear(), and that popped or
// cleared items are released rather than kept alive in the ring.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "core/run_queue.hpp"
#include "util/rng.hpp"

namespace {

using mdo::core::Priority;
using mdo::core::RunQueue;

TEST(RunQueue, SeededMixedPushPopMatchesStableSortOnPriority) {
  // 10^5 random pushes and pops at priorities -3..3. The live items,
  // stable-sorted by priority, keep insertion order inside a priority;
  // the set of (priority, insertion) pairs is that order, and its head is
  // what every pop must return.
  mdo::SplitMix64 rng(42);
  RunQueue<std::uint64_t> q;
  std::set<std::pair<Priority, std::uint64_t>> model;
  std::uint64_t inserted = 0;
  for (int op = 0; op < 100'000; ++op) {
    if (model.empty() || rng.bounded(5) < 3) {
      const auto p = static_cast<Priority>(rng.bounded(7)) - 3;
      model.emplace(p, inserted);
      q.push(p, std::uint64_t{inserted++});
    } else {
      ASSERT_EQ(q.pop(), model.begin()->second) << "op " << op;
      model.erase(model.begin());
    }
    ASSERT_EQ(q.size(), model.size());
  }

  // Drain what is left and compare with std::stable_sort itself.
  std::vector<std::pair<Priority, std::uint64_t>> rest(model.begin(),
                                                       model.end());
  std::stable_sort(rest.begin(), rest.end(), [](const auto& a, const auto& b) {
    return a.first < b.first;
  });
  for (const auto& [p, id] : rest) ASSERT_EQ(q.pop(), id);
  EXPECT_TRUE(q.empty());
}

TEST(RunQueue, RingWrapsThenGrowsWhileWrapped) {
  RunQueue<int> q;
  int next_in = 0;
  int next_out = 0;
  // 16 pushes fill a 16-slot ring (capacity doubles from 1). Free 10 at
  // its head, then push past the end: the ring wraps, and pushing on
  // until it is full again grows it while head != 0.
  for (int i = 0; i < 16; ++i) q.push(0, int{next_in++});
  for (int i = 0; i < 10; ++i) ASSERT_EQ(q.pop(), next_out++);
  for (int i = 0; i < 40; ++i) q.push(0, int{next_in++});
  EXPECT_EQ(q.size(), 46u);
  while (!q.empty()) ASSERT_EQ(q.pop(), next_out++);
  EXPECT_EQ(next_out, next_in);
}

TEST(RunQueue, ClearReturnsHowManyItDiscarded) {
  RunQueue<int> q;
  for (int i = 0; i < 5; ++i) q.push(i % 3 - 1, int{i});
  EXPECT_EQ(q.pop(), 0);  // priority -1
  EXPECT_EQ(q.clear(), 4u);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.clear(), 0u);

  // Usable again, urgent level included.
  q.push(0, 7);
  q.push(-1, 8);
  EXPECT_EQ(q.pop(), 8);
  EXPECT_EQ(q.pop(), 7);
}

TEST(RunQueue, PoppedAndClearedItemsAreReleased) {
  auto token = std::make_shared<int>(1);
  RunQueue<std::shared_ptr<int>> q;
  for (int i = 0; i < 6; ++i) q.push(i % 2, std::shared_ptr<int>(token));
  EXPECT_EQ(token.use_count(), 7);

  // The popped item owns the reference; the ring slot it left holds none.
  { auto item = q.pop(); }
  EXPECT_EQ(token.use_count(), 6);

  EXPECT_EQ(q.clear(), 5u);
  EXPECT_EQ(token.use_count(), 1);
}

}  // namespace
