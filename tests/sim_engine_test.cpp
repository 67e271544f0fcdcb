// DES engine: ordering, tie-breaking, clock semantics, determinism.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <numeric>
#include <random>
#include <vector>

#include "sim/engine.hpp"

namespace {

using mdo::sim::Engine;
using mdo::sim::TimeNs;

TEST(Engine, ExecutesInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.schedule_at(30, [&] { order.push_back(3); });
  e.schedule_at(10, [&] { order.push_back(1); });
  e.schedule_at(20, [&] { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.now(), 30);
  EXPECT_EQ(e.events_processed(), 3u);
}

TEST(Engine, TiesBreakFifo) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) e.schedule_at(5, [&order, i] { order.push_back(i); });
  e.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Engine, CallbacksMayScheduleMore) {
  Engine e;
  int fired = 0;
  std::function<void()> chain = [&] {
    ++fired;
    if (fired < 5) e.schedule_after(10, chain);
  };
  e.schedule_at(0, chain);
  e.run();
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(e.now(), 40);
}

TEST(Engine, ScheduleAfterIsRelative) {
  Engine e;
  TimeNs seen = -1;
  e.schedule_at(100, [&] { e.schedule_after(50, [&] { seen = e.now(); }); });
  e.run();
  EXPECT_EQ(seen, 150);
}

TEST(Engine, RefusesPastEvents) {
  Engine e;
  e.schedule_at(10, [] {});
  e.run();
  EXPECT_DEATH(e.schedule_at(5, [] {}), "past");
}

TEST(Engine, StepReturnsFalseWhenEmpty) {
  Engine e;
  EXPECT_FALSE(e.step());
  e.schedule_at(1, [] {});
  EXPECT_TRUE(e.step());
  EXPECT_FALSE(e.step());
}

TEST(Engine, StopHaltsRun) {
  Engine e;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    e.schedule_at(i, [&, i] {
      ++count;
      if (i == 3) e.stop();
    });
  }
  e.run();
  EXPECT_EQ(count, 3);
  EXPECT_EQ(e.pending(), 7u);
  e.clear_stop();
  e.run();
  EXPECT_EQ(count, 10);
}

TEST(Engine, RunUntilAdvancesClockPastLastEvent) {
  Engine e;
  int fired = 0;
  e.schedule_at(10, [&] { ++fired; });
  e.schedule_at(100, [&] { ++fired; });
  e.run_until(50);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(e.now(), 50);
  e.run_until(200);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(e.now(), 200);
}

TEST(Engine, ResetClearsEverything) {
  Engine e;
  e.schedule_at(10, [] {});
  e.schedule_at(20, [] {});
  e.step();
  e.reset();
  EXPECT_EQ(e.now(), 0);
  EXPECT_TRUE(e.empty());
  EXPECT_EQ(e.events_processed(), 0u);
}

TEST(Engine, DeterministicInterleaving) {
  auto run_once = [] {
    Engine e;
    std::vector<int> order;
    // Two "processes" ping at equal times; FIFO sequencing must be stable.
    std::function<void(int, int)> proc = [&](int id, int depth) {
      order.push_back(id);
      if (depth < 20) e.schedule_after(7, [&proc, id, depth] { proc(id, depth + 1); });
    };
    e.schedule_at(0, [&] { proc(1, 0); });
    e.schedule_at(0, [&] { proc(2, 0); });
    e.run();
    return order;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Engine, ReleasesEachCaptureOnceItHasRun) {
  Engine e;
  auto token = std::make_shared<int>(0);
  long seen_inside = 0;
  e.schedule_at(10, [token] {});
  // Too big for std::function's inline storage: lives on the heap.
  std::array<char, 64> pad{};
  e.schedule_at(20, [token, pad, &seen_inside] {
    seen_inside = token.use_count();
    (void)pad;
  });
  EXPECT_EQ(token.use_count(), 3);
  ASSERT_TRUE(e.step());
  EXPECT_EQ(token.use_count(), 2);
  ASSERT_TRUE(e.step());
  EXPECT_EQ(seen_inside, 2) << "capture must stay alive while it runs";
  EXPECT_EQ(token.use_count(), 1);
}

TEST(Engine, ResetReleasesEveryPendingCapture) {
  Engine e;
  auto token = std::make_shared<int>(0);
  std::array<char, 64> pad{};
  for (int i = 0; i < 8; ++i) {
    e.schedule_at(i, [token] {});
    e.schedule_at(i, [token, pad] { (void)pad; });
  }
  e.step();
  EXPECT_EQ(token.use_count(), 16);
  e.reset();
  EXPECT_EQ(token.use_count(), 1);
  EXPECT_EQ(e.slot_capacity(), 0u);

  // The engine is reusable after reset.
  int fired = 0;
  e.schedule_at(3, [token, &fired] { ++fired; });
  e.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(token.use_count(), 1);
}

// A self-rescheduling hop whose capture is large enough to live on the
// heap; it schedules its successor first, then reads its own captures.
struct Hop {
  Engine* engine;
  std::shared_ptr<std::vector<int>> log;
  int n;
  std::array<char, 64> pad{};
  void operator()() const {
    if (n < 100) engine->schedule_after(1, Hop{engine, log, n + 1});
    log->push_back(n);
  }
};

TEST(Engine, CallbackThatSchedulesReusesItsOwnSlot) {
  Engine e;
  auto log = std::make_shared<std::vector<int>>();
  e.schedule_at(0, Hop{&e, log, 0});
  e.run();
  std::vector<int> expect(101);
  std::iota(expect.begin(), expect.end(), 0);
  EXPECT_EQ(*log, expect);
  EXPECT_EQ(e.slot_capacity(), 1u) << "each hop should refill its own slot";
  EXPECT_EQ(log.use_count(), 1);

  // Fan-out: one freed slot is reused, the second event takes a new one.
  e.schedule_at(e.now(), [&e, &log] {
    e.schedule_after(1, [&log] { log->push_back(-1); });
    e.schedule_after(1, [&log] { log->push_back(-2); });
  });
  e.run();
  EXPECT_EQ(e.slot_capacity(), 2u);
  EXPECT_EQ(log->back(), -2);
  EXPECT_EQ((*log)[log->size() - 2], -1);
}

TEST(Engine, SeededTiesRunInStableSortOrder) {
  // 10^5 events, most scheduled from inside callbacks at now() + 0..3,
  // so thousands share each tick. The engine must run them exactly as a
  // stable sort of (time, insertion) orders them.
  constexpr std::size_t kEvents = 100000;
  Engine e;
  std::mt19937_64 rng(20261017);
  std::vector<TimeNs> time_of;  // indexed by insertion order
  std::vector<std::size_t> ran;
  time_of.reserve(kEvents);
  ran.reserve(kEvents);
  std::function<void(std::size_t)> fire;
  auto add = [&](TimeNs t) {
    const std::size_t id = time_of.size();
    time_of.push_back(t);
    e.schedule_at(t, [&fire, id] { fire(id); });
  };
  fire = [&](std::size_t id) {
    ran.push_back(id);
    const auto children = rng() % 4;
    for (std::uint64_t c = 0; c < children && time_of.size() < kEvents; ++c)
      add(e.now() + static_cast<TimeNs>(rng() % 4));
  };
  for (int i = 0; i < 1000; ++i) add(static_cast<TimeNs>(rng() % 50));
  e.run();
  ASSERT_EQ(time_of.size(), kEvents);

  std::vector<std::size_t> expect(kEvents);
  std::iota(expect.begin(), expect.end(), std::size_t{0});
  std::stable_sort(expect.begin(), expect.end(),
                   [&](std::size_t a, std::size_t b) {
                     return time_of[a] < time_of[b];
                   });
  EXPECT_EQ(ran, expect);
  EXPECT_EQ(e.events_processed(), kEvents);
}

}  // namespace
