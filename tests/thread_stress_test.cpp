// ThreadMachine delivery stress under the pooled-buffer hot path
// (`ctest -L tsan`). Every cross-PE send packs its envelope into a
// scratch-arena buffer on the sending thread, ships it through the
// ThreadFabric dispatcher thread, and returns the storage to the
// *receiving* thread's arena; PayloadBuf reps likewise recycle into
// whichever thread releases the last reference. This test hammers those
// cross-thread hand-offs from many PEs at once so the tsan preset
// (cmake --preset tsan) can prove the freelists are race-free. It also
// runs in the regular build as a plain correctness stress.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <numeric>
#include <vector>

#include "core/array.hpp"
#include "core/mapping.hpp"
#include "core/runtime.hpp"
#include "core/thread_machine.hpp"

namespace {

using namespace mdo;
using core::Chare;
using core::Index;
using core::Runtime;
using core::ThreadMachine;

std::unique_ptr<ThreadMachine> make_machine(std::size_t pes) {
  net::GridLatencyModel::Config cfg;
  cfg.local = {sim::microseconds(1), 4000.0};
  cfg.intra = {sim::microseconds(5), 1000.0};
  cfg.inter = {sim::microseconds(20), 500.0};
  return std::make_unique<ThreadMachine>(net::Topology::two_cluster(pes),
                                         cfg);
}

struct Hammer : Chare {
  std::atomic<std::int64_t> hits{0};
  std::atomic<std::int64_t> payload_sum{0};

  /// Forward a payload around the ring `hops` more times. Every hop
  /// crosses PEs (elements are round-robin mapped), so every hop is a
  /// pack -> fabric -> unpack cycle through the pooled buffers.
  void relay(std::vector<std::int32_t> data, int hops) {
    hits.fetch_add(1, std::memory_order_relaxed);
    payload_sum.fetch_add(
        std::accumulate(data.begin(), data.end(), std::int64_t{0}),
        std::memory_order_relaxed);
    if (hops > 0) {
      Index next((index().x + 1) % 16);
      runtime().proxy<Hammer>(array_id()).send<&Hammer::relay>(
          next, std::move(data), hops - 1);
    }
  }

  void pup(Pup& p) override { Chare::pup(p); }
};

TEST(ThreadStress, ConcurrentRelaysThroughPooledBuffers) {
  constexpr int kChains = 16;
  constexpr int kHops = 40;
  constexpr std::size_t kPayloadInts = 256;

  Runtime rt(make_machine(8));
  auto proxy = rt.create_array<Hammer>(
      "hammer", core::indices_1d(16), core::round_robin_map(8),
      [](const Index&) { return std::make_unique<Hammer>(); });

  // Seed one relay chain per element start point; all 8 PE threads and
  // the dispatcher thread churn buffers concurrently.
  std::vector<std::int32_t> payload(kPayloadInts);
  std::iota(payload.begin(), payload.end(), 1);
  const std::int64_t per_msg_sum =
      std::accumulate(payload.begin(), payload.end(), std::int64_t{0});
  for (int c = 0; c < kChains; ++c) {
    proxy.send<&Hammer::relay>(Index(c % 16), payload, kHops);
  }
  rt.run();

  std::int64_t hits = 0, sum = 0;
  for (int i = 0; i < 16; ++i) {
    hits += proxy.local(Index(i))->hits.load();
    sum += proxy.local(Index(i))->payload_sum.load();
  }
  EXPECT_EQ(hits, static_cast<std::int64_t>(kChains) * (kHops + 1));
  EXPECT_EQ(sum, per_msg_sum * kChains * (kHops + 1));
}

TEST(ThreadStress, RepeatedRunsReuseWarmPools) {
  // Several full runtime lifetimes in one process: pools and arenas
  // outlive each Runtime (thread_local), so stale pooled state from a
  // dead machine must never corrupt the next one.
  for (int round = 0; round < 3; ++round) {
    Runtime rt(make_machine(4));
    auto proxy = rt.create_array<Hammer>(
        "hammer", core::indices_1d(16), core::round_robin_map(4),
        [](const Index&) { return std::make_unique<Hammer>(); });
    std::vector<std::int32_t> payload(64, round + 1);
    for (int c = 0; c < 8; ++c) {
      proxy.send<&Hammer::relay>(Index(c), payload, 20);
    }
    rt.run();
    std::int64_t hits = 0;
    for (int i = 0; i < 16; ++i) hits += proxy.local(Index(i))->hits.load();
    EXPECT_EQ(hits, 8 * 21) << "round " << round;
  }
}

/// Self-sends a burst to its own element; records the order they run in.
struct SelfSender : Chare {
  std::vector<std::int32_t> ran;
  void burst(std::int32_t n) {
    auto self = runtime().proxy<SelfSender>(array_id());
    for (std::int32_t i = 0; i < n; ++i) {
      self.send<&SelfSender::note>(index(), i);
    }
  }
  void note(std::int32_t i) { ran.push_back(i); }
  void pup(Pup& p) override { Chare::pup(p); }
};

TEST(ThreadStress, InboxOverflowKeepsOneSendersOrder) {
  // The worker executes `burst` while its own inbox fills: past the
  // 1024-slot ring every self-send spills to the overflow list. Run
  // queues are FIFO per priority with no sequence number, so the refill
  // must hand ring and overflow over in send order.
  constexpr std::int32_t kMsgs = 4 * 1024;
  Runtime rt(make_machine(2));
  auto proxy = rt.create_array<SelfSender>(
      "self", core::indices_1d(1), core::block_map_1d(1, 2),
      [](const Index&) { return std::make_unique<SelfSender>(); });
  proxy.send<&SelfSender::burst>(Index(0), kMsgs);
  rt.run();

  EXPECT_GT(rt.machine().metrics().snapshot().counter(
                "rt.sched.shard.handoff_fallbacks"),
            0u);
  std::vector<std::int32_t> expected(kMsgs);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(proxy.local(Index(0))->ran, expected);
}

}  // namespace
