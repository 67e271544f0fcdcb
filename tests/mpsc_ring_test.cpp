// Seeded property/fuzz suite for the cross-PE handoff ring
// (obs::MpscRing): random producer bursts against a single consumer
// must preserve FIFO order per producer with no loss and no
// duplication, the full-ring fallback accounting must balance, and a
// drain after producers stop must recover every element. Labeled tsan
// so the ThreadSanitizer preset rebuilds the ring's memory-order
// argument alongside thread_stress_test.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <mutex>
#include <random>
#include <thread>
#include <vector>

#include "obs/mpsc_ring.hpp"

namespace {

using mdo::obs::MpscRing;

struct Item {
  std::uint32_t producer = 0;
  std::uint64_t seq = 0;
};

TEST(MpscRing, CapacityRoundsUpAndFullPushesAreRejectedNotLost) {
  MpscRing<Item> ring(100);  // rounds to 128 slots
  std::uint64_t accepted = 0;
  while (ring.try_push(Item{0, accepted})) ++accepted;
  EXPECT_EQ(accepted, 128u);
  EXPECT_EQ(ring.full_rejects(), 1u);

  std::vector<Item> out;
  EXPECT_EQ(ring.pop_batch(out, 64), 64u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i].seq, i);
  // Freed slots are immediately reusable, FIFO across the wrap.
  EXPECT_TRUE(ring.try_push(Item{0, accepted}));
  out.clear();
  std::size_t drained = 0;
  while (ring.pop_batch(out, 16) > 0) {
    drained += out.size();
    out.clear();
  }
  EXPECT_EQ(drained, 65u);
  EXPECT_EQ(ring.pushed(), ring.popped());
  EXPECT_EQ(ring.size(), 0u);
}

/// Core fuzz harness: P producers push `per_producer` items in random
/// bursts (sizes and pauses drawn from `seed`), retrying on a full
/// ring; one consumer pops in random batch sizes. Checks strict
/// per-producer FIFO on every popped item and exact conservation at
/// the end.
void fuzz_ring(std::uint64_t seed, std::size_t capacity,
               std::uint32_t producers, std::uint64_t per_producer,
               bool consumer_stops_early) {
  MpscRing<Item> ring(capacity);
  std::atomic<bool> stop_consumer{false};
  std::vector<std::uint64_t> next_seq(producers, 0);
  std::uint64_t consumed = 0;

  std::thread consumer([&] {
    std::mt19937_64 rng(seed ^ 0x9e3779b97f4a7c15ull);
    std::vector<Item> batch;
    while (!stop_consumer.load(std::memory_order_acquire)) {
      const std::size_t max =
          1 + static_cast<std::size_t>(rng() % 64);
      if (ring.pop_batch(batch, max) == 0) {
        std::this_thread::yield();
        continue;
      }
      ASSERT_LE(batch.size(), max);
      for (const Item& item : batch) {
        ASSERT_LT(item.producer, producers);
        // FIFO per producer, no duplication, no reordering.
        ASSERT_EQ(item.seq, next_seq[item.producer]) << "producer "
                                                     << item.producer;
        ++next_seq[item.producer];
        ++consumed;
      }
      batch.clear();
    }
  });

  std::vector<std::thread> workers;
  workers.reserve(producers);
  for (std::uint32_t p = 0; p < producers; ++p) {
    workers.emplace_back([&, p] {
      std::mt19937_64 rng(seed + p);
      std::uint64_t sent = 0;
      while (sent < per_producer) {
        std::uint64_t burst = 1 + rng() % 48;
        while (burst > 0 && sent < per_producer) {
          if (ring.try_push(Item{p, sent})) {
            ++sent;
            --burst;
          } else {
            std::this_thread::yield();  // full: retry, never drop
          }
        }
        if ((rng() & 7u) == 0) std::this_thread::yield();
      }
    });
  }
  for (auto& w : workers) w.join();

  if (consumer_stops_early) {
    // Shutdown drain: stop the consumer loop with items possibly still
    // in flight, then drain single-threaded — nothing may be stranded.
    stop_consumer.store(true, std::memory_order_release);
    consumer.join();
    std::vector<Item> batch;
    while (ring.pop_batch(batch, 256) > 0) {
      for (const Item& item : batch) {
        ASSERT_EQ(item.seq, next_seq[item.producer]);
        ++next_seq[item.producer];
        ++consumed;
      }
      batch.clear();
    }
  } else {
    const std::uint64_t total =
        static_cast<std::uint64_t>(producers) * per_producer;
    // Producers are done; wait on the ring's own (atomic) counters for
    // the consumer to catch up, then stop it.
    while (!(ring.pushed() == total && ring.popped() == total)) {
      std::this_thread::yield();
    }
    stop_consumer.store(true, std::memory_order_release);
    consumer.join();
  }

  // Conservation: every push was popped exactly once, in order.
  EXPECT_EQ(ring.pushed(),
            static_cast<std::uint64_t>(producers) * per_producer);
  EXPECT_EQ(ring.popped(), ring.pushed());
  EXPECT_EQ(ring.size(), 0u);
  for (std::uint32_t p = 0; p < producers; ++p) {
    EXPECT_EQ(next_seq[p], per_producer) << "producer " << p;
  }
}

TEST(MpscRing, SeededBurstsKeepFifoPerProducerAcrossSeeds) {
  // Small ring vs. many items forces heavy wrap-around and frequent
  // full-ring rejections; several seeds vary the interleavings.
  for (std::uint64_t seed : {1ull, 7ull, 42ull}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    fuzz_ring(seed, /*capacity=*/64, /*producers=*/4,
              /*per_producer=*/20000, /*consumer_stops_early=*/false);
  }
}

TEST(MpscRing, DrainOnShutdownStrandsNothing) {
  for (std::uint64_t seed : {3ull, 11ull}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    fuzz_ring(seed, /*capacity=*/128, /*producers=*/3,
              /*per_producer=*/10000, /*consumer_stops_early=*/true);
  }
}

TEST(MpscRing, SingleProducerSurvivesMillionItemThroughput) {
  // Scale smoke for the ring itself: 10^6 items through a 1 Ki ring.
  MpscRing<std::uint64_t> ring(1024);
  const std::uint64_t total = 1'000'000;
  std::thread producer([&] {
    for (std::uint64_t i = 0; i < total;) {
      if (ring.try_push(std::uint64_t{i})) {
        ++i;
      } else {
        std::this_thread::yield();
      }
    }
  });
  std::vector<std::uint64_t> batch;
  std::uint64_t expect = 0;
  while (expect < total) {
    if (ring.pop_batch(batch, 256) == 0) {
      std::this_thread::yield();
      continue;
    }
    for (std::uint64_t v : batch) {
      ASSERT_EQ(v, expect);
      ++expect;
    }
    batch.clear();
  }
  producer.join();
  EXPECT_EQ(ring.pushed(), total);
  EXPECT_EQ(ring.popped(), total);
}

TEST(MpscRing, DrainReceivesEveryPushThatHappenedBeforeIt) {
  // Producers push, then publish how many they pushed under a mutex; the
  // consumer drains under the same mutex. Whatever a producer had
  // published must be in hand after that drain, even when another
  // producer's ticket ahead of it is claimed but not yet written.
  constexpr std::uint32_t kProducers = 4;
  constexpr std::uint64_t kPerProducer = 20'000;
  MpscRing<Item> ring(64);
  std::mutex mutex;
  std::vector<std::uint64_t> published(kProducers, 0);
  std::vector<std::thread> threads;
  for (std::uint32_t p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        while (!ring.try_push(Item{p, i})) std::this_thread::yield();
        std::lock_guard<std::mutex> lock(mutex);
        published[p] = i + 1;
      }
    });
  }
  // Failures are counted, not asserted, so the loop keeps draining and
  // the producers can finish and be joined.
  std::vector<std::uint64_t> next(kProducers, 0);
  std::uint64_t drained = 0, out_of_order = 0, missed = 0;
  std::vector<Item> out;
  while (drained < kProducers * kPerProducer) {
    std::lock_guard<std::mutex> lock(mutex);
    out.clear();
    drained += ring.drain(out);
    for (const Item& item : out) {
      if (item.seq != next[item.producer]) ++out_of_order;
      next[item.producer] = item.seq + 1;
    }
    for (std::uint32_t p = 0; p < kProducers; ++p) {
      if (next[p] < published[p]) ++missed;
    }
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(out_of_order, 0u);
  EXPECT_EQ(missed, 0u);
}

}  // namespace
