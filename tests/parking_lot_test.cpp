// ParkingLot in isolation: quarantine backpressure without a machine.
// The dispatch callback stands in for a backend's route(): it parks
// again while the destination is congested and "delivers" otherwise,
// exactly like the three machines do.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <iterator>
#include <mutex>
#include <thread>
#include <vector>

#include "core/parking_lot.hpp"

namespace {

using mdo::core::Envelope;
using mdo::core::ParkingLot;
using mdo::core::Pe;
using mdo::core::Priority;

struct Harness {
  ParkingLot lot;
  std::mutex mutex;
  std::vector<Envelope> delivered;

  explicit Harness(std::size_t peers = 4) {
    lot.init(peers, [this](Envelope&& env) { route(std::move(env)); });
  }
  void route(Envelope&& env) {
    if (lot.congested(env.dst_pe)) {
      lot.park(std::move(env));
      return;
    }
    std::lock_guard<std::mutex> lock(mutex);
    delivered.push_back(std::move(env));
  }
};

Envelope make(Pe dst, Priority priority, std::uint64_t tag) {
  Envelope env;
  env.src_pe = 0;
  env.dst_pe = dst;
  env.priority = priority;
  env.seq = tag;
  return env;
}

TEST(ParkingLot, ParksWhileCongested) {
  Harness h;
  EXPECT_FALSE(h.lot.congested(2));
  h.lot.set_congested(2, true);
  EXPECT_TRUE(h.lot.congested(2));
  EXPECT_FALSE(h.lot.congested(1));
  for (std::uint64_t i = 0; i < 3; ++i) h.route(make(2, 0, i));
  h.route(make(1, 0, 99));  // other peers are unaffected

  ASSERT_EQ(h.delivered.size(), 1u);
  EXPECT_EQ(h.delivered[0].seq, 99u);
  const ParkingLot::Counters c = h.lot.counters();
  EXPECT_EQ(c.parked, 3u);
  EXPECT_EQ(c.resumed, 0u);
  EXPECT_EQ(c.depth(), 3u);
}

TEST(ParkingLot, ResumesMostUrgentFirstAndFifoWithinAPriority) {
  Harness h;
  h.lot.set_congested(3, true);
  const Priority prios[] = {5, 1, 5, 0, 1, 0, 5};
  for (std::uint64_t i = 0; i < std::size(prios); ++i) {
    h.route(make(3, prios[i], i));
  }
  ASSERT_TRUE(h.delivered.empty());

  h.lot.set_congested(3, false);
  h.lot.flush(3);

  std::vector<std::uint64_t> order;
  for (const Envelope& env : h.delivered) order.push_back(env.seq);
  EXPECT_EQ(order, (std::vector<std::uint64_t>{3, 5, 1, 4, 0, 2, 6}));
  const ParkingLot::Counters c = h.lot.counters();
  EXPECT_EQ(c.parked, 7u);
  EXPECT_EQ(c.resumed, 7u);
  EXPECT_EQ(c.depth(), 0u);
}

TEST(ParkingLot, FlushTouchesOnlyItsDestination) {
  Harness h;
  h.lot.set_congested(1, true);
  h.lot.set_congested(2, true);
  h.route(make(1, 0, 10));
  h.route(make(2, 0, 20));
  h.lot.set_congested(1, false);
  h.lot.flush(1);
  ASSERT_EQ(h.delivered.size(), 1u);
  EXPECT_EQ(h.delivered[0].seq, 10u);
  EXPECT_EQ(h.lot.counters().depth(), 1u);
  h.lot.flush(0);  // nothing held: no-op
  EXPECT_EQ(h.lot.counters().resumed, 1u);
}

TEST(ParkingLot, CongestionRetrippedDuringFlushParksTheRest) {
  // The healed link fills again after one envelope: the rest re-park,
  // counted as resumed once and parked twice, and nothing is lost.
  ParkingLot lot;
  std::vector<std::uint64_t> delivered;
  lot.init(2, [&](Envelope&& env) {
    if (lot.congested(env.dst_pe)) {
      lot.park(std::move(env));
      return;
    }
    delivered.push_back(env.seq);
    lot.set_congested(env.dst_pe, true);
  });
  lot.set_congested(1, true);
  for (std::uint64_t i = 0; i < 3; ++i) lot.park(make(1, 0, i));
  lot.set_congested(1, false);
  lot.flush(1);
  EXPECT_EQ(delivered, (std::vector<std::uint64_t>{0}));
  ParkingLot::Counters c = lot.counters();
  EXPECT_EQ(c.parked, 5u);
  EXPECT_EQ(c.resumed, 3u);
  EXPECT_EQ(c.depth(), 2u);

  lot.set_congested(1, false);
  lot.flush(1);
  lot.set_congested(1, false);
  lot.flush(1);
  EXPECT_EQ(delivered, (std::vector<std::uint64_t>{0, 1, 2}));
  EXPECT_EQ(lot.counters().depth(), 0u);
}

TEST(ParkingLot, ClearBetweenCheckAndParkIsFlushedByTheSender) {
  // The race the re-check closes: a sender reads `congested`, then the
  // clearing side stores false and runs its drain (finding nothing),
  // and only then does the sender publish its envelope. park() sees the
  // cleared flag and flushes itself; the late drain finds nothing.
  Harness h;
  h.lot.set_congested(2, true);
  ASSERT_TRUE(h.lot.congested(2));  // the sender's check
  h.lot.set_congested(2, false);    // the clearing side ...
  h.lot.flush(2);                   // ... and its drain: empty
  h.lot.park(make(2, 0, 7));        // the sender publishes
  ASSERT_EQ(h.delivered.size(), 1u);
  EXPECT_EQ(h.delivered[0].seq, 7u);

  h.lot.flush(2);  // a second drain must not deliver it again
  EXPECT_EQ(h.delivered.size(), 1u);
  const ParkingLot::Counters c = h.lot.counters();
  EXPECT_EQ(c.parked, 1u);
  EXPECT_EQ(c.resumed, 1u);
  EXPECT_EQ(c.depth(), 0u);
}

TEST(ParkingLot, ClearAfterPublishIsDeliveredExactlyOnce) {
  // The flag clears after the envelope is published but before the
  // sender's re-check: both the sender's self-flush and the clearing
  // side's drain run, in either order. Whichever runs second finds
  // nothing.
  Harness h;
  h.lot.set_congested(2, true);
  h.route(make(2, 0, 7));
  EXPECT_TRUE(h.delivered.empty());
  h.lot.set_congested(2, false);
  h.lot.flush(2);  // first of the two flushes takes the envelope
  h.lot.flush(2);  // the second is a no-op
  ASSERT_EQ(h.delivered.size(), 1u);
  EXPECT_EQ(h.delivered[0].seq, 7u);
}

TEST(ParkingLot, ConcurrentParkAndClearDeliverEveryEnvelopeOnce) {
  // Senders race a toggling congestion flag whose clears drain the lot,
  // as a fabric thread would. After a final clear every envelope has
  // been delivered exactly once.
  Harness h(2);
  constexpr int kSenders = 3;
  constexpr std::uint64_t kPerSender = 2000;
  std::atomic<bool> done{false};
  std::thread toggler([&] {
    bool on = false;
    while (!done.load()) {
      on = !on;
      h.lot.set_congested(1, on);
      if (!on) h.lot.flush(1);
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> senders;
  for (int s = 0; s < kSenders; ++s) {
    senders.emplace_back([&h, s] {
      for (std::uint64_t i = 0; i < kPerSender; ++i) {
        h.route(make(1, static_cast<Priority>(i % 3),
                     static_cast<std::uint64_t>(s) * kPerSender + i));
      }
    });
  }
  for (auto& t : senders) t.join();
  done.store(true);
  toggler.join();
  h.lot.set_congested(1, false);
  h.lot.flush(1);

  std::vector<std::uint64_t> tags;
  for (const Envelope& env : h.delivered) tags.push_back(env.seq);
  std::sort(tags.begin(), tags.end());
  ASSERT_EQ(tags.size(), kSenders * kPerSender);
  for (std::uint64_t i = 0; i < tags.size(); ++i) ASSERT_EQ(tags[i], i);
  const ParkingLot::Counters c = h.lot.counters();
  EXPECT_EQ(c.depth(), 0u);
  EXPECT_EQ(c.parked, c.resumed);
}

}  // namespace
