// Wall-clock wire timing of the two deadline fabrics (ThreadFabric, and
// SocketFabric over an in-process socketpair): no frame is delivered
// before its modeled deadline, frames come out in deadline order with
// ties in send order, a burst queued behind an earlier head wakes the
// fabric thread at most once, and a frame or timer that becomes the new
// earliest deadline is never left sleeping behind a far head. Every bound
// is either exact (wake_signals) or a loose lower/upper bound, so the
// suite is portable across hosts and runs under ThreadSanitizer.
//
// The two rigs differ in where a remote frame waits. ThreadFabric holds
// it in the one fabric's heap, so a send that brings the earliest
// deadline forward wakes its dispatcher. SocketFabric writes it to the
// socket at send time and the receiving fabric holds it, so remote
// frames never wake the sender's network thread; only its own timers do.

#include <gtest/gtest.h>
#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <limits>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "net/latency_model.hpp"
#include "net/socket_fabric.hpp"
#include "net/thread_fabric.hpp"
#include "net/topology.hpp"

namespace {

using namespace mdo;
using net::Chain;
using net::Packet;

Packet frame(std::size_t bytes) {
  Packet p;
  p.src = 0;
  p.dst = 1;
  p.payload.resize(bytes);
  return p;
}

/// A frame takes the delay of the first step whose byte limit it fits.
/// The two-delay form (small frames take `fast`, larger ones `slow`) lets
/// one test queue a far-deadline head and then a frame due well before
/// it. With an anchor set, each delay counts from the anchor instead of
/// the frame's send time, so every frame of one size class shares one
/// deadline exactly.
class SizeLatencyModel final : public net::LatencyModel {
 public:
  using Step = std::pair<std::size_t, sim::TimeNs>;

  SizeLatencyModel(sim::TimeNs fast, sim::TimeNs slow)
      : steps_{{64, fast}, {std::numeric_limits<std::size_t>::max(), slow}} {}
  explicit SizeLatencyModel(std::vector<Step> steps)
      : steps_(std::move(steps)) {}

  void set_anchor(sim::TimeNs anchor) { anchor_ = anchor; }

  sim::TimeNs delivery_delay(net::NodeId, net::NodeId, std::size_t bytes,
                             sim::TimeNs now) override {
    for (const auto& [limit, delay] : steps_) {
      if (bytes <= limit) return anchor_ ? *anchor_ + delay - now : delay;
    }
    ADD_FAILURE() << "no delay step for " << bytes << " bytes";
    return 0;
  }

 private:
  std::vector<Step> steps_;
  std::optional<sim::TimeNs> anchor_;
};

/// Node 0 sends to node 1 over one ThreadFabric.
struct ThreadRig {
  /// Remote frames wait in the sending (= only) fabric's heap.
  static constexpr bool kSendsAtOnce = false;

  explicit ThreadRig(net::LatencyModel* model)
      : fabric(&topo, model, Chain{}) {}
  net::DeadlineFabric& sender() { return fabric; }
  net::DeadlineFabric& receiver() { return fabric; }
  void start() {}

  net::Topology topo = net::Topology::two_cluster(2);
  net::ThreadFabric fabric;
};

std::pair<int, int> stream_pair() {
  int fds[2];
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                         0, fds),
            0);
  return {fds[0], fds[1]};
}

/// Node 0 sends to node 1 over two SocketFabrics joined by a socketpair.
struct SocketRig {
  /// Remote frames go on the wire at send time; fab1 holds them.
  static constexpr bool kSendsAtOnce = true;

  explicit SocketRig(net::LatencyModel* model)
      : fds(stream_pair()),
        epoch(net::SocketFabric::Clock::now()),
        fab0(&topo, model, Chain{}, 0, {-1, fds.first}, epoch),
        fab1(&topo, model, Chain{}, 1, {fds.second, -1}, epoch) {}
  net::DeadlineFabric& sender() { return fab0; }
  net::DeadlineFabric& receiver() { return fab1; }
  void start() {
    fab0.start();
    fab1.start();
  }

  net::Topology topo = net::Topology::two_cluster(2);
  std::pair<int, int> fds;
  net::SocketFabric::Clock::time_point epoch;
  net::SocketFabric fab0;
  net::SocketFabric fab1;
};

/// Counts deliveries at node 1 and how many arrived before their
/// deadline (inject_time + the modeled delay, on the fabric's clock).
struct Arrivals {
  std::mutex m;
  std::condition_variable cv;
  std::size_t count = 0;
  std::size_t early = 0;

  void attach(net::DeadlineFabric& at, sim::TimeNs delay) {
    at.set_delivery_handler(1, [this, &at, delay](Packet&& p) {
      const bool is_early = at.host_now() < p.inject_time + delay;
      std::lock_guard<std::mutex> lock(m);
      ++count;
      if (is_early) ++early;
      cv.notify_all();
    });
  }
  bool wait_for(std::size_t n, std::chrono::milliseconds budget) {
    std::unique_lock<std::mutex> lock(m);
    return cv.wait_for(lock, budget, [&] { return count >= n; });
  }
};

template <class Rig>
class WireTiming : public ::testing::Test {};

struct RigNames {
  template <class Rig>
  static std::string GetName(int) {
    return std::is_same_v<Rig, ThreadRig> ? "Thread" : "Socket";
  }
};
using Rigs = ::testing::Types<ThreadRig, SocketRig>;
TYPED_TEST_SUITE(WireTiming, Rigs, RigNames);

TYPED_TEST(WireTiming, NeverDeliversBeforeTheModeledDeadline) {
  // A few us (the SAN regime, below the thread's wake-up latency) and a
  // hold long enough that the thread sleeps to each deadline.
  for (const sim::TimeNs delay :
       {sim::microseconds(5), sim::microseconds(200)}) {
    net::FixedLatencyModel model(delay);
    Arrivals arrivals;  // outlives the rig's fabric threads
    TypeParam rig(&model);
    arrivals.attach(rig.receiver(), delay);
    rig.start();

    const std::size_t kFrames = 1200;
    for (std::size_t i = 0; i < kFrames; ++i) {
      rig.sender().send(frame(16 + i % 48));
      // Mix back-to-back bursts with gaps so the thread both drains a
      // backlog and sleeps to an exact deadline.
      if (i % 16 == 15) {
        std::this_thread::sleep_for(std::chrono::microseconds(20));
      }
    }
    ASSERT_TRUE(arrivals.wait_for(kFrames, std::chrono::seconds(30)));
    std::lock_guard<std::mutex> lock(arrivals.m);
    EXPECT_EQ(arrivals.count, kFrames);
    EXPECT_EQ(arrivals.early, 0u) << "delay " << delay << " ns";
  }
}

TYPED_TEST(WireTiming, BurstBehindAnEarlierHeadSignalsOnce) {
  // The first frame becomes the head and wakes the thread; every later
  // frame of the burst is due after it, so none may signal again. On the
  // socket rig no frame enters the sender's heap, so none signals.
  const sim::TimeNs delay = sim::milliseconds(100);
  net::FixedLatencyModel model(delay);
  Arrivals arrivals;  // outlives the rig's fabric threads
  TypeParam rig(&model);
  arrivals.attach(rig.receiver(), delay);
  rig.start();

  const std::size_t kFrames = 64;
  for (std::size_t i = 0; i < kFrames; ++i) rig.sender().send(frame(32));
  ASSERT_TRUE(arrivals.wait_for(kFrames, std::chrono::seconds(30)));
  EXPECT_EQ(rig.sender().stats().wake_signals,
            TypeParam::kSendsAtOnce ? 0u : 1u);
  std::lock_guard<std::mutex> lock(arrivals.m);
  EXPECT_EQ(arrivals.early, 0u);
}

TYPED_TEST(WireTiming, EarlierFrameIsNotStuckBehindAFarHead) {
  SizeLatencyModel model(sim::milliseconds(1), sim::seconds(2));
  std::atomic<int> delivered{0};
  TypeParam rig(&model);
  rig.receiver().set_delivery_handler(1, [&](Packet&&) { ++delivered; });
  rig.start();

  rig.sender().send(frame(1024));  // head, due in 2 s
  // Let the thread go to sleep on the far head first.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const auto t0 = std::chrono::steady_clock::now();
  rig.sender().send(frame(8));  // due in 1 ms: the new earliest deadline
  while (delivered.load() == 0 &&
         std::chrono::steady_clock::now() - t0 < std::chrono::seconds(3)) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  const auto waited = std::chrono::steady_clock::now() - t0;
  EXPECT_EQ(delivered.load(), 1);
  EXPECT_LT(waited, std::chrono::seconds(1));
  // Socket rig: the receiver's thread wakes on the arriving bytes.
  EXPECT_EQ(rig.sender().stats().wake_signals,
            TypeParam::kSendsAtOnce ? 0u : 2u);
}

TYPED_TEST(WireTiming, EarlierTimerIsNotStuckBehindAFarHead) {
  net::FixedLatencyModel model(sim::seconds(2));
  std::atomic<bool> fired{false};
  TypeParam rig(&model);
  rig.receiver().set_delivery_handler(1, [](Packet&&) {});
  rig.start();

  rig.sender().send(frame(8));  // head, due in 2 s
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const auto t0 = std::chrono::steady_clock::now();
  rig.sender().host_schedule(sim::milliseconds(1), [&] { fired = true; });
  while (!fired.load() &&
         std::chrono::steady_clock::now() - t0 < std::chrono::seconds(3)) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  const auto waited = std::chrono::steady_clock::now() - t0;
  EXPECT_TRUE(fired.load());
  EXPECT_GE(waited, std::chrono::milliseconds(1));
  EXPECT_LT(waited, std::chrono::seconds(1));
  // Socket rig: the timer is the only entry in the sender's heaps.
  EXPECT_EQ(rig.sender().stats().wake_signals,
            TypeParam::kSendsAtOnce ? 1u : 2u);
}

TYPED_TEST(WireTiming, DeliversInDeadlineOrderWithTiesInSendOrder) {
  // Size classes due 1, 2 and 3 ms after one anchor, sent 3-1-2 twice:
  // each class is an exact-deadline pair.
  const sim::TimeNs kDue[] = {sim::milliseconds(1), sim::milliseconds(2),
                              sim::milliseconds(3)};
  SizeLatencyModel model({{64, kDue[0]}, {128, kDue[1]}, {256, kDue[2]}});
  const std::size_t kSizes[] = {200, 16, 100, 200, 16, 100};
  std::mutex m;
  std::condition_variable cv;
  std::vector<int> order;
  std::size_t early = 0;
  std::atomic<sim::TimeNs> anchor{0};
  TypeParam rig(&model);  // declared last: its threads stop first
  net::DeadlineFabric& at = rig.receiver();
  at.set_delivery_handler(1, [&](Packet&& p) {
    const sim::TimeNs now = at.host_now();
    const std::size_t bytes = p.payload.size();
    const sim::TimeNs due =
        anchor + (bytes <= 64 ? kDue[0] : bytes <= 128 ? kDue[1] : kDue[2]);
    std::lock_guard<std::mutex> lock(m);
    order.push_back(static_cast<int>(p.payload[0]));
    if (now < due) ++early;
    cv.notify_all();
  });
  rig.start();

  anchor = rig.sender().host_now();
  model.set_anchor(anchor.load());
  for (std::size_t i = 0; i < std::size(kSizes); ++i) {
    Packet p = frame(kSizes[i]);
    p.payload[0] = static_cast<std::byte>(i);  // send index
    rig.sender().send(std::move(p));
  }
  std::unique_lock<std::mutex> lock(m);
  ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(30),
                          [&] { return order.size() == std::size(kSizes); }));
  EXPECT_EQ(order, (std::vector<int>{1, 4, 2, 5, 0, 3}));
  EXPECT_EQ(early, 0u);
}

}  // namespace
