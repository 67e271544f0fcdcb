#pragma once
// Real-time fabric: one dispatcher thread holds packets until their
// modeled delivery deadline (delay-device hold + fault jitter + network
// delay) elapses in wall-clock time, then runs the receive chain and the
// delivery upcall. Used by the ThreadMachine backend; delivery handlers
// must be thread-safe.
//
// The deadline queue, chain plumbing and DeviceHost services (wall-clock
// timers, ack/retransmission injection) live in DeadlineFabric. This
// class adds the dispatcher loop: a condition-variable wait until the
// earliest deadline. Senders notify the condition variable only when
// they bring that deadline forward, and the dispatcher runs with 1 ns
// timer slack, so a wait ends at the modeled deadline, never before it.

#include <condition_variable>
#include <thread>

#include "net/deadline_fabric.hpp"

namespace mdo::net {

class ThreadFabric final : public DeadlineFabric {
 public:
  ThreadFabric(const Topology* topo, LatencyModel* model, Chain chain);
  ~ThreadFabric() override;

  /// Stop the dispatcher and drop undelivered packets and timers (also
  /// done by the destructor). Idempotent.
  void shutdown();

 private:
  void signal() override { cv_.notify_one(); }
  void dispatcher_loop();

  std::condition_variable_any cv_;
  std::thread dispatcher_;
};

}  // namespace mdo::net
