#include "net/thread_fabric.hpp"

namespace mdo::net {

ThreadFabric::ThreadFabric(const Topology* topo, LatencyModel* model,
                           Chain chain)
    : DeadlineFabric(topo, model, std::move(chain), Clock::now()) {
  dispatcher_ = std::thread([this] { dispatcher_loop(); });
}

ThreadFabric::~ThreadFabric() { shutdown(); }

void ThreadFabric::shutdown() {
  if (request_stop() && dispatcher_.joinable()) dispatcher_.join();
}

void ThreadFabric::dispatcher_loop() {
  use_exact_timer_slack();
  Lock lock(mutex_);
  while (!stop_) {
    const std::optional<Clock::time_point> due = run_due(lock);
    if (stop_) return;
    if (due.has_value()) {
      cv_.wait_until(lock, *due);
    } else {
      cv_.wait(lock);
    }
  }
}

}  // namespace mdo::net
