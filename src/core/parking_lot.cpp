#include "core/parking_lot.hpp"

#include <algorithm>

namespace mdo::core {

void ParkingLot::init(std::size_t peers, Dispatch dispatch) {
  dispatch_ = std::move(dispatch);
  congested_ = std::vector<std::atomic<bool>>(peers);
}

void ParkingLot::park(Envelope&& env) {
  const Pe dst = env.dst_pe;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    held_[dst].push_back(std::move(env));
    ++counters_.parked;
  }
  if (!congested(dst)) flush(dst);
}

void ParkingLot::flush(Pe dst) {
  std::vector<Envelope> held;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = held_.find(dst);
    if (it == held_.end()) return;
    held = std::move(it->second);
    held_.erase(it);
    counters_.resumed += held.size();
  }
  // Most-urgent first so the freshly healed link carries critical work
  // ahead of bulk; stable so FIFO order survives within a priority.
  std::stable_sort(held.begin(), held.end(),
                   [](const Envelope& a, const Envelope& b) {
                     return a.priority < b.priority;
                   });
  for (Envelope& env : held) dispatch_(std::move(env));
}

ParkingLot::Counters ParkingLot::counters() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counters_;
}

}  // namespace mdo::core
