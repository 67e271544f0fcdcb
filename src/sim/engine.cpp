#include "sim/engine.hpp"

#include <algorithm>
#include <utility>

#include "util/assert.hpp"

namespace mdo::sim {

void Engine::schedule_at(TimeNs t, Callback fn) {
  MDO_CHECK_MSG(t >= now_, "cannot schedule an event in the past");
  heap_.push_back(Key{t, next_seq_++, slots_.put(std::move(fn))});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

bool Engine::step() {
  if (stopped_ || heap_.empty()) return false;
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Key key = heap_.back();
  heap_.pop_back();
  Callback fn = slots_.take(key.slot);
  MDO_ASSERT(key.time >= now_);
  now_ = key.time;
  ++processed_;
  fn();
  return true;
}

void Engine::run() {
  while (step()) {
  }
}

void Engine::run_until(TimeNs t) {
  MDO_CHECK(t >= now_);
  while (!stopped_ && !heap_.empty() && heap_.front().time <= t) {
    step();
  }
  if (!stopped_) now_ = t;
}

void Engine::reset() {
  now_ = 0;
  next_seq_ = 0;
  processed_ = 0;
  stopped_ = false;
  heap_.clear();
  slots_.clear();
}

}  // namespace mdo::sim
