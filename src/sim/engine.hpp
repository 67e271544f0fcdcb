#pragma once
// Sequential discrete-event simulation engine.
//
// This is the substitute for the paper's physical testbeds (DESIGN.md §3):
// every simulated processor, network link, and delay device schedules
// callbacks here, and the engine executes them in nondecreasing virtual
// time. Ties are broken by insertion sequence, which makes every run
// fully deterministic — a FIFO among same-time events.
//
// The heap holds 24-byte keys {time, seq, slot}; each callback lives in
// a SlotPool, its slots recycled through a free list. Sifting
// moves only the keys, and a warm engine schedules without allocating
// whenever the callback fits std::function's inline storage. step()
// moves the callback out and frees its slot before calling it, so a
// callback may schedule more events (and reuse that slot), and its
// captures are released as soon as it returns.

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/time.hpp"
#include "util/slot_pool.hpp"

namespace mdo::sim {

class Engine {
 public:
  using Callback = std::function<void()>;

  /// Current virtual time. Monotonically nondecreasing across callbacks.
  TimeNs now() const { return now_; }

  /// Schedule `fn` at absolute virtual time `t` (must be >= now()).
  void schedule_at(TimeNs t, Callback fn);

  /// Schedule `fn` at now() + dt (dt >= 0).
  void schedule_after(TimeNs dt, Callback fn) { schedule_at(now_ + dt, std::move(fn)); }

  /// Execute the earliest pending event. Returns false if none remain
  /// or stop() was requested.
  bool step();

  /// Run until the event queue drains or stop() is called.
  void run();

  /// Run events with time <= t, then set now() = t.
  void run_until(TimeNs t);

  /// Request that run()/step() cease after the current callback.
  void stop() { stopped_ = true; }
  bool stopped() const { return stopped_; }
  void clear_stop() { stopped_ = false; }

  bool empty() const { return heap_.empty(); }
  std::size_t pending() const { return heap_.size(); }
  /// Callback slots ever allocated: the high-water mark of pending().
  std::size_t slot_capacity() const { return slots_.capacity(); }
  std::uint64_t events_processed() const { return processed_; }

  /// Drop all pending events and reset the clock (for test reuse).
  void reset();

 private:
  struct Key {
    TimeNs time;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  struct Later {
    bool operator()(const Key& a, const Key& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  TimeNs now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
  bool stopped_ = false;
  std::vector<Key> heap_;  ///< min-heap on (time, seq) under Later
  SlotPool<Callback> slots_;
};

}  // namespace mdo::sim
