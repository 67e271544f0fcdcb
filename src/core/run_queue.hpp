#pragma once
// RunQueue: the message-driven scheduler's ready queue, one copy for all
// three backends. Lower Priority values run first, and items of one
// priority run in arrival order: each priority level is a FIFO ring, so
// the (priority, seq) order a heap needs a counter for comes from arrival
// order alone. Rings are vector-backed, grow by doubling and never free,
// and levels are never removed, so a warm queue does not allocate.
// Priority 0, the common case, has its own level outside the sorted
// vector: no search on push, no scan on pop while nothing is more
// urgent. Single-threaded: the backends own the locking.

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "core/types.hpp"
#include "util/assert.hpp"

namespace mdo::core {

template <typename T>
class RunQueue {
 public:
  void push(Priority priority, T&& item) {
    Level& l = priority == 0 ? zero_ : level(priority);
    if (l.count == l.slots.size()) grow(l);
    l.slots[(l.head + l.count++) & (l.slots.size() - 1)] = std::move(item);
    if (priority < 0) ++urgent_;
    ++size_;
  }

  /// The most urgent item, FIFO within its priority. Requires !empty().
  T pop() {
    MDO_CHECK(size_ > 0);
    --size_;
    if (urgent_ == 0 && zero_.count > 0) return take(zero_);
    // A negative level if any is non-empty, else the first positive one.
    Level* l = levels_.data();
    while (l->count == 0) ++l;
    if (l->priority < 0) --urgent_;
    return take(*l);
  }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  /// Drop every queued item, releasing it now; returns how many.
  std::size_t clear() {
    const std::size_t n = size_;
    while (!empty()) pop();
    return n;
  }

 private:
  struct Level {
    Priority priority = 0;
    std::vector<T> slots;  ///< ring storage: power-of-two size, or empty
    std::size_t head = 0;
    std::size_t count = 0;
  };

  static T take(Level& l) {
    T item = std::move(l.slots[l.head]);
    l.head = (l.head + 1) & (l.slots.size() - 1);
    --l.count;
    return item;
  }

  static void grow(Level& l) {
    std::vector<T> bigger(l.slots.empty() ? 1 : 2 * l.slots.size());
    for (std::size_t i = 0; i < l.count; ++i) {
      bigger[i] = std::move(l.slots[(l.head + i) & (l.slots.size() - 1)]);
    }
    l.slots.swap(bigger);
    l.head = 0;
  }

  /// The level of a non-zero priority, created on first use.
  Level& level(Priority priority) {
    auto it = std::lower_bound(
        levels_.begin(), levels_.end(), priority,
        [](const Level& l, Priority p) { return l.priority < p; });
    if (it == levels_.end() || it->priority != priority) {
      it = levels_.insert(it, Level{priority});
    }
    return *it;
  }

  Level zero_;
  std::vector<Level> levels_;  ///< the others, sorted; never shrinks
  std::size_t urgent_ = 0;     ///< items queued below priority 0
  std::size_t size_ = 0;
};

}  // namespace mdo::core
