#pragma once
// Index-addressed storage recycled through a free list: put() parks a
// value and returns its slot, take() moves it out and frees the slot.
// Once grown to peak occupancy neither allocates, so an event can
// capture a small slot index instead of the value itself.

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace mdo {

template <class T>
class SlotPool {
 public:
  std::uint32_t put(T&& value) {
    if (free_.empty()) {
      values_.push_back(std::move(value));
      return static_cast<std::uint32_t>(values_.size() - 1);
    }
    const std::uint32_t slot = free_.back();
    free_.pop_back();
    values_[slot] = std::move(value);
    return slot;
  }

  /// The freed slot is reset, so it holds no resource of the old value.
  T take(std::uint32_t slot) {
    T value = std::move(values_[slot]);
    values_[slot] = T{};
    free_.push_back(slot);
    return value;
  }

  /// Slots ever allocated: the high-water mark of occupancy.
  std::size_t capacity() const { return values_.size(); }

  void clear() {
    values_.clear();
    free_.clear();
  }

 private:
  std::vector<T> values_;
  std::vector<std::uint32_t> free_;
};

}  // namespace mdo
