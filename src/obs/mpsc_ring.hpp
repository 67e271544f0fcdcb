#pragma once
// Lock-free bounded multi-producer/single-consumer ring (Vyukov-style
// sequence ring). ThreadMachine gives each PE worker one of these as its
// cross-PE envelope inbox: any thread may try_push, only the owning
// worker pops — in batches, so a broadcast landing a burst of envelopes
// pays one wake-up and one run-queue refill per batch instead of a mutex
// acquisition per message.
//
// Guarantees:
//  - per-producer FIFO: two pushes by one thread are popped in order
//    (slot tickets are claimed in program order and consumed in ticket
//    order);
//  - no loss / no duplication: a successful try_push is popped exactly
//    once; a false return leaves the ring untouched (callers fall back
//    to an overflow path — the ring never silently drops);
//  - the publishing store and the consumer's emptiness probe are
//    seq_cst, so a producer that misses the consumer's sleep flag and a
//    consumer that misses the producer's publish cannot both happen
//    (store-buffering litmus) — the sleep/wake protocol in the caller
//    needs no standalone fences (which TSan models poorly).

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

namespace mdo::obs {

template <typename T>
class MpscRing {
 public:
  /// Capacity is rounded up to a power of two (min 2).
  explicit MpscRing(std::size_t capacity) {
    std::size_t cap = 2;
    while (cap < capacity) cap <<= 1;
    mask_ = cap - 1;
    cells_ = std::make_unique<Cell[]>(cap);
    for (std::size_t i = 0; i < cap; ++i) {
      cells_[i].seq.store(i, std::memory_order_relaxed);
    }
  }

  MpscRing(const MpscRing&) = delete;
  MpscRing& operator=(const MpscRing&) = delete;

  /// Multi-producer enqueue. Returns false when the ring is full (the
  /// item is untouched and still owned by the caller).
  bool try_push(T&& item) {
    std::size_t pos = enqueue_pos_.load(std::memory_order_relaxed);
    for (;;) {
      Cell& cell = cells_[pos & mask_];
      const std::size_t seq = cell.seq.load(std::memory_order_acquire);
      const auto diff = static_cast<std::intptr_t>(seq) -
                        static_cast<std::intptr_t>(pos);
      if (diff == 0) {
        if (enqueue_pos_.compare_exchange_weak(pos, pos + 1,
                                               std::memory_order_relaxed)) {
          cell.value = std::move(item);
          // seq_cst (not just release): pairs with the consumer's
          // seq_cst probe so the caller's sleep/wake handshake cannot
          // lose this item (see header comment).
          cell.seq.store(pos + 1, std::memory_order_seq_cst);
          pushed_.fetch_add(1, std::memory_order_relaxed);
          return true;
        }
        // CAS failed: pos was reloaded, retry with the new ticket.
      } else if (diff < 0) {
        // The slot still holds an unconsumed item a full lap behind:
        // ring full. Re-read the head once — if another producer
        // advanced it past a freed slot we can still make progress.
        const std::size_t cur = enqueue_pos_.load(std::memory_order_relaxed);
        if (cur == pos) {
          full_rejects_.fetch_add(1, std::memory_order_relaxed);
          return false;
        }
        pos = cur;
      } else {
        // Another producer claimed this ticket but has not published
        // yet; chase the head.
        pos = enqueue_pos_.load(std::memory_order_relaxed);
      }
    }
  }

  /// Single-consumer batched dequeue: appends up to `max` ready items to
  /// `out`, in ticket order. Returns the number popped. Stops at the
  /// first unpublished slot, so a producer mid-publish never blocks the
  /// batch behind it from draining on the next call.
  std::size_t pop_batch(std::vector<T>& out, std::size_t max) {
    std::size_t pos = dequeue_pos_.load(std::memory_order_relaxed);
    std::size_t popped = 0;
    while (popped < max) {
      Cell& cell = cells_[pos & mask_];
      const std::size_t seq = cell.seq.load(std::memory_order_acquire);
      if (static_cast<std::intptr_t>(seq) -
              static_cast<std::intptr_t>(pos + 1) != 0) {
        break;  // not yet published
      }
      out.push_back(std::move(cell.value));
      // Free the slot for the producers' next lap.
      cell.seq.store(pos + mask_ + 1, std::memory_order_release);
      ++pos;
      ++popped;
    }
    if (popped > 0) {
      dequeue_pos_.store(pos, std::memory_order_relaxed);
      popped_.fetch_add(popped, std::memory_order_relaxed);
      batches_.fetch_add(1, std::memory_order_relaxed);
    }
    return popped;
  }

  /// Single-consumer full drain: appends every item whose ticket was
  /// claimed before the call, in ticket order, yielding while a producer
  /// still publishes one. A caller holding a lock that a producer took
  /// after its try_push returned is thus sure to receive that item.
  std::size_t drain(std::vector<T>& out) {
    const std::size_t end = enqueue_pos_.load(std::memory_order_relaxed);
    std::size_t popped = 0;
    while (dequeue_pos_.load(std::memory_order_relaxed) != end) {
      const std::size_t n = pop_batch(
          out, end - dequeue_pos_.load(std::memory_order_relaxed));
      if (n == 0) std::this_thread::yield();
      popped += n;
    }
    return popped;
  }

  /// Consumer-side probe: true when the next slot in ticket order has a
  /// published item. seq_cst so it pairs with try_push's publishing
  /// store in the caller's sleep/wake handshake.
  bool consumer_has_items() const {
    const std::size_t pos = dequeue_pos_.load(std::memory_order_relaxed);
    const std::size_t seq = cells_[pos & mask_].seq.load(
        std::memory_order_seq_cst);
    return static_cast<std::intptr_t>(seq) -
               static_cast<std::intptr_t>(pos + 1) == 0;
  }

  std::size_t capacity() const { return mask_ + 1; }

  /// Approximate occupancy (racy; metrics only).
  std::size_t size() const {
    const std::size_t head = enqueue_pos_.load(std::memory_order_relaxed);
    const std::size_t tail = dequeue_pos_.load(std::memory_order_relaxed);
    return head >= tail ? head - tail : 0;
  }

  std::uint64_t pushed() const {
    return pushed_.load(std::memory_order_relaxed);
  }
  std::uint64_t popped() const {
    return popped_.load(std::memory_order_relaxed);
  }
  std::uint64_t batches() const {
    return batches_.load(std::memory_order_relaxed);
  }
  std::uint64_t full_rejects() const {
    return full_rejects_.load(std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Cell {
    std::atomic<std::size_t> seq{0};
    T value{};
  };

  std::unique_ptr<Cell[]> cells_;
  std::size_t mask_ = 0;
  alignas(64) std::atomic<std::size_t> enqueue_pos_{0};
  alignas(64) std::atomic<std::size_t> dequeue_pos_{0};
  std::atomic<std::uint64_t> pushed_{0};
  std::atomic<std::uint64_t> popped_{0};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> full_rejects_{0};
};

}  // namespace mdo::obs
