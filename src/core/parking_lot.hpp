#pragma once
// ParkingLot: quarantine backpressure, shared by every machine backend.
// When the reliability stack's buffer toward a suspect peer fills, the
// congestion callback raises that peer's flag and senders park their
// envelopes here instead of handing them to the chain. When the flag
// clears (heal or abandonment) the lot re-dispatches them, most urgent
// first. Parking is unbounded: the memory bound is the reliable layer's
// quarantine_max_frames / quarantine_max_bytes, which trips the flag.

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <vector>

#include "core/envelope.hpp"

namespace mdo::core {

class ParkingLot {
 public:
  /// Re-routes one resumed envelope; it may park the envelope again if
  /// the destination re-tripped congestion.
  using Dispatch = std::function<void(Envelope&&)>;

  /// Size the lot for destinations [0, peers). Call once, before traffic.
  void init(std::size_t peers, Dispatch dispatch);

  /// The mirrored congestion flag; senders check it on every cross-PE
  /// dispatch, so it never touches device internals.
  bool congested(Pe dst) const {
    return congested_[static_cast<std::size_t>(dst)].load();
  }
  void set_congested(Pe dst, bool congested) {
    congested_[static_cast<std::size_t>(dst)].store(congested);
  }

  /// Hold `env` until its destination's congestion clears. The flag is
  /// re-read after the envelope is published: the clearing side stores
  /// `false` before it schedules flush(), so either that flush sees the
  /// envelope or this call flushes it itself — never neither.
  void park(Envelope&& env);

  /// Re-dispatch everything held for `dst`: most urgent first, FIFO
  /// within a priority. No-op when nothing is held.
  void flush(Pe dst);

  struct Counters {
    std::uint64_t parked = 0;   ///< park() calls
    std::uint64_t resumed = 0;  ///< envelopes flush() re-dispatched
    std::uint64_t depth() const { return parked - resumed; }
  };
  Counters counters() const;

 private:
  Dispatch dispatch_;
  std::vector<std::atomic<bool>> congested_;
  mutable std::mutex mutex_;
  std::map<Pe, std::vector<Envelope>> held_;
  Counters counters_;
};

}  // namespace mdo::core
