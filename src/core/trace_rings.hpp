#pragma once
// TraceRings: entry-interval tracing for the wall-clock backends. One
// lock-free SPSC ring per PE plus a final ring for the host thread's
// phase markers, so every ring has exactly one producer and recording
// never takes a lock on the delivery path. A full ring drops the event
// and counts it (trace.dropped). SimMachine keeps a plain vector instead:
// its DES is single-threaded and never drops.

#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

#include "core/machine.hpp"
#include "obs/ring_buffer.hpp"

namespace mdo::core {

class TraceRings {
 public:
  /// Turn recording on or off. The first enable allocates `pes + 1`
  /// rings; `traffic_started` must be false then, since a producer may
  /// already be running.
  void set_enabled(bool on, std::size_t pes, bool traffic_started);
  bool enabled() const { return enabled_.load(std::memory_order_acquire); }

  /// Record into `ring`; the caller is that ring's single producer.
  /// Callers check enabled() first.
  void record(std::size_t ring, const TraceEvent& ev) {
    rings_[ring]->push(ev);
  }
  /// Record a zero-duration kPhaseMarker for `phase` on `pe` at `t`.
  void mark_phase(std::size_t ring, Pe pe, sim::TimeNs t, std::int32_t phase);

  /// Drain one ring (a forked PE ships only its own). Empty when never
  /// enabled.
  std::vector<TraceEvent> drain(std::size_t ring);

  /// Drain every ring into the retained log, append `more`, and return
  /// the log ordered by (begin, pe). Complete only once traffic has
  /// quiesced.
  std::vector<TraceEvent> collect(std::vector<TraceEvent> more = {}) const;

  /// Publish trace.{events,dropped,enabled}.
  void register_metrics(obs::MetricRegistry& reg) const;

 private:
  std::atomic<bool> enabled_{false};
  std::vector<std::unique_ptr<obs::SpscRing<TraceEvent>>> rings_;
  mutable std::mutex mutex_;
  mutable std::vector<TraceEvent> log_;
};

}  // namespace mdo::core
