#include "core/quiescence.hpp"

#include "util/assert.hpp"

namespace mdo::core {

QuiescenceDetector::QuiescenceDetector(Runtime& rt) : rt_(&rt) {}

void QuiescenceDetector::notify_on_quiescence(std::function<void()> fn) {
  MDO_CHECK(static_cast<bool>(fn));
  queue_.push_back(std::move(fn));
  if (!wave_running_) {
    have_previous_ = false;
    start_wave();
  }
}

QuiescenceDetector::Totals QuiescenceDetector::snapshot() const {
  Totals totals;
  for (Pe pe = 0; pe < rt_->num_pes(); ++pe) {
    PeStats stats = rt_->machine().pe_stats(pe);
    totals.sent += stats.msgs_sent;
    // A message discarded at a crashed PE is as final as an executed one:
    // it can never create new work, so it counts as processed.
    totals.processed += stats.msgs_executed + stats.msgs_dropped;
  }
  // Exclude the detector's own wave messages (each wave is one host-call
  // envelope, fully sent and processed by the time it snapshots).
  totals.sent -= detector_msgs_;
  totals.processed -= detector_msgs_;
  return totals;
}

void QuiescenceDetector::start_wave() {
  wave_running_ = true;
  ++waves_;
  // Pace waves so the DES makes progress between probes; the wave itself
  // travels as an ordinary host-call message to the tree root.
  rt_->machine().call_after(sim::microseconds(100), [this] {
    ++detector_msgs_;
    rt_->schedule_host(rt_->tree().root(),
                       [this] { finish_wave(snapshot()); });
  });
}

void QuiescenceDetector::finish_wave(Totals totals) {
  const bool counts_match = totals.sent == totals.processed;
  const bool stable = have_previous_ && totals == previous_;
  if (counts_match && stable) {
    wave_running_ = false;
    have_previous_ = false;
    std::vector<std::function<void()>> ready;
    ready.swap(queue_);
    for (auto& fn : ready) {
      ++detector_msgs_;
      rt_->schedule_host(rt_->tree().root(), std::move(fn));
    }
    // Requests enqueued while we were detecting start a fresh round.
    if (!queue_.empty()) start_wave();
    return;
  }
  previous_ = totals;
  have_previous_ = true;
  start_wave();
}

}  // namespace mdo::core
