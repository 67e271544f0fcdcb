#include "core/trace_rings.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace mdo::core {

void TraceRings::set_enabled(bool on, std::size_t pes, bool traffic_started) {
  if (on && rings_.empty()) {
    MDO_CHECK_MSG(!traffic_started,
                  "tracing must be enabled before traffic flows");
    constexpr std::size_t kRingCapacity = 1u << 15;
    rings_.reserve(pes + 1);
    for (std::size_t i = 0; i < pes + 1; ++i) {
      rings_.push_back(
          std::make_unique<obs::SpscRing<TraceEvent>>(kRingCapacity));
    }
  }
  enabled_.store(on, std::memory_order_release);
}

void TraceRings::mark_phase(std::size_t ring, Pe pe, sim::TimeNs t,
                            std::int32_t phase) {
  if (!enabled()) return;
  record(ring, TraceEvent{pe, t, t, pe, static_cast<EntryId>(phase),
                          MsgKind::kPhaseMarker});
}

std::vector<TraceEvent> TraceRings::drain(std::size_t ring) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (rings_.empty()) return {};
  return rings_[ring]->drain();
}

std::vector<TraceEvent> TraceRings::collect(
    std::vector<TraceEvent> more) const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& ring : rings_) {
    for (auto& ev : ring->drain()) log_.push_back(ev);
  }
  log_.insert(log_.end(), more.begin(), more.end());
  std::vector<TraceEvent> out = log_;
  std::sort(out.begin(), out.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.begin != b.begin) return a.begin < b.begin;
              return a.pe < b.pe;
            });
  return out;
}

void TraceRings::register_metrics(obs::MetricRegistry& reg) const {
  reg.add_source("trace", [this](obs::MetricSink& sink) {
    std::uint64_t recorded = 0, dropped = 0;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      recorded = log_.size();
    }
    for (const auto& ring : rings_) {
      recorded += ring->size();
      dropped += ring->dropped();
    }
    sink.counter("events", recorded);
    sink.counter("dropped", dropped);
    sink.gauge("enabled", enabled() ? 1.0 : 0.0);
  });
}

}  // namespace mdo::core
