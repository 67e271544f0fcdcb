#include "core/machine.hpp"

#include <thread>

#include "core/runtime.hpp"
#include "core/trace_rings.hpp"
#include "util/alloc_count.hpp"
#include "util/buffer.hpp"

namespace mdo::core {

void Machine::execute_timed(Envelope&& env, Pe pe, bool emulate_charge,
                            PeCounters& counters, TraceRings& traces) {
  // Captured before the move: the trace event needs the provenance.
  TraceEvent ev{pe, 0, 0, env.src_pe, env.entry, env.kind};
  const auto t0 = std::chrono::steady_clock::now();
  const sim::TimeNs charged = rt_->deliver(std::move(env));
  if (emulate_charge && charged > 0) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(charged));
  }
  const auto t1 = std::chrono::steady_clock::now();
  const auto ns = [](std::chrono::steady_clock::duration d) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(d).count();
  };
  if (traces.enabled()) {
    ev.begin = ns(t0 - epoch_);
    ev.end = ns(t1 - epoch_);
    traces.record(static_cast<std::size_t>(pe), ev);
  }
  counters.busy_ns.fetch_add(ns(t1 - t0), std::memory_order_relaxed);
  counters.executed.fetch_add(1, std::memory_order_relaxed);
}

void Machine::register_sched_metrics(
    obs::MetricRegistry& reg, std::function<SchedSample()> sample) const {
  reg.add_source("rt.sched", [this, sample = std::move(sample)](
                                 obs::MetricSink& sink) {
    const SchedSample s = sample();
    const ParkingLot::Counters stall = parking_.counters();
    sink.counter("msgs_executed", s.total.msgs_executed);
    sink.counter("msgs_sent", s.total.msgs_sent);
    sink.counter("msgs_dropped", s.total.msgs_dropped);
    sink.counter("busy_ns", static_cast<std::uint64_t>(s.total.busy_ns));
    sink.counter("pes_killed", pes_killed());
    sink.counter("stall_parked", stall.parked);
    sink.counter("stall_resumed", stall.resumed);
    sink.gauge("queue_depth", static_cast<double>(s.queued));
    sink.gauge("parked_depth", static_cast<double>(stall.depth()));
    sink.counter("shard.handoffs", s.handoffs);
    sink.counter("shard.handoff_batches", s.handoff_batches);
    sink.counter("shard.handoff_fallbacks", s.handoff_fallbacks);
    sink.gauge("shard.shards", static_cast<double>(s.shards));
  });
  reg.add_source("rt", [this](obs::MetricSink& sink) {
    sink.counter("unknown_entry",
                 unknown_entries_.load(std::memory_order_relaxed));
  });
  reg.add_source("mem", [](obs::MetricSink& sink) {
    sink.counter("allocs", alloc::allocations());
    sink.counter("frees", alloc::deallocations());
    sink.counter("alloc_bytes", alloc::allocated_bytes());
    sink.gauge("hook_active", alloc::hook_active() ? 1.0 : 0.0);
    sink.gauge("arena_buffers",
               static_cast<double>(ScratchArena::local().size()));
  });
}

}  // namespace mdo::core
