#include "core/sim_machine.hpp"

#include "core/runtime.hpp"
#include "net/metrics.hpp"
#include "util/assert.hpp"

namespace mdo::core {

SimMachine::SimMachine(net::Topology topo, net::GridLatencyModel::Config link,
                       Overheads overheads)
    : Machine(std::move(topo)),
      overheads_(overheads),
      model_(&topo_, link),
      pes_(topo_.num_nodes()) {
  fabric_ = std::make_unique<net::SimFabric>(&engine_, &topo_, &model_,
                                             net::Chain{});
  fabric_->set_node_up_probe([this](net::NodeId node) {
    return !pes_[static_cast<std::size_t>(node)].dead;
  });
  for (std::size_t node = 0; node < topo_.num_nodes(); ++node) {
    fabric_->set_delivery_handler(
        static_cast<net::NodeId>(node), [this, node](net::Packet&& packet) {
          Envelope env;
          unpack_object(packet.payload, env);
          // The packet's storage came from the scratch arena (dispatch
          // packs into a pooled buffer); return it so the cycle stays
          // allocation-free in steady state.
          ScratchArena::local().give(std::move(packet.payload));
          enqueue(static_cast<Pe>(node), std::move(env));
        });
  }
  chain_host_.bind(fabric_->chain(), topo_, metrics_, fabric_.get(),
                   [] { return true; });
  parking_.init(topo_.num_nodes(),
                [this](Envelope&& env) { dispatch(std::move(env)); });
  net::register_fabric_metrics(metrics_, *fabric_);
  // Here a "handoff" is an envelope landing on a PE queue and a "batch"
  // is one coalesced wake event (the DES analogue of a batched inbox
  // pop). No bounded ring, so there is no fallback path.
  register_sched_metrics(metrics_, [this] {
    SchedSample s;
    for (const auto& pe : pes_) {
      s.total.msgs_executed += pe.stats.msgs_executed;
      s.total.msgs_sent += pe.stats.msgs_sent;
      s.total.msgs_dropped += pe.stats.msgs_dropped;
      s.total.busy_ns += pe.stats.busy_ns;
      s.queued += pe.queue.size();
    }
    s.handoffs = handoffs_;
    s.handoff_batches = wake_batches_;
    s.shards = pes_.size();
    return s;
  });
  metrics_.add_source("trace", [this](obs::MetricSink& sink) {
    sink.counter("events", trace_.size());
    sink.counter("dropped", 0);  // vector recorder never drops
    sink.gauge("enabled", tracing_ ? 1.0 : 0.0);
  });
}

void SimMachine::kill_pe(Pe pe, sim::TimeNs at) {
  MDO_CHECK_MSG(pe > 0, "PE 0 hosts the mainchare and cannot be killed");
  MDO_CHECK(pe < num_pes());
  MDO_CHECK(at >= engine_.now());
  engine_.schedule_at(at, [this, pe] { do_kill(pe); });
}

void SimMachine::do_kill(Pe pe) {
  PeState& state = pes_[static_cast<std::size_t>(pe)];
  if (state.dead) return;
  state.dead = true;
  ++kills_;
  // Everything queued at the PE dies with it. A message being executed
  // right now finishes its busy period, but finish_execution discards
  // the outbox of a dead PE, so nothing it produced escapes.
  state.stats.msgs_dropped += state.queue.clear();
}

void SimMachine::send(Envelope&& env) {
  MDO_CHECK(env.dst_pe >= 0 && env.dst_pe < num_pes());
  // Counted at the send() call, not at dispatch: sends buffered during an
  // executing entry must already be visible to quiescence-detector
  // snapshots taken before the entry's busy period ends.
  ++pes_[static_cast<std::size_t>(env.src_pe >= 0 ? env.src_pe : 0)]
        .stats.msgs_sent;
  if (executing_) {
    // Buffered: departs when the running entry completes.
    outbox_.push_back(std::move(env));
    return;
  }
  dispatch(std::move(env));
}

sim::TimeNs SimMachine::dispatch(Envelope&& env) {
  if (env.dst_pe == env.src_pe) {
    enqueue(env.dst_pe, std::move(env));
    return 0;
  }
  if (parking_.congested(env.dst_pe)) {
    parking_.park(std::move(env));
    return 0;
  }
  net::Packet packet;
  packet.src = static_cast<net::NodeId>(env.src_pe);
  packet.dst = static_cast<net::NodeId>(env.dst_pe);
  packet.priority = env.priority;
  packet.payload = pack_object(env);
  return fabric_->send(std::move(packet));
}

void SimMachine::enqueue(Pe pe, Envelope&& env) {
  PeState& state = pes_[static_cast<std::size_t>(pe)];
  if (state.dead) {
    // Crashed PE: arriving traffic falls on the floor (the sender's
    // reliability layer, if any, will notice the missing acks).
    ++state.stats.msgs_dropped;
    return;
  }
  state.queue.push(env.priority, std::move(env));
  ++handoffs_;
  // Defer the scheduling decision into an engine event so that host-side
  // sends issued before run() do not execute synchronously, and so a
  // currently-executing PE picks the message up at its busy-end. One
  // in-flight wake covers every message enqueued before it fires: a
  // busy PE needs no wake at all (finish_execution chains directly into
  // execute_next), and an idle PE drains its whole queue from one wake,
  // so a 10^6-message burst schedules one event, not 10^6.
  if (state.busy || state.wake_scheduled) return;
  state.wake_scheduled = true;
  engine_.schedule_after(0, [this, pe] {
    PeState& s = pes_[static_cast<std::size_t>(pe)];
    s.wake_scheduled = false;
    ++wake_batches_;
    if (!s.busy && !s.dead && !s.queue.empty()) execute_next(pe);
  });
}

void SimMachine::execute_next(Pe pe) {
  PeState& state = pes_[static_cast<std::size_t>(pe)];
  MDO_CHECK(!state.busy && !state.queue.empty());
  Envelope env = state.queue.pop();
  state.busy = true;

  const sim::TimeNs t_start = engine_.now();
  MDO_CHECK(!executing_);
  executing_ = true;
  exec_pe_ = pe;
  outbox_.clear();

  const Pe msg_src = env.src_pe;
  const EntryId entry = env.entry;
  const MsgKind kind = env.kind;
  // Counted at dequeue so that (sent, executed) totals observed from
  // inside a handler are symmetric — the quiescence detector's waves
  // rely on seeing their own message in both counters.
  ++state.stats.msgs_executed;
  sim::TimeNs charged = rt_->deliver(std::move(env));

  executing_ = false;
  // Park the outbox in the PE's slot (swap keeps both vectors' capacity
  // alive) so the busy-end event below captures only [this, pe] — small
  // enough for std::function's inline storage, no allocation.
  MDO_CHECK(state.pending_outbox.empty());
  std::swap(state.pending_outbox, outbox_);

  sim::TimeNs cost =
      overheads_.recv + charged +
      overheads_.send * static_cast<sim::TimeNs>(state.pending_outbox.size());
  state.stats.busy_ns += cost;

  const sim::TimeNs t_end = t_start + cost;
  if (tracing_) trace_.push_back(TraceEvent{pe, t_start, t_end, msg_src, entry, kind});

  engine_.schedule_at(t_end, [this, pe] { finish_execution(pe); });
}

void SimMachine::finish_execution(Pe pe) {
  PeState& state = pes_[static_cast<std::size_t>(pe)];
  if (state.dead) {
    // The PE crashed mid-execution: whatever the entry produced never
    // made it onto the wire.
    state.stats.msgs_dropped += state.pending_outbox.size();
    state.pending_outbox.clear();
    state.busy = false;
    return;
  }
  sim::TimeNs chain_cpu = 0;
  for (auto& env : state.pending_outbox) chain_cpu += dispatch(std::move(env));
  state.pending_outbox.clear();

  if (overheads_.charge_chain_cpu && chain_cpu > 0) {
    state.stats.busy_ns += chain_cpu;
    engine_.schedule_after(chain_cpu, [this, pe] {
      PeState& s = pes_[static_cast<std::size_t>(pe)];
      s.busy = false;
      if (!s.dead && !s.queue.empty()) {
        execute_next(pe);
      } else if (!s.dead && on_pe_idle_) {
        on_pe_idle_(pe);
      }
    });
    return;
  }
  state.busy = false;
  if (!state.queue.empty()) {
    execute_next(pe);
  } else if (on_pe_idle_) {
    on_pe_idle_(pe);
  }
}

void SimMachine::trace_phase(std::int32_t phase) {
  if (!tracing_) return;
  const sim::TimeNs t = engine_.now();
  trace_.push_back(TraceEvent{current_pe(), t, t, current_pe(),
                              static_cast<EntryId>(phase),
                              MsgKind::kPhaseMarker});
}

void SimMachine::run() {
  engine_.clear_stop();
  engine_.run();
}

PeStats SimMachine::pe_stats(Pe pe) const {
  MDO_CHECK(pe >= 0 && pe < num_pes());
  return pes_[static_cast<std::size_t>(pe)].stats;
}

void SimMachine::advance_time(sim::TimeNs dt) {
  MDO_CHECK(dt >= 0);
  engine_.run_until(engine_.now() + dt);
}

}  // namespace mdo::core
