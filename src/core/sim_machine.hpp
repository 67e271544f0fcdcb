#pragma once
// SimMachine: all PEs of a (multi-cluster) grid allocation advance in
// virtual time under one OS thread, driven by the DES engine. Entry
// executions charge modeled compute (Runtime::charge) plus fixed
// per-message scheduling overheads; sends buffered during an execution
// depart when it completes. This is the deterministic substrate behind
// every benchmark table and figure.

#include <memory>
#include <vector>

#include "core/machine.hpp"
#include "core/run_queue.hpp"
#include "net/latency_model.hpp"
#include "net/sim_fabric.hpp"
#include "sim/engine.hpp"
#include "util/assert.hpp"

namespace mdo::core {

class SimMachine final : public Machine {
 public:
  struct Overheads {
    sim::TimeNs send = sim::microseconds(2.0);   ///< sender CPU per message
    sim::TimeNs recv = sim::microseconds(4.0);   ///< scheduler CPU per delivery
    bool charge_chain_cpu = true;  ///< device-chain CPU extends PE busy time
  };

  SimMachine(net::Topology topo, net::GridLatencyModel::Config link)
      : SimMachine(std::move(topo), link, Overheads{}) {}
  SimMachine(net::Topology topo, net::GridLatencyModel::Config link,
             Overheads overheads);

  // -- construction-time access --
  sim::Engine& engine() { return engine_; }
  net::SimFabric& fabric() { return *fabric_; }
  net::GridLatencyModel& model() { return model_; }
  const Overheads& overheads() const { return overheads_; }

  /// Crash-inject: at virtual time `at` (>= now), PE `pe` stops
  /// scheduling forever — its queued and future messages are dropped and
  /// the fabric squashes any frame it would still emit. PE 0 hosts the
  /// mainchare and cannot be killed. Fail-stop: a killed PE never comes
  /// back (recovery restores its elements elsewhere).
  void kill_pe(Pe pe, sim::TimeNs at);
  /// Machine override: kill at the current virtual time.
  void kill_pe(Pe pe) override { kill_pe(pe, engine_.now()); }

  // -- Machine interface ---------------------------------------------------
  Pe current_pe() const override { return executing_ ? exec_pe_ : 0; }
  sim::TimeNs now() const override { return engine_.now(); }
  void send(Envelope&& env) override;
  void run() override;
  void stop() override { engine_.stop(); }
  PeStats pe_stats(Pe pe) const override;
  bool pe_alive(Pe pe) const override {
    MDO_CHECK(pe >= 0 && pe < num_pes());
    return !pes_[static_cast<std::size_t>(pe)].dead;
  }
  net::Fabric::Stats fabric_stats() const override { return fabric_->stats(); }
  void advance_time(sim::TimeNs dt) override;
  void call_after(sim::TimeNs dt, std::function<void()> fn) override {
    engine_.schedule_after(dt, std::move(fn));
  }
  void set_tracing(bool on) override { tracing_ = on; }
  std::vector<TraceEvent> trace() const override { return trace_; }
  void trace_phase(std::int32_t phase) override;

 private:
  struct PeState {
    RunQueue<Envelope> queue;
    /// Sends buffered by the entry executing on this PE, parked here until
    /// its busy period ends. A per-PE slot (instead of a move-captured
    /// vector) keeps the busy-end event small enough for std::function's
    /// inline storage — no heap allocation per execution.
    std::vector<Envelope> pending_outbox;
    bool busy = false;
    bool dead = false;  ///< fail-stop: set once by kill_pe, never cleared
    /// A zero-delay wake event is already in flight for this PE. Lets a
    /// burst of enqueues (a broadcast fanning into a 10^6-element array's
    /// PE) schedule one engine event per batch instead of one per
    /// message; the wake drains the whole queue via the busy-end chain.
    bool wake_scheduled = false;
    PeStats stats;
  };

  void do_kill(Pe pe);
  void enqueue(Pe pe, Envelope&& env);
  void execute_next(Pe pe);
  /// Immediately route one envelope (local enqueue or fabric). Returns
  /// the device-chain CPU cost incurred on the sender. Envelopes toward
  /// a congested (quarantined, buffer-full) peer park instead.
  sim::TimeNs dispatch(Envelope&& env);
  void finish_execution(Pe pe);  ///< drains pes_[pe].pending_outbox

  Overheads overheads_;
  sim::Engine engine_;
  net::GridLatencyModel model_;
  std::unique_ptr<net::SimFabric> fabric_;

  std::vector<PeState> pes_;
  std::uint64_t handoffs_ = 0;      ///< envelopes enqueued onto PE queues
  std::uint64_t wake_batches_ = 0;  ///< coalesced zero-delay wake events

  bool executing_ = false;
  Pe exec_pe_ = 0;
  std::vector<Envelope> outbox_;

  bool tracing_ = false;
  std::vector<TraceEvent> trace_;
};

}  // namespace mdo::core
