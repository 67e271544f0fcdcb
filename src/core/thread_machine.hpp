#pragma once
// ThreadMachine: one OS thread per PE, real wall-clock time, and a
// ThreadFabric that holds cross-node packets for their modeled delay.
// Used by the examples, the integration tests and the wall-clock
// workloads of perfbench (messaging, cmfd_wavefront); the paper's figure
// sweeps in bench/ use SimMachine (deterministic virtual time).

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/machine.hpp"
#include "core/run_queue.hpp"
#include "core/trace_rings.hpp"
#include "net/latency_model.hpp"
#include "net/thread_fabric.hpp"
#include "obs/mpsc_ring.hpp"

namespace mdo::core {

class ThreadMachine final : public Machine {
 public:
  /// Tuning is the shared core::MachineOptions (emulate_charge honors
  /// Runtime::charge(ns) by sleeping so modeled workloads exhibit real
  /// elapsed time; the process watchdog field is ignored here).
  ThreadMachine(net::Topology topo, net::GridLatencyModel::Config link)
      : ThreadMachine(std::move(topo), link, MachineOptions{}) {}
  ThreadMachine(net::Topology topo, net::GridLatencyModel::Config link,
                MachineOptions options);
  ~ThreadMachine() override;

  /// Crash-inject: PE `pe` stops scheduling work. Cooperative fail-stop —
  /// a handler already running finishes, but nothing it sends escapes,
  /// its queue is drained (counted in msgs_dropped), and the fabric
  /// squashes frames it would still emit. PE 0 hosts the mainchare and
  /// cannot be killed. Only sound without injected frame loss: an
  /// abandoned retransmission flow would strand quiescence accounting.
  void kill_pe(Pe pe) override;

  // -- Machine interface --------------------------------------------------
  Pe current_pe() const override;
  sim::TimeNs now() const override { return wall_ns(); }
  void send(Envelope&& env) override;
  void run() override;
  void stop() override;
  PeStats pe_stats(Pe pe) const override;
  bool pe_alive(Pe pe) const override;
  net::Fabric::Stats fabric_stats() const override { return fabric_->stats(); }
  /// Runs `fn` on the fabric dispatcher thread after `dt`.
  void call_after(sim::TimeNs dt, std::function<void()> fn) override {
    fabric_->host_schedule(dt, std::move(fn));
  }

  /// Entry-interval tracing into per-PE TraceRings (each worker is the
  /// sole producer of its ring). Call before traffic flows. trace() is
  /// complete only once traffic has quiesced.
  void set_tracing(bool on) override;
  std::vector<TraceEvent> trace() const override { return traces_.collect(); }
  void trace_phase(std::int32_t phase) override;

 private:
  /// Sharded scheduler: each PE owns a lock-free MPSC inbox ring (any
  /// thread pushes, only this PE's worker pops — in batches) feeding a
  /// consumer-private RunQueue. The mutex+cv pair exists only for the
  /// sleep/wake handshake and the ring-full overflow list; the
  /// steady-state handoff takes no lock. The publish store in the ring
  /// and the `sleeping` flag are both seq_cst, so a producer that reads
  /// sleeping==false and a consumer that reads ring-empty cannot both
  /// happen (store-buffering litmus) — no wake-up is ever lost. The
  /// RunQueue keeps no seq, so each sender's envelopes must reach it in
  /// send order: a producer spills while the overflow is non-empty, and
  /// the refill empties the ring, under the mutex, before the overflow.
  struct PeWorker {
    std::unique_ptr<obs::MpscRing<Envelope>> inbox;
    std::mutex mutex;              ///< sleep/wake + overflow only
    std::condition_variable cv;
    std::vector<Envelope> overflow;  ///< ring-full fallback (never drops)
    std::atomic<std::size_t> overflow_count{0};
    std::atomic<std::uint64_t> spilled{0};  ///< envelopes sent to overflow
    std::atomic<bool> sleeping{false};
    std::atomic<bool> dead{false};  ///< fail-stop: set once, never cleared

    // Producers (sends charged to this PE, drops) and the worker
    // (execution) update without taking the worker mutex on the hot path.
    PeCounters counters;
    std::atomic<std::size_t> runq_depth{0};  ///< metrics snapshot

    // Consumer-private state: only the worker thread touches these.
    RunQueue<Envelope> runq;
    std::vector<Envelope> batch;  ///< pop_batch scratch
    std::thread thread;
  };

  void worker_loop(Pe pe);
  /// Move a batch from the inbox, and the whole overflow if it is
  /// non-empty, into the consumer-private runq. Worker thread only.
  void refill_runq(PeWorker& worker);
  void enqueue(Pe pe, Envelope&& env);
  void route(Envelope&& env);
  /// `n` messages left the system (executed, or dropped at a crashed
  /// PE); wakes run() when none is left.
  void settle(std::int64_t n = 1);

  MachineOptions options_;
  net::GridLatencyModel model_;
  std::unique_ptr<net::ThreadFabric> fabric_;

  std::vector<std::unique_ptr<PeWorker>> workers_;
  std::atomic<bool> stopping_{false};

  TraceRings traces_;

  // Quiescence: messages anywhere in the system (queued, in flight, or
  // executing). send() increments; the worker decrements after the
  // handler returns, so 0 means nothing can create new work. Parked
  // envelopes stay counted, so quiescence waits for the heal.
  std::atomic<std::int64_t> pending_{0};
  std::mutex done_mutex_;
  std::condition_variable done_cv_;
};

}  // namespace mdo::core
