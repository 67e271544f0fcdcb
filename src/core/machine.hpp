#pragma once
// Machine: the execution substrate beneath the Runtime. It owns the PEs'
// message queues and the notion of time, routes envelopes between PEs
// (through a net::Fabric when they cross nodes), and calls back into
// Runtime::deliver() to execute each message. Three implementations:
// SimMachine (virtual time, deterministic DES), ThreadMachine (real
// threads, real time) and ProcessMachine (forked processes over
// Unix-domain sockets). The pieces they share live here once: the device
// chain installer (ChainHost), quarantine backpressure (ParkingLot), the
// idle hook, and the scheduler/memory metric sources.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "core/chain_host.hpp"
#include "core/envelope.hpp"
#include "core/parking_lot.hpp"
#include "core/types.hpp"
#include "net/fabric.hpp"
#include "net/topology.hpp"
#include "obs/metrics.hpp"
#include "sim/time.hpp"

namespace mdo::core {

class Runtime;
class TraceRings;

/// Backend-independent machine tuning, shared by every real-time backend
/// (ThreadMachine and ProcessMachine; SimMachine charges virtual time and
/// ignores it). Scenario carries one of these and grid::make_machine
/// forwards it.
struct MachineOptions {
  /// Sleep for each entry's charged CPU time so wall-clock traces carry
  /// the modeled compute cost. Off for pure functional tests.
  bool emulate_charge = true;

  /// ProcessMachine only: abort a run() that makes no progress for this
  /// much wall-clock time (a hung child or wedged socket must never hang
  /// the harness). 0 disables the watchdog.
  sim::TimeNs process_run_watchdog = 120'000'000'000;  // 120 s
};

struct PeStats {
  sim::TimeNs busy_ns = 0;          ///< time spent executing entries
  std::uint64_t msgs_executed = 0;
  std::uint64_t msgs_sent = 0;
  std::uint64_t msgs_dropped = 0;   ///< discarded at a crashed PE (counted
                                    ///< so sent == executed + dropped holds
                                    ///< for quiescence accounting)
};

/// PeStats as relaxed atomics: senders, droppers and the executing thread
/// update them without a lock; readers want counts, not ordering.
struct PeCounters {
  std::atomic<sim::TimeNs> busy_ns{0};
  std::atomic<std::uint64_t> executed{0};
  std::atomic<std::uint64_t> sent{0};
  std::atomic<std::uint64_t> dropped{0};

  PeStats load() const {
    return {busy_ns.load(std::memory_order_relaxed),
            executed.load(std::memory_order_relaxed),
            sent.load(std::memory_order_relaxed),
            dropped.load(std::memory_order_relaxed)};
  }
  void reset() {
    busy_ns.store(0, std::memory_order_relaxed);
    executed.store(0, std::memory_order_relaxed);
    sent.store(0, std::memory_order_relaxed);
    dropped.store(0, std::memory_order_relaxed);
  }
};

/// One executed-entry interval, recorded when tracing is enabled.
/// Feeds the Figure-2 timeline reproduction.
struct TraceEvent {
  Pe pe = kInvalidPe;
  sim::TimeNs begin = 0;
  sim::TimeNs end = 0;
  Pe src_pe = kInvalidPe;     ///< sender of the triggering message
  EntryId entry = kInvalidEntry;
  MsgKind kind = MsgKind::kEntry;
};

class Machine {
 public:
  virtual ~Machine() = default;

  /// Called once by the Runtime constructor to register the upcall target.
  void bind(Runtime* runtime) { rt_ = runtime; }

  int num_pes() const { return static_cast<int>(topo_.num_nodes()); }
  const net::Topology& topology() const { return topo_; }

  /// PE whose entry method is currently executing; PE 0 outside execution
  /// (host/setup code acts as the mainchare on PE 0).
  virtual Pe current_pe() const = 0;

  /// Virtual (SimMachine) or wall (ThreadMachine) nanoseconds.
  virtual sim::TimeNs now() const = 0;

  /// Route one envelope toward env.dst_pe. Never blocks.
  virtual void send(Envelope&& env) = 0;

  /// Process messages until quiescence (no message anywhere, all PEs
  /// idle) or until stop() is called from inside a handler.
  virtual void run() = 0;

  virtual void stop() = 0;

  virtual PeStats pe_stats(Pe pe) const = 0;

  /// Crash model (fail-stop): machines that support kill_pe report which
  /// PEs still schedule work. PE 0 hosts the mainchare and is immortal.
  virtual bool pe_alive(Pe) const = 0;
  std::vector<bool> alive_pes() const {
    std::vector<bool> alive(static_cast<std::size_t>(num_pes()));
    for (Pe pe = 0; pe < num_pes(); ++pe) {
      alive[static_cast<std::size_t>(pe)] = pe_alive(pe);
    }
    return alive;
  }

  /// Message-layer counters (packets/bytes, WAN share).
  virtual net::Fabric::Stats fabric_stats() const = 0;

  /// Advance the clock without work (SimMachine only; models host-driven
  /// phases such as load-balancing time). Default: no-op.
  virtual void advance_time(sim::TimeNs) {}

  /// Run `fn` after `dt` of machine time, outside any PE context (used
  /// by the quiescence detector to pace its waves and by scenario
  /// link-drift schedules).
  virtual void call_after(sim::TimeNs dt, std::function<void()> fn) = 0;

  /// Entry-interval tracing. Every backend supports it: SimMachine
  /// appends to a plain vector (single-threaded DES); Thread and Process
  /// record into lock-free per-PE rings (core/trace_rings.hpp).
  virtual void set_tracing(bool) {}
  virtual std::vector<TraceEvent> trace() const { return {}; }

  /// Application phase marker: records a zero-duration kPhaseMarker trace
  /// event tagged with `phase` (entry field) on the calling PE, so trace
  /// consumers can segment a timeline into steps. No-op when tracing is
  /// off; never touches the wire.
  virtual void trace_phase(std::int32_t) {}

  /// Crash injection: stop `pe` scheduling (fail-stop). SimMachine kills
  /// in virtual time, ThreadMachine aborts the worker, ProcessMachine
  /// SIGKILLs the child process. PE 0 hosts the mainchare and cannot be
  /// killed.
  virtual void kill_pe(Pe pe) = 0;
  std::uint64_t pes_killed() const {
    return kills_.load(std::memory_order_acquire);
  }

  /// A delivered envelope named an entry id this binary never registered
  /// (Runtime::deliver dropped it); published as rt.unknown_entry.
  void count_unknown_entry() {
    unknown_entries_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Whether every PE shares one address space (Sim/Thread). Pointer
  /// passing, in-place migration, and restore_array assume it; the
  /// Runtime guards those paths with this.
  virtual bool shared_address_space() const { return true; }

  // -- multi-process coordination hooks ------------------------------------
  // No-ops on shared-address-space machines; ProcessMachine overrides
  // them to mirror control-plane decisions into its child processes.

  /// Pull remote PEs' element state into this process before a
  /// checkpoint walks the arrays (the checkpointer reads elements
  /// in-place, which is only current for local ones).
  virtual void sync_remote_elements() {}

  /// An element moved (recovery placement): replicate the move into
  /// every process so location maps stay consistent.
  virtual void on_element_replaced(ArrayId, const Index&, Pe,
                                   std::span<const std::byte>) {}

  /// The collective tree was rebuilt over `alive`: replicate.
  virtual void on_tree_rebuilt(const std::vector<bool>&) {}

  /// The failure detector was armed for `horizon`: arm it in every
  /// process (each process beats only for itself, so an unarmed child
  /// is indistinguishable from a dead one).
  virtual void watch_detector(sim::TimeNs) {}

  /// The run's metric registry. Subsystems register sources at install
  /// time (net devices, fabric, scheduler, tracing); consumers snapshot
  /// before/after a phase and diff.
  obs::MetricRegistry& metrics() { return metrics_; }
  const obs::MetricRegistry& metrics() const { return metrics_; }

  /// Installs the device chain (delay, reliability stack, coalescing,
  /// adaptive controller); call before traffic flows.
  ChainHost& chain_host() { return chain_host_; }

  /// Installed chain controllers/devices; null/empty when not installed.
  net::AdaptiveController* adaptive() const { return chain_host_.adaptive(); }
  net::CoalesceDevice* coalesce() const { return chain_host_.coalesce(); }
  const net::ReliabilityStack& reliability() const {
    return chain_host_.reliability();
  }

  /// Envelopes currently parked by quarantine backpressure.
  std::size_t parked_envelopes() const {
    return static_cast<std::size_t>(parking_.counters().depth());
  }

  /// Scheduler-idle notification: `fn(pe)` fires whenever a PE finishes
  /// an entry and finds its queue empty — the signal a coalescing device
  /// uses to flush pending bundles rather than sit on them while the
  /// destination starves. Call before traffic flows.
  void set_on_pe_idle(std::function<void(Pe)> fn) {
    on_pe_idle_ = std::move(fn);
  }

 protected:
  explicit Machine(net::Topology topo) : topo_(std::move(topo)) {}

  /// One sample of a backend's scheduler counters, summed over the PEs
  /// the registry covers (one forked process covers one PE).
  struct SchedSample {
    PeStats total;
    std::size_t queued = 0;
    std::uint64_t handoffs = 0;         ///< envelopes landing on a PE queue
    std::uint64_t handoff_batches = 0;  ///< batched pops / wake events
    std::uint64_t handoff_fallbacks = 0;  ///< bounded-ring overflows
    std::size_t shards = 0;
  };

  /// Register the rt.sched (with the parking lot's stall counters),
  /// rt.sched.shard, rt.unknown_entry and mem sources into `reg`, reading
  /// `sample` at every snapshot.
  void register_sched_metrics(obs::MetricRegistry& reg,
                              std::function<SchedSample()> sample) const;

  /// The wall-clock backends' clock (Thread, Process): ns since epoch_.
  sim::TimeNs wall_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  /// The wall-clock backends' run step: deliver `env` on `pe`, sleep off
  /// its charged time when `emulate_charge`, record the interval into
  /// `traces` ring `pe`, and count the busy time and the execution.
  void execute_timed(Envelope&& env, Pe pe, bool emulate_charge,
                     PeCounters& counters, TraceRings& traces);

  net::Topology topo_;
  const std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
  Runtime* rt_ = nullptr;
  std::atomic<std::uint64_t> kills_{0};  ///< PEs killed so far
  std::atomic<std::uint64_t> unknown_entries_{0};
  obs::MetricRegistry metrics_;
  /// Quarantine backpressure; each backend init()s it with its dispatch.
  ParkingLot parking_;
  /// Each backend bind()s it to its chain.
  ChainHost chain_host_{parking_};
  std::function<void(Pe)> on_pe_idle_;
};

}  // namespace mdo::core
