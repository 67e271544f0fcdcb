#pragma once
// ProcessMachine: each PE is a real forked OS process; envelopes cross PE
// boundaries over Unix-domain sockets through a per-process
// net::SocketFabric. The parent process is PE 0 and the host: setup code
// (array creation, device installs, scenario wiring) runs pre-fork so
// every child inherits an identically configured runtime by
// copy-on-write; the first run() forks the mesh. kill_pe is a genuine
// SIGKILL, so the heartbeat/FT stack is exercised against real process
// death rather than a flag.
//
// A data frame's payload is the envelope's wire image and nothing else
// (pack_frame, at its exact size, as on Thread). The sending PE thread
// writes it to the destination's socket at once; the receiving process's
// SocketFabric holds it until its modeled deadline.
// Entry ids are signature hashes registered before main (registry.hpp),
// so every process built from the same source and compiler already has
// the whole entry table; no registry state crosses the wire, and an id a
// process does not know is dropped and counted, never called.
//
// Coordination runs on a small blocking control plane (one socketpair
// per child, strict request/reply served by a dedicated thread in the
// child): quiescence waves, stats/metrics/trace collection, element
// sync for checkpoints, placement replication after recovery, detector
// arming, and exit. Array-touching control ops (pack/replace/rebuild)
// are only ever issued from host code at quiescent points, when child
// main threads are idle-parked — that protocol discipline is what makes
// the control thread's runtime access safe.
//
// Quiescence is a distributed double wave over monotone per-pair
// counters: sent_to[i][j] at send, acct_from[j][i] after the handler
// (and its sends) finish, undeliv_to[i][j] for squashes toward dead
// peers. The mesh is quiescent when the parent queue is empty, every
// child is idle-parked, every alive pair balances, and two consecutive
// waves are identical (monotone counters make identical balanced waves
// sound).
//
// Limitations vs the shared-address-space backends (documented in
// DESIGN.md): in-place Runtime::migrate/restore_array are rejected
// (migrate_async works), stop() and manual partition toggles act on the
// posting process only, adaptive()->start() after the fork arms only the
// parent's controller (pre-fork arming reaches everyone via the staged
// timer replay), and run() must be driven by the parent.

#include <atomic>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include <sys/types.h>

#include "core/machine.hpp"
#include "core/run_queue.hpp"
#include "core/trace_rings.hpp"
#include "net/latency_model.hpp"
#include "net/socket_fabric.hpp"

namespace mdo::core {

class ProcessMachine final : public Machine {
 public:
  ProcessMachine(net::Topology topo, net::GridLatencyModel::Config link)
      : ProcessMachine(std::move(topo), link, MachineOptions{}) {}
  ProcessMachine(net::Topology topo, net::GridLatencyModel::Config link,
                 MachineOptions options);
  ~ProcessMachine() override;

  // -- pre-fork configuration (call before the first run()) ----------------
  // Devices are installed through chain_host() pre-fork and inherited by
  // every child; each process attaches its own adaptive controller copy
  // to its own socket fabric at the fork.

  /// Run `fn` after `dt` of machine time in *every* process: pre-fork
  /// calls are staged and replayed into each process's fabric at the
  /// fork (scenario link-drift schedules); post-fork calls reach the
  /// posting process only.
  void schedule_at(sim::TimeNs dt, std::function<void()> fn);

  /// Crash-inject: SIGKILL the child hosting `pe` and reap it. The other
  /// processes learn of the death twice, deliberately: immediately via a
  /// control broadcast (routing squash, like the other backends), and
  /// organically via heartbeat silence (what the FT stack reacts to).
  /// Frames the victim already wrote to a socket are still delivered at
  /// their deadlines, as on Sim, where a dead node's frames are squashed
  /// only at send time.
  void kill_pe(Pe pe) override;

  /// Transport counters of this process's socket fabric (tests).
  net::SocketFabric::SocketStats socket_stats() const;

  /// Whether the mesh has forked yet (tests).
  bool forked() const { return forked_; }

  // -- Machine interface ---------------------------------------------------
  Pe current_pe() const override { return self_pe_; }
  sim::TimeNs now() const override { return wall_ns(); }
  void send(Envelope&& env) override;
  void run() override;
  void stop() override;
  PeStats pe_stats(Pe pe) const override;
  bool pe_alive(Pe pe) const override;
  net::Fabric::Stats fabric_stats() const override;
  void call_after(sim::TimeNs dt, std::function<void()> fn) override {
    schedule_at(dt, std::move(fn));
  }
  void set_tracing(bool on) override;
  std::vector<TraceEvent> trace() const override;
  void trace_phase(std::int32_t phase) override;
  bool shared_address_space() const override { return false; }
  void sync_remote_elements() override;
  void on_element_replaced(ArrayId array, const Index& index, Pe to,
                           std::span<const std::byte> state) override;
  void on_tree_rebuilt(const std::vector<bool>& alive) override;
  void watch_detector(sim::TimeNs horizon) override;

 private:
  enum class Role { kParent, kChild };

  struct Inbound {
    Pe from = kInvalidPe;  ///< transmitting *process* (quiescence accounting
                           ///< key; the envelope's src_pe can differ when a
                           ///< message was forwarded)
    Envelope env;
  };

  /// Buffers DeviceHost timers issued before the fork (heartbeat watch,
  /// adaptive start, scenario drift schedules) for replay into every
  /// process's real fabric. Pre-fork there is no traffic, so the
  /// injection paths are unreachable.
  class StagingHost final : public net::DeviceHost {
   public:
    sim::TimeNs host_now() const override { return 0; }
    void host_schedule(sim::TimeNs dt, std::function<void()> fn) override {
      staged_.emplace_back(dt, std::move(fn));
    }
    void inject_send(const net::FilterDevice*, net::Packet&&) override;
    void inject_receive(const net::FilterDevice*, net::Packet&&) override;
    std::vector<std::pair<sim::TimeNs, std::function<void()>>> take() {
      return std::move(staged_);
    }

   private:
    std::vector<std::pair<sim::TimeNs, std::function<void()>>> staged_;
  };

  // Control-plane ops (u32 on the wire).
  enum CtlOp : std::uint32_t {
    kCtlHello = 1,
    kCtlStatus,
    kCtlMetrics,
    kCtlTrace,
    kCtlWatch,
    kCtlPack,
    kCtlReplace,
    kCtlRebuild,
    kCtlPeDead,
    kCtlExit,
  };

  /// One wave row per process: quiescence counters plus liveness/stats.
  struct CtlStatus {
    std::vector<std::uint64_t> sent_to, acct_from, undeliv_to;
    PeStats stats;
    net::Fabric::Stats fstats;
    std::uint8_t idle = 0;
    void pup(Pup& p) {
      p | sent_to | acct_from | undeliv_to | stats | fstats | idle;
    }
  };
  struct CtlBlob {
    ArrayId array = 0;
    Index index;
    Pe to = 0;
    Bytes state;
    void pup(Pup& p) { p | array | index | to | state; }
  };

  void boot();
  void setup_process(std::vector<int> peer_fds);
  [[noreturn]] void child_main();
  void control_loop(int fd);
  void handle_control(std::uint32_t op, Bytes&& payload, int fd);

  void flush_setup();
  void route(Envelope&& env);
  void dispatch(Envelope&& env);  ///< route minus the sent_to count
  void enqueue(Pe from, Envelope&& env);
  bool execute_one();

  CtlStatus local_status();
  /// One wave: fetch every alive child's status (caching it), flatten
  /// all counters into `wave`, and report whether the mesh looks settled
  /// (children idle + every alive pair balanced).
  bool collect_wave(std::vector<std::uint64_t>& wave);
  void reap_children();
  void handle_child_death(Pe pe);
  void broadcast(std::uint32_t op, const Bytes& payload);
  /// Parent-side request/reply; nullopt when the child is (now) dead.
  std::optional<Bytes> request(Pe child, std::uint32_t op,
                               const Bytes& payload);

  MachineOptions options_;
  net::GridLatencyModel model_;
  StagingHost staging_;
  net::Chain chain_;  ///< built pre-fork; moved into the fabric at fork
  std::unique_ptr<net::SocketFabric> fabric_;

  /// Device/fabric/scheduler sources register here in every process; the
  /// parent's Machine-level registry carries one aggregator source that
  /// merges this registry with the children's (fetched over control).
  obs::MetricRegistry local_metrics_;

  Role role_ = Role::kParent;
  Pe self_pe_ = 0;
  bool forked_ = false;

  std::vector<pid_t> pids_;           // parent: child pids (index = pe)
  std::vector<int> ctl_fds_;          // parent: control sockets (index = pe)
  int child_ctl_fd_ = -1;             // child: its end of the control pair
  std::thread control_thread_;        // child only
  // Parent: serializes control requests. Recursive because discovering a
  // death mid-request (EOF) broadcasts kPeDead to the others in place.
  mutable std::recursive_mutex ctl_mutex_;

  std::vector<std::atomic<bool>> dead_;
  std::atomic<bool> stopping_{false};

  // Buffered sends between construction and the fork: routed (and
  // counted) by the parent right after forking, exactly like SimMachine
  // buffers setup sends until run().
  std::vector<Envelope> setup_queue_;

  // This process's mailbox (the child main thread / parent wave loop
  // executes from it).
  mutable std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  RunQueue<Inbound> queue_;
  std::atomic<std::uint64_t> handoffs_{0};      ///< envelopes enqueued
  std::atomic<std::uint64_t> handoff_pops_{0};  ///< queue pops (batches of 1)
  std::atomic<bool> idle_{false};  // child: main thread parked, queue empty

  PeCounters counters_;  // this process's PE; reset in a child at fork

  // Quiescence counters (monotone; read by the control thread).
  std::vector<std::atomic<std::uint64_t>> sent_to_, acct_from_, undeliv_to_;

  // Tracing: ring per PE (producer: that PE's process main thread; only
  // ring self_pe_ is live in each process) + host-marker ring at
  // index num_pes (producer: the parent main thread).
  TraceRings traces_;

  // Parent-side caches of child state, refreshed on every successful
  // control fetch and served as-is for dead children (a SIGKILLed PE's
  // counters freeze at the last wave before its death).
  std::vector<CtlStatus> cached_status_;
  std::vector<std::map<std::string, obs::MetricValue>> cached_metrics_;

  bool in_sync_ = false;  // applying pulled blobs: suppress re-broadcast
};

}  // namespace mdo::core
