#pragma once
// Runtime: the message-driven object system of the paper. It owns the
// chare arrays, routes entry-method messages through a Machine, runs
// broadcasts/multicasts/reductions over a cluster-aware spanning tree,
// and supports quiescent-point migration for the load balancers.
//
// Typical use (see examples/quickstart.cpp):
//   auto rt = Runtime(SimMachine::create(scenario));
//   auto proxy = rt.create_array<MyChare>("name", indices, mapper, factory);
//   proxy.send<&MyChare::start>(Index{0}, 42);
//   rt.run();   // until quiescence

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <tuple>
#include <utility>
#include <vector>

#include "core/array_base.hpp"
#include "core/envelope.hpp"
#include "core/machine.hpp"
#include "core/reduction.hpp"
#include "core/registry.hpp"
#include "core/tree.hpp"
#include "core/types.hpp"
#include "util/buffer.hpp"
#include "util/pup.hpp"

namespace mdo::core {

template <class T>
class ArrayProxy;  // defined in core/array.hpp

class Runtime {
 public:
  explicit Runtime(std::unique_ptr<Machine> machine);
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  // -- environment ------------------------------------------------------
  Machine& machine() { return *machine_; }
  const net::Topology& topology() const { return machine_->topology(); }
  int num_pes() const { return machine_->num_pes(); }
  Pe current_pe() const { return machine_->current_pe(); }
  sim::TimeNs now() const { return machine_->now(); }
  net::ClusterId cluster_of(Pe pe) const {
    return topology().cluster_of(static_cast<net::NodeId>(pe));
  }
  const ClusterTree& tree() const { return tree_; }
  TreeMode collective_mode() const { return tree_.mode(); }

  /// Switch broadcast/multicast/reduction routing between the
  /// hierarchical cluster tree and the flat (topology-blind) tree.
  /// Rebuilds the spanning tree over the currently-alive PEs; call at
  /// quiescent points only, like rebuild_tree().
  void set_collective_mode(TreeMode mode);

  // -- array creation (setup or quiescent points only) ------------------
  /// Typed creation lives in core/array.hpp (Runtime::create_array<T>).
  ArrayId register_array(std::unique_ptr<ArrayBase> array);
  ArrayBase& array(ArrayId id);
  const ArrayBase& array(ArrayId id) const;
  std::size_t num_arrays() const { return arrays_.size(); }

  template <class T, class Factory>
  ArrayProxy<T> create_array(std::string name, std::span<const Index> indices,
                             const MapFn& mapper, Factory&& factory);

  template <class T>
  ArrayProxy<T> proxy(ArrayId id);

  // -- messaging primitives ---------------------------------------------
  void send_entry(ArrayId array, const Index& to, EntryId entry,
                  Priority priority, Bytes args);
  void broadcast_entry(ArrayId array, EntryId entry, Priority priority,
                       Bytes args);
  void multicast_entry(ArrayId array, std::span<const Index> targets,
                       EntryId entry, Priority priority, Bytes args);

  // -- reductions ---------------------------------------------------------
  /// Result handed to a host function on the tree root PE.
  ReductionClientId add_reduction_client(ArrayId array, ReductionHostFn fn);
  /// Result broadcast to every element of `array` via `entry`, whose
  /// signature must be  void (T::*)(std::vector<double>).
  ReductionClientId add_reduction_client_entry(ArrayId array, EntryId entry);
  /// Contribute from inside an entry method of `element`. Every element
  /// of the array must contribute once per epoch with the same op/client.
  void contribute(Chare& element, std::vector<double> data, ReduceOp op,
                  ReductionClientId client);

  // -- host-side control --------------------------------------------------
  /// Schedule a host callback as a message on `pe` (async, prioritized).
  void schedule_host(Pe pe, std::function<void()> fn, Priority priority = 0);
  /// Drive the machine until quiescence or stop().
  void run() { machine_->run(); }
  void stop() { machine_->stop(); }
  /// Account virtual compute to the running entry (no-op outside one).
  void charge(sim::TimeNs ns);

  // -- migration & checkpoint (quiescent points only) ----------------------
  void migrate(ArrayId array, const Index& index, Pe to);
  /// Like migrate(), but ships the packed state as a kMigrate envelope
  /// through the machine (and its device chain) instead of moving it
  /// in-process; the element is rebuilt on `to` when the envelope is
  /// delivered. Messages that race with the move are forwarded.
  void migrate_async(ArrayId array, const Index& index, Pe to);
  std::uint64_t migrations() const { return migrations_; }
  std::uint64_t migration_bytes() const { return migration_bytes_; }

  /// Rebuild the spanning tree over the alive PEs only (fault-recovery
  /// path; quiescent points only). Subsequent broadcasts/reductions skip
  /// the dead PEs entirely.
  void rebuild_tree(const std::vector<bool>& alive);

  /// Overwrite (or relocate) one element from a serialized pup blob —
  /// the fault-recovery restore primitive. The element must exist; its
  /// current instance is discarded, a fresh one is unpacked from `state`
  /// and installed on `to`. Quiescent points only.
  void replace_element(ArrayId array, const Index& index, Pe to,
                       std::span<const std::byte> state);

  Bytes checkpoint_array(ArrayId array);
  void restore_array(ArrayId array, std::span<const std::byte> data);

  // -- machine upcall -------------------------------------------------------
  /// Execute one delivered envelope on current_pe(); returns the virtual
  /// compute the handler charged. Called only by Machine implementations.
  /// An entry id this binary never registered is dropped and counted
  /// (rt.unknown_entry) before any fan-out; nothing is called.
  sim::TimeNs deliver(Envelope&& env);

 private:
  struct ArrayRec {
    std::unique_ptr<ArrayBase> array;
    std::vector<std::size_t> subtree_elems;  ///< per PE, over tree_
    /// Refreshed lazily under subtree_mutex_ (reduction accounting runs
    /// concurrently on every PE's thread); set true at quiescent points.
    std::atomic<bool> subtree_dirty{true};
  };

  struct ReductionClient {
    ArrayId array = -1;
    ReductionHostFn host_fn;       ///< or...
    EntryId entry = kInvalidEntry; ///< ...broadcast target
  };

  struct PendingReduction {
    std::vector<double> data;
    std::uint32_t contributions = 0;
    ReduceOp op = ReduceOp::kSum;
    ReductionClientId client = -1;
    bool meta_known = false;
  };

  // delivery handlers per MsgKind; entry-carrying kinds get the invoker
  // deliver() resolved from env.entry
  void deliver_entry(Envelope& env, EntryInfo::Invoker invoke);
  void deliver_broadcast(Envelope& env, EntryInfo::Invoker invoke);
  void deliver_multicast(Envelope& env, EntryInfo::Invoker invoke);
  void deliver_reduction(Envelope& env);
  void deliver_host_call(Envelope& env);
  void deliver_migrate(Envelope& env);

  void invoke_on(Chare& element, EntryInfo::Invoker invoke,
                 std::span<const std::byte> args);
  void post(Envelope&& env);  ///< stamp seq/sent_at/src and hand to machine

  // reductions
  ArrayRec& rec(ArrayId id);
  void refresh_subtree_counts(ArrayRec& r);
  std::uint32_t expected_contributions(ArrayRec& r, Pe pe);
  void reduction_account(Pe pe, ArrayId array, std::uint32_t epoch,
                         ReduceOp op, ReductionClientId client,
                         const std::vector<double>& data);
  void reduction_complete(Pe pe, ArrayId array, std::uint32_t epoch,
                          PendingReduction&& partial);

  std::unique_ptr<Machine> machine_;
  ClusterTree tree_;
  // unique_ptr: ArrayRec holds an atomic and must stay address-stable
  // while worker threads read through rec().
  std::vector<std::unique_ptr<ArrayRec>> arrays_;
  std::vector<ReductionClient> red_clients_;

  /// Reduction partials sharded by PE: all contributions keyed to PE p
  /// are accounted on p's delivery path (contribute() runs inside an
  /// entry method on p; kReduction envelopes are delivered on p), so
  /// shards never contend — the per-shard mutex only orders the owning
  /// worker against pending-count snapshots, replacing the old global
  /// red_mutex_ every PE serialized on.
  struct RedShard {
    std::mutex mutex;
    std::map<std::pair<ArrayId, std::uint32_t>, PendingReduction> pending;
  };
  std::vector<std::unique_ptr<RedShard>> red_shards_;
  std::mutex subtree_mutex_;  ///< guards lazy subtree-count refresh

  // host-call trampoline table
  std::mutex host_mutex_;
  std::uint64_t next_cookie_ = 1;
  std::map<std::uint64_t, std::function<void()>> host_fns_;

  std::atomic<std::uint64_t> next_seq_{1};
  std::uint64_t migrations_ = 0;
  std::uint64_t migration_bytes_ = 0;

  // Batched-delivery accounting (rt.broadcast_* metrics): one batch is
  // one PE-local fan-out of a broadcast over its shard partition.
  std::atomic<std::uint64_t> bcast_batches_{0};
  std::atomic<std::uint64_t> bcast_elems_{0};
};

}  // namespace mdo::core
