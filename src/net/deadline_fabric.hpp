#pragma once
// Wall-clock deadline queue shared by ThreadFabric and SocketFabric. It
// owns the device chain, a frame heap (frames held until their modeled
// delivery deadline: delay-device hold + fault jitter + network delay)
// and a timer heap (DeviceHost::host_schedule), runs sends and
// injections down the chain, and keeps the Fabric::Stats counters. A
// concrete fabric adds only its thread loop, its way of waking that
// thread, and optionally a transport that takes frames at send time
// (transmit) and holds arrivals at the receiver (hold_arrival). Every
// due frame runs up the receive chain to the delivery handler.
//
// Wake rule: a send, injection or timer signals the fabric thread only
// when it becomes the new earliest deadline across both heaps (counted
// in Stats::wake_signals); a frame the transport takes never enters the
// heaps and wakes nothing unless the transport asks. The check runs under
// the fabric mutex, and the thread recomputes its sleep deadline from
// the heap heads under that mutex before every wait, so a later deadline
// is picked up when the thread next wakes and no wake-up is lost.
// shutdown always signals.
//
// Timer slack: the fabric thread calls use_exact_timer_slack() when it
// starts, so its timed waits end at the modeled deadline instead of up
// to the kernel's default 50 us later. No frame is ever delivered before
// its deadline.
//
// The fabric mutex is recursive because injections re-enter the fabric
// from inside chain transforms that already hold it.

#include <chrono>
#include <mutex>
#include <optional>
#include <queue>
#include <vector>

#include "net/fabric.hpp"
#include "net/latency_model.hpp"

namespace mdo::net {

class DeadlineFabric : public Fabric, public DeviceHost {
 public:
  using Clock = std::chrono::steady_clock;

  DeadlineFabric(const DeadlineFabric&) = delete;
  DeadlineFabric& operator=(const DeadlineFabric&) = delete;

  // -- Fabric --------------------------------------------------------------
  sim::TimeNs send(Packet&& packet) override;
  void set_delivery_handler(NodeId node, DeliverFn handler) override;
  const Topology& topology() const override { return *topo_; }
  void set_node_up_probe(NodeUpProbe probe) override;
  Stats stats() const override;

  /// Device chain access; only safe to mutate before traffic flows.
  Chain& chain() { return chain_; }

  // -- DeviceHost ----------------------------------------------------------
  sim::TimeNs host_now() const override { return now_ns(); }
  void host_schedule(sim::TimeNs dt, std::function<void()> fn) override;
  void inject_send(const FilterDevice* from, Packet&& packet) override;
  void inject_receive(const FilterDevice* from, Packet&& packet) override;
  bool host_node_up(NodeId node) const override;

 protected:
  using Lock = std::unique_lock<std::recursive_mutex>;

  /// `epoch` anchors host_now() and every deadline.
  DeadlineFabric(const Topology* topo, LatencyModel* model, Chain chain,
                 Clock::time_point epoch);

  /// Wake the fabric thread (mutex held).
  virtual void signal() = 0;
  /// A wire frame left the send chain with its deadline fixed (ns on the
  /// epoch; mutex held). Return true when the transport took the frame
  /// (it may move from it); false keeps it in this fabric's frame heap,
  /// delivered at the deadline. The default keeps every frame.
  virtual bool transmit(Packet& /*frame*/, sim::TimeNs /*deadline*/) {
    return false;
  }

  /// Signal the fabric thread and count it in Stats::wake_signals (mutex
  /// held).
  void wake();
  /// Hold a frame that arrived from the transport until `deadline` (ns on
  /// the epoch), then deliver it. Called by the fabric thread itself with
  /// the mutex held, so it never signals: the thread recomputes its sleep
  /// from the heap heads before it next waits.
  void hold_arrival(Packet&& frame, sim::TimeNs deadline);

  /// Set the stop flag and signal the thread. False if already stopped.
  bool request_stop();
  /// Lower the calling thread's timer slack to 1 ns (Linux only).
  static void use_exact_timer_slack();
  /// Run due timers (mutex held: they mutate chain state) and deliver
  /// due frames in (deadline, seq) order, timers first on a tie. Returns
  /// the next deadline, or nullopt when both heaps are empty or the
  /// fabric stopped.
  std::optional<Clock::time_point> run_due(Lock& lock);

  mutable std::recursive_mutex mutex_;
  bool stop_ = false;

 private:
  struct Timed {
    Clock::time_point due;
    std::uint64_t seq;
    Packet packet;
  };
  struct Timer {
    Clock::time_point due;
    std::uint64_t seq;
    std::function<void()> fn;
  };
  struct Later {
    template <class T>
    bool operator()(const T& a, const T& b) const {
      if (a.due != b.due) return a.due > b.due;
      return a.seq > b.seq;
    }
  };

  Clock::time_point at(sim::TimeNs t) const {
    return epoch_ + std::chrono::nanoseconds(t);
  }
  sim::TimeNs now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                epoch_)
        .count();
  }
  /// The registered handler for `dst` (mutex held); a copy, so it can be
  /// called after the lock is released.
  DeliverFn handler_for(NodeId dst) const;
  /// Run the receive chain and call the delivery handler outside the
  /// lock: it enqueues into a mailbox that takes its own lock and may
  /// race with a concurrent send().
  void deliver_complete(Packet&& packet, Lock& lock);
  /// Whether `due` would be the new head across both heaps; if so the
  /// current operation signals the thread when it finishes.
  void note_deadline(Clock::time_point due);
  /// Signal once for the deadlines noted so far (mutex held).
  void signal_if_earlier();
  /// Schedule the wire frames of one transmission (mutex held).
  void enqueue_frames(std::vector<Packet>& wire, const SendContext& ctx);
  /// Run packet down the chain (below `below` when non-null) and enqueue
  /// the resulting frames, reusing wire_scratch_ when possible.
  void send_through(const FilterDevice* below, Packet&& packet,
                    SendContext& ctx);

  const Topology* topo_;
  LatencyModel* model_;
  Chain chain_;
  Clock::time_point epoch_;
  std::priority_queue<Timed, std::vector<Timed>, Later> pending_;
  std::priority_queue<Timer, std::vector<Timer>, Later> timers_;
  std::vector<DeliverFn> handlers_;
  /// Reused across sends (mutex held); re-entrant sends from chain
  /// transforms fall back to a local vector.
  std::vector<Packet> wire_scratch_;
  bool wire_busy_ = false;
  bool earlier_ = false;  ///< a noted deadline beat the heads
  NodeUpProbe node_up_;
  std::uint64_t next_id_ = 1;
  std::uint64_t next_seq_ = 0;
  Stats stats_;
};

}  // namespace mdo::net
