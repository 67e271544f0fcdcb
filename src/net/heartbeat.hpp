#pragma once
// Heartbeat failure detector as a message-layer filter device. Every
// `period` of fabric time each live node emits one small beat frame to
// the next live node on a ring (crossing the WAN where the ring crosses
// clusters, so beats pay the same latency and loss as data). The device
// also listens passively: any frame that reaches the receive path —
// data, ack, or beat — refreshes the sender's liveness timestamp.
//
// Detection is a per-peer three-state machine, not a binary verdict:
//
//   alive --silence > timeout--> suspect --silence > confirm_window--> dead
//     ^                             |          (on_peer_dead, once)
//     +--any frame / probe evidence-+
//
// Silence alone only raises *suspicion* — on a grid, a quiet peer is at
// least as likely to sit behind a partitioned WAN link as to have
// crashed. While suspect, the detector corroborates through the cluster
// topology: each tick it asks a relay in a *third* cluster (one that is
// neither the suspect's nor the monitor's) to probe the suspect over its
// own, independent WAN path. If the suspect answers the relay, the
// relayed ack refreshes its liveness and demotes it to alive — the
// monitor's link was partitioned, not the peer. Only when the suspect
// stays silent on every path for `confirm_window` is it confirmed dead
// (exactly once, terminal) and the on_peer_dead callback — the hook
// core/fault_tolerance recovery hangs off — fires. Any frame from a
// suspect demotes it back to alive at any point before confirmation.
//
// The timeout must be tuned to the deployment's RTT: on a grid with a
// 32 ms one-way WAN latency a beat needs >32 ms just to arrive, so a
// too-tight timeout misreads latency as suspicion. Scenario::with_crashes
// sizes it as 2*one_way + 4*period (a full round trip plus three lost
// beats) and the confirm window as 4*one_way + 4*period so a probe can
// make its worst-case four-hop journey (monitor->relay->suspect->relay->
// monitor) before the verdict lands.
//
// Chain placement (send order, wire last):
//   reliable -> heartbeat -> checksum(drop) -> fault -> [delay]
// Below the reliability device so beats and probes are fire-and-forget
// (a beat that is retransmitted minutes later would be a lie), above
// checksum/fault/delay so they are integrity-checked and suffer real
// loss, latency, and partitions.
//
// Ticking is a finite chain of host-scheduled events bounded by the
// horizon passed to watch(): under a discrete-event fabric a free-running
// timer would keep the event queue alive forever, so the detector is
// armed per phase ("watch the next H of time") and quiesces at the
// horizon. Callers re-arm each phase; (re-)arming refreshes every
// timestamp and demotes suspects, so an idle gap between phases can
// never misfire as silence (see `watch`).

#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "net/device.hpp"
#include "net/topology.hpp"

namespace mdo::net {

/// Detector verdict for one peer. kDead is terminal; the other two
/// states flip freely as evidence arrives.
enum class PeerState : std::uint8_t { kAlive, kSuspect, kDead };

struct HeartbeatConfig {
  bool enabled = false;  ///< gates installation in the reliability stack
  sim::TimeNs period = sim::milliseconds(5.0);    ///< beat emission cadence
  sim::TimeNs timeout = sim::milliseconds(50.0);  ///< silence => suspect
  /// Additional silence, after suspicion, before confirmed death. Sized
  /// to the worst topology link so an indirect probe can complete its
  /// four-hop round trip and refute a partition before the verdict.
  sim::TimeNs confirm_window = sim::milliseconds(100.0);
  /// Corroborate suspicion through third-cluster relays. Off, the
  /// detector degrades to pure silence-based confirmation.
  bool indirect_probes = true;
};

class HeartbeatDevice final : public FilterDevice {
 public:
  HeartbeatDevice(const Topology* topo, HeartbeatConfig config);

  const char* name() const override { return "heartbeat"; }

  std::optional<Packet> receive_transform(Packet packet) override;

  /// Arm (or extend) the detector for the next `horizon` of fabric time:
  /// liveness timestamps are refreshed, suspects are demoted (grace
  /// period — nobody enters a phase under suspicion accumulated across
  /// an idle gap), and the beat ticker runs until the horizon, then
  /// quiesces. Callable from host context; the actual arming happens in
  /// fabric context, and a grace flag suppresses timeout checks for any
  /// tick that races in between.
  void watch(sim::TimeNs horizon);

  /// Fired at most once per node, on *confirmed* death only, from fabric
  /// context (the DES callback thread under SimFabric, the dispatcher
  /// thread under ThreadFabric).
  using PeerDeadFn = std::function<void(NodeId node, sim::TimeNs when)>;
  void set_on_peer_dead(PeerDeadFn fn) { on_peer_dead_ = std::move(fn); }

  /// Single listener observing every state transition (the reliability
  /// stack uses it to quarantine/resume/abandon flows). Fabric context.
  using StateListenerFn = std::function<void(NodeId node, PeerState from,
                                             PeerState to, sim::TimeNs when)>;
  void set_state_listener(StateListenerFn fn) { listener_ = std::move(fn); }

  PeerState peer_state(NodeId node) const;
  bool suspected(NodeId node) const {
    return peer_state(node) == PeerState::kSuspect;
  }
  bool declared_dead(NodeId node) const {
    return peer_state(node) == PeerState::kDead;
  }
  /// Fabric time at which `node` was confirmed dead (0 if it was not).
  sim::TimeNs detected_at(NodeId node) const;

  /// Passive-liveness refresh on behalf of another device: a coalescing
  /// device above us unbundled a frame from `node`, which proves the same
  /// liveness the individual frames would have. Fabric context only.
  void note_alive(NodeId node);

  struct Counters {
    std::uint64_t beats_sent = 0;
    std::uint64_t beats_received = 0;
    std::uint64_t suspects_raised = 0;   ///< alive -> suspect transitions
    std::uint64_t suspects_cleared = 0;  ///< suspect -> alive demotions
    std::uint64_t probes_sent = 0;       ///< probe requests from monitors
    std::uint64_t probes_relayed = 0;    ///< probe/ack legs forwarded by relays
    std::uint64_t probe_acks = 0;        ///< probe answers from targets
    std::uint64_t peers_declared_dead = 0;  ///< confirmed deaths
  };
  const Counters& counters() const { return counters_; }
  const HeartbeatConfig& config() const { return config_; }

 private:
  void begin_watch(sim::TimeNs horizon);  ///< fabric context
  void tick();                            ///< fabric context
  void emit_beats();
  void check_timeouts();
  void emit_probes(NodeId suspect);
  void handle_probe(const Packet& packet);
  /// Single-node hosts: gossip a confirmed death to every other process
  /// (only the ring monitor hears the silence; the rest must be told).
  void disseminate_death(NodeId target);
  void send_probe(std::uint8_t kind, NodeId src, NodeId dst, NodeId origin,
                  NodeId target);
  /// Fresh evidence that `node` transmitted something just now: refresh
  /// its timestamp and demote it if suspect (kDead is terminal).
  void refresh(NodeId node);
  void transition(std::size_t j, PeerState to, sim::TimeNs now);
  NodeId ring_successor(NodeId node) const;

  const Topology* topo_;
  HeartbeatConfig config_;
  PeerDeadFn on_peer_dead_;
  StateListenerFn listener_;

  sim::TimeNs deadline_ = 0;  ///< watch horizon end (fabric time)
  bool ticker_armed_ = false;
  /// Set synchronously by watch() (host context), cleared by begin_watch
  /// after timestamps are refreshed: a tick firing between the two must
  /// not judge stale timestamps from before the idle gap.
  std::atomic<bool> grace_{false};
  std::vector<sim::TimeNs> last_heard_;
  std::vector<PeerState> states_;
  std::vector<sim::TimeNs> suspected_at_;
  std::vector<sim::TimeNs> detected_at_;
  Counters counters_;
};

}  // namespace mdo::net
