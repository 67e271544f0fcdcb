#pragma once
// Reliability filter device: exactly-once, in-order delivery over a lossy
// wire. Every (src, dst) ordered node pair is an independent flow with
// its own sequence numbers. The send path frames each outgoing packet
// with a DATA header and keeps a copy until it is cumulatively acked;
// the receive path suppresses duplicates, buffers out-of-order arrivals,
// releases contiguous runs upward through the chain, and answers every
// DATA frame with a cumulative ACK. Losses are repaired by timeout-based
// retransmission with exponential backoff (Karn-style RTT sampling: only
// never-retransmitted frames feed the RTT estimate).
//
// Two escape hatches bound the retransmission loop:
//
// * Give-up is *time-based*: a flow that makes no ack progress for
//   `give_up_budget` of fabric time is abandoned and the
//   peer-unreachable callback fires. A raw retry count would make the
//   wall-clock give-up scale with the link RTT (64 backed-off timeouts
//   on a 10x-latency WAN link last ~10x longer than on a LAN), so the
//   budget is expressed in time and sized from the RTO.
//
// * Quarantine: while the failure detector merely *suspects* a peer
//   (silent, but possibly just partitioned — see net/heartbeat.hpp), the
//   stack pauses its flows instead of burning give-up budget toward a
//   false unreachable verdict. Retransmission timers idle, and new
//   outbound frames are framed and sequenced but *held* off the wire in
//   the per-flow unacked map — which doubles as the quarantine buffer,
//   bounded per peer by quarantine_max_frames/bytes. Hitting the bound
//   trips the congestion callback, which the machines translate into
//   backpressure (senders park envelopes by priority) rather than
//   unbounded memory growth. On demotion back to alive the held and
//   unacked frames replay in sequence order, so delivery stays
//   exactly-once and seq/ack-exact across the heal; on confirmed death
//   the flows are dropped quietly (recovery owns the peer now).
//
// Chain placement (send order, wire last):
//   [compress/crypto/stripe ...] -> reliable -> checksum(drop) -> fault -> delay
// The checksum device sits *below* this device so a corrupted frame is
// dropped before it can be acked, turning integrity failures into
// retransmissions; fault and delay devices sit below both so protocol
// traffic (acks, retransmissions) suffers the same loss and WAN latency
// as first transmissions. install_reliability_stack() builds that order.

#include <cstdint>
#include <map>
#include <utility>

#include "net/chain.hpp"
#include "net/coalesce.hpp"
#include "net/device.hpp"
#include "net/devices.hpp"
#include "net/faults.hpp"
#include "net/heartbeat.hpp"
#include "net/striping.hpp"
#include "net/topology.hpp"
#include "util/stats.hpp"

namespace mdo::net {

struct ReliableConfig {
  sim::TimeNs rto_initial = sim::milliseconds(20.0);
  double rto_backoff = 2.0;                        ///< multiplier per timeout
  sim::TimeNs rto_max = sim::seconds(4.0);
  /// Continuous no-progress fabric time before a flow is abandoned and
  /// the peer-unreachable callback fires. Time-based on purpose: the
  /// wall-clock meaning is identical on LAN and 10x-latency WAN links.
  /// Scenario::size_rto derives it from the RTO (24 * rto_initial).
  sim::TimeNs give_up_budget = sim::seconds(120.0);
  /// Per-peer quarantine bound: once this many frames (or bytes) are
  /// held/unacked toward a suspect peer, the congestion callback trips
  /// and the runtime applies backpressure instead of buffering more.
  std::size_t quarantine_max_frames = 1024;
  std::size_t quarantine_max_bytes = std::size_t{4} << 20;
};

class ReliableDevice final : public FilterDevice {
 public:
  /// `topo` (may be null) splits the RTT estimate: cross-cluster acks
  /// additionally feed wan_ack_rtt_ns(), the estimator the adaptive
  /// controller reads — SAN acks arriving in microseconds would
  /// otherwise drag the WAN one-way estimate toward zero.
  explicit ReliableDevice(ReliableConfig config = {},
                          const Topology* topo = nullptr);

  const char* name() const override { return "reliable"; }

  void send_transform(std::vector<Packet>& packets, SendContext& ctx) override;
  std::optional<Packet> receive_transform(Packet packet) override;

  struct Counters {
    std::uint64_t data_sent = 0;       ///< packets framed and sequenced
    std::uint64_t retransmits = 0;     ///< frames re-injected on timeout
    std::uint64_t acks_sent = 0;
    std::uint64_t acks_received = 0;
    std::uint64_t delivered = 0;       ///< packets released upward in order
    std::uint64_t duplicates_suppressed = 0;
    std::uint64_t out_of_order_buffered = 0;
    std::uint64_t malformed_dropped = 0;
    std::uint64_t flows_abandoned = 0;   ///< gave up after give_up_budget
    std::uint64_t frames_held = 0;       ///< framed but kept off the wire
    std::uint64_t quarantines_started = 0;
    std::uint64_t quarantines_resumed = 0;
    std::uint64_t backpressure_events = 0;  ///< quarantine bound hit
    std::uint64_t peers_abandoned = 0;      ///< confirmed-dead cleanups
    /// High-water marks of any single peer's quarantine buffer —
    /// monotone, so they read naturally as counters in the registry.
    std::uint64_t quarantine_peak_frames = 0;
    std::uint64_t quarantine_peak_bytes = 0;
  };
  const Counters& counters() const { return counters_; }

  /// Fired (from fabric context) when a flow exhausts give_up_budget
  /// without any ack progress — the retransmission-based second signal
  /// of the failure detector. `peer` is the unreachable destination,
  /// `self` the sending node whose flow was abandoned. Not fired for
  /// flows whose *sender* has crashed (their timers die quietly), nor
  /// for quarantined peers (suspicion pauses the budget).
  using PeerUnreachableFn = std::function<void(NodeId peer, NodeId self)>;
  void set_on_peer_unreachable(PeerUnreachableFn fn) {
    on_peer_unreachable_ = std::move(fn);
  }

  /// Fired (fabric context) when a peer's quarantine buffer crosses its
  /// bound (`congested = true`) and again when the quarantine ends
  /// (`congested = false`). The machines use it to park / resume
  /// outbound envelopes by priority.
  using CongestionFn = std::function<void(NodeId peer, bool congested)>;
  void set_on_congestion_change(CongestionFn fn) {
    on_congestion_change_ = std::move(fn);
  }

  /// Pause (`on`) or resume (`off`) all flows toward `peer`. Wired to
  /// the heartbeat suspect/alive transitions by
  /// install_reliability_stack; idempotent. Fabric context.
  void set_peer_quarantined(NodeId peer, bool quarantined);
  /// Drop all flow state toward a confirmed-dead peer, quietly (no
  /// unreachable callback — the death verdict already reached recovery).
  void abandon_peer(NodeId peer);

  bool peer_quarantined(NodeId peer) const;
  /// Fabric time of the most recent quarantine resume (0 if none) —
  /// the heal-to-resume clock for the partition sweep.
  sim::TimeNs last_resume_at() const { return last_resume_at_; }

  /// RTT samples from unambiguous (never-retransmitted) frames.
  const RunningStats& ack_rtt_ns() const { return ack_rtt_ns_; }
  /// Cross-cluster RTT samples (empty without a topology). Unlike
  /// ack_rtt_ns, this includes retransmitted frames measured from their
  /// first transmission, so the adaptive controller still observes a
  /// link that degrades past the RTO (see handle_ack for why that's
  /// sound here).
  const RunningStats& wan_ack_rtt_ns() const { return wan_ack_rtt_ns_; }

  /// Frames awaiting an ack across all flows (0 once traffic quiesces).
  std::size_t unacked_frames() const;
  /// Out-of-order packets parked at receivers across all flows.
  std::size_t buffered_packets() const;

  const ReliableConfig& config() const { return config_; }

 private:
  using FlowKey = std::pair<NodeId, NodeId>;  ///< (data src, data dst)

  struct Pending {
    Packet frame;               ///< DATA-framed copy, pre-checksum
    sim::TimeNs first_sent = 0;
    bool retransmitted = false;
    bool on_wire = true;  ///< false while held in quarantine, pre-transmission
  };
  struct SenderFlow {
    std::uint32_t next_seq = 0;
    std::map<std::uint32_t, Pending> unacked;
    sim::TimeNs rto = 0;  ///< 0 = not yet initialized from config
    /// Fabric time of the first no-progress timeout of the current
    /// stall (0 = not stalled); give-up triggers on its age.
    sim::TimeNs stall_start = 0;
    bool timer_armed = false;
  };
  struct ReceiverFlow {
    std::uint32_t expected = 0;
    std::map<std::uint32_t, Packet> buffered;  ///< deframed, keyed by seq
  };
  struct Quarantine {
    bool active = false;
    bool congested = false;
    std::size_t frames = 0;  ///< unacked + held frames toward the peer
    std::size_t bytes = 0;
  };

  /// Frame/sequence/store one outbound packet; returns false when the
  /// frame was quarantine-held and must not reach the wire.
  bool prepare_send(Packet& packet);
  void arm_timer(const FlowKey& key);
  void on_timeout(const FlowKey& key);
  void handle_ack(const Packet& packet, std::uint32_t ack_seq);
  std::optional<Packet> handle_data(Packet&& packet, std::uint32_t seq);
  void send_ack(NodeId data_src, NodeId data_dst, std::uint32_t cumulative);
  void clear_flow(const FlowKey& key, SenderFlow& flow);
  void resume_peer(NodeId peer);
  Quarantine* quarantined(NodeId peer);
  void note_quarantine_peaks(const Quarantine& q);
  void maybe_trip_congestion(NodeId peer, Quarantine& q);

  ReliableConfig config_;
  const Topology* topo_;
  std::map<FlowKey, SenderFlow> senders_;
  std::map<FlowKey, ReceiverFlow> receivers_;
  std::map<NodeId, Quarantine> quarantine_;
  Counters counters_;
  RunningStats ack_rtt_ns_;
  RunningStats wan_ack_rtt_ns_;
  sim::TimeNs last_resume_at_ = 0;
  PeerUnreachableFn on_peer_unreachable_;
  CongestionFn on_congestion_change_;
};

/// The devices of one reliability stack, in chain order; pointers are
/// owned by the chain. `delay` is null when no artificial WAN delay was
/// requested. Counter publication goes through the metric registry —
/// see net/metrics.hpp register_metrics(reg, stack).
struct ReliabilityStack {
  CoalesceDevice* coalesce = nullptr;    ///< null unless config enabled it
  CompressionDevice* compress = nullptr; ///< null unless config enabled it
  StripingDevice* stripe = nullptr;      ///< null unless config enabled it
  ReliableDevice* reliable = nullptr;
  HeartbeatDevice* heartbeat = nullptr;  ///< null unless config enabled it
  ChecksumDevice* checksum = nullptr;
  FaultDevice* faults = nullptr;
  DelayDevice* delay = nullptr;

  bool installed() const { return reliable != nullptr; }
};

/// Append the canonical lossy-WAN stack to `chain`:
///   [coalesce] -> [compress] -> [stripe] -> reliable -> [heartbeat]
///   -> checksum(drop_on_mismatch) -> fault -> [delay]
/// The delay device is appended only when cross_cluster_delay > 0, below
/// the fault device so retransmissions and acks pay full WAN latency.
/// The heartbeat failure detector is appended only when enabled: below
/// the reliable device (beats are fire-and-forget, never retransmitted)
/// and above checksum/fault/delay (beats are integrity-checked and pay
/// real loss and latency). The coalescing device is appended only when
/// enabled, at the very top: a bundle is one reliable frame, and acks /
/// beats / retransmissions enter the chain below it so the control plane
/// is never buffered. When both coalesce and heartbeat are installed,
/// the unbundle listener credits bundle sources as alive. When the
/// heartbeat is installed its state transitions drive the reliable
/// device: suspect => quarantine, suspect->alive => resume, confirmed
/// dead => abandon. The fault device receives the topology so partition
/// windows can sever directed cluster pairs.
///
/// The optional compression and striping devices sit between coalesce
/// and reliable: they transform whole bundles (best RLE ratio, fewest
/// stripe decisions), and each fragment below them is one reliable frame
/// so a lost rail is retransmitted alone. Both are the adaptive
/// controller's retune targets (net/adaptive.hpp).
ReliabilityStack install_reliability_stack(
    Chain& chain, const Topology* topo, const ReliableConfig& reliable,
    const FaultConfig& faults, sim::TimeNs cross_cluster_delay,
    const HeartbeatConfig& heartbeat = {}, const CoalesceConfig& coalesce = {},
    const CompressionConfig& compression = {},
    const StripingConfig& striping = {});

}  // namespace mdo::net
