#include "net/reliable.hpp"

#include <algorithm>
#include <cstring>
#include <memory>

#include "util/assert.hpp"

namespace mdo::net {
namespace {

constexpr std::uint8_t kData = 0;
constexpr std::uint8_t kAck = 1;

struct WireHeader {
  std::uint32_t seq = 0;  ///< DATA: sequence number; ACK: cumulative ack
  std::uint8_t type = kData;
};

void frame(Packet& packet, std::uint8_t type, std::uint32_t seq) {
  WireHeader hdr{seq, type};
  Bytes framed;
  framed.reserve(sizeof(hdr) + packet.payload.size());
  const auto* hp = reinterpret_cast<const std::byte*>(&hdr);
  framed.insert(framed.end(), hp, hp + sizeof(hdr));
  framed.insert(framed.end(), packet.payload.begin(), packet.payload.end());
  packet.payload = std::move(framed);
}

bool deframe(Packet& packet, WireHeader& hdr) {
  if (packet.payload.size() < sizeof(hdr)) return false;
  std::memcpy(&hdr, packet.payload.data(), sizeof(hdr));
  if (hdr.type != kData && hdr.type != kAck) return false;
  packet.payload.erase(packet.payload.begin(),
                       packet.payload.begin() +
                           static_cast<std::ptrdiff_t>(sizeof(hdr)));
  return true;
}

}  // namespace

ReliableDevice::ReliableDevice(ReliableConfig config, const Topology* topo)
    : config_(config), topo_(topo) {
  MDO_CHECK(config_.rto_initial > 0);
  MDO_CHECK(config_.rto_backoff >= 1.0);
  MDO_CHECK(config_.rto_max >= config_.rto_initial);
  MDO_CHECK(config_.give_up_budget > 0);
  MDO_CHECK(config_.quarantine_max_frames > 0);
  MDO_CHECK(config_.quarantine_max_bytes > 0);
}

std::size_t ReliableDevice::unacked_frames() const {
  std::size_t total = 0;
  for (const auto& [key, flow] : senders_) total += flow.unacked.size();
  return total;
}

std::size_t ReliableDevice::buffered_packets() const {
  std::size_t total = 0;
  for (const auto& [key, flow] : receivers_) total += flow.buffered.size();
  return total;
}

ReliableDevice::Quarantine* ReliableDevice::quarantined(NodeId peer) {
  auto it = quarantine_.find(peer);
  if (it == quarantine_.end() || !it->second.active) return nullptr;
  return &it->second;
}

bool ReliableDevice::peer_quarantined(NodeId peer) const {
  auto it = quarantine_.find(peer);
  return it != quarantine_.end() && it->second.active;
}

void ReliableDevice::note_quarantine_peaks(const Quarantine& q) {
  counters_.quarantine_peak_frames =
      std::max<std::uint64_t>(counters_.quarantine_peak_frames, q.frames);
  counters_.quarantine_peak_bytes =
      std::max<std::uint64_t>(counters_.quarantine_peak_bytes, q.bytes);
}

void ReliableDevice::maybe_trip_congestion(NodeId peer, Quarantine& q) {
  if (q.congested) return;
  if (q.frames >= config_.quarantine_max_frames ||
      q.bytes >= config_.quarantine_max_bytes) {
    q.congested = true;
    ++counters_.backpressure_events;
    if (on_congestion_change_) on_congestion_change_(peer, true);
  }
}

bool ReliableDevice::prepare_send(Packet& packet) {
  MDO_CHECK_MSG(host_ != nullptr,
                "ReliableDevice needs a fabric host (timers, injection)");
  FlowKey key{packet.src, packet.dst};
  SenderFlow& flow = senders_[key];
  if (flow.rto == 0) flow.rto = config_.rto_initial;
  std::uint32_t seq = flow.next_seq++;
  frame(packet, kData, seq);
  Pending pending;
  pending.frame = packet;  // framed copy, pre-checksum/fault/delay
  pending.first_sent = host_->host_now();
  Quarantine* q = quarantined(packet.dst);
  if (q != nullptr) {
    // The peer is suspect: sequence the frame but hold it off the wire.
    // The unacked map doubles as the bounded quarantine buffer; the
    // frame replays (in seq order) when the suspect is demoted.
    pending.on_wire = false;
    ++counters_.frames_held;
    q->frames += 1;
    q->bytes += pending.frame.payload.size();
    flow.unacked.emplace(seq, std::move(pending));
    ++counters_.data_sent;
    note_quarantine_peaks(*q);
    maybe_trip_congestion(packet.dst, *q);
    return false;
  }
  flow.unacked.emplace(seq, std::move(pending));
  ++counters_.data_sent;
  arm_timer(key);
  return true;
}

void ReliableDevice::send_transform(std::vector<Packet>& packets,
                                    SendContext&) {
  std::vector<Packet> out;
  out.reserve(packets.size());
  for (auto& p : packets) {
    if (prepare_send(p)) out.push_back(std::move(p));
  }
  packets = std::move(out);
}

void ReliableDevice::arm_timer(const FlowKey& key) {
  SenderFlow& flow = senders_[key];
  if (flow.timer_armed) return;
  flow.timer_armed = true;
  host_->host_schedule(flow.rto, [this, key] { on_timeout(key); });
}

void ReliableDevice::clear_flow(const FlowKey& key, SenderFlow& flow) {
  Quarantine* q = quarantined(key.second);
  if (q != nullptr) {
    for (const auto& [seq, pending] : flow.unacked) {
      if (q->frames > 0) --q->frames;
      q->bytes -= std::min(q->bytes, pending.frame.payload.size());
    }
  }
  flow.unacked.clear();
  flow.rto = config_.rto_initial;
  flow.stall_start = 0;
}

void ReliableDevice::on_timeout(const FlowKey& key) {
  SenderFlow& flow = senders_[key];
  flow.timer_armed = false;
  if (flow.unacked.empty()) {
    // Everything acked since the timer was set; quiesce this flow.
    flow.rto = config_.rto_initial;
    flow.stall_start = 0;
    return;
  }
  if (!host_->host_node_up(key.first)) {
    // The *sender* crashed: its frames are squashed at the fabric, so
    // retransmitting is pointless theater. Drop the flow state quietly —
    // a dead node surfaces no callbacks.
    clear_flow(key, flow);
    return;
  }
  if (peer_quarantined(key.second)) {
    // The peer is suspect: pause. No retransmission (it would vanish on
    // the partitioned link anyway), no give-up budget burned toward a
    // false unreachable verdict. resume_peer re-arms the timer.
    return;
  }
  const sim::TimeNs now = host_->host_now();
  if (flow.stall_start == 0) {
    flow.stall_start = now;
  } else if (now - flow.stall_start > config_.give_up_budget) {
    // Give up: no ack progress across give_up_budget of fabric time.
    // Abandon the in-flight frames (at-most-once from here on) and
    // surface the unreachable peer — the failure detector's second,
    // retransmission-based signal.
    const NodeId self = key.first;
    const NodeId peer = key.second;
    clear_flow(key, flow);
    ++counters_.flows_abandoned;
    if (on_peer_unreachable_) on_peer_unreachable_(peer, self);
    return;
  }
  for (auto& [seq, pending] : flow.unacked) {
    pending.retransmitted = true;
    ++counters_.retransmits;
    Packet copy = pending.frame;
    host_->inject_send(this, std::move(copy));
  }
  flow.rto = std::min(
      static_cast<sim::TimeNs>(static_cast<double>(flow.rto) *
                               config_.rto_backoff),
      config_.rto_max);
  arm_timer(key);
}

void ReliableDevice::resume_peer(NodeId peer) {
  const sim::TimeNs now = host_->host_now();
  for (auto& [key, flow] : senders_) {
    if (key.second != peer || flow.unacked.empty()) continue;
    // Replay everything outstanding in sequence order: frames that were
    // on the wire before the quarantine go out as retransmissions
    // (ambiguous for RTT), held frames as clean first transmissions.
    for (auto& [seq, pending] : flow.unacked) {
      if (pending.on_wire) {
        pending.retransmitted = true;
        ++counters_.retransmits;
      } else {
        pending.on_wire = true;
        pending.first_sent = now;
      }
      Packet copy = pending.frame;
      host_->inject_send(this, std::move(copy));
    }
    flow.rto = config_.rto_initial;
    flow.stall_start = 0;
    arm_timer(key);
  }
}

void ReliableDevice::set_peer_quarantined(NodeId peer, bool on) {
  Quarantine& q = quarantine_[peer];
  if (q.active == on) return;
  if (on) {
    q.active = true;
    ++counters_.quarantines_started;
    // Frames already in flight count against the bound too: they are
    // memory held on this peer's behalf just like newly parked ones.
    q.frames = 0;
    q.bytes = 0;
    for (const auto& [key, flow] : senders_) {
      if (key.second != peer) continue;
      for (const auto& [seq, pending] : flow.unacked) {
        q.frames += 1;
        q.bytes += pending.frame.payload.size();
      }
    }
    note_quarantine_peaks(q);
    maybe_trip_congestion(peer, q);
  } else {
    q.active = false;
    ++counters_.quarantines_resumed;
    last_resume_at_ = host_ != nullptr ? host_->host_now() : 0;
    resume_peer(peer);
    q.frames = 0;
    q.bytes = 0;
    if (q.congested) {
      q.congested = false;
      if (on_congestion_change_) on_congestion_change_(peer, false);
    }
  }
}

void ReliableDevice::abandon_peer(NodeId peer) {
  // Confirmed dead: recovery owns the peer now. Flows die quietly — no
  // unreachable callback, no replay.
  auto qit = quarantine_.find(peer);
  const bool was_congested = qit != quarantine_.end() && qit->second.congested;
  if (qit != quarantine_.end()) quarantine_.erase(qit);
  for (auto& [key, flow] : senders_) {
    if (key.second != peer) continue;
    flow.unacked.clear();
    flow.rto = config_.rto_initial;
    flow.stall_start = 0;
  }
  ++counters_.peers_abandoned;
  if (was_congested && on_congestion_change_) {
    on_congestion_change_(peer, false);
  }
}

std::optional<Packet> ReliableDevice::receive_transform(Packet packet) {
  MDO_CHECK_MSG(host_ != nullptr,
                "ReliableDevice needs a fabric host (timers, injection)");
  WireHeader hdr;
  if (!deframe(packet, hdr)) {
    // Only reachable without a checksum device below; treat like loss.
    ++counters_.malformed_dropped;
    return std::nullopt;
  }
  if (hdr.type == kAck) {
    handle_ack(packet, hdr.seq);
    return std::nullopt;
  }
  return handle_data(std::move(packet), hdr.seq);
}

void ReliableDevice::handle_ack(const Packet& packet, std::uint32_t ack_seq) {
  ++counters_.acks_received;
  // The ack travels the reverse direction of its data flow.
  FlowKey key{packet.dst, packet.src};
  SenderFlow& flow = senders_[key];
  Quarantine* q = quarantined(key.second);
  bool progress = false;
  const sim::TimeNs now = host_->host_now();
  const bool wan = topo_ != nullptr &&
                   topo_->cluster_of(key.first) != topo_->cluster_of(key.second);
  for (auto it = flow.unacked.begin();
       it != flow.unacked.end() && it->first < ack_seq;) {
    const auto rtt = static_cast<double>(now - it->second.first_sent);
    // Karn's rule: retransmitted frames are ambiguous (the ack may be
    // for either copy), so the general RTT stat skips them. The WAN stat
    // deliberately keeps them, measured from the FIRST transmission:
    // when the link degrades past the RTO every in-flight frame gets
    // retransmitted, and a Karn-strict estimator goes blind at exactly
    // the moment the adaptive controller needs to see the new RTT. The
    // first ack to clear a seq belongs to the earliest surviving copy,
    // so first_sent is exact on a slow-but-clean link and only
    // overestimates (by the backoff) when the original was truly lost —
    // an error in the safe (window-widening) direction, absorbed by the
    // controller's EWMA and hysteresis. No RTO feedback risk either
    // way: flow RTOs here are config-driven, not derived from this stat.
    if (!it->second.retransmitted) ack_rtt_ns_.add(rtt);
    if (wan) wan_ack_rtt_ns_.add(rtt);
    if (q != nullptr) {
      if (q->frames > 0) --q->frames;
      q->bytes -= std::min(q->bytes, it->second.frame.payload.size());
    }
    it = flow.unacked.erase(it);
    progress = true;
  }
  if (progress) {
    flow.rto = config_.rto_initial;
    flow.stall_start = 0;
  }
}

std::optional<Packet> ReliableDevice::handle_data(Packet&& packet,
                                                  std::uint32_t seq) {
  FlowKey key{packet.src, packet.dst};
  ReceiverFlow& flow = receivers_[key];
  const NodeId data_src = packet.src;
  const NodeId data_dst = packet.dst;
  if (seq < flow.expected || flow.buffered.count(seq) != 0) {
    ++counters_.duplicates_suppressed;
  } else if (seq == flow.expected) {
    // Release the contiguous run through the devices above us; delivery
    // happens inside inject_receive, so this transform consumes the
    // packet uniformly (one code path whether or not a run flushes).
    ++flow.expected;
    ++counters_.delivered;
    host_->inject_receive(this, std::move(packet));
    for (auto it = flow.buffered.find(flow.expected);
         it != flow.buffered.end();
         it = flow.buffered.find(flow.expected)) {
      Packet next = std::move(it->second);
      flow.buffered.erase(it);
      ++flow.expected;
      ++counters_.delivered;
      host_->inject_receive(this, std::move(next));
    }
  } else {
    flow.buffered.emplace(seq, std::move(packet));
    ++counters_.out_of_order_buffered;
  }
  send_ack(data_src, data_dst, flow.expected);
  return std::nullopt;
}

void ReliableDevice::send_ack(NodeId data_src, NodeId data_dst,
                              std::uint32_t cumulative) {
  Packet ack;
  ack.src = data_dst;  // acks travel receiver -> sender
  ack.dst = data_src;
  ack.inject_time = host_->host_now();
  frame(ack, kAck, cumulative);
  ++counters_.acks_sent;
  host_->inject_send(this, std::move(ack));
}

ReliabilityStack install_reliability_stack(
    Chain& chain, const Topology* topo, const ReliableConfig& reliable,
    const FaultConfig& faults, sim::TimeNs cross_cluster_delay,
    const HeartbeatConfig& heartbeat, const CoalesceConfig& coalesce,
    const CompressionConfig& compression, const StripingConfig& striping) {
  ReliabilityStack stack;
  if (coalesce.enabled) {
    stack.coalesce =
        chain.add(std::make_unique<CoalesceDevice>(topo, coalesce));
  }
  if (compression.enabled) {
    stack.compress = chain.add(
        std::make_unique<CompressionDevice>(compression.cpu_ns_per_byte));
  }
  if (striping.enabled) {
    stack.stripe = chain.add(
        std::make_unique<StripingDevice>(striping.rails, striping.min_bytes));
  }
  stack.reliable = chain.add(std::make_unique<ReliableDevice>(reliable, topo));
  if (heartbeat.enabled) {
    stack.heartbeat =
        chain.add(std::make_unique<HeartbeatDevice>(topo, heartbeat));
    if (stack.coalesce != nullptr) {
      // Bundling must not widen the detection window: every unbundled
      // bundle refreshes its source's liveness, exactly as the n frames
      // it replaced would have.
      HeartbeatDevice* hb = stack.heartbeat;
      stack.coalesce->set_unbundle_listener(
          [hb](NodeId src) { hb->note_alive(src); });
    }
    // Detector verdicts drive the flows: suspicion pauses (quarantine),
    // demotion replays seq-exact, confirmed death drops quietly.
    ReliableDevice* rel = stack.reliable;
    stack.heartbeat->set_state_listener(
        [rel](NodeId node, PeerState from, PeerState to, sim::TimeNs) {
          if (to == PeerState::kSuspect) {
            rel->set_peer_quarantined(node, true);
          } else if (from == PeerState::kSuspect && to == PeerState::kAlive) {
            rel->set_peer_quarantined(node, false);
          } else if (to == PeerState::kDead) {
            rel->abandon_peer(node);
          }
        });
  }
  stack.checksum =
      chain.add(std::make_unique<ChecksumDevice>(/*drop_on_mismatch=*/true));
  stack.faults = chain.add(std::make_unique<FaultDevice>(faults, topo));
  if (cross_cluster_delay > 0) {
    stack.delay =
        chain.add(std::make_unique<DelayDevice>(topo, cross_cluster_delay));
  }
  return stack;
}

}  // namespace mdo::net
