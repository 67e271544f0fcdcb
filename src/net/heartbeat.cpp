#include "net/heartbeat.hpp"

#include <algorithm>
#include <cstring>

#include "util/assert.hpp"

namespace mdo::net {
namespace {

// Beats are exactly these eight bytes. Reliable-device frames can never
// collide: an ACK frame is also eight bytes but its fifth byte is the
// type field (0 or 1), which differs from 'B'.
constexpr char kBeatMagic[8] = {'M', 'D', 'O', 'H', 'B', 'E', 'A', 'T'};

// Probe frames: magic + kind + origin + target. Same collision argument
// as beats (fifth byte 'P'), and the length is distinct from both beats
// and reliable headers.
constexpr char kProbeMagic[8] = {'M', 'D', 'O', 'H', 'P', 'R', 'O', 'B'};
constexpr std::uint8_t kProbeReq = 0;    ///< monitor -> relay: "probe target"
constexpr std::uint8_t kProbe = 1;       ///< relay -> target: "are you there?"
constexpr std::uint8_t kProbeAck = 2;    ///< target -> relay: "I am"
constexpr std::uint8_t kProbeAckRelay = 3;  ///< relay -> monitor: "it answered"
constexpr std::uint8_t kDeathNotice = 4;  ///< monitor -> everyone: "confirmed
                                          ///< dead" — on single-node hosts
                                          ///< only the ring monitor hears the
                                          ///< silence, so the verdict must be
                                          ///< disseminated to reach the other
                                          ///< processes' detectors
constexpr std::size_t kProbeBytes =
    sizeof(kProbeMagic) + 1 + 2 * sizeof(NodeId);

bool is_beat(const Packet& packet) {
  return packet.payload.size() == sizeof(kBeatMagic) &&
         std::memcmp(packet.payload.data(), kBeatMagic, sizeof(kBeatMagic)) ==
             0;
}

bool is_probe(const Packet& packet) {
  return packet.payload.size() == kProbeBytes &&
         std::memcmp(packet.payload.data(), kProbeMagic,
                     sizeof(kProbeMagic)) == 0;
}

}  // namespace

HeartbeatDevice::HeartbeatDevice(const Topology* topo, HeartbeatConfig config)
    : topo_(topo), config_(config) {
  MDO_CHECK(topo_ != nullptr);
  MDO_CHECK(config_.period > 0);
  MDO_CHECK_MSG(config_.timeout > config_.period,
                "heartbeat timeout must exceed the beat period");
  MDO_CHECK_MSG(config_.confirm_window > 0,
                "heartbeat confirm window must be positive");
  const std::size_t n = topo_->num_nodes();
  last_heard_.assign(n, 0);
  states_.assign(n, PeerState::kAlive);
  suspected_at_.assign(n, 0);
  detected_at_.assign(n, 0);
}

PeerState HeartbeatDevice::peer_state(NodeId node) const {
  MDO_CHECK(node >= 0 && static_cast<std::size_t>(node) < states_.size());
  return states_[static_cast<std::size_t>(node)];
}

sim::TimeNs HeartbeatDevice::detected_at(NodeId node) const {
  MDO_CHECK(node >= 0 && static_cast<std::size_t>(node) < detected_at_.size());
  return detected_at_[static_cast<std::size_t>(node)];
}

void HeartbeatDevice::watch(sim::TimeNs horizon) {
  MDO_CHECK_MSG(host_ != nullptr,
                "HeartbeatDevice needs a fabric host (timers, injection)");
  MDO_CHECK(horizon > 0);
  // Raise the grace flag *before* hopping threads: a tick already queued
  // on the fabric may fire between here and begin_watch, and it must not
  // judge liveness timestamps that predate the idle gap.
  grace_.store(true, std::memory_order_release);
  // Hop into fabric context: under a ThreadFabric the detector state is
  // only ever touched on the dispatcher thread; under a SimFabric this
  // just defers arming until the engine runs.
  host_->host_schedule(0, [this, horizon] { begin_watch(horizon); });
}

void HeartbeatDevice::begin_watch(sim::TimeNs horizon) {
  const sim::TimeNs now = host_->host_now();
  deadline_ = std::max(deadline_, now + horizon);
  // Grace period: refresh every timestamp and demote suspects, so
  // nobody starts a watch window carrying silence accumulated while the
  // detector was idle between phases. Confirmed deaths stay terminal.
  for (std::size_t j = 0; j < last_heard_.size(); ++j) {
    last_heard_[j] = std::max(last_heard_[j], now);
    if (states_[j] == PeerState::kSuspect) {
      transition(j, PeerState::kAlive, now);
    }
  }
  grace_.store(false, std::memory_order_release);
  if (!ticker_armed_) {
    ticker_armed_ = true;
    host_->host_schedule(config_.period, [this] { tick(); });
  }
}

void HeartbeatDevice::tick() {
  ticker_armed_ = false;
  const sim::TimeNs now = host_->host_now();
  if (now > deadline_) return;
  emit_beats();
  check_timeouts();
  if (now + config_.period <= deadline_) {
    ticker_armed_ = true;
    host_->host_schedule(config_.period, [this] { tick(); });
  }
}

NodeId HeartbeatDevice::ring_successor(NodeId node) const {
  const auto n = static_cast<NodeId>(topo_->num_nodes());
  for (NodeId step = 1; step < n; ++step) {
    NodeId candidate = static_cast<NodeId>((node + step) % n);
    if (host_->host_node_up(candidate)) return candidate;
  }
  return node;  // alone in the world: no one to beat to
}

void HeartbeatDevice::emit_beats() {
  const auto n = static_cast<NodeId>(topo_->num_nodes());
  const std::optional<NodeId> local = host_->host_local_node();
  for (NodeId j = 0; j < n; ++j) {
    // On a single-node host (SocketFabric) this process may only beat
    // for itself; beating on behalf of remote peers would keep their
    // monitors fed even after the real process died.
    if (local && *local != j) continue;
    if (!host_->host_node_up(j)) continue;  // the dead emit nothing
    NodeId monitor = ring_successor(j);
    if (monitor == j) continue;
    Packet beat;
    beat.src = j;
    beat.dst = monitor;
    beat.inject_time = host_->host_now();
    const auto* magic = reinterpret_cast<const std::byte*>(kBeatMagic);
    beat.payload.assign(magic, magic + sizeof(kBeatMagic));
    ++counters_.beats_sent;
    host_->inject_send(this, std::move(beat));
  }
}

void HeartbeatDevice::transition(std::size_t j, PeerState to,
                                 sim::TimeNs now) {
  const PeerState from = states_[j];
  if (from == to || from == PeerState::kDead) return;  // kDead is terminal
  states_[j] = to;
  const auto node = static_cast<NodeId>(j);
  switch (to) {
    case PeerState::kSuspect:
      suspected_at_[j] = now;
      ++counters_.suspects_raised;
      break;
    case PeerState::kAlive:
      ++counters_.suspects_cleared;
      break;
    case PeerState::kDead:
      detected_at_[j] = now;
      ++counters_.peers_declared_dead;
      break;
  }
  // The stack listener first (quarantine/resume/abandon must settle
  // before recovery or application callbacks react to the verdict).
  if (listener_) listener_(node, from, to, now);
  if (to == PeerState::kDead && on_peer_dead_) on_peer_dead_(node, now);
}

void HeartbeatDevice::check_timeouts() {
  // A watch() was issued but has not refreshed timestamps yet: judging
  // now would misread the idle gap before it as peer silence.
  if (grace_.load(std::memory_order_acquire)) return;
  const sim::TimeNs now = host_->host_now();
  const std::optional<NodeId> local = host_->host_local_node();
  for (std::size_t j = 0; j < last_heard_.size(); ++j) {
    const auto peer = static_cast<NodeId>(j);
    // Beats travel only to the ring successor, so on a single-node host
    // this process may judge peer j only when it *is* j's monitor;
    // anyone else hears silence by design and would raise false alarms.
    if (local && (peer == *local || ring_successor(peer) != *local)) {
      continue;
    }
    switch (states_[j]) {
      case PeerState::kDead:
        break;
      case PeerState::kAlive:
        if (now - last_heard_[j] > config_.timeout) {
          transition(j, PeerState::kSuspect, now);
          if (config_.indirect_probes) emit_probes(static_cast<NodeId>(j));
        }
        break;
      case PeerState::kSuspect:
        if (now - suspected_at_[j] > config_.confirm_window) {
          transition(j, PeerState::kDead, now);
          disseminate_death(static_cast<NodeId>(j));
        } else if (config_.indirect_probes) {
          // Keep probing while the verdict is open: earlier probes may
          // have been lost on the same flaky links that caused this.
          emit_probes(static_cast<NodeId>(j));
        }
        break;
    }
  }
}

void HeartbeatDevice::send_probe(std::uint8_t kind, NodeId src, NodeId dst,
                                 NodeId origin, NodeId target) {
  Packet p;
  p.src = src;
  p.dst = dst;
  p.inject_time = host_->host_now();
  p.payload.resize(kProbeBytes);
  std::memcpy(p.payload.data(), kProbeMagic, sizeof(kProbeMagic));
  std::memcpy(p.payload.data() + sizeof(kProbeMagic), &kind, 1);
  std::memcpy(p.payload.data() + sizeof(kProbeMagic) + 1, &origin,
              sizeof(NodeId));
  std::memcpy(p.payload.data() + sizeof(kProbeMagic) + 1 + sizeof(NodeId),
              &target, sizeof(NodeId));
  switch (kind) {
    case kProbeReq:
      ++counters_.probes_sent;
      break;
    case kProbe:
    case kProbeAckRelay:
      ++counters_.probes_relayed;
      break;
    case kProbeAck:
      ++counters_.probe_acks;
      break;
    default:
      break;
  }
  host_->inject_send(this, std::move(p));
}

void HeartbeatDevice::emit_probes(NodeId suspect) {
  // The monitor (the suspect's ring successor — the node whose silence
  // verdict this is) asks relays on *independent* WAN paths to probe the
  // suspect. Prefer up to two relays in third clusters: if only the
  // monitor's link to the suspect's cluster is partitioned, the relayed
  // ack comes back over relay->monitor links that are still up.
  const NodeId monitor = ring_successor(suspect);
  if (monitor == suspect || !host_->host_node_up(monitor)) return;
  const ClusterId cs = topo_->cluster_of(suspect);
  const ClusterId cm = topo_->cluster_of(monitor);
  int emitted = 0;
  const auto n_clusters = static_cast<ClusterId>(topo_->num_clusters());
  for (ClusterId c = 0; c < n_clusters && emitted < 2; ++c) {
    if (c == cs || c == cm) continue;
    for (NodeId r : topo_->nodes_in(c)) {
      if (r == suspect || r == monitor || !host_->host_node_up(r)) continue;
      send_probe(kProbeReq, monitor, r, monitor, suspect);
      ++emitted;
      break;  // one relay per third cluster
    }
  }
  if (emitted > 0) return;
  // Two-cluster (or degenerate) fallback: a neighbor in the suspect's
  // own cluster probes over the intra-cluster wire; failing that, any
  // other up node lends its path.
  for (NodeId r : topo_->nodes_in(cs)) {
    if (r == suspect || r == monitor || !host_->host_node_up(r)) continue;
    send_probe(kProbeReq, monitor, r, monitor, suspect);
    return;
  }
  const auto n = static_cast<NodeId>(topo_->num_nodes());
  for (NodeId r = 0; r < n; ++r) {
    if (r == suspect || r == monitor || !host_->host_node_up(r)) continue;
    send_probe(kProbeReq, monitor, r, monitor, suspect);
    return;
  }
}

void HeartbeatDevice::disseminate_death(NodeId target) {
  // On a shared-fabric host (Sim/Thread) there is one detector and its
  // verdict is already global. On a single-node host (SocketFabric) only
  // the monitor heard the silence: every other process must be told, or
  // their detectors — including the host process the application polls —
  // would stay ignorant forever (they are not the monitor and judge
  // nothing about this peer by design). One-shot, best-effort: the
  // crash scenarios that exercise this path do not drop frames.
  const std::optional<NodeId> local = host_->host_local_node();
  if (!local) return;
  const auto n = static_cast<NodeId>(topo_->num_nodes());
  for (NodeId j = 0; j < n; ++j) {
    if (j == *local || j == target || !host_->host_node_up(j)) continue;
    send_probe(kDeathNotice, *local, j, *local, target);
  }
}

void HeartbeatDevice::handle_probe(const Packet& packet) {
  std::uint8_t kind = 0;
  NodeId origin = 0;
  NodeId target = 0;
  std::memcpy(&kind, packet.payload.data() + sizeof(kProbeMagic), 1);
  std::memcpy(&origin, packet.payload.data() + sizeof(kProbeMagic) + 1,
              sizeof(NodeId));
  std::memcpy(&target,
              packet.payload.data() + sizeof(kProbeMagic) + 1 + sizeof(NodeId),
              sizeof(NodeId));
  const auto n = static_cast<NodeId>(topo_->num_nodes());
  if (origin < 0 || origin >= n || target < 0 || target >= n) return;
  // All forwarding below acts on behalf of the receiving node — a dead
  // node must never relay or answer.
  switch (kind) {
    case kProbeReq:  // received by the relay: probe the target ourselves
      if (!host_->host_node_up(packet.dst)) return;
      send_probe(kProbe, packet.dst, target, origin, target);
      break;
    case kProbe:  // received by the target: answer the relay
      if (!host_->host_node_up(packet.dst)) return;
      send_probe(kProbeAck, packet.dst, packet.src, origin, target);
      break;
    case kProbeAck:  // received by the relay: tell the monitor
      if (!host_->host_node_up(packet.dst)) return;
      send_probe(kProbeAckRelay, packet.dst, origin, origin, target);
      break;
    case kProbeAckRelay:
      // Received by the monitor: third-party evidence the target
      // answered a probe just now — that refutes "crashed" even though
      // no frame from the target reached us directly.
      refresh(target);
      break;
    case kDeathNotice:
      // The target's ring monitor confirmed it dead; adopt the verdict
      // (terminal, idempotent) so this process's listeners — recovery,
      // quarantine abandon — fire exactly as if we had judged it
      // ourselves. Fork-family trust: a forged notice is a local bug,
      // not input.
      transition(static_cast<std::size_t>(target), PeerState::kDead,
                 host_->host_now());
      break;
    default:
      break;
  }
}

void HeartbeatDevice::refresh(NodeId node) {
  if (node < 0 || static_cast<std::size_t>(node) >= last_heard_.size() ||
      host_ == nullptr) {
    return;
  }
  const auto j = static_cast<std::size_t>(node);
  const sim::TimeNs now = host_->host_now();
  last_heard_[j] = now;
  if (states_[j] == PeerState::kSuspect) transition(j, PeerState::kAlive, now);
}

void HeartbeatDevice::note_alive(NodeId node) { refresh(node); }

std::optional<Packet> HeartbeatDevice::receive_transform(Packet packet) {
  // Passive mode: any frame that made it here proves its sender was alive
  // when it was transmitted — data and acks count as well as beats — and
  // demotes a suspect back to alive.
  refresh(packet.src);
  if (is_beat(packet)) {
    ++counters_.beats_received;
    return std::nullopt;  // consumed; beats never reach the runtime
  }
  if (is_probe(packet)) {
    handle_probe(packet);
    return std::nullopt;  // consumed; probes never reach the runtime
  }
  return packet;
}

}  // namespace mdo::net
