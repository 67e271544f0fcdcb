#pragma once
// Fabric: the terminal transport under a device chain. Delivers packets
// between nodes of a Topology according to a LatencyModel. Three concrete
// fabrics exist: SimFabric (virtual time, discrete-event), ThreadFabric
// (real threads and real sleeps) and SocketFabric (one process per node,
// stream sockets); the last two share DeadlineFabric's wall-clock queue.

#include <cstdint>
#include <functional>

#include "net/chain.hpp"
#include "net/packet.hpp"
#include "net/topology.hpp"
#include "sim/time.hpp"

namespace mdo::net {

class Fabric {
 public:
  using DeliverFn = std::function<void(Packet&&)>;

  virtual ~Fabric() = default;

  /// Hand one packet to the message layer. The fabric assigns the packet
  /// id, runs the send chain, and arranges delivery. Returns the sender
  /// CPU cost the chain reported (charged by the caller's machine).
  virtual sim::TimeNs send(Packet&& packet) = 0;

  /// Register the upcall invoked when a packet completes delivery at
  /// `node` (after the receive chain). Must be set before traffic flows.
  virtual void set_delivery_handler(NodeId node, DeliverFn handler) = 0;

  virtual const Topology& topology() const = 0;

  /// Crash support: `probe(node)` reports whether a node is still alive.
  /// Wire frames whose *source* is a dead node are squashed before
  /// transmission — a crashed process cannot put new bytes on the wire
  /// (its acks and retransmissions die with it). Frames addressed *to* a
  /// dead node still arrive; the machine discards them at enqueue, so the
  /// shared in-process device chain keeps consistent protocol state.
  /// Default: no crash support (every node up forever).
  using NodeUpProbe = std::function<bool(NodeId)>;
  virtual void set_node_up_probe(NodeUpProbe) {}

  struct Stats {
    std::uint64_t packets_sent = 0;
    std::uint64_t bytes_sent = 0;
    std::uint64_t packets_delivered = 0;
    std::uint64_t wan_packets = 0;   ///< cross-cluster sends
    std::uint64_t wan_bytes = 0;
    std::uint64_t frames_injected = 0;  ///< device-originated wire frames
                                        ///< (acks, retransmissions)
    std::uint64_t dead_node_drops = 0;  ///< frames squashed because their
                                        ///< source node had crashed
    std::uint64_t wire_frames = 0;      ///< frames actually transmitted,
                                        ///< post-chain (a coalesced bundle
                                        ///< counts once)
    std::uint64_t wan_wire_frames = 0;  ///< of those, cross-cluster
    std::uint64_t wake_signals = 0;     ///< times a send, injection or timer
                                        ///< woke the fabric thread (0 on
                                        ///< Sim; on SocketFabric a remote
                                        ///< frame wakes it only on backlog)
  };
  virtual Stats stats() const = 0;
};

}  // namespace mdo::net
