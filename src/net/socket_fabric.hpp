#pragma once
// Multi-process fabric: each ProcessMachine PE owns one SocketFabric that
// talks to its peers over connected stream sockets (Unix-domain today; the
// framing is TCP-ready length-prefixed frames, so swapping the transport
// is a connect() change, not a protocol change). A single non-blocking
// network thread per process owns every socket: it holds outgoing frames
// until their modeled delivery deadline (delay-device hold + fault jitter
// + latency-model delay) elapses in wall-clock time, then serializes them
// into per-peer send rings drained by writev; inbound bytes are
// reassembled by an incremental FrameDecoder and run up the receive
// chain. The deadline queue and DeviceHost services (wall-clock timers,
// ack/retransmission injection) are DeadlineFabric's, shared with
// ThreadFabric, with one addition: this fabric hosts exactly one
// process-local node, reported via host_local_node(), so node-scoped
// devices (heartbeat) stop impersonating remote peers.
//
// The network thread sleeps in ppoll until the earliest deadline or a
// socket event. A sender writes the wake pipe only when it brings that
// deadline forward, and the thread runs with 1 ns timer slack, so ppoll
// returns at the modeled deadline, never before it.
//
// The frame payload is the machine's envelope wire image, untouched: the
// fabric prepends a fixed header and hands ByteWriter the already-packed
// payload bytes, so the PayloadBuf zero-copy path on the send side is
// preserved up to the socket write.

#include <array>
#include <deque>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "net/deadline_fabric.hpp"
#include "util/buffer.hpp"

namespace mdo::net {

/// Incremental parser for the stream framing. Feed raw socket bytes in
/// arbitrary chunk sizes (partial reads included); next() yields one
/// complete frame at a time. A frame truncated by a peer dying mid-write
/// is *contained*: next() simply keeps returning nullopt and mid_frame()
/// reports the dangling prefix so the fabric can count it when the
/// connection closes. A header with bad magic or an absurd length is
/// wire input, not a bug: the decoder turns bad() — a byte stream cannot
/// resynchronise, so it drops what it holds and ignores further input —
/// and the fabric counts the frame and closes that peer.
class FrameDecoder {
 public:
  static constexpr std::uint32_t kMagic = 0x4D444F46u;  // "MDOF"
  /// magic + payload_len + src + dst + priority + id + inject_time.
  static constexpr std::size_t kHeaderBytes = 4 + 4 + 4 + 4 + 4 + 8 + 8;
  /// Upper bound on a single frame payload; a corrupt length can never
  /// turn into a multi-gigabyte allocation.
  static constexpr std::uint32_t kMaxPayloadBytes = 1u << 30;

  /// Serialize the fixed header for `packet` (payload bytes follow on
  /// the wire verbatim). hold_ns is consumed by the sending fabric and
  /// never crosses the wire.
  static std::array<std::byte, kHeaderBytes> encode_header(
      const Packet& packet);

  /// Append raw stream bytes.
  void feed(std::span<const std::byte> data);

  /// Extract the next complete frame, or nullopt if more bytes are
  /// needed or the stream is bad().
  std::optional<Packet> next();

  /// A header was rejected; the stream is unusable from here on.
  bool bad() const { return bad_; }

  /// Bytes held, including any partial frame.
  std::size_t buffered() const { return buf_.size() - pos_; }

  /// A frame header or payload prefix is pending completion.
  bool mid_frame() const { return buffered() > 0; }

 private:
  Bytes buf_;
  std::size_t pos_ = 0;
  bool bad_ = false;
};

class SocketFabric final : public DeadlineFabric {
 public:
  /// Counters specific to the socket transport, published under
  /// `fabric.socket.*` by the owning machine.
  struct SocketStats {
    std::uint64_t link_down_drops = 0;   ///< frames dropped: peer link closed
    std::uint64_t truncated_frames = 0;  ///< partial inbound frame at EOF
    std::uint64_t partial_writes = 0;    ///< short writes resumed later
    std::uint64_t eintr_retries = 0;     ///< syscalls retried after EINTR
    std::uint64_t peer_disconnects = 0;  ///< sockets closed by peer death
    /// Inbound frames rejected: a bad header (the peer is closed) or a
    /// src/dst naming no valid peer/this node (only the frame is dropped).
    std::uint64_t bad_frames = 0;
  };

  /// `peer_fds[j]` is a connected non-blocking stream socket to node j,
  /// or -1 (self and absent peers). Takes ownership of every fd. `epoch`
  /// anchors host_now(); the forking machine passes one pre-fork instant
  /// so every process in the mesh shares a time base.
  SocketFabric(const Topology* topo, LatencyModel* model, Chain chain,
               NodeId self, std::vector<int> peer_fds,
               Clock::time_point epoch);
  ~SocketFabric() override;

  /// Spawn the network thread. Separate from the constructor so the
  /// owning machine can install handlers and probes first.
  void start();

  /// Stop the network thread, drop undelivered frames and timers, and
  /// close every socket (also done by the destructor). Idempotent.
  void shutdown();

  NodeId self() const { return self_; }

  /// Only the local node has a handler here.
  void set_delivery_handler(NodeId node, DeliverFn handler) override;

  SocketStats socket_stats() const;

  std::optional<NodeId> host_local_node() const override { return self_; }

 private:
  /// One serialized frame waiting in a peer's send ring. The payload is
  /// the packed envelope bytes moved straight from the Packet — no copy
  /// between the chain and the socket.
  struct OutFrame {
    std::array<std::byte, FrameDecoder::kHeaderBytes> header;
    Bytes payload;
  };

  struct Peer {
    int fd = -1;
    bool down = false;
    std::deque<OutFrame> out;
    std::size_t offset = 0;  ///< bytes of out.front() already written
    FrameDecoder decoder;
  };

  /// Write one byte to the wake pipe (mutex held).
  void signal() override;
  /// A frame's deadline elapsed: loop back (dst == self) or serialize
  /// into the peer's send ring (mutex held; may unlock for delivery).
  void on_due_frame(Packet&& packet, Lock& lock) override;
  /// Drain a peer's send ring with non-blocking writev (mutex held).
  void flush_peer(Peer& peer);
  /// Drain readable bytes from a peer and deliver completed frames
  /// (mutex held; unlocks around the delivery handler).
  void read_peer(std::size_t index, Lock& lock);
  void link_down(Peer& peer);
  void network_loop();

  NodeId self_;
  std::vector<Peer> peers_;
  int wake_r_ = -1;
  int wake_w_ = -1;
  SocketStats socket_stats_;
  std::thread network_;
};

}  // namespace mdo::net
