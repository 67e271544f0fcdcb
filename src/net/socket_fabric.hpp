#pragma once
// Multi-process fabric: each ProcessMachine PE owns one SocketFabric that
// talks to its peers over connected stream sockets (Unix-domain today; the
// framing is TCP-ready length-prefixed frames, so swapping the transport
// is a connect() change, not a protocol change). The deadline queue and
// DeviceHost services (wall-clock timers, ack/retransmission injection)
// are DeadlineFabric's, shared with ThreadFabric, with one addition: this
// fabric hosts exactly one process-local node, reported via
// host_local_node(), so node-scoped devices (heartbeat) stop
// impersonating remote peers.
//
// The modeled delay is held on the receiving side. A remote frame goes
// on the wire at send time: the sending thread computes its deadline
// (delay-device hold + fault jitter + latency-model delay), writes it
// into the frame header, appends the frame to the peer's send ring and
// flushes the ring with non-blocking sendmsg, all under the fabric mutex
// it already holds. Only a short write or EAGAIN leaves a backlog, and
// only then is the network thread woken to poll POLLOUT. On the
// receiving side an incremental FrameDecoder reassembles inbound bytes,
// and each frame waits in the deadline heap, ordered by (deadline,
// arrival), until its deadline; then it runs up the receive chain. Frames
// from one sender therefore come out in deadline order, ties in send
// order, and the modeled delay overlaps the real socket transit and the
// receiver's wake-up. Loopback frames (dst == self) and timers are held
// in this process's heaps as on ThreadFabric.
//
// The network thread sleeps in ppoll until the earliest deadline or a
// socket event, with 1 ns timer slack, so it delivers at the modeled
// deadline, never before it.
//
// The deadline crosses the wire as an absolute time on the epoch the
// forking machine shares with every process of the mesh (inject_time
// depends on that epoch too). A transport between hosts, which share no
// clock, must send the remaining delay instead.
//
// A frame already written when its sender dies (SIGKILL) is delivered
// at its deadline, as on SimFabric, which squashes a dead node's frames
// only at send time.
//
// The frame payload is the machine's envelope wire image, untouched: the
// fabric prepends a fixed header and hands the payload bytes moved from
// the packet to sendmsg, so the send side copies nothing up to the
// socket write.

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
  /// magic + payload_len + src + dst + priority + id + inject_time +
  /// deadline, each in host byte order:
  ///
  ///   offset  0  u32 magic        4  u32 payload_len   8  i32 src
  ///          12  i32 dst         16  i32 priority     20  u64 id
  ///          28  i64 inject_time 36  i64 deadline (ns on the mesh epoch)
  static constexpr std::size_t kHeaderBytes = 4 + 4 + 4 + 4 + 4 + 8 + 8 + 8;
  /// Upper bound on a single frame payload; a corrupt length can never
  /// turn into a multi-gigabyte allocation.
  static constexpr std::uint32_t kMaxPayloadBytes = 1u << 30;
  /// Upper bound on a header deadline (~146 years past the epoch). A
  /// larger or negative deadline is corrupt, and adding it to the epoch
  /// could overflow, so the receiving fabric drops that frame.
  static constexpr sim::TimeNs kMaxDeadline = sim::TimeNs{1} << 62;

  /// Serialize the fixed header for `packet` (payload bytes follow on
  /// the wire verbatim). `deadline` is when the receiver may deliver it;
  /// 0, the epoch itself, means on arrival. hold_ns is consumed by the
  /// sending fabric and never crosses the wire.
  static std::array<std::byte, kHeaderBytes> encode_header(
      const Packet& packet, sim::TimeNs deadline = 0);

  /// Append raw stream bytes.
  void feed(std::span<const std::byte> data);

  /// Extract the next complete frame, or nullopt if more bytes are
  /// needed or the stream is bad(). Stores the frame's header deadline
  /// in `*deadline` when given.
  std::optional<Packet> next(sim::TimeNs* deadline = nullptr);

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
    /// Inbound frames rejected: a bad header (the peer is closed), or a
    /// src/dst naming no valid peer/this node or a deadline out of range
    /// (only the frame is dropped).
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
  /// Serialize a remote frame with its deadline into the peer's send
  /// ring and flush it on the calling thread; loopback frames stay in
  /// the deadline heap (mutex held).
  bool transmit(Packet& packet, sim::TimeNs deadline) override;
  /// Drain a peer's send ring with non-blocking sendmsg (mutex held).
  void flush_peer(Peer& peer);
  /// Drain readable bytes from a peer and hold each completed frame
  /// until its deadline (mutex held; unlocks around delivery of the
  /// frames already due).
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
