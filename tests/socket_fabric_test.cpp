// SocketFabric edge cases at the byte level: frame reassembly from
// arbitrary partial reads, short writes across frame boundaries,
// containment of frames truncated by a peer dying mid-write, and
// rejection (counted, never an abort) of malformed wire input. These run
// two fabrics inside one test process over socketpair(2) — the transport
// neither knows nor cares that both ends share an address space, which
// is exactly the property that makes the framing TCP-ready.

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <cstring>
#include <limits>
#include <mutex>
#include <thread>
#include <vector>

#include "net/latency_model.hpp"
#include "net/socket_fabric.hpp"
#include "net/topology.hpp"
#include "util/rng.hpp"

namespace {

using namespace mdo;
using net::FrameDecoder;
using net::Packet;

Bytes make_payload(std::size_t n, std::uint8_t seed) {
  Bytes b(n);
  for (std::size_t i = 0; i < n; ++i)
    b[i] = static_cast<std::byte>(static_cast<std::uint8_t>(seed + i));
  return b;
}

Packet make_packet(net::NodeId src, net::NodeId dst, std::size_t bytes,
                   std::uint8_t seed) {
  Packet p;
  p.src = src;
  p.dst = dst;
  p.id = 42;
  p.priority = -7;
  p.inject_time = 123456789;
  p.payload = make_payload(bytes, seed);
  return p;
}

/// Full wire image of `p`: header + payload.
Bytes wire_image(const Packet& p) {
  auto header = FrameDecoder::encode_header(p);
  Bytes out(header.begin(), header.end());
  out.insert(out.end(), p.payload.begin(), p.payload.end());
  return out;
}

// ---------------------------------------------------------------------------
// FrameDecoder: reassembly under adversarial chunking.

TEST(FrameDecoder, RoundTripsOneFrame) {
  Packet p = make_packet(0, 1, 64, 0x11);
  FrameDecoder dec;
  dec.feed(wire_image(p));
  auto got = dec.next();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->src, 0);
  EXPECT_EQ(got->dst, 1);
  EXPECT_EQ(got->id, 42u);
  EXPECT_EQ(got->priority, -7);
  EXPECT_EQ(got->inject_time, 123456789);
  EXPECT_EQ(got->payload, p.payload);
  EXPECT_FALSE(dec.next().has_value());
  EXPECT_FALSE(dec.mid_frame());
  EXPECT_EQ(dec.buffered(), 0u);
}

TEST(FrameDecoder, ByteAtATimeFeedYieldsTheFrameOnlyWhenComplete) {
  Packet p = make_packet(2, 3, 37, 0x22);
  Bytes wire = wire_image(p);
  FrameDecoder dec;
  for (std::size_t i = 0; i + 1 < wire.size(); ++i) {
    dec.feed({&wire[i], 1});
    EXPECT_FALSE(dec.next().has_value()) << "frame surfaced early at byte "
                                         << i;
    EXPECT_TRUE(dec.mid_frame());
  }
  dec.feed({&wire[wire.size() - 1], 1});
  auto got = dec.next();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->payload, p.payload);
  EXPECT_FALSE(dec.mid_frame());
}

TEST(FrameDecoder, SplitsAtEveryBoundaryAcrossTwoFrames) {
  // Two back-to-back frames, cut into two reads at every possible
  // offset — including mid-header and exactly at the header/payload and
  // frame/frame boundaries. Both frames must always come out intact.
  Packet a = make_packet(0, 1, 19, 0x33);
  Packet b = make_packet(1, 0, 53, 0x44);
  Bytes wire = wire_image(a);
  Bytes second = wire_image(b);
  wire.insert(wire.end(), second.begin(), second.end());
  for (std::size_t cut = 0; cut <= wire.size(); ++cut) {
    FrameDecoder dec;
    dec.feed({wire.data(), cut});
    std::vector<Packet> got;
    while (auto f = dec.next()) got.push_back(std::move(*f));
    dec.feed({wire.data() + cut, wire.size() - cut});
    while (auto f = dec.next()) got.push_back(std::move(*f));
    ASSERT_EQ(got.size(), 2u) << "cut=" << cut;
    EXPECT_EQ(got[0].payload, a.payload) << "cut=" << cut;
    EXPECT_EQ(got[1].payload, b.payload) << "cut=" << cut;
    EXPECT_FALSE(dec.mid_frame()) << "cut=" << cut;
  }
}

TEST(FrameDecoder, EmptyPayloadFrame) {
  Packet p = make_packet(0, 1, 0, 0);
  FrameDecoder dec;
  dec.feed(wire_image(p));
  auto got = dec.next();
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(got->payload.empty());
  EXPECT_FALSE(dec.mid_frame());
}

TEST(FrameDecoder, TruncatedFrameStaysPendingAndIsReported) {
  // A peer that dies mid-write leaves a dangling prefix. The decoder
  // must neither surface a bogus frame nor lose track of the prefix —
  // mid_frame() is how the fabric knows to count a truncated_frame when
  // the connection closes.
  Packet p = make_packet(0, 1, 200, 0x55);
  Bytes wire = wire_image(p);
  FrameDecoder dec;
  dec.feed({wire.data(), wire.size() / 2});
  EXPECT_FALSE(dec.next().has_value());
  EXPECT_TRUE(dec.mid_frame());
  EXPECT_EQ(dec.buffered(), wire.size() / 2);
}

/// Reference parse of a byte stream: how many whole frames it holds and
/// whether a header is rejected (bad magic or absurd length) after them.
struct StreamVerdict {
  int frames = 0;
  bool bad = false;
};
StreamVerdict reference_parse(const Bytes& wire) {
  StreamVerdict v;
  std::size_t pos = 0;
  while (wire.size() - pos >= FrameDecoder::kHeaderBytes) {
    std::uint32_t magic = 0, len = 0;
    std::memcpy(&magic, wire.data() + pos, 4);
    std::memcpy(&len, wire.data() + pos + 4, 4);
    if (magic != FrameDecoder::kMagic ||
        len > FrameDecoder::kMaxPayloadBytes) {
      v.bad = true;
      break;
    }
    if (wire.size() - pos - FrameDecoder::kHeaderBytes < len) break;
    pos += FrameDecoder::kHeaderBytes + len;
    ++v.frames;
  }
  return v;
}

TEST(FrameDecoder, GarbageHeaderTurnsTheStreamBadWithoutAborting) {
  Bytes wire = wire_image(make_packet(0, 1, 16, 0x12));
  wire[0] ^= std::byte{0x01};  // bad magic
  FrameDecoder dec;
  dec.feed(wire);
  EXPECT_FALSE(dec.next().has_value());
  EXPECT_TRUE(dec.bad());
  EXPECT_FALSE(dec.mid_frame()) << "a rejected stream holds nothing";
  // A byte stream cannot resynchronise: later valid frames are ignored.
  dec.feed(wire_image(make_packet(0, 1, 16, 0x13)));
  EXPECT_FALSE(dec.next().has_value());
  EXPECT_EQ(dec.buffered(), 0u);

  Bytes huge = wire_image(make_packet(0, 1, 0, 0));
  const std::uint32_t absurd = FrameDecoder::kMaxPayloadBytes + 1;
  std::memcpy(huge.data() + 4, &absurd, 4);
  FrameDecoder dec2;
  dec2.feed(huge);
  EXPECT_FALSE(dec2.next().has_value());
  EXPECT_TRUE(dec2.bad());
}

TEST(FrameDecoder, SeededFuzzNeverAbortsAndCountsEveryRejectedHeader) {
  // Random, truncated and bit-flipped headers in random chunkings. The
  // decoder must never abort, must yield exactly the frames a reference
  // parse finds, and must reject exactly the streams whose next header
  // has bad magic or an absurd length (a flipped length bit can end a
  // frame early and expose a second, garbage header). Labeled `process`,
  // so the sanitizer preset runs it under ASan/UBSan.
  SplitMix64 rng(0xF022u);
  std::uint64_t want_rejected = 0, rejected = 0, decoded = 0;
  for (int iter = 0; iter < 4000; ++iter) {
    Bytes wire;
    const auto mode = rng.bounded(3);
    if (mode == 0) {  // random header + random tail
      wire.resize(FrameDecoder::kHeaderBytes + rng.bounded(64));
      for (auto& b : wire) b = static_cast<std::byte>(rng.next_u64());
    } else {
      wire = wire_image(make_packet(
          static_cast<net::NodeId>(rng.bounded(4)),
          static_cast<net::NodeId>(rng.bounded(4)), rng.bounded(96),
          static_cast<std::uint8_t>(iter)));
      if (mode == 1) {  // truncated anywhere, header included
        wire.resize(rng.bounded(wire.size()));
      } else {  // one to three bit flips inside the header
        for (std::uint64_t f = 1 + rng.bounded(3); f > 0; --f) {
          const auto bit = rng.bounded(FrameDecoder::kHeaderBytes * 8);
          wire[bit / 8] ^= static_cast<std::byte>(1u << (bit % 8));
        }
      }
    }
    const StreamVerdict want = reference_parse(wire);
    if (want.bad) ++want_rejected;

    FrameDecoder dec;
    std::size_t fed = 0;
    int frames = 0;
    while (fed < wire.size()) {
      const std::size_t n =
          std::min<std::size_t>(1 + rng.bounded(48), wire.size() - fed);
      dec.feed({wire.data() + fed, n});
      fed += n;
      while (auto f = dec.next()) ++frames;
    }
    if (dec.bad()) ++rejected;
    decoded += static_cast<std::uint64_t>(frames);
    ASSERT_EQ(dec.bad(), want.bad) << "iter=" << iter;
    ASSERT_EQ(frames, want.frames) << "iter=" << iter;
  }
  EXPECT_EQ(rejected, want_rejected);
  EXPECT_GT(want_rejected, 1000u);  // the fuzz exercises rejection...
  EXPECT_GT(decoded, 500u);         // ...and still decodes what is valid
}

// ---------------------------------------------------------------------------
// SocketFabric over a real socketpair.

/// A connected non-blocking stream pair.
std::pair<int, int> make_stream_pair() {
  int fds[2];
  EXPECT_EQ(
      ::socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0,
                   fds),
      0)
      << std::strerror(errno);
  return {fds[0], fds[1]};
}

/// Collects delivered packets with a condition variable for bounded
/// waits — the network thread delivers asynchronously.
struct Collector {
  std::mutex m;
  std::condition_variable cv;
  std::vector<Packet> got;

  net::Fabric::DeliverFn handler() {
    return [this](Packet&& p) {
      std::lock_guard<std::mutex> lk(m);
      got.push_back(std::move(p));
      cv.notify_all();
    };
  }

  bool wait_for_count(std::size_t n, std::chrono::milliseconds budget) {
    std::unique_lock<std::mutex> lk(m);
    return cv.wait_for(lk, budget, [&] { return got.size() >= n; });
  }
};

TEST(SocketFabric, DeliversAcrossProcessBoundaryFraming) {
  net::Topology topo = net::Topology::two_cluster(2);
  net::FixedLatencyModel model(sim::microseconds(50.0));
  auto [fd_a, fd_b] = make_stream_pair();

  net::SocketFabric::Clock::time_point epoch =
      net::SocketFabric::Clock::now();
  net::SocketFabric fab0(&topo, &model, net::Chain{}, 0, {-1, fd_a}, epoch);
  net::SocketFabric fab1(&topo, &model, net::Chain{}, 1, {fd_b, -1}, epoch);
  Collector at0, at1;
  fab0.set_delivery_handler(0, at0.handler());
  fab1.set_delivery_handler(1, at1.handler());
  fab0.start();
  fab1.start();

  const int kMsgs = 32;
  for (int i = 0; i < kMsgs; ++i) {
    Packet p = make_packet(0, 1, 100 + i, static_cast<std::uint8_t>(i));
    fab0.send(std::move(p));
  }
  ASSERT_TRUE(at1.wait_for_count(kMsgs, std::chrono::seconds(10)));
  for (int i = 0; i < kMsgs; ++i) {
    EXPECT_EQ(at1.got[i].src, 0);
    EXPECT_EQ(at1.got[i].payload,
              make_payload(100 + i, static_cast<std::uint8_t>(i)));
  }
  // Payload order is FIFO per peer: frames are serialized into one
  // stream socket in deadline order under a fixed latency model.
  EXPECT_EQ(fab0.stats().packets_sent, static_cast<std::uint64_t>(kMsgs));
  EXPECT_EQ(fab0.stats().wan_wire_frames, static_cast<std::uint64_t>(kMsgs));
  EXPECT_TRUE(at0.got.empty());

  fab0.shutdown();
  fab1.shutdown();
}

TEST(SocketFabric, LargeFramesSurvivePartialWritesAndReads) {
  // Frames far beyond the socket buffer force short writev()s on the
  // sender and fragmented reads on the receiver; both paths must
  // reassemble exactly.
  net::Topology topo = net::Topology::two_cluster(2);
  net::FixedLatencyModel model(sim::microseconds(1.0));
  auto [fd_a, fd_b] = make_stream_pair();
  auto epoch = net::SocketFabric::Clock::now();
  net::SocketFabric fab0(&topo, &model, net::Chain{}, 0, {-1, fd_a}, epoch);
  net::SocketFabric fab1(&topo, &model, net::Chain{}, 1, {fd_b, -1}, epoch);
  Collector at1;
  fab1.set_delivery_handler(1, at1.handler());
  fab0.start();
  fab1.start();

  const std::size_t kBig = 4u << 20;  // 4 MiB, >> any default SO_SNDBUF
  Packet p = make_packet(0, 1, kBig, 0x66);
  Bytes expect = p.payload;
  fab0.send(std::move(p));
  ASSERT_TRUE(at1.wait_for_count(1, std::chrono::seconds(30)));
  EXPECT_EQ(at1.got[0].payload.size(), kBig);
  EXPECT_EQ(at1.got[0].payload, expect);
  EXPECT_GT(fab0.socket_stats().partial_writes, 0u)
      << "a 4 MiB frame should not fit in one writev";

  fab0.shutdown();
  fab1.shutdown();
}

TEST(SocketFabric, PeerDeathMidFrameIsContained) {
  // The raw-fd end plays a peer that writes one complete frame, then
  // half of a second frame, then dies (close). The fabric must deliver
  // the complete frame, count the dangling prefix as exactly one
  // truncated frame, count the disconnect, and keep running.
  net::Topology topo = net::Topology::two_cluster(2);
  net::FixedLatencyModel model(sim::microseconds(1.0));
  auto [fd_fabric, fd_raw] = make_stream_pair();
  auto epoch = net::SocketFabric::Clock::now();
  net::SocketFabric fab(&topo, &model, net::Chain{}, 1, {fd_fabric, -1},
                        epoch);
  Collector at1;
  fab.set_delivery_handler(1, at1.handler());
  fab.start();

  Packet whole = make_packet(0, 1, 96, 0x77);
  Bytes w1 = wire_image(whole);
  Packet cut = make_packet(0, 1, 96, 0x88);
  Bytes w2 = wire_image(cut);
  auto write_all_raw = [&](const std::byte* data, std::size_t n) {
    std::size_t done = 0;
    while (done < n) {
      ssize_t w = ::write(fd_raw, data + done, n - done);
      if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        continue;
      }
      ASSERT_GT(w, 0) << std::strerror(errno);
      done += static_cast<std::size_t>(w);
    }
  };
  write_all_raw(w1.data(), w1.size());
  write_all_raw(w2.data(), w2.size() / 2);  // die mid-frame
  ::close(fd_raw);

  ASSERT_TRUE(at1.wait_for_count(1, std::chrono::seconds(10)));
  EXPECT_EQ(at1.got[0].payload, whole.payload);
  // The disconnect is observed by the network thread shortly after EOF.
  bool contained = false;
  for (int i = 0; i < 1000 && !contained; ++i) {
    auto ss = fab.socket_stats();
    contained = ss.truncated_frames == 1 && ss.peer_disconnects == 1;
    if (!contained) std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  auto ss = fab.socket_stats();
  EXPECT_EQ(ss.truncated_frames, 1u);
  EXPECT_EQ(ss.peer_disconnects, 1u);
  ASSERT_EQ(at1.got.size(), 1u) << "the truncated frame must never surface";

  fab.shutdown();
}

/// Writes all of `wire` to a non-blocking raw fd.
void write_all_raw(int fd, const Bytes& wire) {
  std::size_t done = 0;
  while (done < wire.size()) {
    ssize_t w = ::write(fd, wire.data() + done, wire.size() - done);
    if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      continue;
    }
    ASSERT_GT(w, 0) << std::strerror(errno);
    done += static_cast<std::size_t>(w);
  }
}

/// Polls the fabric's socket counters until `pred` holds (or ~2 s pass).
template <class Pred>
net::SocketFabric::SocketStats wait_stats(const net::SocketFabric& fab,
                                          Pred pred) {
  for (int i = 0; i < 1000; ++i) {
    auto ss = fab.socket_stats();
    if (pred(ss)) return ss;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return fab.socket_stats();
}

TEST(SocketFabric, GarbageHeaderClosesOnlyThatPeerAndIsCounted) {
  // Node 2 listens to two raw peers. Peer 0 writes a garbage header: the
  // fabric must count one bad frame and close that peer (the stream
  // cannot resynchronise) — no abort — while frames from peer 1 keep
  // arriving before and after.
  net::Topology topo = net::Topology::single_cluster(3);
  net::FixedLatencyModel model(sim::microseconds(1.0));
  auto [fab0, raw0] = make_stream_pair();
  auto [fab1, raw1] = make_stream_pair();
  auto epoch = net::SocketFabric::Clock::now();
  net::SocketFabric fab(&topo, &model, net::Chain{}, 2, {fab0, fab1, -1},
                        epoch);
  Collector at2;
  fab.set_delivery_handler(2, at2.handler());
  fab.start();

  write_all_raw(raw1, wire_image(make_packet(1, 2, 40, 0x01)));
  Bytes garbage = wire_image(make_packet(0, 2, 40, 0x02));
  for (std::size_t i = 0; i < 8; ++i) garbage[i] = std::byte{0xEE};
  write_all_raw(raw0, garbage);
  auto ss = wait_stats(fab, [](const auto& s) { return s.bad_frames >= 1; });
  EXPECT_EQ(ss.bad_frames, 1u);
  EXPECT_EQ(ss.peer_disconnects, 1u);
  EXPECT_EQ(ss.truncated_frames, 0u);

  write_all_raw(raw1, wire_image(make_packet(1, 2, 40, 0x03)));
  ASSERT_TRUE(at2.wait_for_count(2, std::chrono::seconds(10)));
  EXPECT_EQ(at2.got[0].payload, make_payload(40, 0x01));
  EXPECT_EQ(at2.got[1].payload, make_payload(40, 0x03));
  EXPECT_EQ(fab.socket_stats().bad_frames, 1u);

  fab.shutdown();
  ::close(raw0);
  ::close(raw1);
}

TEST(SocketFabric, MisaddressedFrameIsDroppedAloneAndCounted) {
  // A well-framed frame whose dst is not this node (or whose src names
  // no node) is dropped on its own: the stream stays in sync, so the
  // next frame from the same peer is delivered.
  net::Topology topo = net::Topology::two_cluster(2);
  net::FixedLatencyModel model(sim::microseconds(1.0));
  auto [fd_fabric, fd_raw] = make_stream_pair();
  auto epoch = net::SocketFabric::Clock::now();
  net::SocketFabric fab(&topo, &model, net::Chain{}, 1, {fd_fabric, -1},
                        epoch);
  Collector at1;
  fab.set_delivery_handler(1, at1.handler());
  fab.start();

  write_all_raw(fd_raw, wire_image(make_packet(0, 0, 24, 0x10)));   // dst
  write_all_raw(fd_raw, wire_image(make_packet(0, 77, 24, 0x11)));  // dst
  write_all_raw(fd_raw, wire_image(make_packet(-3, 1, 24, 0x12)));  // src
  write_all_raw(fd_raw, wire_image(make_packet(0, 1, 24, 0x13)));
  ASSERT_TRUE(at1.wait_for_count(1, std::chrono::seconds(10)));
  auto ss = wait_stats(fab, [](const auto& s) { return s.bad_frames >= 3; });
  EXPECT_EQ(ss.bad_frames, 3u);
  EXPECT_EQ(ss.peer_disconnects, 0u);
  ASSERT_EQ(at1.got.size(), 1u);
  EXPECT_EQ(at1.got[0].payload, make_payload(24, 0x13));

  fab.shutdown();
  ::close(fd_raw);
}

TEST(SocketFabric, OutOfRangeDeadlineIsDroppedAloneAndCounted) {
  // A header deadline no sender produces (before the epoch, or so far
  // past it that the receiver's clock arithmetic would overflow) is
  // corrupt input: that frame alone is dropped and counted, and the next
  // frame from the same peer is delivered.
  net::Topology topo = net::Topology::two_cluster(2);
  net::FixedLatencyModel model(sim::microseconds(1.0));
  auto [fd_fabric, fd_raw] = make_stream_pair();
  auto epoch = net::SocketFabric::Clock::now();
  net::SocketFabric fab(&topo, &model, net::Chain{}, 1, {fd_fabric, -1},
                        epoch);
  Collector at1;
  fab.set_delivery_handler(1, at1.handler());
  fab.start();

  for (const sim::TimeNs deadline :
       {sim::TimeNs{-1}, FrameDecoder::kMaxDeadline + 1,
        std::numeric_limits<sim::TimeNs>::max()}) {
    Packet p = make_packet(0, 1, 24, 0x20);
    auto header = FrameDecoder::encode_header(p, deadline);
    Bytes wire(header.begin(), header.end());
    wire.insert(wire.end(), p.payload.begin(), p.payload.end());
    write_all_raw(fd_raw, wire);
  }
  write_all_raw(fd_raw, wire_image(make_packet(0, 1, 24, 0x21)));
  ASSERT_TRUE(at1.wait_for_count(1, std::chrono::seconds(10)));
  auto ss = wait_stats(fab, [](const auto& s) { return s.bad_frames >= 3; });
  EXPECT_EQ(ss.bad_frames, 3u);
  EXPECT_EQ(ss.peer_disconnects, 0u);
  ASSERT_EQ(at1.got.size(), 1u);
  EXPECT_EQ(at1.got[0].payload, make_payload(24, 0x21));

  fab.shutdown();
  ::close(fd_raw);
}

TEST(SocketFabric, SendToDownedPeerCountsLinkDownDropsNotCrashes) {
  // Dead peer: the other end of the pair is closed before any traffic.
  // Every send must degrade to a counted drop — no SIGPIPE, no wedge.
  net::Topology topo = net::Topology::two_cluster(2);
  net::FixedLatencyModel model(sim::microseconds(1.0));
  auto [fd_a, fd_b] = make_stream_pair();
  ::close(fd_b);
  auto epoch = net::SocketFabric::Clock::now();
  net::SocketFabric fab(&topo, &model, net::Chain{}, 0, {-1, fd_a}, epoch);
  fab.set_delivery_handler(0, [](Packet&&) {});
  fab.start();

  for (int i = 0; i < 8; ++i) fab.send(make_packet(0, 1, 64, 0x99));
  bool dropped = false;
  for (int i = 0; i < 1000 && !dropped; ++i) {
    dropped = fab.socket_stats().link_down_drops > 0;
    if (!dropped) std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_TRUE(dropped);
  fab.shutdown();
}

}  // namespace
