// Device chain: delay, compression, checksum, crypto, striping.

#include <gtest/gtest.h>

#include <cstring>

#include "net/chain.hpp"
#include "net/devices.hpp"
#include "net/striping.hpp"
#include "net/topology.hpp"
#include "sim/time.hpp"

namespace {

using namespace mdo;
using net::Chain;
using net::ChecksumDevice;
using net::CompressionDevice;
using net::CryptoDevice;
using net::DelayDevice;
using net::Packet;
using net::SendContext;
using net::StripingDevice;
using net::Topology;

Packet make_packet(net::NodeId src, net::NodeId dst, const std::string& body,
                   std::uint64_t id = 1) {
  Packet p;
  p.src = src;
  p.dst = dst;
  p.id = id;
  p.payload.resize(body.size());
  if (!body.empty()) std::memcpy(p.payload.data(), body.data(), body.size());
  return p;
}

std::string body_of(const Packet& p) {
  return std::string(reinterpret_cast<const char*>(p.payload.data()),
                     p.payload.size());
}

/// Push a packet through the full send+receive paths of a chain.
std::vector<Packet> wire_frames(Chain& chain, Packet p, SendContext& ctx) {
  return chain.apply_send(std::move(p), ctx);
}

TEST(DelayDeviceTest, DelaysOnlyCrossCluster) {
  Topology topo = Topology::two_cluster(4);
  Chain chain;
  chain.add(std::make_unique<DelayDevice>(&topo, sim::milliseconds(8)));

  SendContext intra;
  wire_frames(chain, make_packet(0, 1, "x"), intra);
  EXPECT_EQ(intra.extra_delay, 0);

  SendContext inter;
  wire_frames(chain, make_packet(0, 2, "x"), inter);
  EXPECT_EQ(inter.extra_delay, sim::milliseconds(8));
}

TEST(DelayDeviceTest, PairOverrideWins) {
  Topology topo = Topology::two_cluster(4);
  auto delay = std::make_unique<DelayDevice>(&topo, sim::milliseconds(8));
  delay->set_pair_delay(0, 2, sim::milliseconds(32));
  delay->set_pair_delay(1, 0, sim::milliseconds(2));  // even intra-cluster
  Chain chain;
  chain.add(std::move(delay));

  SendContext a;
  wire_frames(chain, make_packet(0, 2, "x"), a);
  EXPECT_EQ(a.extra_delay, sim::milliseconds(32));

  SendContext b;
  wire_frames(chain, make_packet(1, 0, "x"), b);
  EXPECT_EQ(b.extra_delay, sim::milliseconds(2));

  SendContext c;  // other cross-cluster pairs keep the default
  wire_frames(chain, make_packet(1, 3, "x"), c);
  EXPECT_EQ(c.extra_delay, sim::milliseconds(8));
}

TEST(DelayDeviceTest, PairOverrideIsDirectional) {
  // set_pair_delay keys on the ordered (src, dst) pair: overriding A->B
  // must leave B->A on the default rule for its cluster relation.
  Topology topo = Topology::two_cluster(4);
  auto delay = std::make_unique<DelayDevice>(&topo, sim::milliseconds(8));
  delay->set_pair_delay(0, 2, sim::milliseconds(32));
  Chain chain;
  chain.add(std::move(delay));

  SendContext fwd;
  wire_frames(chain, make_packet(0, 2, "x"), fwd);
  EXPECT_EQ(fwd.extra_delay, sim::milliseconds(32));

  SendContext rev;  // reverse direction: still the cross-cluster default
  wire_frames(chain, make_packet(2, 0, "x"), rev);
  EXPECT_EQ(rev.extra_delay, sim::milliseconds(8));
}

TEST(DelayDeviceTest, ZeroPairOverrideBeatsCrossClusterDefault) {
  // An explicit 0 override must win over the nonzero cross-cluster
  // default, not fall through to it.
  Topology topo = Topology::two_cluster(4);
  auto delay = std::make_unique<DelayDevice>(&topo, sim::milliseconds(8));
  delay->set_pair_delay(1, 3, 0);
  Chain chain;
  chain.add(std::move(delay));

  SendContext ctx;
  wire_frames(chain, make_packet(1, 3, "x"), ctx);
  EXPECT_EQ(ctx.extra_delay, 0);

  SendContext other;  // a different cross-cluster pair keeps the default
  wire_frames(chain, make_packet(0, 3, "x"), other);
  EXPECT_EQ(other.extra_delay, sim::milliseconds(8));
}

TEST(CompressionTest, RleRoundtrip) {
  Bytes in;
  for (int i = 0; i < 100; ++i) in.push_back(std::byte{7});
  for (int i = 0; i < 5; ++i) in.push_back(static_cast<std::byte>(i));
  Bytes enc = CompressionDevice::rle_encode(in);
  EXPECT_LT(enc.size(), in.size());
  EXPECT_EQ(CompressionDevice::rle_decode(enc), in);
}

TEST(CompressionTest, RleHandlesLongRuns) {
  Bytes in(1000, std::byte{0});
  Bytes enc = CompressionDevice::rle_encode(in);
  EXPECT_EQ(enc.size(), 8u);  // ceil(1000/255)=4 runs, 2 bytes each
  EXPECT_EQ(CompressionDevice::rle_decode(enc), in);
}

TEST(CompressionTest, DecodeRejectsTruncatedInput) {
  Bytes in(300, std::byte{9});
  Bytes enc = CompressionDevice::rle_encode(in);
  enc.pop_back();  // odd length: a (run, value) pair lost its value byte
  EXPECT_FALSE(CompressionDevice::rle_decode(enc).has_value());
}

TEST(CompressionTest, DecodeRejectsZeroLengthRun) {
  Bytes enc{std::byte{0}, std::byte{42}};  // the encoder never emits run=0
  EXPECT_FALSE(CompressionDevice::rle_decode(enc).has_value());
}

TEST(CompressionTest, ReceiveDropsMalformedFramesInsteadOfCrashing) {
  Chain chain;
  auto* dev = chain.add(std::make_unique<CompressionDevice>());

  // Empty frame, unknown tag, and an RLE body with a zero-length run.
  EXPECT_FALSE(chain.apply_receive(make_packet(0, 1, "")).has_value());
  Packet bad_tag = make_packet(0, 1, "??");
  bad_tag.payload[0] = std::byte{7};
  EXPECT_FALSE(chain.apply_receive(std::move(bad_tag)).has_value());
  Packet bad_run = make_packet(0, 1, "???");
  bad_run.payload[0] = std::byte{1};  // kRle
  bad_run.payload[1] = std::byte{0};  // run length 0
  EXPECT_FALSE(chain.apply_receive(std::move(bad_run)).has_value());
  EXPECT_EQ(dev->decode_failures(), 3u);

  // A well-formed frame still decodes after the malformed ones.
  SendContext ctx;
  std::string body(80, 'm');
  auto frames = wire_frames(chain, make_packet(0, 1, body), ctx);
  auto out = chain.apply_receive(std::move(frames[0]));
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(body_of(*out), body);
}

TEST(CompressionTest, ChainRoundtripCompressible) {
  Chain chain;
  auto* dev = chain.add(std::make_unique<CompressionDevice>());
  std::string body(500, 'z');
  SendContext ctx;
  auto frames = wire_frames(chain, make_packet(0, 1, body), ctx);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_LT(frames[0].payload.size(), body.size());
  EXPECT_GT(dev->bytes_saved(), 0u);
  EXPECT_GT(ctx.cpu_cost, 0);

  auto out = chain.apply_receive(std::move(frames[0]));
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(body_of(*out), body);
}

TEST(CompressionTest, ChainRoundtripIncompressible) {
  Chain chain;
  chain.add(std::make_unique<CompressionDevice>());
  std::string body;
  for (int i = 0; i < 256; ++i) body.push_back(static_cast<char>(i));
  SendContext ctx;
  auto frames = wire_frames(chain, make_packet(0, 1, body), ctx);
  auto out = chain.apply_receive(std::move(frames[0]));
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(body_of(*out), body);
}

TEST(ChecksumTest, RoundtripAndCount) {
  Chain chain;
  auto* dev = chain.add(std::make_unique<ChecksumDevice>());
  SendContext ctx;
  auto frames = wire_frames(chain, make_packet(0, 1, "payload"), ctx);
  EXPECT_EQ(frames[0].payload.size(), 7u + 8u);
  auto out = chain.apply_receive(std::move(frames[0]));
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(body_of(*out), "payload");
  EXPECT_EQ(dev->packets_verified(), 1u);
}

TEST(ChecksumTest, DetectsTamper) {
  Chain chain;
  chain.add(std::make_unique<ChecksumDevice>());
  SendContext ctx;
  auto frames = wire_frames(chain, make_packet(0, 1, "payload"), ctx);
  frames[0].payload[2] ^= std::byte{0xff};
  EXPECT_DEATH(chain.apply_receive(std::move(frames[0])), "checksum mismatch");
}

TEST(ChecksumTest, DropModeDiscardsCorruptFramesSilently) {
  Chain chain;
  auto* dev =
      chain.add(std::make_unique<ChecksumDevice>(/*drop_on_mismatch=*/true));
  SendContext ctx;
  auto frames = wire_frames(chain, make_packet(0, 1, "payload"), ctx);
  frames[0].payload[2] ^= std::byte{0xff};
  EXPECT_FALSE(chain.apply_receive(std::move(frames[0])).has_value());
  EXPECT_EQ(dev->corrupt_dropped(), 1u);
  EXPECT_EQ(dev->packets_verified(), 0u);

  // Too short to even hold a digest: dropped, not aborted.
  EXPECT_FALSE(chain.apply_receive(make_packet(0, 1, "tiny")).has_value());
  EXPECT_EQ(dev->corrupt_dropped(), 2u);

  // An intact frame still verifies.
  SendContext ctx2;
  auto ok = wire_frames(chain, make_packet(0, 1, "payload"), ctx2);
  EXPECT_TRUE(chain.apply_receive(std::move(ok[0])).has_value());
  EXPECT_EQ(dev->packets_verified(), 1u);
}

/// A deterministic, position- and length-dependent payload.
std::string digest_body(std::size_t len) {
  std::string body(len, '\0');
  for (std::size_t i = 0; i < len; ++i)
    body[i] = static_cast<char>(i * 37 + len * 11 + 5);
  return body;
}

TEST(ChecksumTest, DropModeCatchesEverySingleByteFlip) {
  // Each digest step is a bijection of the state and injective in its
  // word (or tail byte), so no flip confined to one byte can survive.
  // Sweep whole words and ragged tails, every byte of the frame (payload
  // and digest), all 255 masks on short frames and a spread beyond.
  Chain chain;
  auto* dev =
      chain.add(std::make_unique<ChecksumDevice>(/*drop_on_mismatch=*/true));
  std::vector<unsigned> all_masks;
  for (unsigned m = 1; m <= 255; ++m) all_masks.push_back(m);
  const std::vector<unsigned> some_masks = {0x01, 0x02, 0x04, 0x08, 0x10,
                                            0x20, 0x40, 0x80, 0xff, 0x81,
                                            0x5a, 0xa5, 0x3c};
  std::uint64_t flips = 0;
  for (std::size_t len = 0; len <= 72; ++len) {
    SendContext ctx;
    auto frames = wire_frames(chain, make_packet(0, 1, digest_body(len)), ctx);
    ASSERT_EQ(frames.size(), 1u);
    ASSERT_EQ(frames[0].payload.size(), len + sizeof(std::uint64_t));
    const auto& masks = len <= 24 ? all_masks : some_masks;
    for (std::size_t pos = 0; pos < frames[0].payload.size(); ++pos) {
      for (unsigned mask : masks) {
        Packet tampered = frames[0];
        tampered.payload[pos] ^= static_cast<std::byte>(mask);
        ASSERT_FALSE(chain.apply_receive(std::move(tampered)).has_value())
            << "len " << len << " byte " << pos << " mask " << mask;
        ++flips;
      }
    }
    ASSERT_TRUE(chain.apply_receive(std::move(frames[0])).has_value());
  }
  EXPECT_EQ(dev->corrupt_dropped(), flips);
  EXPECT_EQ(dev->packets_verified(), 73u);
}

TEST(ChecksumTest, TopBitFlipsInTwoBytesDoNotCancel) {
  // Without the rotate in each step, a difference in bit 63 of the state
  // would pass through every later xor-multiply unchanged, so flipping
  // the top bit of two words' last bytes would cancel. Every pair of
  // 0x80 flips over a 64-byte payload must change the digest.
  Bytes body(64);
  for (std::size_t i = 0; i < body.size(); ++i)
    body[i] = static_cast<std::byte>(i * 13 + 1);
  const std::uint64_t clean = ChecksumDevice::digest(body);
  for (std::size_t a = 0; a < body.size(); ++a) {
    for (std::size_t b = a + 1; b < body.size(); ++b) {
      Bytes flipped = body;
      flipped[a] ^= std::byte{0x80};
      flipped[b] ^= std::byte{0x80};
      ASSERT_NE(ChecksumDevice::digest(flipped), clean)
          << "bytes " << a << " and " << b;
    }
  }
}

TEST(ChecksumTest, AppendingAZeroByteChangesTheDigest) {
  for (std::size_t len = 0; len <= 72; ++len) {
    const std::string body = digest_body(len);
    Bytes shorter(len);
    if (len > 0) std::memcpy(shorter.data(), body.data(), len);
    Bytes longer = shorter;
    longer.push_back(std::byte{0});
    EXPECT_NE(ChecksumDevice::digest(shorter), ChecksumDevice::digest(longer))
        << "len " << len;
  }
}

TEST(CryptoTest, RoundtripAndCiphertextDiffers) {
  Chain chain;
  chain.add(std::make_unique<CryptoDevice>(0xfeedULL));
  std::string body = "attack at dawn, via siteB";
  SendContext ctx;
  auto frames = wire_frames(chain, make_packet(0, 1, body, /*id=*/9), ctx);
  EXPECT_NE(body_of(frames[0]), body);
  auto out = chain.apply_receive(std::move(frames[0]));
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(body_of(*out), body);
}

TEST(CryptoTest, KeystreamVariesPerPacket) {
  Chain chain;
  chain.add(std::make_unique<CryptoDevice>(0xfeedULL));
  SendContext ctx;
  auto f1 = wire_frames(chain, make_packet(0, 1, "same body", 1), ctx);
  auto f2 = wire_frames(chain, make_packet(0, 1, "same body", 2), ctx);
  EXPECT_NE(body_of(f1[0]), body_of(f2[0]));
}

TEST(StripingTest, SmallPacketsPassThrough) {
  Chain chain;
  auto* dev = chain.add(std::make_unique<StripingDevice>(4, 1024));
  SendContext ctx;
  auto frames = wire_frames(chain, make_packet(0, 1, "small"), ctx);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(dev->packets_striped(), 0u);
  auto out = chain.apply_receive(std::move(frames[0]));
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(body_of(*out), "small");
}

TEST(StripingTest, LargePacketSplitsAndReassembles) {
  Chain chain;
  auto* dev = chain.add(std::make_unique<StripingDevice>(4, 100));
  std::string body;
  for (int i = 0; i < 1000; ++i) body.push_back(static_cast<char>('a' + i % 26));
  SendContext ctx;
  auto frames = wire_frames(chain, make_packet(0, 1, body, /*id=*/5), ctx);
  ASSERT_EQ(frames.size(), 4u);
  EXPECT_EQ(dev->packets_striped(), 1u);

  // Deliver out of order; only the last completes.
  std::swap(frames[0], frames[3]);
  for (std::size_t i = 0; i + 1 < frames.size(); ++i) {
    EXPECT_FALSE(chain.apply_receive(std::move(frames[i])).has_value());
  }
  auto out = chain.apply_receive(std::move(frames[3]));
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(body_of(*out), body);
  EXPECT_EQ(dev->pending_reassemblies(), 0u);
}

TEST(StripingTest, InterleavedSendersReassembleIndependently) {
  Chain chain;
  chain.add(std::make_unique<StripingDevice>(2, 10));
  std::string b1(64, 'x'), b2(64, 'y');
  SendContext ctx;
  auto f1 = wire_frames(chain, make_packet(0, 2, b1, 11), ctx);
  auto f2 = wire_frames(chain, make_packet(1, 2, b2, 12), ctx);
  ASSERT_EQ(f1.size(), 2u);
  ASSERT_EQ(f2.size(), 2u);
  EXPECT_FALSE(chain.apply_receive(std::move(f1[0])).has_value());
  EXPECT_FALSE(chain.apply_receive(std::move(f2[1])).has_value());
  auto o2 = chain.apply_receive(std::move(f2[0]));
  ASSERT_TRUE(o2.has_value());
  EXPECT_EQ(body_of(*o2), b2);
  auto o1 = chain.apply_receive(std::move(f1[1]));
  ASSERT_TRUE(o1.has_value());
  EXPECT_EQ(body_of(*o1), b1);
}

TEST(StripingTest, DuplicateFragmentAborts) {
  // The reliability layer below striping guarantees exactly-once frames;
  // a duplicate fragment reaching the reassembler means that invariant
  // broke and must be loud, not a silent overwrite.
  Chain chain;
  chain.add(std::make_unique<StripingDevice>(2, 10));
  SendContext ctx;
  auto frames = wire_frames(chain, make_packet(0, 2, std::string(64, 'd'), 21),
                            ctx);
  ASSERT_EQ(frames.size(), 2u);
  Packet dup = frames[0];
  EXPECT_FALSE(chain.apply_receive(std::move(frames[0])).has_value());
  EXPECT_DEATH(chain.apply_receive(std::move(dup)), "duplicate fragment");
}

TEST(StripingTest, DropSourceSquashesPartialsAndLateFragments) {
  Chain chain;
  auto* dev = chain.add(std::make_unique<StripingDevice>(2, 10));
  std::string b0(64, 'p'), b1(64, 'q');
  SendContext ctx;
  auto f0 = wire_frames(chain, make_packet(0, 2, b0, 31), ctx);
  auto f1 = wire_frames(chain, make_packet(1, 2, b1, 32), ctx);

  // One fragment of each reassembly has arrived when source 0 dies.
  EXPECT_FALSE(chain.apply_receive(std::move(f0[0])).has_value());
  EXPECT_FALSE(chain.apply_receive(std::move(f1[0])).has_value());
  EXPECT_EQ(dev->pending_reassemblies(), 2u);

  dev->drop_source(0);
  EXPECT_EQ(dev->pending_reassemblies(), 1u);  // only source 1 survives
  EXPECT_EQ(dev->fragments_squashed(), 1u);    // the buffered piece

  // Source 0's second fragment was already on the wire: it must be
  // dropped, not resurrect a half-dead reassembly.
  EXPECT_FALSE(chain.apply_receive(std::move(f0[1])).has_value());
  EXPECT_EQ(dev->fragments_squashed(), 2u);
  EXPECT_EQ(dev->pending_reassemblies(), 1u);

  // The untouched source still completes.
  auto out = chain.apply_receive(std::move(f1[1]));
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(body_of(*out), b1);
  EXPECT_EQ(dev->pending_reassemblies(), 0u);
}

TEST(StripingTest, SameOriginalIdFromTwoSourcesStaysSeparate) {
  // Fabric packet ids are only unique per sender; reassembly must key on
  // (source, id), so colliding ids from different sources cannot mix.
  Chain chain;
  chain.add(std::make_unique<StripingDevice>(2, 10));
  std::string b0(64, 'A'), b1(64, 'B');
  SendContext ctx;
  auto f0 = wire_frames(chain, make_packet(0, 2, b0, /*id=*/77), ctx);
  auto f1 = wire_frames(chain, make_packet(1, 2, b1, /*id=*/77), ctx);

  EXPECT_FALSE(chain.apply_receive(std::move(f0[0])).has_value());
  EXPECT_FALSE(chain.apply_receive(std::move(f1[0])).has_value());
  auto o1 = chain.apply_receive(std::move(f1[1]));
  ASSERT_TRUE(o1.has_value());
  EXPECT_EQ(body_of(*o1), b1);
  auto o0 = chain.apply_receive(std::move(f0[1]));
  ASSERT_TRUE(o0.has_value());
  EXPECT_EQ(body_of(*o0), b0);
}

TEST(StripingTest, PendingReassembliesTracksInFlightAndCleansUp) {
  Chain chain;
  auto* dev = chain.add(std::make_unique<StripingDevice>(4, 16));
  std::string b0(120, 'x'), b1(120, 'y');
  SendContext ctx;
  auto f0 = wire_frames(chain, make_packet(0, 2, b0, 41), ctx);
  auto f1 = wire_frames(chain, make_packet(0, 2, b1, 42), ctx);
  ASSERT_EQ(f0.size(), 4u);
  ASSERT_EQ(f1.size(), 4u);
  EXPECT_EQ(dev->pending_reassemblies(), 0u);

  // Interleave the two reassemblies from the same source.
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_FALSE(chain.apply_receive(std::move(f0[i])).has_value());
    EXPECT_FALSE(chain.apply_receive(std::move(f1[i])).has_value());
  }
  EXPECT_EQ(dev->pending_reassemblies(), 2u);

  auto o0 = chain.apply_receive(std::move(f0[3]));
  ASSERT_TRUE(o0.has_value());
  EXPECT_EQ(body_of(*o0), b0);
  EXPECT_EQ(dev->pending_reassemblies(), 1u);

  auto o1 = chain.apply_receive(std::move(f1[3]));
  ASSERT_TRUE(o1.has_value());
  EXPECT_EQ(body_of(*o1), b1);
  EXPECT_EQ(dev->pending_reassemblies(), 0u);
}

TEST(ComposedChainTest, FullStackRoundtrip) {
  // delay -> compress -> stripe -> checksum (per fragment) -> crypto.
  Topology topo = Topology::two_cluster(4);
  Chain chain;
  chain.add(std::make_unique<DelayDevice>(&topo, sim::milliseconds(4)));
  chain.add(std::make_unique<CompressionDevice>());
  chain.add(std::make_unique<StripingDevice>(3, 50));
  chain.add(std::make_unique<ChecksumDevice>());
  chain.add(std::make_unique<CryptoDevice>(0xabcdULL));

  std::string body(400, 'Q');
  body += "trailer-entropy-0123456789";
  SendContext ctx;
  auto frames = wire_frames(chain, make_packet(0, 2, body, 77), ctx);
  EXPECT_EQ(ctx.extra_delay, sim::milliseconds(4));

  std::optional<Packet> out;
  for (auto& f : frames) {
    auto r = chain.apply_receive(std::move(f));
    if (r.has_value()) {
      EXPECT_FALSE(out.has_value());
      out = std::move(r);
    }
  }
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(body_of(*out), body);
}

}  // namespace
