#include "net/devices.hpp"

#include <bit>
#include <cstring>

#include "util/assert.hpp"
#include "util/rng.hpp"

namespace mdo::net {

// -- FilterDevice defaults -------------------------------------------

void FilterDevice::send_transform(std::vector<Packet>& packets,
                                  SendContext& ctx) {
  for (auto& p : packets) on_send(p, ctx);
}

std::optional<Packet> FilterDevice::receive_transform(Packet packet) {
  on_receive(packet);
  return packet;
}

void FilterDevice::on_send(Packet&, SendContext&) {}
void FilterDevice::on_receive(Packet&) {}

// -- DelayDevice ------------------------------------------------------

DelayDevice::DelayDevice(const Topology* topo, sim::TimeNs cross_cluster_delay)
    : topo_(topo), default_delay_(cross_cluster_delay) {
  MDO_CHECK(topo_ != nullptr);
  MDO_CHECK(cross_cluster_delay >= 0);
}

void DelayDevice::set_pair_delay(NodeId src, NodeId dst, sim::TimeNs delay) {
  MDO_CHECK(delay >= 0);
  pair_delay_[{src, dst}] = delay;
}

void DelayDevice::set_cluster_delay(ClusterId src, ClusterId dst,
                                    sim::TimeNs delay) {
  MDO_CHECK(delay >= 0);
  MDO_CHECK(src != dst);
  cluster_delay_[{src, dst}] = delay;
}

void DelayDevice::on_send(Packet& packet, SendContext& ctx) {
  if (auto it = pair_delay_.find({packet.src, packet.dst});
      it != pair_delay_.end()) {
    ctx.extra_delay += it->second;
    return;
  }
  ClusterId sc = topo_->cluster_of(packet.src);
  ClusterId dc = topo_->cluster_of(packet.dst);
  if (sc == dc) return;
  if (auto it = cluster_delay_.find({sc, dc}); it != cluster_delay_.end()) {
    ctx.extra_delay += it->second;
    return;
  }
  ctx.extra_delay += default_delay_;
}

// -- CompressionDevice --------------------------------------------------

namespace {
constexpr std::byte kStored{0};
constexpr std::byte kRle{1};
}  // namespace

CompressionDevice::CompressionDevice(double cpu_ns_per_byte)
    : cpu_ns_per_byte_(cpu_ns_per_byte) {}

void CompressionDevice::rle_encode_into(std::span<const std::byte> in,
                                        Bytes& out) {
  out.clear();
  out.reserve(in.size() / 2 + 16);
  std::size_t i = 0;
  while (i < in.size()) {
    std::byte value = in[i];
    std::size_t run = 1;
    while (i + run < in.size() && in[i + run] == value && run < 255) ++run;
    out.push_back(static_cast<std::byte>(run));
    out.push_back(value);
    i += run;
  }
}

bool CompressionDevice::rle_decode_into(std::span<const std::byte> in,
                                        Bytes& out) {
  out.clear();
  if (in.size() % 2 != 0) return false;  // truncated (run, value) pair
  out.reserve(in.size());
  for (std::size_t i = 0; i < in.size(); i += 2) {
    auto run = static_cast<std::size_t>(in[i]);
    if (run == 0) return false;  // the encoder never emits empty runs
    out.insert(out.end(), run, in[i + 1]);
  }
  return true;
}

Bytes CompressionDevice::rle_encode(const Bytes& in) {
  Bytes out;
  rle_encode_into(in, out);
  return out;
}

std::optional<Bytes> CompressionDevice::rle_decode(
    std::span<const std::byte> in) {
  Bytes out;
  if (!rle_decode_into(in, out)) return std::nullopt;
  return out;
}

void CompressionDevice::on_send(Packet& packet, SendContext& ctx) {
  ScratchArena& arena = ScratchArena::local();
  if (!encode_enabled_) {
    // Pass-through framing: stored block, no encode attempt, no CPU
    // charge — the adaptive controller's "compression off" state.
    Bytes framed = arena.take();
    framed.reserve(packet.payload.size() + 1);
    framed.push_back(kStored);
    framed.insert(framed.end(), packet.payload.begin(), packet.payload.end());
    arena.give(std::move(packet.payload));
    packet.payload = std::move(framed);
    return;
  }
  ctx.cpu_cost += static_cast<sim::TimeNs>(
      cpu_ns_per_byte_ * static_cast<double>(packet.payload.size()));
  Bytes encoded = arena.take();
  rle_encode_into(packet.payload, encoded);
  Bytes framed = arena.take();
  if (encoded.size() < packet.payload.size()) {
    bytes_saved_ += packet.payload.size() - encoded.size();
    framed.reserve(encoded.size() + 1);
    framed.push_back(kRle);
    framed.insert(framed.end(), encoded.begin(), encoded.end());
  } else {
    framed.reserve(packet.payload.size() + 1);
    framed.push_back(kStored);
    framed.insert(framed.end(), packet.payload.begin(), packet.payload.end());
  }
  arena.give(std::move(encoded));
  arena.give(std::move(packet.payload));
  packet.payload = std::move(framed);
}

std::optional<Packet> CompressionDevice::receive_transform(Packet packet) {
  if (packet.payload.empty()) {
    ++decode_failures_;
    return std::nullopt;
  }
  std::byte tag = packet.payload.front();
  std::span<const std::byte> body{packet.payload.data() + 1,
                                  packet.payload.size() - 1};
  if (tag == kRle) {
    ScratchArena& arena = ScratchArena::local();
    Bytes decoded = arena.take();
    if (!rle_decode_into(body, decoded)) {
      arena.give(std::move(decoded));
      ++decode_failures_;
      return std::nullopt;
    }
    arena.give(std::move(packet.payload));
    packet.payload = std::move(decoded);
  } else if (tag == kStored) {
    // In-place strip of the tag byte; assigning from the vector's own
    // iterators after clear() would read invalidated elements.
    packet.payload.erase(packet.payload.begin());
  } else {
    ++decode_failures_;
    return std::nullopt;
  }
  return packet;
}

// -- ChecksumDevice -----------------------------------------------------

namespace {

// One absorb step: an xor, a multiply by an odd constant and a rotate,
// each a bijection of h, and the xor with the multiply injective in v.
// The rotate feeds the product's high bits back into the low ones, so
// a difference left in bit 63 does not pass through untouched and
// cancel against a second top-bit flip further along the frame.
std::uint64_t absorb(std::uint64_t h, std::uint64_t v) {
  return std::rotl((h ^ v) * 0x9e3779b97f4a7c15ULL, 29);
}

// murmur3's fmix64: a bijective 64-bit avalanche.
std::uint64_t fmix64(std::uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}

}  // namespace

std::uint64_t ChecksumDevice::digest(std::span<const std::byte> data) {
  std::uint64_t h = 0xcbf29ce484222325ULL ^ data.size();
  const std::byte* p = data.data();
  std::size_t n = data.size();
  for (; n >= sizeof(std::uint64_t); n -= sizeof(std::uint64_t)) {
    std::uint64_t w;
    std::memcpy(&w, p, sizeof(w));
    h = absorb(h, w);
    p += sizeof(w);
  }
  for (; n > 0; --n) h = absorb(h, static_cast<std::uint64_t>(*p++));
  return fmix64(h);
}

void ChecksumDevice::on_send(Packet& packet, SendContext&) {
  const std::uint64_t sum = digest(packet.payload);
  const auto* p = reinterpret_cast<const std::byte*>(&sum);
  packet.payload.insert(packet.payload.end(), p, p + sizeof(sum));
}

std::optional<Packet> ChecksumDevice::receive_transform(Packet packet) {
  if (packet.payload.size() < sizeof(std::uint64_t)) {
    if (drop_on_mismatch_) {
      ++corrupt_dropped_;
      return std::nullopt;
    }
    MDO_CHECK_MSG(false, "frame shorter than its checksum");
  }
  std::uint64_t stored;
  std::memcpy(&stored,
              packet.payload.data() + packet.payload.size() - sizeof(stored),
              sizeof(stored));
  std::uint64_t computed =
      digest({packet.payload.data(), packet.payload.size() - sizeof(stored)});
  if (stored != computed) {
    if (drop_on_mismatch_) {
      ++corrupt_dropped_;
      return std::nullopt;
    }
    MDO_CHECK_MSG(false, "checksum mismatch: corrupted frame");
  }
  packet.payload.resize(packet.payload.size() - sizeof(stored));
  ++verified_;
  return packet;
}

// -- CryptoDevice -------------------------------------------------------

void CryptoDevice::apply_keystream(Packet& packet) const {
  SplitMix64 stream(key_ ^ (packet.id * 0x9e3779b97f4a7c15ULL + 1));
  std::size_t i = 0;
  while (i < packet.payload.size()) {
    std::uint64_t word = stream.next_u64();
    for (std::size_t b = 0; b < sizeof(word) && i < packet.payload.size();
         ++b, ++i) {
      packet.payload[i] ^= static_cast<std::byte>((word >> (8 * b)) & 0xff);
    }
  }
}

void CryptoDevice::on_send(Packet& packet, SendContext& ctx) {
  ctx.cpu_cost += static_cast<sim::TimeNs>(packet.payload.size() / 8);
  apply_keystream(packet);
}

void CryptoDevice::on_receive(Packet& packet) { apply_keystream(packet); }

}  // namespace mdo::net
