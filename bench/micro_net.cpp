// Microbenchmarks of the message layer: PUP serialization, device-chain
// transforms (compression, checksum, crypto, striping), and fabric
// delivery through the DES engine.

#include <benchmark/benchmark.h>

#include <cstring>

#include "micro_main.hpp"

#include "net/chain.hpp"
#include "net/devices.hpp"
#include "net/sim_fabric.hpp"
#include "net/striping.hpp"
#include "sim/engine.hpp"
#include "util/pup.hpp"
#include "util/rng.hpp"

namespace {

using namespace mdo;

Bytes random_bytes(std::size_t n, std::uint64_t seed) {
  SplitMix64 rng(seed);
  Bytes out(n);
  for (auto& b : out) b = static_cast<std::byte>(rng.next_u64() & 0xff);
  return out;
}

Bytes compressible_bytes(std::size_t n) {
  Bytes out(n, std::byte{7});
  for (std::size_t i = 0; i < n; i += 64)
    out[i] = (i & 0xff) != 0 ? std::byte{1} : std::byte{2};
  return out;
}

net::Packet make_packet(Bytes payload) {
  net::Packet p;
  p.src = 0;
  p.dst = 2;
  p.id = 42;
  p.payload = std::move(payload);
  return p;
}

void BM_PupPackVector(benchmark::State& state) {
  std::vector<double> v(static_cast<std::size_t>(state.range(0)), 3.14);
  for (auto _ : state) {
    Bytes b = pack_object(v);
    benchmark::DoNotOptimize(b.data());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0) * 8);
}
BENCHMARK(BM_PupPackVector)->Arg(256)->Arg(4096)->Arg(65536);

void BM_PupUnpackVector(benchmark::State& state) {
  std::vector<double> v(static_cast<std::size_t>(state.range(0)), 3.14);
  Bytes b = pack_object(v);
  for (auto _ : state) {
    std::vector<double> out;
    unpack_object(b, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0) * 8);
}
BENCHMARK(BM_PupUnpackVector)->Arg(256)->Arg(4096);

void BM_RleCompress(benchmark::State& state) {
  Bytes in = compressible_bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    Bytes enc = net::CompressionDevice::rle_encode(in);
    benchmark::DoNotOptimize(enc.data());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RleCompress)->Arg(4096)->Arg(65536);

void BM_ChecksumDevice(benchmark::State& state) {
  Bytes in = random_bytes(static_cast<std::size_t>(state.range(0)), 9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::ChecksumDevice::digest(in));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ChecksumDevice)->Arg(4096)->Arg(65536);

void BM_CryptoRoundtrip(benchmark::State& state) {
  net::Chain chain;
  chain.add(std::make_unique<net::CryptoDevice>(0xfeed));
  Bytes in = random_bytes(static_cast<std::size_t>(state.range(0)), 11);
  for (auto _ : state) {
    net::SendContext ctx;
    auto frames = chain.apply_send(make_packet(Bytes(in)), ctx);
    auto out = chain.apply_receive(std::move(frames[0]));
    benchmark::DoNotOptimize(out->payload.data());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0) * 2);
}
BENCHMARK(BM_CryptoRoundtrip)->Arg(4096);

void BM_FullChainRoundtrip(benchmark::State& state) {
  net::Topology topo = net::Topology::two_cluster(4);
  net::Chain chain;
  chain.add(std::make_unique<net::DelayDevice>(&topo, sim::milliseconds(1)));
  chain.add(std::make_unique<net::CompressionDevice>());
  chain.add(std::make_unique<net::StripingDevice>(4, 1024));
  chain.add(std::make_unique<net::ChecksumDevice>());
  chain.add(std::make_unique<net::CryptoDevice>(0xabc));
  Bytes in = compressible_bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    net::SendContext ctx;
    auto frames = chain.apply_send(make_packet(Bytes(in)), ctx);
    for (auto& f : frames) {
      auto out = chain.apply_receive(std::move(f));
      if (out) benchmark::DoNotOptimize(out->payload.data());
    }
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FullChainRoundtrip)->Arg(16384);

void BM_SimFabricDelivery(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine engine;
    net::Topology topo = net::Topology::two_cluster(2);
    net::FixedLatencyModel model(sim::microseconds(5));
    net::SimFabric fabric(&engine, &topo, &model, net::Chain{});
    std::size_t delivered = 0;
    fabric.set_delivery_handler(1, [&](net::Packet&&) { ++delivered; });
    fabric.set_delivery_handler(0, [](net::Packet&&) {});
    for (int i = 0; i < 512; ++i) {
      net::Packet p = make_packet(random_bytes(128, static_cast<std::uint64_t>(i)));
      p.dst = 1;  // two-node fabric
      fabric.send(std::move(p));
    }
    engine.run();
    benchmark::DoNotOptimize(delivered);
  }
  state.SetItemsProcessed(state.iterations() * 512);
}
BENCHMARK(BM_SimFabricDelivery);

}  // namespace

int main(int argc, char** argv) {
  return mdo::bench::micro_main("micro_net", argc, argv);
}
