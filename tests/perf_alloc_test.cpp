// Zero-allocation proofs for the message hot path. This binary links
// mdo_alloc_hook, whose operator new/delete replacement feeds the
// mdo::alloc counters, so AllocationCounter observes every heap
// allocation in the process. The claims locked in here:
//
//   1. A warm local (same-PE) delivery allocates nothing: envelope
//      payloads come from the PayloadBuf rep pool, marshalling buffers
//      from the thread-local scratch arena, scheduler events fit in
//      std::function's inline storage, and every container has reached
//      steady-state capacity.
//   2. A warm device-chain traversal (delay + compression + checksum +
//      crypto) allocates nothing when driven through the out-parameter
//      Chain overloads with arena-backed payloads.
//   3. A warm cross-PE delivery on SimMachine allocates nothing: the
//      frame waits in SimFabric's in-flight slot pool, its arrival event
//      captures only the slot index (inside std::function's inline
//      storage), and the engine recycles its callback slots.
//   4. A warm cross-PE hop on ThreadMachine allocates at most 3 times:
//      buffers that change threads cannot all recycle, but each frame is
//      packed once, at its exact size (core::pack_frame).
//
// Out of scope by design: striping reassembly, which keeps one std::map
// node per partially received message.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/array.hpp"
#include "core/mapping.hpp"
#include "core/runtime.hpp"
#include "core/sim_machine.hpp"
#include "core/thread_machine.hpp"
#include "net/chain.hpp"
#include "net/devices.hpp"
#include "util/alloc_count.hpp"
#include "util/buffer.hpp"

namespace {

using namespace mdo;
using core::Chare;
using core::Index;
using core::Runtime;
using core::SimMachine;

// Pull the counting operator new/delete out of the static archive.
const bool g_hooked = (alloc::link_hook(), true);

struct Chain : Chare {
  std::int64_t received = 0;
  void tick(int hops) {
    ++received;
    if (hops > 0)
      runtime().proxy<Chain>(array_id()).send<&Chain::tick>(index(), hops - 1);
  }
  void pup(Pup& p) override {
    Chare::pup(p);
    p | received;
  }
};

TEST(PerfAlloc, HookIsActive) {
  ASSERT_TRUE(g_hooked);
  ASSERT_TRUE(alloc::hook_active());
  // Sanity: the counters actually move.
  alloc::AllocationCounter counter;
  auto* p = new std::vector<int>(100);
  EXPECT_GE(counter.delta(), 1u);
  delete p;
}

TEST(PerfAlloc, WarmLocalDeliveryIsAllocationFree) {
  net::GridLatencyModel::Config cfg;
  Runtime rt(std::make_unique<SimMachine>(net::Topology::two_cluster(2), cfg));
  auto proxy = rt.create_array<Chain>(
      "chain", core::indices_1d(1), core::block_map_1d(1, 1),
      [](const Index&) { return std::make_unique<Chain>(); });

  // Two warmup passes: the first grows every container (PE queue, engine
  // event queue, outbox, arena, rep pool) to steady-state capacity; the
  // second confirms the shape repeats before we start counting.
  proxy.send<&Chain::tick>(Index(0), 512);
  rt.run();
  proxy.send<&Chain::tick>(Index(0), 512);
  rt.run();

  alloc::AllocationCounter counter;
  proxy.send<&Chain::tick>(Index(0), 512);
  rt.run();
  const std::uint64_t allocs = counter.delta();

  EXPECT_EQ(allocs, 0u) << "warm self-send chain allocated " << allocs
                        << " times over 513 deliveries";
  EXPECT_EQ(proxy.local(Index(0))->received, 3 * 513);
}

struct Pong : Chare {
  std::int64_t received = 0;
  void hit(int hops) {
    ++received;
    if (hops > 0)
      runtime().proxy<Pong>(array_id()).send<&Pong::hit>(
          Index(1 - index().x), hops - 1);
  }
  void pup(Pup& p) override {
    Chare::pup(p);
    p | received;
  }
};

TEST(PerfAlloc, WarmCrossPeSimDeliveryIsAllocationFree) {
  // Two PEs in different clusters, no devices in the chain: every hop
  // crosses SimFabric as a wire frame.
  net::GridLatencyModel::Config cfg;
  Runtime rt(std::make_unique<SimMachine>(net::Topology::two_cluster(2), cfg));
  auto proxy = rt.create_array<Pong>(
      "pong", core::indices_1d(2), core::block_map_1d(2, 2),
      [](const Index&) { return std::make_unique<Pong>(); });
  ASSERT_FALSE(rt.machine().topology().same_cluster(0, 1));

  proxy.send<&Pong::hit>(Index(0), 512);
  rt.run();
  proxy.send<&Pong::hit>(Index(0), 512);
  rt.run();

  alloc::AllocationCounter counter;
  proxy.send<&Pong::hit>(Index(0), 512);
  rt.run();
  const std::uint64_t allocs = counter.delta();

  EXPECT_EQ(allocs, 0u) << "warm cross-PE ping-pong allocated " << allocs
                        << " times over 513 deliveries";
  EXPECT_EQ(proxy.local(Index(0))->received + proxy.local(Index(1))->received,
            3 * 513);
}

TEST(PerfAlloc, WarmCrossPeThreadHopAllocationsArePinned) {
  // The same bare-chain ping-pong on ThreadMachine: each hop crosses
  // ThreadFabric's dispatcher thread, so buffers change threads.
  net::GridLatencyModel::Config cfg;
  Runtime rt(
      std::make_unique<core::ThreadMachine>(net::Topology::two_cluster(2), cfg));
  auto proxy = rt.create_array<Pong>(
      "pong", core::indices_1d(2), core::block_map_1d(2, 2),
      [](const Index&) { return std::make_unique<Pong>(); });
  ASSERT_FALSE(rt.machine().topology().same_cluster(0, 1));

  proxy.send<&Pong::hit>(Index(0), 512);
  rt.run();
  proxy.send<&Pong::hit>(Index(0), 512);
  rt.run();

  alloc::AllocationCounter counter;
  proxy.send<&Pong::hit>(Index(0), 512);
  rt.run();
  const std::uint64_t allocs = counter.delta();

  // Measured: 1538 over the 512 cross-PE hops. Each hop allocates its
  // exact-size frame buffer, and the payload rep and bytes that the
  // dispatcher thread unpacks into (only the workers refill that pool).
  // Packing from the sender's arena instead drains it and regrows an
  // empty vector on every pack: 4610 allocations here.
  const std::uint64_t kAllocsPerHop = 3;
  EXPECT_LE(allocs, kAllocsPerHop * 513)
      << "warm Thread ping-pong allocated " << allocs
      << " times over 513 deliveries";
  EXPECT_EQ(proxy.local(Index(0))->received + proxy.local(Index(1))->received,
            3 * 513);
}

TEST(PerfAlloc, WarmDeviceChainTraversalIsAllocationFree) {
  net::Topology topo = net::Topology::two_cluster(4);
  net::Chain chain;
  chain.add(std::make_unique<net::DelayDevice>(&topo, sim::milliseconds(1)));
  chain.add(std::make_unique<net::CompressionDevice>());
  chain.add(std::make_unique<net::ChecksumDevice>());
  chain.add(std::make_unique<net::CryptoDevice>(0xabc));

  auto roundtrip = [&chain] {
    net::Packet p;
    p.src = 0;
    p.dst = 2;
    p.id = 42;
    p.payload = ScratchArena::local().take();
    p.payload.resize(4096);
    for (std::size_t i = 0; i < p.payload.size(); ++i)
      p.payload[i] = static_cast<std::byte>(i / 64);  // compressible
    net::SendContext ctx;
    static std::vector<net::Packet> wire;  // reused across calls
    chain.apply_send(std::move(p), ctx, wire);
    std::size_t delivered_bytes = 0;
    for (auto& frame : wire) {
      std::optional<net::Packet> out = chain.apply_receive(std::move(frame));
      if (out.has_value()) {
        delivered_bytes += out->payload.size();
        ScratchArena::local().give(std::move(out->payload));
      }
    }
    wire.clear();
    return delivered_bytes;
  };

  // Warm the arena and the wire vector.
  ASSERT_EQ(roundtrip(), 4096u);
  ASSERT_EQ(roundtrip(), 4096u);

  alloc::AllocationCounter counter;
  std::size_t bytes = 0;
  for (int i = 0; i < 64; ++i) bytes += roundtrip();
  const std::uint64_t allocs = counter.delta();

  EXPECT_EQ(allocs, 0u) << "warm chain traversal allocated " << allocs
                        << " times over 64 roundtrips";
  EXPECT_EQ(bytes, 64u * 4096u);
}

}  // namespace
