// Backend parity: one Scenario realized through grid::make_machine must
// behave observably the same on all three backends — the virtual-time
// simulator, the thread-per-PE machine, and the process-per-PE machine
// over Unix-domain sockets. Parity here means the *message-layer*
// observables agree (reduction results, WAN wire-frame counts, executed
// message totals, the trace schema, and the metric key space); wall
// clocks and event interleavings are free to differ.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/array.hpp"
#include "core/mapping.hpp"
#include "core/runtime.hpp"
#include "grid/scenario.hpp"

namespace {

using namespace mdo;
using core::Index;
using core::Runtime;

constexpr grid::Backend kBackends[] = {
    grid::Backend::kSim, grid::Backend::kThread, grid::Backend::kProcess};

const char* backend_name(grid::Backend b) {
  switch (b) {
    case grid::Backend::kSim: return "sim";
    case grid::Backend::kThread: return "thread";
    case grid::Backend::kProcess: return "process";
  }
  return "?";
}

/// Sum-reduction fixture. Contributions are small integers (exact in
/// binary), so the reduced value is independent of combining order and
/// comparable bitwise across backends.
struct Summer : core::Chare {
  core::ReductionClientId client = -1;
  void go() {
    runtime().contribute(*this, {double(index().x + 1)},
                         core::ReduceOp::kSum, client);
  }
  void pup(Pup& p) override { Chare::pup(p); }
};

struct ParityRun {
  double sum = 0.0;
  std::uint64_t wan_wire_frames = 0;
  std::uint64_t msgs_executed = 0;
  std::uint64_t msgs_sent = 0;        ///< rt.sched.msgs_sent
  std::uint64_t msgs_dropped = 0;     ///< rt.sched.msgs_dropped
  std::uint64_t shard_handoffs = 0;   ///< rt.sched.shard.handoffs
  double shards = 0.0;                ///< rt.sched.shard.shards gauge
  std::set<std::string> metric_keys;  ///< rt./mem./trace.-prefixed names
  std::vector<core::TraceEvent> trace;
  int num_pes = 0;
};

/// `rounds` broadcast+reduction round trips over 4 PEs / 2 clusters on
/// the given backend, collecting every parity observable at the end.
ParityRun run_reduction(grid::Backend backend, int rounds) {
  const std::size_t pes = 4;
  grid::Scenario s =
      grid::Scenario::artificial(pes, sim::milliseconds(2.0)).with_tracing();
  core::MachineOptions opts;
  opts.emulate_charge = false;  // wall-clock backends: no modeled sleeps
  Runtime rt(grid::make_machine(s, backend, opts));
  auto proxy = rt.create_array<Summer>(
      "sum", core::indices_1d(pes), core::block_map_1d(pes, pes),
      [](const Index&) { return std::make_unique<Summer>(); });
  double sum = 0.0;
  auto client = proxy.reduction_client(
      [&](const std::vector<double>& d) { sum = d.at(0); });
  for (std::size_t i = 0; i < pes; ++i)
    proxy.local(Index(static_cast<std::int32_t>(i)))->client = client;

  for (int r = 0; r < rounds; ++r) {
    proxy.broadcast<&Summer::go>();
    rt.run();
  }

  ParityRun out;
  out.sum = sum;
  out.num_pes = rt.machine().num_pes();
  out.wan_wire_frames = rt.machine().fabric_stats().wan_wire_frames;
  auto snap = rt.machine().metrics().snapshot();
  out.msgs_executed = snap.counter("rt.sched.msgs_executed");
  out.msgs_sent = snap.counter("rt.sched.msgs_sent");
  out.msgs_dropped = snap.counter("rt.sched.msgs_dropped");
  out.shard_handoffs = snap.counter("rt.sched.shard.handoffs");
  out.shards = snap.gauge("rt.sched.shard.shards");
  for (const auto& [name, value] : snap.values) {
    if (name.rfind("rt.", 0) == 0 || name.rfind("mem.", 0) == 0 ||
        name.rfind("trace.", 0) == 0) {
      out.metric_keys.insert(name);
    }
  }
  out.trace = rt.machine().trace();
  return out;
}

/// Self-sends one message per priority in kPrios and records the order
/// in which they run.
struct Orderer : core::Chare {
  static constexpr core::Priority kPrios[] = {3, -2, 0, -2, 0, 3};
  std::vector<std::int32_t> ran;
  void start() {
    auto self = runtime().proxy<Orderer>(array_id());
    for (std::int32_t i = 0; i < 6; ++i) {
      self.send_prio<&Orderer::note>(kPrios[i], index(), i);
    }
  }
  void note(std::int32_t i) { ran.push_back(i); }
  void pup(Pup& p) override {
    Chare::pup(p);
    p | ran;
  }
};

TEST(BackendParity, PriorityThenFifoOnEveryBackend) {
  // All six self-sends are queued before any runs (the sending entry is
  // still executing), so the PE's run queue alone orders them: most
  // urgent priority first, send order within one.
  for (grid::Backend b : kBackends) {
    core::MachineOptions opts;
    opts.emulate_charge = false;
    Runtime rt(grid::make_machine(
        grid::Scenario::artificial(4, sim::milliseconds(2.0)), b, opts));
    auto proxy = rt.create_array<Orderer>(
        "order", core::indices_1d(1), core::block_map_1d(1, 4),
        [](const Index&) { return std::make_unique<Orderer>(); });
    proxy.send<&Orderer::start>(Index(0));
    rt.run();
    EXPECT_EQ(proxy.local(Index(0))->ran,
              (std::vector<std::int32_t>{1, 3, 2, 4, 0, 5}))
        << backend_name(b);
  }
}

TEST(BackendParity, ReductionValueAgreesEverywhere) {
  for (grid::Backend b : kBackends) {
    ParityRun r = run_reduction(b, 3);
    EXPECT_DOUBLE_EQ(r.sum, 1.0 + 2.0 + 3.0 + 4.0) << backend_name(b);
  }
}

TEST(BackendParity, WanWireFramesAndExecutedCountsAgree) {
  // With no loss, no coalescing, and no reliability stack, every
  // cross-cluster envelope is exactly one WAN wire frame on every
  // backend, and the total executed-message count is a property of the
  // application, not the clock driving it.
  ParityRun ref = run_reduction(grid::Backend::kSim, 4);
  ASSERT_GT(ref.wan_wire_frames, 0u);
  ASSERT_GT(ref.msgs_executed, 0u);
  for (grid::Backend b : {grid::Backend::kThread, grid::Backend::kProcess}) {
    ParityRun r = run_reduction(b, 4);
    EXPECT_EQ(r.wan_wire_frames, ref.wan_wire_frames) << backend_name(b);
    EXPECT_EQ(r.msgs_executed, ref.msgs_executed) << backend_name(b);
  }
}

TEST(BackendParity, SendCountBalancesAfterQuiescence) {
  // Every envelope a backend accepted was executed or dropped by the
  // time run() returns, so the scheduler's send count balances — host
  // sends included (charged to PE 0 on every backend).
  for (grid::Backend b : kBackends) {
    ParityRun r = run_reduction(b, 3);
    ASSERT_GT(r.msgs_executed, 0u) << backend_name(b);
    EXPECT_EQ(r.msgs_sent, r.msgs_executed + r.msgs_dropped)
        << backend_name(b);
  }
}

TEST(BackendParity, TraceSchemaAgrees) {
  // Same TraceEvent schema from every backend: events for every PE,
  // monotone [begin, end] intervals, and real entry ids on kEntry
  // events. Absolute times are backend-local (virtual vs wall) and are
  // not compared.
  for (grid::Backend b : kBackends) {
    ParityRun r = run_reduction(b, 3);
    ASSERT_FALSE(r.trace.empty()) << backend_name(b);
    std::set<core::Pe> pes_seen;
    for (const auto& ev : r.trace) {
      EXPECT_GE(ev.pe, 0) << backend_name(b);
      EXPECT_LT(ev.pe, r.num_pes) << backend_name(b);
      EXPECT_LE(ev.begin, ev.end) << backend_name(b);
      if (ev.kind == core::MsgKind::kEntry) {
        EXPECT_NE(ev.entry, core::kInvalidEntry) << backend_name(b);
      }
      pes_seen.insert(ev.pe);
    }
    EXPECT_EQ(pes_seen.size(), static_cast<std::size_t>(r.num_pes))
        << backend_name(b) << ": every PE must appear in the trace";
  }
}

TEST(BackendParity, ShardedSchedulerKeepsReductionsAndShardSchemaAligned) {
  // The sharded delivery path (per-PE run queues + MPSC handoff rings)
  // must be invisible at the message layer: the reduced value stays
  // bitwise identical, and every backend publishes the same
  // rt.sched.shard.* schema — handoffs/handoff_batches/handoff_fallbacks
  // counters plus a shards gauge equal to the PE count (the process
  // backend sums one single-shard source per forked PE).
  const std::set<std::string> want = {
      "rt.sched.shard.handoff_batches", "rt.sched.shard.handoff_fallbacks",
      "rt.sched.shard.handoffs", "rt.sched.shard.shards"};
  ParityRun ref = run_reduction(grid::Backend::kSim, 3);
  for (grid::Backend b : kBackends) {
    ParityRun r = run_reduction(b, 3);
    EXPECT_DOUBLE_EQ(r.sum, ref.sum) << backend_name(b);
    std::set<std::string> shard_keys;
    for (const auto& key : r.metric_keys) {
      if (key.rfind("rt.sched.shard.", 0) == 0) shard_keys.insert(key);
    }
    EXPECT_EQ(shard_keys, want) << backend_name(b);
    EXPECT_GT(r.shard_handoffs, 0u) << backend_name(b);
    EXPECT_DOUBLE_EQ(r.shards, static_cast<double>(r.num_pes))
        << backend_name(b);
  }
}

TEST(BackendParity, MetricRegistrySourcesPublishTheSameKeys) {
  // The observability contract: rt.sched/rt/mem/trace metric names are
  // identical across backends, so dashboards and the perf gates need no
  // backend-specific key lists. (Process adds fabric.socket.* transport
  // counters on top; the shared prefixes must still match exactly.)
  ParityRun ref = run_reduction(grid::Backend::kSim, 2);
  ASSERT_FALSE(ref.metric_keys.empty());
  for (grid::Backend b : {grid::Backend::kThread, grid::Backend::kProcess}) {
    ParityRun r = run_reduction(b, 2);
    EXPECT_EQ(r.metric_keys, ref.metric_keys) << backend_name(b);
  }
}

}  // namespace

TEST(BackendParity, UnknownEntryIdIsDroppedAndCountedNeverCalled) {
  // An entry id is a hash of a method signature; an envelope naming an id
  // this binary never registered must be dropped where the runtime first
  // reads it — counted in rt.unknown_entry, never called, no abort — and
  // the run must still reach quiescence with the send count balanced.
  // The id travels through the wire image on Process, so cross-PE sends
  // exercise the receiving child's check.
  core::EntryId bogus = 1;
  while (core::Registry::instance().find(bogus) != nullptr) ++bogus;
  for (grid::Backend b : kBackends) {
    const std::size_t pes = 4;
    grid::Scenario s = grid::Scenario::artificial(pes, sim::milliseconds(2.0));
    core::MachineOptions opts;
    opts.emulate_charge = false;
    Runtime rt(grid::make_machine(s, b, opts));
    auto proxy = rt.create_array<Summer>(
        "sum", core::indices_1d(pes), core::block_map_1d(pes, pes),
        [](const Index&) { return std::make_unique<Summer>(); });
    double sum = 0.0;
    auto client = proxy.reduction_client(
        [&](const std::vector<double>& d) { sum = d.at(0); });
    for (std::size_t i = 0; i < pes; ++i)
      proxy.local(Index(static_cast<std::int32_t>(i)))->client = client;

    const std::uint64_t kSends = 2 * pes;
    for (std::uint64_t i = 0; i < kSends; ++i) {
      rt.send_entry(proxy.id(), Index(static_cast<std::int32_t>(i % pes)),
                    bogus, 0, Bytes{});
    }
    rt.broadcast_entry(proxy.id(), bogus, 0, Bytes{});  // dropped at root
    rt.run();
    // Known entries keep working after the drops.
    proxy.broadcast<&Summer::go>();
    rt.run();

    auto snap = rt.machine().metrics().snapshot();
    EXPECT_EQ(snap.counter("rt.unknown_entry"), kSends + 1) << backend_name(b);
    EXPECT_EQ(snap.counter("rt.sched.msgs_sent"),
              snap.counter("rt.sched.msgs_executed") +
                  snap.counter("rt.sched.msgs_dropped"))
        << backend_name(b);
    EXPECT_DOUBLE_EQ(sum, 1.0 + 2.0 + 3.0 + 4.0) << backend_name(b);
  }
}
