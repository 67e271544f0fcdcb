// Workload `messaging`: the per-message path with no application compute,
// on Thread and Process, 2 PEs in two clusters, zero link delay, bare
// chain.
//
//  * closed-loop ping-pong, one message in flight, 64 B and 16 KiB
//    payloads: the run queue stays at depth <= 1;
//  * flood: one entry on PE 0 posts a burst of small messages to a chare
//    on PE 1 and the host waits for quiescence: the run queue runs deep.
//
// Every chare array is created before the first run(): ProcessMachine
// forks at the first run() and cannot create arrays afterwards.

#include <cstring>

#include "core/array.hpp"
#include "core/mapping.hpp"
#include "workloads.hpp"

namespace mdo::bench {
namespace {

using core::Index;

constexpr std::size_t kSmallBytes = 64;
constexpr std::size_t kLargeBytes = 16 * 1024;
constexpr std::int32_t kPingBatch = 200;    ///< round trips per run()
constexpr std::int32_t kFloodBatch = 8192;  ///< messages per burst
constexpr int kSetupReps = 15;
constexpr int kEpochs = 5;  ///< measured set-ups per backend

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Word-wise multiplicative hash of a payload (cheap enough to check every
/// echo without dominating a 16 KiB round trip; it is taken outside the
/// timed interval anyway).
std::uint64_t checksum(const std::vector<std::byte>& payload) {
  std::uint64_t h = 0xcbf29ce484222325ULL ^ payload.size();
  std::size_t i = 0;
  for (; i + 8 <= payload.size(); i += 8) {
    std::uint64_t w;
    std::memcpy(&w, payload.data() + i, 8);
    h = (h ^ w) * 0x100000001b3ULL;
  }
  for (; i < payload.size(); ++i) {
    h = (h ^ static_cast<std::uint64_t>(payload[i])) * 0x100000001b3ULL;
  }
  return h;
}

std::vector<std::byte> make_payload(std::size_t bytes, std::uint64_t seed) {
  std::vector<std::byte> out(bytes);
  std::uint64_t state = seed;
  for (std::size_t i = 0; i < bytes; i += 8) {
    state = splitmix64(state);
    std::memcpy(out.data() + i, &state, std::min<std::size_t>(8, bytes - i));
  }
  return out;
}

/// Flood message value: small integers, so the receiver's double-valued
/// sum stays exact.
std::int32_t flood_value(std::uint64_t seed, std::int32_t i) {
  return static_cast<std::int32_t>(
      splitmix64(seed ^ (static_cast<std::uint64_t>(i) << 20)) & 1023u);
}

/// Element 0 (PE 0) pings element 1 (PE 1), which echoes. Element 0
/// records every round trip and returns the samples through a host
/// reduction.
struct PingPong final : core::Chare {
  core::ReductionClientId client = -1;
  std::int32_t reps_left = 0;
  std::uint64_t expected = 0;
  sim::TimeNs started_at = 0;
  std::vector<double> rtt_ns;
  std::int32_t mismatches = 0;

  void start(std::int32_t reps, std::vector<std::byte> payload) {
    rtt_ns.clear();
    mismatches = 0;
    reps_left = reps;
    expected = checksum(payload);
    started_at = runtime().now();
    peer().send<&PingPong::ping>(Index(1), std::move(payload));
  }

  void ping(std::vector<std::byte> payload) {
    peer().send<&PingPong::pong>(Index(0), std::move(payload));
  }

  void pong(std::vector<std::byte> payload) {
    rtt_ns.push_back(static_cast<double>(runtime().now() - started_at));
    if (checksum(payload) != expected) ++mismatches;
    if (--reps_left > 0) {
      started_at = runtime().now();
      peer().send<&PingPong::ping>(Index(1), std::move(payload));
    }
  }

  /// Slots [0, reps) carry the round-trip samples, then the completed
  /// count and the checksum mismatches; element 1 contributes zeros.
  void report(std::int32_t reps) {
    std::vector<double> slots(static_cast<std::size_t>(reps) + 2, 0.0);
    if (index().x == 0) {
      const std::size_t n = std::min(rtt_ns.size(), slots.size() - 2);
      std::copy_n(rtt_ns.begin(), n, slots.begin());
      slots[slots.size() - 2] = static_cast<double>(rtt_ns.size());
      slots[slots.size() - 1] = mismatches;
    }
    runtime().contribute(*this, std::move(slots), core::ReduceOp::kSum,
                         client);
  }

 private:
  core::ArrayProxy<PingPong> peer() {
    return runtime().proxy<PingPong>(array_id());
  }
};

/// Element 0 (PE 0) posts bursts to element 1 (PE 1), which counts and
/// sums what it receives.
struct Flood final : core::Chare {
  core::ReductionClientId client = -1;
  double received = 0.0;
  double sum = 0.0;
  double post_ns = 0.0;

  void burst(std::int32_t n, std::uint64_t seed) {
    Scope span("ArrayProxy::send (flood burst)");
    auto proxy = runtime().proxy<Flood>(array_id());
    const std::int64_t t0 = wall_ns();
    for (std::int32_t i = 0; i < n; ++i) {
      proxy.send<&Flood::hit>(Index(1), flood_value(seed, i));
    }
    post_ns += static_cast<double>(wall_ns() - t0);
  }

  void hit(std::int32_t value) {
    received += 1.0;
    sum += value;
  }

  /// [received, sum, post_ns], cumulative.
  void report() {
    runtime().contribute(*this, {received, sum, post_ns},
                         core::ReduceOp::kSum, client);
  }
};

struct Rig {
  std::unique_ptr<core::Runtime> rt;
  core::ArrayProxy<PingPong> pp;
  core::ArrayProxy<Flood> flood;
  std::vector<double> result;  ///< last host-reduction result

  void run() {
    Scope span("Runtime::run");
    guarded(*rt, "Runtime::run", [this] { rt->run(); });
  }
};

core::MapFn two_pe_map() {
  return [](const Index& i) { return core::Pe{i.x == 0 ? 0 : 1}; };
}

/// One round of the closed-loop ping-pong: `reps` round trips, then the
/// samples come back through a host reduction.
void pingpong_batch(Pass& pass, Rig& rig, std::int32_t reps,
                    const std::vector<std::byte>& payload, Samples* hop_us) {
  rig.pp.send<&PingPong::start>(Index(0), reps, payload);
  rig.run();
  rig.result.clear();
  rig.pp.broadcast<&PingPong::report>(reps);
  rig.run();
  std::size_t completed = 0;
  std::size_t mismatches = 0;
  if (rig.result.size() == static_cast<std::size_t>(reps) + 2) {
    completed = static_cast<std::size_t>(rig.result[rig.result.size() - 2]);
    mismatches = static_cast<std::size_t>(rig.result.back());
    for (std::size_t i = 0; i < completed && hop_us != nullptr; ++i) {
      hop_us->add(rig.result[i] / 2.0 / 1e3);  // one-way, microseconds
    }
  }
  pass.host.tick();
  pass.checks.attempt(static_cast<std::uint64_t>(reps));
  const std::uint64_t missing =
      static_cast<std::uint64_t>(reps) - std::min<std::uint64_t>(completed, reps);
  pass.checks.fail(missing + mismatches);
}

std::unique_ptr<Rig> build(Pass& pass, grid::Backend backend,
                           SetupTimes* times) {
  grid::Scenario scenario = grid::Scenario::artificial(2, 0);
  scenario.with_tracing(pass.tracing);
  auto rig = std::make_unique<Rig>();
  Rig* raw = rig.get();

  const std::int64_t t0 = wall_ns();
  std::unique_ptr<core::Machine> machine;
  {
    Scope span("grid::make_machine");
    machine = grid::make_machine(scenario, backend, wall_options());
  }
  const std::int64_t t1 = wall_ns();
  {
    Scope span("Runtime::create_array");
    rig->rt = std::make_unique<core::Runtime>(std::move(machine));
    auto indices = core::indices_1d(2);
    rig->pp = rig->rt->create_array<PingPong>(
        "bench_pingpong", indices, two_pe_map(),
        [](const Index&) { return std::make_unique<PingPong>(); });
    rig->flood = rig->rt->create_array<Flood>(
        "bench_flood", indices, two_pe_map(),
        [](const Index&) { return std::make_unique<Flood>(); });
    auto sink = [raw](const std::vector<double>& d) { raw->result = d; };
    const auto pp_client = rig->pp.reduction_client(sink);
    const auto flood_client = rig->flood.reduction_client(sink);
    // Pre-fork: every element still lives in this process.
    for (std::int32_t i = 0; i < 2; ++i) {
      rig->pp.local(Index(i))->client = pp_client;
      rig->flood.local(Index(i))->client = flood_client;
    }
  }
  const std::int64_t t2 = wall_ns();
  {
    Scope span("first run");
    pingpong_batch(pass, *rig, 8, make_payload(kSmallBytes, pass.seed),
                   nullptr);
  }
  const std::int64_t t3 = wall_ns();
  times->add(t0, t1, t2, t3);
  return rig;
}

/// What the measured slices of every epoch add up to.
struct Tally {
  Delta ping;    ///< 64 B ping-pong slices
  Delta flood;   ///< flood slices
  Delta all;     ///< every measured slice
  sim::TimeNs ping_elapsed = 0;
  double round_trips = 0.0;
  double sent = 0.0;
  double post_ns = 0.0;
};

/// One epoch on a fresh machine: 64 B ping-pong, 16 KiB ping-pong, then
/// the flood, each for its share of `budget_s`.
void measure_epoch(Pass& pass, Rig& rig, const std::string& b,
                   double budget_s, Tally* tally) {
  const std::vector<std::byte> small = make_payload(kSmallBytes, pass.seed);
  const std::vector<std::byte> large =
      make_payload(kLargeBytes, pass.seed + 1);
  // Warm both payload paths (arena buffers, socket buffers) untimed.
  pingpong_batch(pass, rig, kPingBatch, small, nullptr);
  pingpong_batch(pass, rig, kPingBatch / 4, large, nullptr);

  const obs::Snapshot start = snapshot(*rig.rt);
  const sim::TimeNs m0 = rig.rt->now();
  Part& hop = pass.part(b + ".hop_us");
  {
    Scope span("ping-pong 64 B");
    Deadline deadline(budget_s * 0.36);
    do {
      pingpong_batch(pass, rig, kPingBatch, small, &hop.us);
      tally->round_trips += kPingBatch;
    } while (!deadline.passed());
  }
  tally->ping.add(delta(*rig.rt, start));
  tally->ping_elapsed += rig.rt->now() - m0;

  Part& hop16k = pass.part(b + ".hop16k_us");
  {
    Scope span("ping-pong 16 KiB");
    Deadline deadline(budget_s * 0.26);
    do {
      pingpong_batch(pass, rig, kPingBatch / 4, large, &hop16k.us);
    } while (!deadline.passed());
  }

  const obs::Snapshot flood_start = snapshot(*rig.rt);
  Part& flood = pass.part(b + ".flood_us_per_msg");
  double sent = 0.0;
  double expected_sum = 0.0;
  std::uint64_t burst = 0;
  {
    Scope span("flood");
    Deadline deadline(budget_s * 0.38);
    do {
      const std::uint64_t seed = pass.seed * 1000003u + burst++;
      for (std::int32_t i = 0; i < kFloodBatch; ++i) {
        expected_sum += flood_value(seed, i);
      }
      const std::int64_t t0 = wall_ns();
      rig.flood.send<&Flood::burst>(Index(0), kFloodBatch, seed);
      rig.run();
      flood.us.add(static_cast<double>(wall_ns() - t0) / 1e3 / kFloodBatch);
      sent += kFloodBatch;
      pass.host.tick();
    } while (!deadline.passed());
  }
  tally->flood.add(delta(*rig.rt, flood_start));
  tally->all.add(delta(*rig.rt, start));

  rig.result.clear();
  rig.flood.broadcast<&Flood::report>();
  rig.run();
  const bool have = rig.result.size() == 3;
  const double received = have ? rig.result[0] : 0.0;
  pass.checks.attempt(static_cast<std::uint64_t>(sent));
  pass.checks.fail(static_cast<std::uint64_t>(
      std::max(0.0, sent - received) + std::max(0.0, received - sent)));
  pass.checks.expect(have && received == sent,
                     b + ": flood receiver executed count == messages posted");
  pass.checks.expect(have && rig.result[1] == expected_sum,
                     b + ": flood payload sum matches");
  tally->sent += sent;
  tally->post_ns += have ? rig.result[2] : 0.0;
}

void publish_backend(Pass& pass, grid::Backend backend,
                     const SetupTimes& times, const Tally& tally) {
  const std::string b = backend_name(backend);
  times.publish(pass.report, b);
  Report& r = pass.report;
  // End-to-end figures of this backend (named as in the issue).
  const Samples& flood = pass.part(b + ".flood_us_per_msg").us;
  r.timing(b + ".hop_us", pass.part(b + ".hop_us").us, "us");
  r.timing(b + ".hop16k_us", pass.part(b + ".hop16k_us").us, "us");
  r.set(b + ".flood_kmsg_s", flood.p50() > 0.0 ? 1e3 / flood.p50() : 0.0,
        "kmsg/s",
        "median over n=" + std::to_string(flood.size()) + " bursts of " +
            std::to_string(kFloodBatch));

  // Per-layer.
  r.set(b + ".core.post_us_per_msg",
        tally.sent > 0 ? tally.post_ns / 1e3 / tally.sent : 0.0, "us");
  publish_sched(r, b, tally.ping, tally.round_trips, tally.ping_elapsed, 2);
  r.set(b + ".core.sched.handoff_fallback_frac",
        tally.flood.ratio("rt.sched.shard.handoff_fallbacks",
                          "rt.sched.shard.handoffs"),
        "ratio");
  const Delta& all = tally.all;
  r.set(b + ".net.fabric.frames_per_msg",
        all.ratio("fabric.wire_frames", "fabric.packets_sent"), "count");
  r.set(b + ".net.fabric.bytes_per_frame",
        all.ratio("fabric.bytes_sent", "fabric.wire_frames"), "B");
  if (backend == grid::Backend::kProcess) {
    r.set("process.net.socket.partial_writes_per_kframe",
          1e3 * all.ratio("fabric.socket.partial_writes", "fabric.wire_frames"),
          "count");
  }
  r.set(b + ".mem.allocs_per_msg",
        all.ratio("mem.allocs", "rt.sched.msgs_executed"), "count");
  r.set(b + ".mem.bytes_per_msg",
        all.ratio("mem.alloc_bytes", "rt.sched.msgs_executed"), "B");
  // Exact: messages executed per 64 B round trip, wire frames per message.
  r.exact(b + ".pingpong.msgs_per_round_trip",
          tally.ping.c("rt.sched.msgs_executed") / tally.round_trips);
  r.exact(b + ".flood.frames_per_msg",
          tally.flood.ratio("fabric.wire_frames", "fabric.packets_sent"));
}

}  // namespace

void run_messaging(Pass& pass) {
  time_pup(pass);
  time_chain(pass, grid::Scenario::artificial(2, 0), kSmallBytes);
  const grid::Backend backends[] = {grid::Backend::kThread,
                                    grid::Backend::kProcess};
  SetupTimes times[2];
  Tally tallies[2];
  // Every repetition times a fresh set-up on each backend; the last
  // kEpochs are also measured, alternating Thread and Process, so each
  // backend's samples spread over the whole run and over several
  // machines (a machine can settle into a slower wake-up mode).
  for (int rep = 0; rep < kSetupReps; ++rep) {
    for (int i = 0; i < 2; ++i) {
      Scope span(backend_name(backends[i]));
      std::unique_ptr<Rig> rig = build(pass, backends[i], &times[i]);
      pass.add_setup(static_cast<std::size_t>(rep), times[i].last_total());
      if (rep < kSetupReps - kEpochs) continue;
      measure_epoch(pass, *rig, backend_name(backends[i]),
                    pass.seconds / 2.0 / kEpochs, &tallies[i]);
      if (pass.tracing && rep == kSetupReps - 1) {
        publish_entry_times(pass, *rig->rt, backend_name(backends[i]));
      }
    }
  }
  for (int i = 0; i < 2; ++i) {
    publish_backend(pass, backends[i], times[i], tallies[i]);
  }
}

}  // namespace mdo::bench
