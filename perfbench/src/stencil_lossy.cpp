// Workload `stencil_lossy`: apps::stencil, a 2048x2048 mesh in 1024
// objects on 64 PEs over the real-grid scenario with 1 % seeded wire loss
// and message coalescing, on Sim only. It is the paper's Figure 3 /
// Table 1 application on the full net stack (coalesce, reliable,
// checksum, fault) at the highest event rate: many small ghost messages,
// the ones coalescing bundles, and loss repaired by retransmission. It
// works the net chain and the discrete-event engine, where the other two
// workloads use the bare chain.

#include <map>

#include "apps/stencil/stencil.hpp"
#include "core/sim_machine.hpp"
#include "workloads.hpp"

namespace mdo::bench {
namespace {

using apps::stencil::StencilApp;

constexpr std::int32_t kExactSteps = 20;  ///< the exact-count phase
constexpr std::int32_t kBatchSteps = 4;   ///< steps per run_steps call
constexpr int kSetupReps = 15;
constexpr int kEpochs = 5;  ///< measured set-ups

apps::stencil::Params params() {
  apps::stencil::Params p;
  p.mesh = 2048;
  p.objects = 1024;
  return p;
}

grid::Scenario scenario(std::uint64_t seed, bool tracing) {
  grid::Scenario s = grid::Scenario::real_grid(64);
  s.with_loss(0.01, seed).with_coalescing().with_tracing(tracing);
  return s;
}

struct Rig {
  std::unique_ptr<core::Runtime> rt;
  core::SimMachine* sim = nullptr;
  std::unique_ptr<StencilApp> app;

  StencilApp::PhaseResult run_steps(std::int32_t n) {
    Scope span("StencilApp::run_steps");
    return guarded(*rt, "StencilApp::run_steps",
                   [this, n] { return app->run_steps(n); });
  }
};

std::unique_ptr<Rig> build(std::uint64_t seed, bool tracing,
                           SetupTimes* times) {
  auto rig = std::make_unique<Rig>();
  const std::int64_t t0 = wall_ns();
  std::unique_ptr<core::Machine> machine;
  {
    Scope span("grid::make_machine");
    machine = grid::make_machine(scenario(seed, tracing), grid::Backend::kSim);
  }
  rig->sim = dynamic_cast<core::SimMachine*>(machine.get());
  const std::int64_t t1 = wall_ns();
  {
    Scope span("StencilApp::StencilApp");
    rig->rt = std::make_unique<core::Runtime>(std::move(machine));
    rig->app = std::make_unique<StencilApp>(*rig->rt, params());
  }
  const std::int64_t t2 = wall_ns();
  {
    Scope span("first run");
    rig->run_steps(1);
  }
  if (times != nullptr) times->add(t0, t1, t2, wall_ns());
  return rig;
}

/// The exact-count phase: counts that depend only on the seed.
struct Exact {
  std::map<std::string, double> counts;
  Delta delta;
};

Exact exact_phase(Rig& rig) {
  const obs::Snapshot before = snapshot(*rig.rt);
  const std::uint64_t ev0 = rig.sim->engine().events_processed();
  const StencilApp::PhaseResult phase = rig.run_steps(kExactSteps);
  Exact e;
  e.delta = delta(*rig.rt, before);
  const Delta& d = e.delta;
  e.counts = {
      {"sim.step_ms_virtual", phase.app_ms_per_step},
      {"sim.events_per_step",
       static_cast<double>(rig.sim->engine().events_processed() - ev0) /
           kExactSteps},
      {"sim.msgs_per_step", d.c("rt.sched.msgs_executed") / kExactSteps},
      {"net.wan_frames_per_step", d.c("fabric.wan_wire_frames") / kExactSteps},
      {"net.frames_per_msg",
       d.ratio("fabric.wire_frames", "fabric.packets_sent")},
      {"net.fault.dropped", d.c("net.fault.dropped")},
      {"net.reliable.retransmits", d.c("net.reliable.retransmits")},
      {"net.reliable.duplicates_suppressed",
       d.c("net.reliable.duplicates_suppressed")},
  };
  return e;
}

}  // namespace

void run_stencil_lossy(Pass& pass) {
  const apps::stencil::Params p = params();
  time_pup(pass);
  // A ghost strip of one block edge, plus its envelope and arguments.
  time_chain(pass, scenario(pass.seed, false),
             static_cast<std::size_t>(p.mesh / p.k()) * sizeof(double) + 64);

  // Set-up-only repetitions, then kEpochs measured ones, each on a fresh
  // machine: the exact-count phase (which every epoch must repeat
  // bit-for-bit: the same-seed replay check), then timed batches.
  SetupTimes times;
  Exact first;
  Delta timed;
  Part step{"sim.step_us_host", {}, /*host_cpu=*/true};
  double events = 0.0;
  double wall_s = 0.0;
  double steps = 0.0;
  sim::TimeNs elapsed = 0;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const int epoch = rep - (kSetupReps - kEpochs);
    Scope span("sim");
    std::unique_ptr<Rig> rig = build(pass.seed, pass.tracing, &times);
    pass.add_setup(static_cast<std::size_t>(rep), times.last_total());
    if (epoch < 0) continue;
    const Exact e = exact_phase(*rig);
    if (epoch == 0) first = e;
    pass.checks.expect(e.counts == first.counts,
                       "stencil_lossy: same-seed replay repeats every count");

    const obs::Snapshot start = snapshot(*rig->rt);
    const std::uint64_t ev0 = rig->sim->engine().events_processed();
    const sim::TimeNs v0 = rig->rt->now();
    const std::int64_t w0 = wall_ns();
    std::int64_t epoch_steps = 0;
    Deadline deadline(pass.seconds * 0.85 / kEpochs);
    do {
      const std::int64_t t0 = wall_ns();
      rig->run_steps(kBatchSteps);
      step.us.add(static_cast<double>(wall_ns() - t0) / 1e3 / kBatchSteps);
      epoch_steps += kBatchSteps;
      pass.host.tick();
    } while (!deadline.passed());
    wall_s += static_cast<double>(wall_ns() - w0) / 1e9;
    elapsed += rig->rt->now() - v0;
    events +=
        static_cast<double>(rig->sim->engine().events_processed() - ev0);
    steps += static_cast<double>(epoch_steps);
    timed.add(delta(*rig->rt, start));
    if (pass.tracing && epoch == kEpochs - 1) {
      publish_entry_times(pass, *rig->rt, "sim");
    }

    // Exactly-once under loss, over the machine's whole life.
    const obs::Snapshot total = snapshot(*rig->rt);
    const auto attempted =
        static_cast<std::uint64_t>(epoch_steps + 1 + kExactSteps);
    pass.checks.attempt(attempted);
    const bool abandoned = total.counter("net.reliable.flows_abandoned") != 0;
    const bool lost = total.counter("net.reliable.data_sent") !=
                      total.counter("net.reliable.delivered");
    const bool unbalanced = total.counter("rt.sched.msgs_sent") !=
                            total.counter("rt.sched.msgs_executed");
    if (abandoned || lost || unbalanced) pass.checks.fail(attempted);
    pass.checks.expect(!abandoned,
                       "stencil_lossy: net.reliable.flows_abandoned == 0");
    pass.checks.expect(!lost, "stencil_lossy: data_sent == delivered");
    pass.checks.expect(!unbalanced,
                       "stencil_lossy: rt.sched.msgs_sent == msgs_executed");
  }
  {
    // A different seed must move the loss counters.
    auto other = build(pass.seed ^ 0x5bd1e995u, pass.tracing, nullptr);
    const Exact o = exact_phase(*other);
    pass.checks.expect(
        o.counts.at("net.fault.dropped") !=
                first.counts.at("net.fault.dropped") ||
            o.counts.at("net.reliable.retransmits") !=
                first.counts.at("net.reliable.retransmits"),
        "stencil_lossy: another seed changes the loss counters");
  }

  Report& r = pass.report;
  times.publish(r, "sim");
  for (const auto& [name, v] : first.counts) r.exact(name, v);
  r.set("sim.step_ms_virtual", first.counts.at("sim.step_ms_virtual"),
        "virtual_ms", "exact; " + std::to_string(kExactSteps) + " steps");

  // Wasted work on the exact phase (retransmits, duplicates) and what
  // coalescing saved.
  const Delta& d = first.delta;
  r.set("net.reliable.retx_frac",
        d.ratio("net.reliable.retransmits", "net.reliable.data_sent"),
        "ratio");
  r.set("net.reliable.dup_frac",
        d.ratio("net.reliable.duplicates_suppressed", "net.reliable.delivered"),
        "ratio");
  const obs::MetricValue* rtt = d.snap.find("net.reliable.wan_ack_rtt_ns");
  r.set("net.reliable.wan_rtt_ms", rtt != nullptr ? rtt->value / 1e6 : 0.0,
        "virtual_ms", "mean WAN ack RTT");
  r.set("net.reliable.rto_ms",
        sim::to_ms(scenario(pass.seed, false).reliable.rto_initial),
        "virtual_ms", "configured initial RTO");
  r.set("net.coalesce.bundled_frac",
        d.ratio("net.coalesce.packets_bundled", "net.coalesce.packets_seen"),
        "ratio");
  r.set("net.fabric.wan_frames_per_step",
        first.counts.at("net.wan_frames_per_step"), "count");
  r.set("sim.net.fabric.frames_per_msg", first.counts.at("net.frames_per_msg"),
        "count");
  r.set("sim.net.fabric.bytes_per_frame",
        d.ratio("fabric.bytes_sent", "fabric.wire_frames"), "B");

  // Host time per simulated step.
  pass.part(step.name) = step;
  r.set("sim.events_per_step", events / steps, "count");
  r.set("sim.host_ns_per_event", wall_s * 1e9 / events, "ns");
  publish_sched(r, "sim", timed, steps, elapsed, 64);
  r.set("sim.mem.allocs_per_msg",
        timed.ratio("mem.allocs", "rt.sched.msgs_executed"), "count");
  r.set("sim.mem.bytes_per_msg",
        timed.ratio("mem.alloc_bytes", "rt.sched.msgs_executed"), "B");
  Samples ms;
  for (double us : step.us.values) ms.add(us / 1e3);
  r.timing("sim.step_ms_host", ms, "ms");
}

}  // namespace mdo::bench
