// Workload `cmfd_wavefront`: apps::cmfd with a 128x128 lattice in 64
// tiles of 16x16 cells, 2 PEs in 2 clusters, zero link delay, bare chain,
// on Sim, Thread and Process. Four quadrant wavefronts, one reduction and
// one broadcast per outer iteration put cross-PE hops and collectives on
// the critical path with little compute per tile: the step time is set by
// the runtime's per-message cost, not by the kernel.
//
// Every machine runs the same number of iterations (Thread's first epoch
// sets it), so one timed cmfd::sequential_reference serves as both the
// correctness oracle and the single-core baseline.

#include <cmath>
#include <map>

#include "apps/cmfd/cmfd.hpp"
#include "core/sim_machine.hpp"
#include "workloads.hpp"

namespace mdo::bench {
namespace {

using apps::cmfd::CmfdApp;

constexpr std::int32_t kBatchIters = 8;   ///< iterations per run_iters call
constexpr std::int32_t kWarmIters = 20;   ///< untimed; the exact-count phase
constexpr int kSetupReps = 15;
constexpr int kEpochs = 5;  ///< measured set-ups per backend
constexpr int kCollects = 3;

apps::cmfd::Params params() {
  apps::cmfd::Params p;
  p.lattice = 128;
  p.tiles = 64;
  return p;
}

struct Rig {
  std::unique_ptr<core::Runtime> rt;
  std::unique_ptr<CmfdApp> app;
  std::int32_t iters = 0;

  CmfdApp::PhaseResult run_iters(std::int32_t n) {
    Scope span("CmfdApp::run_iters");
    iters += n;
    return guarded(*rt, "CmfdApp::run_iters",
                   [this, n] { return app->run_iters(n); });
  }
};

std::unique_ptr<Rig> build(const Pass& pass, grid::Backend backend,
                           SetupTimes* times) {
  grid::Scenario scenario = grid::Scenario::artificial(2, 0);
  scenario.with_tracing(pass.tracing);
  auto rig = std::make_unique<Rig>();
  const std::int64_t t0 = wall_ns();
  std::unique_ptr<core::Machine> machine;
  {
    Scope span("grid::make_machine");
    machine = grid::make_machine(scenario, backend, wall_options());
  }
  const std::int64_t t1 = wall_ns();
  {
    Scope span("CmfdApp::CmfdApp");
    rig->rt = std::make_unique<core::Runtime>(std::move(machine));
    rig->app = std::make_unique<CmfdApp>(*rig->rt, params());
  }
  const std::int64_t t2 = wall_ns();
  {
    Scope span("first run");
    rig->run_iters(1);
  }
  times->add(t0, t1, t2, wall_ns());
  return rig;
}

/// Report slots the reference predicts: [k_eff per tile | coarse flux per
/// tile], the coarse flux summed in the tile's own row-major order.
std::vector<double> expected_report(const apps::cmfd::Reference& ref) {
  const apps::cmfd::Params p = params();
  const std::int32_t b = p.block();
  const std::int32_t k = p.k();
  std::vector<double> out(static_cast<std::size_t>(2 * p.tiles), ref.k_eff);
  for (std::int32_t ty = 0; ty < k; ++ty) {
    for (std::int32_t tx = 0; tx < k; ++tx) {
      double cphi = 0.0;
      for (std::int32_t i = 0; i < b; ++i) {
        for (std::int32_t j = 0; j < b; ++j) {
          cphi += ref.flux[static_cast<std::size_t>(ty * b + i) * p.lattice +
                           tx * b + j];
        }
      }
      out[static_cast<std::size_t>(p.tiles + ty * k + tx)] = cphi;
    }
  }
  return out;
}

bool matches(const std::vector<double>& got, const std::vector<double>& want,
             bool bitwise) {
  if (got.size() != want.size()) return false;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (bitwise ? got[i] != want[i]
                : !(std::fabs(got[i] - want[i]) <= 1e-12)) {
      return false;
    }
  }
  return true;
}

/// One backend's figures, summed over the measured epochs.
struct Tally {
  grid::Backend backend = grid::Backend::kSim;
  SetupTimes times;
  Delta timed;               ///< registry counters of the timed batches
  sim::TimeNs elapsed = 0;   ///< machine-clock time of the timed batches
  double wall_s = 0.0;       ///< host time of the timed batches
  double iters = 0.0;        ///< iterations in the timed batches
  double events = 0.0;       ///< Sim engine events in the timed batches
  Part step;                 ///< host/wall us per iteration, per batch
  Samples collect_ms;
  std::map<std::string, double> exact;  ///< epoch 0's exact counts
  std::vector<std::vector<double>> reports;  ///< collect() per epoch
  std::vector<std::int32_t> iters_run;       ///< iterations per epoch
};

/// The fixed-count warm phase: exact work counts of this backend.
std::map<std::string, double> warm_phase(Rig& rig, grid::Backend backend,
                                         core::SimMachine* sim_machine) {
  const std::string b = backend_name(backend);
  const obs::Snapshot before = snapshot(*rig.rt);
  const std::uint64_t ev0 =
      sim_machine != nullptr ? sim_machine->engine().events_processed() : 0;
  const CmfdApp::PhaseResult warm = rig.run_iters(kWarmIters);
  const Delta d = delta(*rig.rt, before);
  std::map<std::string, double> exact;
  exact[b + ".msgs_per_iter"] = d.c("rt.sched.msgs_executed") / kWarmIters;
  exact[b + ".wire_frames_per_iter"] = d.c("fabric.wire_frames") / kWarmIters;
  exact[b + ".wan_frames_per_iter"] =
      d.c("fabric.wan_wire_frames") / kWarmIters;
  if (sim_machine != nullptr) {
    exact["sim.step_ms_virtual"] = warm.ms_per_iter;
    exact["sim.events_per_iter"] =
        static_cast<double>(sim_machine->engine().events_processed() - ev0) /
        kWarmIters;
  }
  return exact;
}

}  // namespace

void run_cmfd_wavefront(Pass& pass) {
  time_pup(pass);
  time_chain(pass, grid::Scenario::artificial(2, 0),
             params().edge_bytes() + 64);

  // Thread goes first in every epoch: its first epoch fixes the batch
  // count the others repeat.
  std::vector<Tally> tallies(3);
  tallies[0].backend = grid::Backend::kThread;
  tallies[1].backend = grid::Backend::kProcess;
  tallies[2].backend = grid::Backend::kSim;

  // Set-up-only repetitions, then kEpochs measured ones. Epochs cycle
  // through the backends on fresh machines, so every backend's samples
  // spread over the whole run and one machine at a time holds the host.
  std::int32_t batches = 0;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const int epoch = rep - (kSetupReps - kEpochs);
    for (Tally& t : tallies) {
      Scope span(backend_name(t.backend));
      std::unique_ptr<Rig> rig = build(pass, t.backend, &t.times);
      pass.add_setup(static_cast<std::size_t>(rep), t.times.last_total());
      if (epoch < 0) continue;
      const bool sim = t.backend == grid::Backend::kSim;
      auto* sim_machine =
          sim ? dynamic_cast<core::SimMachine*>(&rig->rt->machine())
              : nullptr;
      std::map<std::string, double> exact =
          warm_phase(*rig, t.backend, sim_machine);
      if (epoch == 0) t.exact = exact;
      pass.checks.expect(exact == t.exact,
                         std::string(backend_name(t.backend)) +
                             ": every epoch repeats the exact counts");

      const obs::Snapshot start = snapshot(*rig->rt);
      const std::uint64_t ev0 =
          sim_machine != nullptr ? sim_machine->engine().events_processed()
                                 : 0;
      const sim::TimeNs m0 = rig->rt->now();
      const std::int64_t w0 = wall_ns();
      const bool timed_by_clock =
          epoch == 0 && t.backend == grid::Backend::kThread;
      Deadline deadline(pass.seconds * 0.25 / kEpochs);
      for (std::int32_t i = 0;
           timed_by_clock ? i == 0 || !deadline.passed() : i < batches;
           ++i) {
        const std::int64_t t0 = wall_ns();
        rig->run_iters(kBatchIters);
        t.step.us.add(static_cast<double>(wall_ns() - t0) / 1e3 /
                      kBatchIters);
        if (timed_by_clock) ++batches;
        pass.host.tick();
      }
      t.wall_s += static_cast<double>(wall_ns() - w0) / 1e9;
      t.elapsed += rig->rt->now() - m0;
      t.timed.add(delta(*rig->rt, start));
      t.iters += static_cast<double>(batches) * kBatchIters;
      if (sim_machine != nullptr) {
        t.events += static_cast<double>(
            sim_machine->engine().events_processed() - ev0);
      }
      std::vector<double> report;
      for (int i = 0; i < kCollects; ++i) {
        Scope span("CmfdApp::collect");
        const std::int64_t t0 = wall_ns();
        report = guarded(*rig->rt, "CmfdApp::collect",
                         [&rig] { return rig->app->collect(); });
        t.collect_ms.add(static_cast<double>(wall_ns() - t0) / 1e6);
      }
      t.reports.push_back(std::move(report));
      t.iters_run.push_back(rig->iters);
      if (pass.tracing && epoch == kEpochs - 1) {
        publish_entry_times(pass, *rig->rt, backend_name(t.backend));
      }
    }
  }

  Report& r = pass.report;
  for (Tally& t : tallies) {
    const std::string b = backend_name(t.backend);
    const bool sim = t.backend == grid::Backend::kSim;
    t.times.publish(r, b);
    for (const auto& [name, v] : t.exact) r.exact(name, v);
    publish_sched(r, b, t.timed, t.iters, t.elapsed, 2);
    r.set(b + ".net.fabric.frames_per_msg",
          t.timed.ratio("fabric.wire_frames", "fabric.packets_sent"), "count");
    r.set(b + ".net.fabric.bytes_per_frame",
          t.timed.ratio("fabric.bytes_sent", "fabric.wire_frames"), "B");
    r.set(b + ".mem.allocs_per_msg",
          t.timed.ratio("mem.allocs", "rt.sched.msgs_executed"), "count");
    r.set(b + ".mem.bytes_per_msg",
          t.timed.ratio("mem.alloc_bytes", "rt.sched.msgs_executed"), "B");
    r.set(b + ".core.collect_ms", t.collect_ms.p50(), "ms",
          "n=" + std::to_string(t.collect_ms.size()));
    Samples ms;
    for (double us : t.step.us.values) ms.add(us / 1e3);
    if (sim) {
      // Sim's host time is reported but stays out of the op_us_* parts:
      // on this workload they gate the wall-clock backends, and Sim's
      // host throughput is gated on stencil_lossy.
      r.timing("sim.step_ms_host", ms, "ms");
      r.set("sim.step_ms_virtual", t.exact["sim.step_ms_virtual"],
            "virtual_ms", "exact; " + std::to_string(kWarmIters) +
                              " iterations");
      r.set("sim.events_per_step", t.events / t.iters, "count");
      r.set("sim.host_ns_per_event", t.wall_s * 1e9 / t.events, "ns");
      r.set("net.fabric.wan_frames_per_step",
            t.exact["sim.wan_frames_per_iter"], "count");
    } else {
      r.timing(b + ".step_ms", ms, "ms");
      t.step.name = b + ".step_us";
      pass.part(t.step.name) = t.step;
    }
  }

  // Oracle and single-core baseline in one: the reference at the
  // iteration count every machine ran.
  const std::int32_t total = tallies.front().iters_run.front();
  apps::cmfd::Reference ref;
  const std::int64_t t0 = wall_ns();
  {
    Scope span("cmfd::sequential_reference");
    ref = apps::cmfd::sequential_reference(params(), total);
  }
  const double serial_ms =
      static_cast<double>(wall_ns() - t0) / 1e6 / total;
  r.set("apps.cmfd.serial_ms_per_step", serial_ms, "ms",
        std::to_string(total) + " iterations, one core");
  r.set("apps.cmfd.overhead_ms_per_step",
        r.get("thread.step_ms_p50") - serial_ms / 2.0, "ms",
        "thread.step_ms_p50 - serial/2");
  const std::vector<double> want = expected_report(ref);
  for (const Tally& t : tallies) {
    const std::string b = backend_name(t.backend);
    for (std::size_t e = 0; e < t.reports.size(); ++e) {
      const bool ok =
          t.iters_run[e] == total &&
          matches(t.reports[e], want,
                  /*bitwise=*/t.backend == grid::Backend::kSim);
      pass.checks.attempt(static_cast<std::uint64_t>(t.iters_run[e]));
      if (!ok) pass.checks.fail(static_cast<std::uint64_t>(t.iters_run[e]));
      pass.checks.expect(
          ok, b + ": CmfdApp::collect() matches cmfd::sequential_reference");
    }
  }
}

}  // namespace mdo::bench
