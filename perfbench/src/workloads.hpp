#pragma once
// The three workloads and the layer probes they share. Each workload
// drives the program only through its public API and fills one Pass.

#include <memory>
#include <string>
#include <type_traits>

#include "common.hpp"
#include "core/runtime.hpp"
#include "grid/scenario.hpp"

namespace mdo::bench {

/// Wall-clock backends run with the modeled compute sleeps off, so they
/// measure the program rather than emulated CPU time.
core::MachineOptions wall_options();

const char* backend_name(grid::Backend backend);

/// Run `call`, a blocking call into `rt` (run(), run_iters, collect...),
/// under the watchdog; throws Hung if the machine had to be stopped.
template <class F>
auto guarded(core::Runtime& rt, const char* what, F&& call) {
  Watchdog::global().arm(&rt, [](void* target) {
    static_cast<core::Runtime*>(target)->stop();
  });
  if constexpr (std::is_void_v<decltype(call())>) {
    call();
    Watchdog::global().disarm(what);
  } else {
    auto result = call();
    Watchdog::global().disarm(what);
    return result;
  }
}

/// Registry snapshot of `rt`'s machine.
obs::Snapshot snapshot(core::Runtime& rt);
Delta delta(core::Runtime& rt, const obs::Snapshot& before);

/// Wall-clock seconds of one set-up, split as the per-layer metrics
/// grid.make_machine_ms / core.create_ms / core.first_run_ms report it.
struct SetupTimes {
  std::vector<double> make_machine_s, create_s, first_run_s;
  void add(std::int64_t t0, std::int64_t t1, std::int64_t t2, std::int64_t t3);
  /// Seconds of the latest set-up, all three phases.
  double last_total() const {
    return make_machine_s.back() + create_s.back() + first_run_s.back();
  }
  /// Medians, published as <prefix>.grid.make_machine_ms etc.
  void publish(Report& report, const std::string& prefix) const;
};

/// Per-MsgKind entry durations from the machine's trace, published as
/// <prefix>.core.entry_us_p50.<kind> / _p90.<kind>, plus
/// <prefix>.obs.trace.dropped.
void publish_entry_times(Pass& pass, core::Runtime& rt,
                         const std::string& prefix);

/// Scheduler ratios over one measured interval: <prefix>.core.sched.
/// msgs_per_op and busy_frac (busy time over pes x the interval, both in
/// the machine's own clock: virtual on Sim, wall on Thread/Process).
void publish_sched(Report& report, const std::string& prefix,
                   const Delta& d, double ops, sim::TimeNs elapsed, int pes);

void run_messaging(Pass& pass);
void run_cmfd_wavefront(Pass& pass);
void run_stencil_lossy(Pass& pass);

/// net.chain.send_ns / recv_ns (per packet) on a loopback of the given
/// scenario's device chain, fed `payload_bytes` packets from node 0 to
/// every other node in turn.
void time_chain(Pass& pass, const grid::Scenario& scenario,
                std::size_t payload_bytes);
/// util.pup.pack_ns / unpack_ns on each workload's payload shape.
void time_pup(Pass& pass);

}  // namespace mdo::bench
