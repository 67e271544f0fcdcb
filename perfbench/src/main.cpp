// mdo-grid end-to-end benchmark binary. perfbench/run.py builds it
// and is the entry point; see perfbench/README.md.
//
//   mdo_perfbench_untraced --workload W --seed N --seconds S --out FILE
//   mdo_perfbench_traced   --workload W --seed N --seconds S --out FILE
//                          --spans FILE
//
// The untraced binary measures the end-to-end metrics. The traced binary
// (counting allocator linked, machine tracing on, the benchmark's own
// spans recorded) runs the workload twice, untraced then traced, each on
// half the time, and reports the per-layer metrics plus the tracing
// overhead between its two passes. Both print human-readable lines and
// write every metric, exact count and check into FILE; the exit code is
// non-zero when any correctness check failed.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "common.hpp"
#include "obs/json.hpp"
#include "util/alloc_count.hpp"
#include "workloads.hpp"

namespace {

using namespace mdo;
using namespace mdo::bench;

#ifdef MDO_BENCH_TRACED
constexpr bool kTraced = true;
#else
constexpr bool kTraced = false;
#endif

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string out;
  std::string spans;
  std::string git_sha = "unknown";
};

bool parse(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--out") {
      args->out = value;
    } else if (key == "--spans") {
      args->spans = value;
    } else if (key == "--git-sha") {
      args->git_sha = value;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", key.c_str());
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0.0 && !args->out.empty();
}

bool run_workload(const std::string& name, Pass& pass) {
  Scope span(pass.tracing ? "traced pass" : "untraced pass");
  void (*workload)(Pass&) = nullptr;
  if (name == "messaging") {
    workload = run_messaging;
  } else if (name == "cmfd_wavefront") {
    workload = run_cmfd_wavefront;
  } else if (name == "stencil_lossy") {
    workload = run_stencil_lossy;
  } else {
    return false;
  }
  try {
    workload(pass);
  } catch (const Hung& hung) {
    // The program hung; what was measured so far stays, the pass fails.
    pass.checks.attempt(1);
    pass.checks.fail(1);
    pass.checks.expect(false, hung.what());
  }
  return true;
}

/// The end-to-end metrics: set-up time, and geometric means over the
/// workload's timed parts of each part's time per operation. The gated
/// op_us_mean90_at_ref takes each part's mean over its fastest 90 % of
/// operations and rescales host-CPU parts by the host probe; the raw
/// op_us_mean / _p50 / _p90 are printed beside it (see README).
void publish_end_to_end(Pass& pass) {
  const double cal = pass.host.mean_us();
  const double scale = cal > 0.0 ? HostProbe::kReferenceUs / cal : 1.0;
  std::vector<double> gated, mean, p50, p90;
  std::string parts;
  for (const Part& part : pass.parts) {
    gated.push_back(part.us.trimmed_mean(0.9) * (part.host_cpu ? scale : 1.0));
    mean.push_back(part.us.mean());
    p50.push_back(part.us.p50());
    p90.push_back(part.us.p90());
    pass.report.set("part." + part.name + "_mean", mean.back(), "us",
                    "n=" + std::to_string(part.us.size()));
    parts += (parts.empty() ? "" : ", ") + part.name;
  }
  const std::string note = "geomean of " + parts;
  pass.report.set("setup_s", median(pass.setup_s), "s",
                  "median of n=" + std::to_string(pass.setup_s.size()));
  pass.report.set("host.calibration_us", cal, "us",
                  "n=" + std::to_string(pass.host.samples()));
  pass.report.set("op_us_mean90_at_ref", geomean(gated), "us", note);
  pass.report.set("op_us_mean", geomean(mean), "us", note);
  pass.report.set("op_us_p50", geomean(p50), "us", note);
  pass.report.set("op_us_p90", geomean(p90), "us", note);
}

obs::Json env_stamp(const Args& args) {
  obs::Json env = obs::Json::object();
  env.set("nproc", static_cast<std::int64_t>(sysconf(_SC_NPROCESSORS_ONLN)));
  env.set("compiler", MDO_BENCH_COMPILER);
  env.set("build_type", MDO_BENCH_BUILD_TYPE);
  env.set("git_sha", args.git_sha);
  env.set("seed", args.seed);
  env.set("counting_allocator", alloc::hook_active());
  return env;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload W --seed N --seconds S --out FILE "
                 "[--spans FILE] [--git-sha SHA]\n",
                 argv[0]);
    return 2;
  }
  if constexpr (kTraced) alloc::link_hook();
  std::setvbuf(stdout, nullptr, _IOLBF, 0);  // keep lines if a PE aborts

  const obs::Json env = env_stamp(args);
  std::printf("mdo-grid benchmark: workload=%s seed=%llu seconds=%g %s\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              kTraced ? "traced (per-layer)" : "untraced (end-to-end)");
  std::printf("env: %s\n", env.dump().c_str());

  Pass untraced;
  untraced.seed = args.seed;
  untraced.seconds = kTraced ? args.seconds / 2.0 : args.seconds;
  if (!run_workload(args.workload, untraced)) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  publish_end_to_end(untraced);

  Report result;
  Checks& checks = untraced.checks;
  if constexpr (!kTraced) {
    result = untraced.report;
  } else {
    Pass traced;
    traced.seed = args.seed;
    traced.seconds = args.seconds / 2.0;
    traced.tracing = true;
    run_workload(args.workload, traced);
    publish_end_to_end(traced);
    // Per-layer values come from the traced pass, except allocation
    // counts: those are taken on the untraced path.
    result = traced.report;
    for (const auto& [name, m] : untraced.report.metrics()) {
      if (name.find(".mem.") != std::string::npos) {
        result.set(name, m.value, m.unit, m.note);
      }
    }
    for (const char* e2e : {"setup_s", "op_us_mean90_at_ref", "op_us_mean",
                            "op_us_p50", "op_us_p90"}) {
      const double base = untraced.report.get(e2e);
      result.set(std::string("obs.trace.overhead_pct.") + e2e,
                 base > 0.0 ? 100.0 * (traced.report.get(e2e) / base - 1.0)
                            : 0.0,
                 "%", "traced pass vs untraced pass");
    }
    double dropped = 0.0;
    for (const auto& [name, m] : traced.report.metrics()) {
      if (name.ends_with(".obs.trace.dropped")) dropped += m.value;
    }
    result.set("obs.trace.dropped", dropped, "count");
    result.set("mem.hook_active", alloc::hook_active() ? 1.0 : 0.0, "count");
    checks.expect(alloc::hook_active(),
                  "traced run links the counting allocator");
    checks.expect(traced.report.exact_counts() ==
                      untraced.report.exact_counts(),
                  "tracing leaves exact counts and sim.step_ms_virtual "
                  "unchanged");
    checks.attempt(traced.checks.attempted());
    checks.fail(traced.checks.failed());
    for (const std::string& what : traced.checks.broken()) {
      checks.expect(false, "traced pass: " + what);
    }
    result.set("obs.spans", static_cast<double>(Spans::global().size()),
               "count", "written to the spans file");
  }

  result.print(kTraced ? "per-layer metrics (traced run)"
                       : "end-to-end metrics (untraced run)");
  std::printf("-- operations: attempted=%llu failed=%llu\n",
              static_cast<unsigned long long>(checks.attempted()),
              static_cast<unsigned long long>(checks.failed()));
  for (const std::string& what : checks.broken()) {
    std::printf("CHECK FAILED: %s\n", what.c_str());
  }

  obs::Json out = obs::Json::object();
  out.set("workload", args.workload);
  out.set("traced", kTraced);
  out.set("env", env);
  out.set("correct", checks.ok());
  out.set("attempted", checks.attempted());
  out.set("failed", checks.failed());
  obs::Json broken = obs::Json::array();
  for (const std::string& what : checks.broken()) broken.push(what);
  out.set("broken", std::move(broken));
  obs::Json metrics = obs::Json::object();
  for (const auto& [name, m] : result.metrics()) {
    obs::Json entry = obs::Json::object();
    entry.set("value", m.value);
    entry.set("unit", m.unit);
    entry.set("note", m.note);
    metrics.set(name, std::move(entry));
  }
  out.set("metrics", std::move(metrics));
  obs::Json exact = obs::Json::object();
  for (const auto& [name, v] : result.exact_counts()) exact.set(name, v);
  out.set("exact", std::move(exact));
  {
    std::ofstream file(args.out);
    file << out.dump(1) << "\n";
    if (!file) {
      std::fprintf(stderr, "cannot write %s\n", args.out.c_str());
      return 1;
    }
  }
  if (kTraced && !args.spans.empty()) {
    std::ofstream file(args.spans);
    file << Spans::global().to_json();
  }
  return checks.ok() ? 0 : 1;
}
