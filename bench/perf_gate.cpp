// Perf-regression gate: compares a freshly generated BENCH_<name>.json
// against the checked-in baseline and fails (exit 1) when any benchmark's
// time per iteration regresses beyond the tolerance.
//
//   perf_gate <current.json> <baseline.json> [tolerance]
//
// tolerance is a fraction (default 0.15 = fail above baseline * 1.15);
// the MDO_PERF_TOLERANCE environment variable wins over the positional
// argument, so a dedicated runner can tighten (or a noisy one widen)
// the band without editing the ctest wiring.
// Benchmarks present in the baseline but missing from the current run
// are failures too — a silently dropped benchmark must not pass the
// gate. New benchmarks absent from the baseline are reported but pass.
//
// Units. When both files name a calibration kernel in their config, each
// row carries cal_ns (that kernel timed right after the benchmark in the
// same process, see micro_main.hpp) and the gate compares real_ns /
// cal_ns, so a host that is slower or more loaded than the one that
// recorded the baseline cancels out. Files without one (the
// deterministic sweeps, whose "real_ns" is a frame count or a virtual
// time) compare real_ns directly, as they always have. Files are only
// compared in the same unit: a calibrated file against an uncalibrated
// one, or two files with different kernels or builds (an unoptimised
// build slows the kernel too, so the ratio would hide it), exit 2, as
// does a calibrated file with a row whose cal_ns is missing or not
// positive.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>

#include "obs/json.hpp"

namespace {

using mdo::obs::Json;

std::optional<Json> load(const char* path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::ostringstream ss;
  ss << in.rdbuf();
  return Json::parse(ss.str());
}

/// A BENCH_*.json file: name -> real_ns, and name -> cal_ns when the
/// file is calibrated, plus the unit its rows are compared in.
struct Rows {
  std::map<std::string, double> real_ns;
  std::map<std::string, double> cal_ns;
  std::string unit = "ns";
};

/// Reads the rows of `doc`; a calibrated file must carry a positive
/// cal_ns on every row, else `error` names the row and nullopt returns.
std::optional<Rows> rows(const Json& doc, std::string& error) {
  Rows out;
  const Json* config = doc.find("config");
  const Json* kernel = config ? config->find("calibration_kernel") : nullptr;
  if (kernel) {
    const Json* build = config->find("build");
    out.unit = "real_ns / cal_ns of " + kernel->as_string() + ", " +
               (build ? build->as_string() : std::string("?")) + " build";
  }
  for (const Json& run : doc.at("runs").elements()) {
    const std::string& name = run.at("name").as_string();
    out.real_ns[name] = run.at("real_ns").as_double();
    if (!kernel) continue;
    const Json* cal = run.find("cal_ns");
    if (!cal || cal->as_double() <= 0.0) {
      error = name + " has no positive cal_ns";
      return std::nullopt;
    }
    out.cal_ns[name] = cal->as_double();
  }
  return out;
}

/// Compares every baseline row with the current run, prints one line
/// per row, and returns the number of failures. The unit is real_ns /
/// cal_ns when `calibrated`, else real_ns.
int compare(const Rows& cur, const Rows& base, bool calibrated,
            double tolerance) {
  auto value = [calibrated](const Rows& r, const std::string& name) {
    const double ns = r.real_ns.at(name);
    return calibrated ? ns / r.cal_ns.at(name) : ns;
  };
  auto text = [calibrated](double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, calibrated ? "%.5g" : "%.1f", v);
    return std::string(buf);
  };
  int failures = 0;
  std::printf("%-44s %12s %12s %8s%s\n", "benchmark",
              calibrated ? "baseline_rel" : "baseline_ns",
              calibrated ? "now_rel" : "now_ns", "ratio",
              calibrated ? "  (rel = real_ns / cal_ns)" : "");
  for (const auto& entry : base.real_ns) {
    const std::string& name = entry.first;
    const double was = value(base, name);
    if (cur.real_ns.find(name) == cur.real_ns.end()) {
      std::printf("%-44s %12s %12s %8s  MISSING\n", name.c_str(),
                  text(was).c_str(), "-", "-");
      ++failures;
      continue;
    }
    const double now = value(cur, name);
    const double ratio = was > 0.0 ? now / was : 1.0;
    const bool regressed = ratio > 1.0 + tolerance;
    std::printf("%-44s %12s %12s %8.3f%s\n", name.c_str(), text(was).c_str(),
                text(now).c_str(), ratio, regressed ? "  REGRESSED" : "");
    if (regressed) ++failures;
  }
  for (const auto& entry : cur.real_ns) {
    if (base.real_ns.find(entry.first) == base.real_ns.end()) {
      std::printf("%-44s %12s %12s %8s  (new, no baseline)\n",
                  entry.first.c_str(), "-",
                  text(value(cur, entry.first)).c_str(), "-");
    }
  }
  return failures;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3 || argc > 4) {
    std::fprintf(stderr,
                 "usage: perf_gate <current.json> <baseline.json> "
                 "[tolerance]\n");
    return 2;
  }
  double tolerance = 0.15;
  if (argc == 4) tolerance = std::atof(argv[3]);
  if (const char* env = std::getenv("MDO_PERF_TOLERANCE")) {
    tolerance = std::atof(env);
  }
  if (tolerance <= 0.0) {
    std::fprintf(stderr, "perf_gate: bad tolerance\n");
    return 2;
  }

  std::optional<Json> current = load(argv[1]);
  std::optional<Json> baseline = load(argv[2]);
  if (!current) {
    std::fprintf(stderr, "perf_gate: cannot read/parse %s\n", argv[1]);
    return 2;
  }
  if (!baseline) {
    std::fprintf(stderr, "perf_gate: cannot read/parse %s\n", argv[2]);
    return 2;
  }

  std::string error;
  const std::optional<Rows> cur = rows(*current, error);
  if (!cur) {
    std::fprintf(stderr, "perf_gate: %s: %s\n", argv[1], error.c_str());
    return 2;
  }
  const std::optional<Rows> base = rows(*baseline, error);
  if (!base) {
    std::fprintf(stderr, "perf_gate: %s: %s\n", argv[2], error.c_str());
    return 2;
  }
  if (cur->unit != base->unit) {
    std::fprintf(stderr,
                 "perf_gate: the units differ (%s: %s; %s: %s); re-record "
                 "the baseline with the current harness and build\n",
                 argv[1], cur->unit.c_str(), argv[2], base->unit.c_str());
    return 2;
  }

  const int failures = compare(*cur, *base, cur->unit != "ns", tolerance);
  if (failures > 0) {
    std::printf("perf_gate: %d regression(s) beyond %.0f%% tolerance\n",
                failures, tolerance * 100.0);
    return 1;
  }
  std::printf("perf_gate: OK (tolerance %.0f%%)\n", tolerance * 100.0);
  return 0;
}
