#pragma once
// Shared main() for the google-benchmark micro harnesses. Runs the
// registered benchmarks with the normal console reporter, additionally
// collecting every iteration-level result, and writes the timings as
// BENCH_<name>.json (JsonRecorder shape) into the working directory.
// Right after each benchmark it times a fixed calibration kernel and
// writes that time on the benchmark's row as cal_ns, so the perf gate
// (perf_gate.cpp) can compare real_ns / cal_ns against the checked-in
// baseline under bench/baselines/: a unit that largely cancels the speed
// and load of the host, including load that comes and goes within a
// run. Together they form the `ctest -L perf` regression tier that locks
// in the zero-copy hot path.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"

namespace mdo::bench {

/// Name of the calibration kernel, stamped into each file's config so a
/// baseline recorded with another kernel is recognisably incomparable.
inline constexpr const char* kCalibrationKernel = "hostprobe_heap_sweep";

/// Whether the compiler optimised this harness. The kernel slows down
/// with the benchmarks when optimisation is lost, so the ratio cannot
/// see it; the gate instead refuses to compare files whose builds differ.
#ifdef __OPTIMIZE__
inline constexpr const char* kBuild = "optimized";
#else
inline constexpr const char* kBuild = "unoptimized";
#endif

/// Wall time of one pass of the calibration kernel in ns. The kernel is
/// perfbench's host probe and runs no program code: 4096 pushes and
/// 8000 pop/push pairs on a binary heap of (key, index) pairs, then two
/// smoothing sweeps over a 2^15-double array. It mixes branchy,
/// cache-resident work with a streaming pass, like the benchmarks it
/// calibrates.
inline double calibration_kernel_ns() {
  using Clock = std::chrono::steady_clock;
  const auto start = Clock::now();
  static std::vector<double> sweep(1 << 15, 1.0);
  std::vector<std::pair<std::uint64_t, std::uint32_t>> heap;
  heap.reserve(4096);
  std::uint64_t x = 0x2545f4914f6cdd1dULL;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  for (std::uint32_t i = 0; i < 4096; ++i) {
    heap.emplace_back(next(), i);
    std::push_heap(heap.begin(), heap.end());
  }
  std::uint64_t acc = 0;
  for (int i = 0; i < 8000; ++i) {
    std::pop_heap(heap.begin(), heap.end());
    acc += heap.back().second;
    heap.back().first = next();
    std::push_heap(heap.begin(), heap.end());
  }
  const double bias = static_cast<double>(acc & 7) * 1e-9;
  for (int round = 0; round < 2; ++round) {
    for (std::size_t i = 1; i + 1 < sweep.size(); ++i) {
      sweep[i] = 0.5 * (sweep[i - 1] + sweep[i + 1]) + bias;
    }
  }
  benchmark::DoNotOptimize(sweep.data());
  return std::chrono::duration<double, std::nano>(Clock::now() - start)
      .count();
}

/// The kernel timed the way the gate times a benchmark
/// (--benchmark_min_time=0.05 --benchmark_repetitions=5): the mean pass
/// over a window of at least 50 ms, minimum over 5 windows. A shorter
/// sample would dodge the load that the benchmark's 50 ms repetitions
/// average over, and so miss part of the host's slowdown.
inline constexpr double kCalibrationWindowNs = 50e6;
inline constexpr int kCalibrationWindows = 5;
inline double calibrate_ns() {
  double best = 0.0;
  for (int w = 0; w < kCalibrationWindows; ++w) {
    double total = 0.0;
    int passes = 0;
    while (total < kCalibrationWindowNs) {
      total += calibration_kernel_ns();
      ++passes;
    }
    if (w == 0 || total / passes < best) best = total / passes;
  }
  return best;
}

/// ConsoleReporter subclass that keeps printing the familiar table while
/// capturing per-benchmark adjusted times for the JSON dump.
class CollectingReporter : public benchmark::ConsoleReporter {
 public:
  struct Row {
    std::string name;
    double real_ns = 0.0;  ///< adjusted wall time per iteration
    double cpu_ns = 0.0;
    double cal_ns = 0.0;  ///< calibration kernel, timed right after
    std::int64_t iterations = 0;
  };

  /// Called once with a benchmark's repetitions (and once more with
  /// their aggregates); the kernel is timed once per benchmark, under
  /// the host load the repetitions just ran in.
  void ReportRuns(const std::vector<Run>& runs) override {
    ConsoleReporter::ReportRuns(runs);
    double cal_ns = 0.0;
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      if (cal_ns == 0.0) cal_ns = calibrate_ns();
      Row row;
      row.name = run.benchmark_name();
      row.real_ns = run.GetAdjustedRealTime();
      row.cpu_ns = run.GetAdjustedCPUTime();
      row.cal_ns = cal_ns;
      row.iterations = run.iterations;
      rows_.push_back(std::move(row));
    }
  }

  /// One row per benchmark, keeping the *minimum* time across
  /// repetitions (--benchmark_repetitions=N). The min is the standard
  /// noise-robust estimator for regression gating: scheduler preemption
  /// and cache pollution only ever add time, so the smallest observation
  /// is the closest to the code's true cost.
  std::vector<Row> min_rows() const {
    std::vector<Row> out;
    for (const Row& row : rows_) {
      auto it = std::find_if(out.begin(), out.end(), [&](const Row& r) {
        return r.name == row.name;
      });
      if (it == out.end()) {
        out.push_back(row);
      } else if (row.real_ns < it->real_ns) {
        *it = row;
      }
    }
    return out;
  }

 private:
  std::vector<Row> rows_;
};

/// Drop-in replacement for BENCHMARK_MAIN(): run benchmarks, then write
/// BENCH_<bench_name>.json into the current directory. Returns non-zero
/// when the JSON cannot be written so ctest notices broken perf output.
inline int micro_main(const std::string& bench_name, int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  CollectingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  JsonRecorder recorder(bench_name);
  recorder.config("time_unit", "ns");
  recorder.config("estimator", "min_over_repetitions");
  recorder.config("calibration_kernel", kCalibrationKernel);
  recorder.config("build", kBuild);
  const std::vector<CollectingReporter::Row> rows = reporter.min_rows();
  for (const auto& row : rows) {
    obs::Json r = obs::Json::object();
    r.set("name", row.name);
    r.set("real_ns", row.real_ns);
    r.set("cal_ns", row.cal_ns);
    r.set("cpu_ns", row.cpu_ns);
    r.set("iterations", row.iterations);
    recorder.add_run(std::move(r));
  }
  if (!recorder.write(".")) {
    std::fprintf(stderr, "failed to write %s\n", recorder.path(".").c_str());
    return 1;
  }
  std::printf("wrote %s (%zu benchmarks)\n", recorder.path(".").c_str(),
              rows.size());
  return 0;
}

}  // namespace mdo::bench
