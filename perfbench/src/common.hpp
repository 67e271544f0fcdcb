#pragma once
// Shared harness of the end-to-end benchmark: the run context (seed,
// time budget, traced or not), sample statistics, the metric report that
// prints named values and the final one-line JSON result, and the span
// recorder of the traced run.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"

namespace mdo::bench {

/// Host wall clock in nanoseconds (steady).
inline std::int64_t wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Wall-clock budget for one measured part of a workload.
class Deadline {
 public:
  explicit Deadline(double seconds)
      : end_(wall_ns() + static_cast<std::int64_t>(seconds * 1e9)) {}
  bool passed() const { return wall_ns() >= end_; }

 private:
  std::int64_t end_;
};

/// A set of timing samples of one kind (one value per operation or per
/// batch of operations).
struct Samples {
  std::vector<double> values;

  void add(double v) { values.push_back(v); }
  std::size_t size() const { return values.size(); }
  /// Linear-interpolation quantile, q in [0, 1]; 0 when empty.
  double quantile(double q) const;
  double p50() const { return quantile(0.5); }
  double p90() const { return quantile(0.9); }
  double mean() const;
  /// Mean of the fastest `share` of the samples.
  double trimmed_mean(double share) const;
  /// The highest of p90/p99/p99.9 that has at least ten samples beyond
  /// it (p50 below 100 samples); `label` receives "p90" etc.
  double tail(std::string* label) const;
};

double median(std::vector<double> values);
double geomean(const std::vector<double>& values);

/// One timed part of a workload: the samples of its unit operation in
/// microseconds. The end-to-end op_us_* metrics are geometric means over
/// a workload's parts.
struct Part {
  std::string name;  ///< e.g. "thread.hop_us"
  Samples us;
  /// Host CPU time of single-threaded work (Sim): the gated metric
  /// rescales it by the host probe. Wall-clock parts are left as measured.
  bool host_cpu = false;
};

/// Attempted/failed operation accounting plus named correctness checks.
class Checks {
 public:
  void attempt(std::uint64_t n) { attempted_ += n; }
  void fail(std::uint64_t n) { failed_ += n; }
  /// Record a named check; a false result makes the run incorrect.
  void expect(bool ok, const std::string& what);
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  bool ok() const { return failed_ == 0 && broken_.empty(); }
  const std::vector<std::string>& broken() const { return broken_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> broken_;
};

/// Named metric values of one run, printed as aligned lines and
/// serialized into the final JSON line.
class Report {
 public:
  struct Metric {
    double value = 0.0;
    std::string unit;
    std::string note;  ///< sample count / percentile detail, printed only
  };

  void set(const std::string& name, double value, const std::string& unit,
           const std::string& note = "");
  /// Exact per-operation work counts (host-independent; must repeat
  /// bit-for-bit for a given seed).
  void exact(const std::string& name, double value);
  /// Median and tail of `samples`, published as <name>_p50 and
  /// <name>_<tail> with the sample count.
  void timing(const std::string& name, const Samples& samples,
              const std::string& unit);

  double get(const std::string& name) const;
  const std::map<std::string, Metric>& metrics() const { return metrics_; }
  const std::map<std::string, double>& exact_counts() const { return exact_; }

  void print(const std::string& title) const;

 private:
  std::map<std::string, Metric> metrics_;
  std::map<std::string, double> exact_;
};

/// The benchmark's own spans: one per call into a layer's public
/// function, with the span that caused it. Recording is compiled in only
/// in the traced binary; elsewhere begin/end cost nothing.
class Spans {
 public:
  struct Span {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  ///< 0 = root
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  static Spans& global();
  std::uint64_t begin(const char* name, std::uint64_t parent);
  void end(std::uint64_t id);
  /// JSON array of every span, written by main at exit.
  std::string to_json() const;
  std::size_t size() const;

 private:
  mutable std::mutex mutex_;  ///< guards spans_ and open_
  std::vector<Span> spans_;
  std::map<std::uint64_t, std::size_t> open_;
};

/// RAII span. Its parent is the innermost live Scope on the same thread;
/// spans opened on PE worker threads take the host thread's innermost
/// Scope instead.
class Scope {
 public:
  explicit Scope(const char* name);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  std::uint64_t id() const { return id_; }

 private:
  std::uint64_t id_ = 0;
  std::uint64_t saved_parent_ = 0;
};

/// Host-speed probe: a fixed kernel owned by the benchmark (binary-heap
/// operations and an array sweep; no program code), timed at operation
/// boundaries at most every 250 ms. Its mean over a run tracks how fast
/// the shared host ran, so op_us_mean90_at_ref can rescale host-CPU parts
/// to a host on which the kernel takes kReferenceUs.
class HostProbe {
 public:
  static constexpr double kReferenceUs = 1000.0;

  /// Run the kernel if the last sample is more than 250 ms old.
  void tick();
  double mean_us() const { return us_.mean(); }
  std::size_t samples() const { return us_.size(); }

 private:
  std::int64_t next_due_ns_ = 0;
  Samples us_;
};

/// A blocking call into the program that never returned: thrown after
/// the watchdog stopped the machine, it fails the pass.
struct Hung : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Stops a machine whose run() has not returned within kLimitSeconds, so
/// a hung program (a lost wake-up, a wedged socket) fails the run within
/// the benchmark's time limit instead of hanging it. One polling thread;
/// arm/disarm are two atomic stores around each blocking call.
class Watchdog {
 public:
  static constexpr double kLimitSeconds = 20.0;
  using StopFn = void (*)(void*);

  static Watchdog& global();
  ~Watchdog();

  void arm(void* target, StopFn stop);
  /// Ends the guarded call; throws Hung if the watchdog fired during it.
  void disarm(const char* what);

 private:
  Watchdog();
  void loop();

  std::atomic<void*> target_{nullptr};
  std::atomic<StopFn> stop_{nullptr};
  std::atomic<std::int64_t> deadline_ns_{0};
  std::atomic<bool> fired_{false};
  std::atomic<bool> quit_{false};
  std::thread thread_;  ///< last: starts after the members it reads
};

/// One pass of a workload: its inputs and everything it measured.
struct Pass {
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< measurement budget of the whole pass
  bool tracing = false;   ///< Scenario::with_tracing() on every machine
  Report report;
  Checks checks;
  std::deque<Part> parts;  ///< deque: part() references stay valid
  /// Per set-up repetition: set-up seconds summed over the workload's
  /// backends (make_machine + array creation + first run()).
  std::vector<double> setup_s;
  HostProbe host;

  Part& part(const std::string& name);
  /// Add one repetition's set-up time of one backend (rep-indexed).
  void add_setup(std::size_t rep, double seconds);
};

/// Counters of one registry interval, with helpers for ratios.
struct Delta {
  obs::Snapshot snap;
  double c(const std::string& name) const {
    return static_cast<double>(snap.counter(name));
  }
  /// a / b, or 0 when b is 0.
  double ratio(const std::string& a, const std::string& b) const {
    const double den = c(b);
    return den > 0.0 ? c(a) / den : 0.0;
  }
  /// Sum another interval's counters into this one.
  void add(const Delta& other);
};

std::string fmt(double v);

}  // namespace mdo::bench
