#pragma once
// Unified observability layer: a registry of named metrics published by
// every subsystem (net devices, fabrics, scheduler, LB database, AMPI)
// under hierarchical dotted names like `net.reliable.retransmits` or
// `rt.sched.queue_depth`.
//
// Producers don't hold metric objects — they register a SourceFn that,
// when the registry is snapshotted, writes the producer's current values
// into a MetricSink. This keeps hot paths free of registry lookups: a
// device bumps its own plain `Counters` struct and only touches the
// sink when someone asks for a Snapshot.
//
// Snapshots are plain value types: diff-able (counters subtract,
// gauges/histograms keep the later observation), comparable (defaulted
// ==, used by the bit-identical-replay tests), and renderable as JSON
// or an aligned text table.

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "util/stats.hpp"

namespace mdo::obs {

/// One observed metric value. A tagged flat struct rather than a variant
/// so Snapshot equality and diff stay trivial.
struct MetricValue {
  enum class Kind : std::uint8_t {
    kCounter,    ///< monotonically increasing count (diff subtracts)
    kGauge,      ///< instantaneous level (diff keeps the later value)
    kHistogram,  ///< summary of a sample: count/mean/min/max
  };

  Kind kind = Kind::kCounter;
  std::uint64_t count = 0;  ///< counter value, or histogram sample count
  double value = 0.0;       ///< gauge level, or histogram mean
  double min = 0.0;         ///< histogram only
  double max = 0.0;         ///< histogram only

  friend bool operator==(const MetricValue&, const MetricValue&) = default;
};

/// Write-side view handed to a SourceFn during snapshot. Prefixes every
/// name with the source's registered prefix ("net.reliable" + "." +
/// "retransmits").
class MetricSink {
 public:
  MetricSink(std::string prefix, std::map<std::string, MetricValue>* out)
      : prefix_(std::move(prefix)), out_(out) {}

  void counter(const std::string& name, std::uint64_t v);
  void gauge(const std::string& name, double v);
  /// Histogram summary from streaming stats (count/mean/min/max).
  void histogram(const std::string& name, const RunningStats& s);

  /// Publish a pre-built value under an already-full name (aggregators
  /// merging foreign snapshots). Still namespaced by the source prefix
  /// when one is set.
  void raw(const std::string& name, const MetricValue& value) {
    (*out_)[full_name(name)] = value;
  }

 private:
  std::string full_name(const std::string& name) const;

  std::string prefix_;
  std::map<std::string, MetricValue>* out_;
};

/// Point-in-time capture of every registered metric, keyed by full
/// hierarchical name. std::map keeps iteration (and thus rendering)
/// deterministically sorted.
struct Snapshot {
  std::map<std::string, MetricValue> values;

  /// Lookup by full name; null when absent.
  const MetricValue* find(const std::string& name) const {
    auto it = values.find(name);
    return it == values.end() ? nullptr : &it->second;
  }
  /// Counter value (or histogram sample count); 0 when absent.
  std::uint64_t counter(const std::string& name) const {
    const MetricValue* m = find(name);
    return m ? m->count : 0;
  }
  /// Gauge level (or histogram mean); 0.0 when absent.
  double gauge(const std::string& name) const {
    const MetricValue* m = find(name);
    return m ? m->value : 0.0;
  }

  /// Interval view: this snapshot relative to an `earlier` one. Counters
  /// subtract (clamped at zero); gauges and histograms keep this
  /// snapshot's observation. Names absent from `earlier` pass through.
  Snapshot diff(const Snapshot& earlier) const;

  /// JSON object keyed by metric name; counters render as integers,
  /// gauges as numbers, histograms as {count, mean, min, max} objects.
  Json to_json() const;

  /// Aligned text table of metrics whose name starts with `prefix`
  /// (empty prefix = all). One row per metric: name, kind, value.
  std::string render_table(const std::string& prefix = "") const;

  friend bool operator==(const Snapshot&, const Snapshot&) = default;
};

/// Registry of metric sources. Owned by the Machine (one per run);
/// fabric-level harnesses that bypass Machine can own their own.
class MetricRegistry {
 public:
  using SourceFn = std::function<void(MetricSink&)>;

  /// Register a producer under `prefix`. The SourceFn must outlive the
  /// registry or be removed with it; sources are invoked in
  /// registration order at every snapshot().
  void add_source(std::string prefix, SourceFn fn);

  Snapshot snapshot() const;

 private:
  std::vector<std::pair<std::string, SourceFn>> sources_;
};

}  // namespace mdo::obs
