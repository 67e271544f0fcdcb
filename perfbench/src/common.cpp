#include "common.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <thread>

namespace mdo::bench {

double Samples::quantile(double q) const {
  if (values.empty()) return 0.0;
  std::vector<double> v = values;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Samples::mean() const {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double Samples::trimmed_mean(double share) const {
  if (values.empty()) return 0.0;
  std::vector<double> v = values;
  std::sort(v.begin(), v.end());
  const auto keep = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::ceil(share * static_cast<double>(v.size()))));
  double sum = 0.0;
  for (std::size_t i = 0; i < keep; ++i) sum += v[i];
  return sum / static_cast<double>(keep);
}

double Samples::tail(std::string* label) const {
  const auto n = static_cast<double>(values.size());
  const struct {
    double q;
    const char* name;
  } tails[] = {{0.999, "p99.9"}, {0.99, "p99"}, {0.9, "p90"}};
  for (const auto& t : tails) {
    if (n * (1.0 - t.q) >= 10.0) {
      *label = t.name;
      return quantile(t.q);
    }
  }
  *label = "p50";
  return quantile(0.5);
}

double median(std::vector<double> values) {
  Samples s{std::move(values)};
  return s.p50();
}

double geomean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

void Checks::expect(bool ok, const std::string& what) {
  if (!ok) broken_.push_back(what);
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

void Report::set(const std::string& name, double value,
                 const std::string& unit, const std::string& note) {
  metrics_[name] = Metric{value, unit, note};
}

void Report::exact(const std::string& name, double value) {
  exact_[name] = value;
}

void Report::timing(const std::string& name, const Samples& samples,
                    const std::string& unit) {
  std::string tail_label;
  const double tail = samples.tail(&tail_label);
  const std::string n = "n=" + std::to_string(samples.size());
  set(name + "_p50", samples.p50(), unit, n);
  if (tail_label != "p50") set(name + "_" + tail_label, tail, unit, n);
}

double Report::get(const std::string& name) const {
  auto it = metrics_.find(name);
  return it == metrics_.end() ? 0.0 : it->second.value;
}

void Report::print(const std::string& title) const {
  std::printf("-- %s\n", title.c_str());
  for (const auto& [name, m] : metrics_) {
    std::printf("  %-44s %14s %-10s %s\n", name.c_str(), fmt(m.value).c_str(),
                m.unit.c_str(), m.note.c_str());
  }
  if (!exact_.empty()) {
    std::printf("-- exact work counts (repeat bit-for-bit per seed)\n");
    for (const auto& [name, v] : exact_) {
      std::printf("  exact %-38s %.17g\n", name.c_str(), v);
    }
  }
}

void HostProbe::tick() {
  const std::int64_t start = wall_ns();
  if (start < next_due_ns_) return;
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
  const std::int64_t end = wall_ns();
  us_.add(static_cast<double>(end - start) / 1e3);
  next_due_ns_ = end + 250'000'000;
}

Watchdog& Watchdog::global() {
  static Watchdog watchdog;
  return watchdog;
}

Watchdog::Watchdog() : thread_([this] { loop(); }) {}

Watchdog::~Watchdog() {
  quit_.store(true);
  thread_.join();
}

void Watchdog::arm(void* target, StopFn stop) {
  stop_.store(stop);
  deadline_ns_.store(wall_ns() + static_cast<std::int64_t>(kLimitSeconds * 1e9));
  target_.store(target);
}

void Watchdog::disarm(const char* what) {
  target_.store(nullptr);
  if (fired_.exchange(false)) {
    throw Hung(std::string(what) + " did not return within " +
               std::to_string(static_cast<int>(kLimitSeconds)) +
               " s; the machine was stopped");
  }
}

void Watchdog::loop() {
  while (!quit_.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    void* target = target_.load();
    if (target != nullptr && wall_ns() > deadline_ns_.load() &&
        !fired_.exchange(true)) {
      stop_.load()(target);
    }
  }
}

void Delta::add(const Delta& other) {
  for (const auto& [name, v] : other.snap.values) {
    if (v.kind != obs::MetricValue::Kind::kCounter) continue;
    obs::MetricValue& mine = snap.values[name];
    mine.kind = obs::MetricValue::Kind::kCounter;
    mine.count += v.count;
  }
}

Part& Pass::part(const std::string& name) {
  for (Part& p : parts) {
    if (p.name == name) return p;
  }
  parts.push_back(Part{name, {}, false});
  return parts.back();
}

void Pass::add_setup(std::size_t rep, double seconds) {
  if (setup_s.size() <= rep) setup_s.resize(rep + 1, 0.0);
  setup_s[rep] += seconds;
}

// -- spans ----------------------------------------------------------------

namespace {

#ifdef MDO_BENCH_TRACED
constexpr bool kRecordSpans = true;
#else
constexpr bool kRecordSpans = false;
#endif

thread_local std::uint64_t t_current_span = 0;
std::atomic<std::uint64_t> g_host_span{0};
const std::thread::id g_host_thread = std::this_thread::get_id();

bool on_host_thread() { return std::this_thread::get_id() == g_host_thread; }

void json_escape(std::ostringstream& out, const std::string& s) {
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out << '\\';
    out << ch;
  }
}

}  // namespace

Spans& Spans::global() {
  static Spans spans;
  return spans;
}

std::uint64_t Spans::begin(const char* name, std::uint64_t parent) {
  const std::int64_t now = wall_ns();
  std::lock_guard<std::mutex> lock(mutex_);
  const std::uint64_t id = spans_.size() + 1;
  spans_.push_back(Span{id, parent, name, now, 0});
  open_[id] = spans_.size() - 1;
  return id;
}

void Spans::end(std::uint64_t id) {
  const std::int64_t now = wall_ns();
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = open_.find(id);
  if (it == open_.end()) return;
  spans_[it->second].end_ns = now;
  open_.erase(it);
}

std::string Spans::to_json() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ostringstream out;
  out << "[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "\n" : ",\n") << "{\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"name\":\"";
    json_escape(out, s.name);
    out << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << "}";
  }
  out << "\n]\n";
  return out.str();
}

std::size_t Spans::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

Scope::Scope(const char* name) {
  if constexpr (!kRecordSpans) return;
  const bool host = on_host_thread();
  const std::uint64_t parent =
      t_current_span != 0 ? t_current_span
                          : (host ? 0 : g_host_span.load());
  id_ = Spans::global().begin(name, parent);
  saved_parent_ = t_current_span;
  t_current_span = id_;
  if (host) g_host_span.store(id_);
}

Scope::~Scope() {
  if constexpr (!kRecordSpans) return;
  Spans::global().end(id_);
  t_current_span = saved_parent_;
  if (on_host_thread()) g_host_span.store(saved_parent_);
}

}  // namespace mdo::bench
