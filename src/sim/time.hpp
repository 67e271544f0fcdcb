#pragma once
// Virtual time is a signed 64-bit nanosecond count. All model constants
// (latencies, bandwidths, compute costs) are expressed through these
// helpers so unit mistakes are grep-able.

#include <cstdint>

namespace mdo::sim {

using TimeNs = std::int64_t;

constexpr TimeNs kNever = INT64_MAX;

constexpr TimeNs nanoseconds(std::int64_t n) { return n; }
constexpr TimeNs microseconds(double us) {
  return static_cast<TimeNs>(us * 1e3);
}
constexpr TimeNs milliseconds(double ms) {
  return static_cast<TimeNs>(ms * 1e6);
}
constexpr TimeNs seconds(double s) { return static_cast<TimeNs>(s * 1e9); }

constexpr double to_ms(TimeNs t) { return static_cast<double>(t) / 1e6; }
constexpr double to_s(TimeNs t) { return static_cast<double>(t) / 1e9; }

}  // namespace mdo::sim
