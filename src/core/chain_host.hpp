#pragma once
// ChainHost: installs a machine's VMI device chain — the artificial delay
// device, the reliability stack, standalone coalescing, and the adaptive
// controller — once for every backend. It owns the "already installed"
// and "too late to install" checks, registers each device's metrics, and
// wires the reliable device's congestion callback into the machine's
// ParkingLot. A backend binds it to its chain and says until when
// installing is allowed; nothing else is backend-specific.

#include <functional>

#include "core/parking_lot.hpp"
#include "net/adaptive.hpp"
#include "net/devices.hpp"
#include "net/reliable.hpp"
#include "obs/metrics.hpp"

namespace mdo::core {

class ChainHost {
 public:
  explicit ChainHost(ParkingLot& parking) : parking_(&parking) {}

  /// Attach to the backend's `chain` (devices go there), its topology and
  /// the registry device metrics publish into. `open()` reports whether
  /// devices may still be installed. `fabric` is what the adaptive
  /// controller attaches to at install time; null defers the attach to
  /// the backend (a forked machine attaches per process).
  void bind(net::Chain& chain, const net::Topology& topo,
            obs::MetricRegistry& metrics, const net::Fabric* fabric,
            std::function<bool()> open);

  /// Whether devices may still be installed (no traffic has flowed yet).
  bool open() const { return open_(); }

  /// The paper's artificial-latency delay device.
  net::DelayDevice* add_delay_device(sim::TimeNs cross_cluster_one_way);

  /// The reliability stack (see net::install_reliability_stack), with
  /// quarantine backpressure parking senders in the machine.
  const net::ReliabilityStack& add_reliability_stack(
      const net::ReliableConfig& reliable, const net::FaultConfig& faults,
      sim::TimeNs cross_cluster_one_way = 0,
      const net::HeartbeatConfig& heartbeat = {},
      const net::CoalesceConfig& coalesce = {},
      const net::CompressionConfig& compression = {},
      const net::StripingConfig& striping = {});

  /// A standalone coalescing device (clean fabric, no reliability
  /// stack). Install before the delay device so bundles pay it once.
  net::CoalesceDevice* add_coalesce_device(const net::CoalesceConfig& config);

  /// The adaptive WAN controller over the installed reliability stack;
  /// it publishes decisions under net.adaptive.*. Arm it per phase with
  /// adaptive()->start(horizon).
  net::AdaptiveController* add_adaptive_controller(
      const net::AdaptiveConfig& config);

  /// Installed pieces; null/empty when not installed.
  const net::ReliabilityStack& reliability() const { return stack_; }
  net::CoalesceDevice* coalesce() const {
    return coalesce_ != nullptr ? coalesce_ : stack_.coalesce;
  }
  net::AdaptiveController* adaptive() const { return adaptive_; }

 private:
  void check_open() const;

  ParkingLot* parking_;
  net::Chain* chain_ = nullptr;
  const net::Topology* topo_ = nullptr;
  obs::MetricRegistry* metrics_ = nullptr;
  const net::Fabric* fabric_ = nullptr;
  std::function<bool()> open_;

  net::ReliabilityStack stack_;
  net::CoalesceDevice* coalesce_ = nullptr;  ///< standalone install only
  net::AdaptiveController* adaptive_ = nullptr;
};

}  // namespace mdo::core
