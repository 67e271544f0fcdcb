#include "core/chain_host.hpp"

#include "net/metrics.hpp"
#include "util/assert.hpp"

namespace mdo::core {

void ChainHost::bind(net::Chain& chain, const net::Topology& topo,
                     obs::MetricRegistry& metrics, const net::Fabric* fabric,
                     std::function<bool()> open) {
  chain_ = &chain;
  topo_ = &topo;
  metrics_ = &metrics;
  fabric_ = fabric;
  open_ = std::move(open);
}

void ChainHost::check_open() const {
  MDO_CHECK_MSG(open(), "devices must be installed before traffic flows "
                        "(ProcessMachine: before the first run() forks)");
}

net::DelayDevice* ChainHost::add_delay_device(sim::TimeNs one_way) {
  check_open();
  return chain_->add(std::make_unique<net::DelayDevice>(topo_, one_way));
}

const net::ReliabilityStack& ChainHost::add_reliability_stack(
    const net::ReliableConfig& reliable, const net::FaultConfig& faults,
    sim::TimeNs cross_cluster_one_way, const net::HeartbeatConfig& heartbeat,
    const net::CoalesceConfig& coalesce,
    const net::CompressionConfig& compression,
    const net::StripingConfig& striping) {
  check_open();
  MDO_CHECK_MSG(!stack_.installed(), "reliability stack already installed");
  stack_ = net::install_reliability_stack(*chain_, topo_, reliable, faults,
                                          cross_cluster_one_way, heartbeat,
                                          coalesce, compression, striping);
  net::register_metrics(*metrics_, stack_);
  net::ReliableDevice* rel = stack_.reliable;
  // The flag is stored before the drain is scheduled, so a sender that
  // read `congested` and parks afterwards flushes itself (ParkingLot::
  // park). The drain hops onto the device's own host — the fabric that
  // currently owns the chain — because the clear fires from inside a
  // heartbeat transition.
  rel->set_on_congestion_change([this, rel](net::NodeId peer, bool congested) {
    const auto dst = static_cast<Pe>(peer);
    parking_->set_congested(dst, congested);
    if (!congested) {
      rel->host()->host_schedule(0, [this, dst] { parking_->flush(dst); });
    }
  });
  return stack_;
}

net::CoalesceDevice* ChainHost::add_coalesce_device(
    const net::CoalesceConfig& config) {
  check_open();
  MDO_CHECK_MSG(coalesce() == nullptr, "coalescing device already installed");
  coalesce_ = chain_->add(std::make_unique<net::CoalesceDevice>(topo_, config));
  net::register_metrics(*metrics_, *coalesce_);
  return coalesce_;
}

net::AdaptiveController* ChainHost::add_adaptive_controller(
    const net::AdaptiveConfig& config) {
  check_open();
  MDO_CHECK_MSG(stack_.installed(),
                "adaptive controller needs a reliability stack (RTT source)");
  MDO_CHECK_MSG(adaptive_ == nullptr, "adaptive controller already installed");
  adaptive_ =
      chain_->add(std::make_unique<net::AdaptiveController>(topo_, config));
  if (fabric_ != nullptr) adaptive_->attach(stack_, *fabric_);
  net::register_metrics(*metrics_, *adaptive_);
  return adaptive_;
}

}  // namespace mdo::core
