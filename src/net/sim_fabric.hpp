#pragma once
// Discrete-event fabric: packets become engine events. Delivery time =
// now + chain extra delay (delay device) + per-frame fault jitter +
// LatencyModel delay evaluated at the instant the packet leaves the
// delay device — matching the VMI chain order of the paper (delay device
// sits above the network device). Implements DeviceHost so protocol
// devices in the chain (the reliability device) can pace retransmission
// timers on virtual time and inject acks/retransmissions mid-chain.
// Frames on the wire wait in a fabric-owned slot pool; the arrival event
// captures only the slot index, so it fits std::function's inline
// storage and a warm wire frame costs no heap allocation.

#include <vector>

#include "net/fabric.hpp"
#include "net/latency_model.hpp"
#include "sim/engine.hpp"
#include "util/slot_pool.hpp"

namespace mdo::net {

class SimFabric final : public Fabric, public DeviceHost {
 public:
  /// All pointers are borrowed and must outlive the fabric. `chain` may
  /// be empty (fast path: no payload transforms).
  SimFabric(sim::Engine* engine, const Topology* topo, LatencyModel* model,
            Chain chain);

  sim::TimeNs send(Packet&& packet) override;
  void set_delivery_handler(NodeId node, DeliverFn handler) override;
  const Topology& topology() const override { return *topo_; }
  void set_node_up_probe(NodeUpProbe probe) override {
    node_up_ = std::move(probe);
  }
  Stats stats() const override { return stats_; }

  Chain& chain() { return chain_; }

  // -- DeviceHost ----------------------------------------------------------
  sim::TimeNs host_now() const override { return engine_->now(); }
  void host_schedule(sim::TimeNs dt, std::function<void()> fn) override {
    engine_->schedule_after(dt, std::move(fn));
  }
  void inject_send(const FilterDevice* from, Packet&& packet) override;
  void inject_receive(const FilterDevice* from, Packet&& packet) override;
  bool host_node_up(NodeId node) const override {
    return !node_up_ || node_up_(node);
  }

 private:
  void transmit(std::vector<Packet>& wire, const SendContext& ctx);
  void send_through(const FilterDevice* below, Packet&& packet,
                    SendContext& ctx);
  void arrive(std::uint32_t slot);
  void deliver(std::optional<Packet>&& complete);

  sim::Engine* engine_;
  const Topology* topo_;
  LatencyModel* model_;
  Chain chain_;
  std::vector<DeliverFn> handlers_;
  /// Reused across sends; guarded against the (rare) re-entrant send from
  /// a chain transform, which falls back to a local vector.
  std::vector<Packet> wire_scratch_;
  bool wire_busy_ = false;
  /// Frames between transmit and arrival, indexed by their event's slot.
  SlotPool<Packet> in_flight_;
  NodeUpProbe node_up_;
  std::uint64_t next_id_ = 1;
  Stats stats_;
};

}  // namespace mdo::net
