#include "net/sim_fabric.hpp"

#include "util/assert.hpp"

namespace mdo::net {

SimFabric::SimFabric(sim::Engine* engine, const Topology* topo,
                     LatencyModel* model, Chain chain)
    : engine_(engine), topo_(topo), model_(model), chain_(std::move(chain)) {
  MDO_CHECK(engine_ != nullptr && topo_ != nullptr && model_ != nullptr);
  chain_.set_host(this);
  handlers_.resize(topo_->num_nodes());
}

void SimFabric::set_delivery_handler(NodeId node, DeliverFn handler) {
  MDO_CHECK(node >= 0 && static_cast<std::size_t>(node) < handlers_.size());
  handlers_[static_cast<std::size_t>(node)] = std::move(handler);
}

sim::TimeNs SimFabric::send(Packet&& packet) {
  MDO_CHECK(packet.src >= 0 &&
            static_cast<std::size_t>(packet.src) < topo_->num_nodes());
  MDO_CHECK(packet.dst >= 0 &&
            static_cast<std::size_t>(packet.dst) < topo_->num_nodes());
  packet.id = next_id_++;
  packet.inject_time = engine_->now();

  ++stats_.packets_sent;
  stats_.bytes_sent += packet.payload.size();
  const bool wan = !topo_->same_cluster(packet.src, packet.dst);
  if (wan) {
    ++stats_.wan_packets;
    stats_.wan_bytes += packet.payload.size();
  }

  SendContext ctx;
  send_through(nullptr, std::move(packet), ctx);
  return ctx.cpu_cost;
}

void SimFabric::inject_send(const FilterDevice* from, Packet&& packet) {
  // Device-originated traffic (acks, retransmissions): wire-level frames,
  // not runtime sends, so packets_sent/bytes_sent stay envelope-shaped.
  // The injecting device's CPU cost is absorbed by the fabric.
  ++stats_.frames_injected;
  SendContext ctx;
  send_through(from, std::move(packet), ctx);
}

void SimFabric::send_through(const FilterDevice* below, Packet&& packet,
                             SendContext& ctx) {
  if (wire_busy_) {
    // Re-entrant send from inside a chain transform: rare protocol path,
    // take the allocating route rather than clobbering the scratch.
    std::vector<Packet> wire =
        below == nullptr
            ? chain_.apply_send(std::move(packet), ctx)
            : chain_.apply_send_below(below, std::move(packet), ctx);
    transmit(wire, ctx);
    return;
  }
  wire_busy_ = true;
  if (below == nullptr) {
    chain_.apply_send(std::move(packet), ctx, wire_scratch_);
  } else {
    chain_.apply_send_below(below, std::move(packet), ctx, wire_scratch_);
  }
  transmit(wire_scratch_, ctx);
  wire_scratch_.clear();
  wire_busy_ = false;
}

void SimFabric::transmit(std::vector<Packet>& wire, const SendContext& ctx) {
  for (auto& frame : wire) {
    // A crashed node cannot put new bytes on the wire: its acks and
    // retransmissions are squashed here, after the chain transforms (so
    // shared device state stays consistent) but before the network.
    if (!host_node_up(frame.src)) {
      ++stats_.dead_node_drops;
      continue;
    }
    ++stats_.wire_frames;
    if (!topo_->same_cluster(frame.src, frame.dst)) ++stats_.wan_wire_frames;
    // The delay device holds the frame for ctx.extra_delay (plus any
    // fault-injected jitter) before the network device sees it, so the
    // model is evaluated at that instant.
    sim::TimeNs enter_net = engine_->now() + ctx.extra_delay + frame.hold_ns;
    frame.hold_ns = 0;
    sim::TimeNs net_delay = model_->delivery_delay(
        frame.src, frame.dst, frame.payload.size(), enter_net);
    const std::uint32_t slot = in_flight_.put(std::move(frame));
    engine_->schedule_at(enter_net + net_delay,
                         [this, slot] { arrive(slot); });
  }
}

void SimFabric::arrive(std::uint32_t slot) {
  deliver(chain_.apply_receive(in_flight_.take(slot)));
}

void SimFabric::inject_receive(const FilterDevice* from, Packet&& packet) {
  deliver(chain_.apply_receive_above(from, std::move(packet)));
}

void SimFabric::deliver(std::optional<Packet>&& complete) {
  if (!complete.has_value()) return;
  ++stats_.packets_delivered;
  auto& handler = handlers_[static_cast<std::size_t>(complete->dst)];
  MDO_CHECK_MSG(static_cast<bool>(handler), "no delivery handler registered");
  handler(std::move(*complete));
}

}  // namespace mdo::net
