#include "net/deadline_fabric.hpp"

#ifdef __linux__
#include <sys/prctl.h>
#endif

#include "util/assert.hpp"

namespace mdo::net {

DeadlineFabric::DeadlineFabric(const Topology* topo, LatencyModel* model,
                               Chain chain, Clock::time_point epoch)
    : topo_(topo), model_(model), chain_(std::move(chain)), epoch_(epoch) {
  MDO_CHECK(topo_ != nullptr && model_ != nullptr);
  chain_.set_host(this);
  handlers_.resize(topo_->num_nodes());
}

bool DeadlineFabric::request_stop() {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  if (stop_) return false;
  stop_ = true;
  signal();
  return true;
}

void DeadlineFabric::use_exact_timer_slack() {
#ifdef __linux__
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
#endif
}

void DeadlineFabric::set_delivery_handler(NodeId node, DeliverFn handler) {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  MDO_CHECK(node >= 0 && static_cast<std::size_t>(node) < handlers_.size());
  handlers_[static_cast<std::size_t>(node)] = std::move(handler);
}

void DeadlineFabric::set_node_up_probe(NodeUpProbe probe) {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  node_up_ = std::move(probe);
}

bool DeadlineFabric::host_node_up(NodeId node) const {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  return !node_up_ || node_up_(node);
}

DeadlineFabric::DeliverFn DeadlineFabric::handler_for(NodeId dst) const {
  // SocketFabric drops off-wire frames addressed elsewhere before the
  // receive chain, so a bad dst here is a routing bug.
  MDO_CHECK(dst >= 0 && static_cast<std::size_t>(dst) < handlers_.size());
  const DeliverFn& handler = handlers_[static_cast<std::size_t>(dst)];
  MDO_CHECK_MSG(static_cast<bool>(handler), "no delivery handler registered");
  return handler;
}

void DeadlineFabric::note_deadline(Clock::time_point due) {
  if ((pending_.empty() || due < pending_.top().due) &&
      (timers_.empty() || due < timers_.top().due)) {
    earlier_ = true;
  }
}

void DeadlineFabric::signal_if_earlier() {
  if (!earlier_) return;
  earlier_ = false;
  wake();
}

void DeadlineFabric::wake() {
  ++stats_.wake_signals;
  signal();
}

void DeadlineFabric::hold_arrival(Packet&& frame, sim::TimeNs deadline) {
  pending_.push(Timed{at(deadline), next_seq_++, std::move(frame)});
}

void DeadlineFabric::enqueue_frames(std::vector<Packet>& wire,
                                    const SendContext& ctx) {
  const sim::TimeNs now = now_ns();
  for (auto& frame : wire) {
    // Fail-stop crash model: a dead node's frames (acks, retransmissions)
    // never reach the wire. See Fabric::set_node_up_probe.
    if (node_up_ && !node_up_(frame.src)) {
      ++stats_.dead_node_drops;
      continue;
    }
    ++stats_.wire_frames;
    if (!topo_->same_cluster(frame.src, frame.dst)) ++stats_.wan_wire_frames;
    sim::TimeNs enter_net = now + ctx.extra_delay + frame.hold_ns;
    frame.hold_ns = 0;
    sim::TimeNs net_delay = model_->delivery_delay(
        frame.src, frame.dst, frame.payload.size(), enter_net);
    if (transmit(frame, enter_net + net_delay)) continue;
    const Clock::time_point due = at(enter_net + net_delay);
    note_deadline(due);
    pending_.push(Timed{due, next_seq_++, std::move(frame)});
  }
}

sim::TimeNs DeadlineFabric::send(Packet&& packet) {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  MDO_CHECK(!stop_);
  packet.id = next_id_++;
  packet.inject_time = now_ns();

  ++stats_.packets_sent;
  stats_.bytes_sent += packet.payload.size();
  if (!topo_->same_cluster(packet.src, packet.dst)) {
    ++stats_.wan_packets;
    stats_.wan_bytes += packet.payload.size();
  }

  SendContext ctx;
  send_through(nullptr, std::move(packet), ctx);
  signal_if_earlier();
  return ctx.cpu_cost;
}

void DeadlineFabric::inject_send(const FilterDevice* from, Packet&& packet) {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  if (stop_) return;
  ++stats_.frames_injected;
  SendContext ctx;
  send_through(from, std::move(packet), ctx);
  signal_if_earlier();
}

void DeadlineFabric::send_through(const FilterDevice* below, Packet&& packet,
                                  SendContext& ctx) {
  if (wire_busy_) {
    // Re-entrant send from inside a chain transform (the mutex is
    // recursive): rare protocol path, take the allocating route.
    std::vector<Packet> wire =
        below == nullptr
            ? chain_.apply_send(std::move(packet), ctx)
            : chain_.apply_send_below(below, std::move(packet), ctx);
    enqueue_frames(wire, ctx);
    return;
  }
  wire_busy_ = true;
  if (below == nullptr) {
    chain_.apply_send(std::move(packet), ctx, wire_scratch_);
  } else {
    chain_.apply_send_below(below, std::move(packet), ctx, wire_scratch_);
  }
  enqueue_frames(wire_scratch_, ctx);
  wire_scratch_.clear();
  wire_busy_ = false;
}

void DeadlineFabric::inject_receive(const FilterDevice* from,
                                    Packet&& packet) {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  if (stop_) return;
  std::optional<Packet> complete =
      chain_.apply_receive_above(from, std::move(packet));
  if (!complete.has_value()) return;
  ++stats_.packets_delivered;
  DeliverFn handler = handler_for(complete->dst);
  // Called with the fabric mutex held (we are nested inside a chain
  // transform). Safe: delivery handlers only take their own mailbox
  // locks and never call back into the fabric synchronously.
  handler(std::move(*complete));
}

void DeadlineFabric::host_schedule(sim::TimeNs dt, std::function<void()> fn) {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  if (stop_) return;
  Clock::time_point due = Clock::now() + std::chrono::nanoseconds(dt);
  note_deadline(due);
  timers_.push(Timer{due, next_seq_++, std::move(fn)});
  signal_if_earlier();
}

void DeadlineFabric::deliver_complete(Packet&& packet, Lock& lock) {
  std::optional<Packet> complete = chain_.apply_receive(std::move(packet));
  if (!complete.has_value()) return;
  ++stats_.packets_delivered;
  DeliverFn handler = handler_for(complete->dst);
  lock.unlock();
  handler(std::move(*complete));
  lock.lock();
}

std::optional<DeadlineFabric::Clock::time_point> DeadlineFabric::run_due(
    Lock& lock) {
  while (!stop_) {
    const bool timer_first =
        !timers_.empty() &&
        (pending_.empty() || timers_.top().due <= pending_.top().due);
    if (!timer_first && pending_.empty()) return std::nullopt;
    const Clock::time_point due =
        timer_first ? timers_.top().due : pending_.top().due;
    if (Clock::now() < due) return due;
    if (timer_first) {
      auto fn = std::move(const_cast<Timer&>(timers_.top()).fn);
      timers_.pop();
      // Timer callbacks (retransmission timeouts) mutate chain state and
      // may inject frames; run them with the mutex held.
      fn();
    } else {
      Timed item = std::move(const_cast<Timed&>(pending_.top()));
      pending_.pop();
      deliver_complete(std::move(item.packet), lock);
    }
  }
  return std::nullopt;
}

DeadlineFabric::Stats DeadlineFabric::stats() const {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  return stats_;
}

}  // namespace mdo::net
