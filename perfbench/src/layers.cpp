// Layer probes and the per-layer metric helpers the workloads share.
//
//  * net chain: Chain::apply_send / apply_receive on a loopback of the
//    workload's device set (a local timer queue stands in for the
//    fabric, so retransmissions and coalescing flushes still happen);
//  * util: pack_object / unpack_object on each workload's payload shape;
//  * core/obs: registry deltas and per-MsgKind entry times from
//    Machine::trace().

#include <deque>
#include <functional>
#include <queue>

#include "net/chain.hpp"
#include "net/reliable.hpp"
#include "util/pup.hpp"
#include "workloads.hpp"

namespace mdo::bench {

core::MachineOptions wall_options() {
  core::MachineOptions options;
  options.emulate_charge = false;
  return options;
}

const char* backend_name(grid::Backend backend) {
  switch (backend) {
    case grid::Backend::kSim: return "sim";
    case grid::Backend::kThread: return "thread";
    case grid::Backend::kProcess: return "process";
  }
  return "?";
}

obs::Snapshot snapshot(core::Runtime& rt) {
  return rt.machine().metrics().snapshot();
}

Delta delta(core::Runtime& rt, const obs::Snapshot& before) {
  return Delta{snapshot(rt).diff(before)};
}

void SetupTimes::add(std::int64_t t0, std::int64_t t1, std::int64_t t2,
                     std::int64_t t3) {
  make_machine_s.push_back(static_cast<double>(t1 - t0) / 1e9);
  create_s.push_back(static_cast<double>(t2 - t1) / 1e9);
  first_run_s.push_back(static_cast<double>(t3 - t2) / 1e9);
}

void SetupTimes::publish(Report& report, const std::string& prefix) const {
  const std::string n = "median of n=" + std::to_string(create_s.size());
  report.set(prefix + ".grid.make_machine_ms", median(make_machine_s) * 1e3,
             "ms", n);
  report.set(prefix + ".core.create_ms", median(create_s) * 1e3, "ms", n);
  report.set(prefix + ".core.first_run_ms", median(first_run_s) * 1e3, "ms",
             n);
}

void publish_sched(Report& report, const std::string& prefix,
                   const Delta& d, double ops, sim::TimeNs elapsed, int pes) {
  report.set(prefix + ".core.sched.msgs_per_op",
             ops > 0.0 ? d.c("rt.sched.msgs_executed") / ops : 0.0, "count");
  report.set(prefix + ".core.sched.busy_frac",
             elapsed > 0 ? d.c("rt.sched.busy_ns") /
                               (static_cast<double>(pes) *
                                static_cast<double>(elapsed))
                         : 0.0,
             "ratio");
}

void publish_entry_times(Pass& pass, core::Runtime& rt,
                         const std::string& prefix) {
  const struct {
    core::MsgKind kind;
    const char* name;
  } kinds[] = {{core::MsgKind::kEntry, "entry"},
               {core::MsgKind::kBroadcast, "broadcast"},
               {core::MsgKind::kReduction, "reduction"}};
  std::vector<core::TraceEvent> trace;
  {
    Scope span("Machine::trace");
    trace = rt.machine().trace();
  }
  const std::string unit = prefix == "sim" ? "virtual_us" : "us";
  for (const auto& k : kinds) {
    Samples us;
    for (const core::TraceEvent& ev : trace) {
      if (ev.kind == k.kind) us.add(static_cast<double>(ev.end - ev.begin) / 1e3);
    }
    const std::string n = "n=" + std::to_string(us.size());
    pass.report.set(prefix + ".core.entry_us_p50." + k.name, us.p50(), unit, n);
    pass.report.set(prefix + ".core.entry_us_p90." + k.name, us.p90(), unit, n);
  }
  const double dropped = static_cast<double>(
      snapshot(rt).counter("trace.dropped"));
  pass.report.set(prefix + ".obs.trace.dropped", dropped, "count");
}

// -- net chain ------------------------------------------------------------

namespace {

/// Every node behind one chain (as in the shared-address-space fabrics):
/// frames sent are received in order, timers run on a local clock that
/// advances between batches.
class Loopback final : public net::DeviceHost {
 public:
  net::Chain chain;
  std::deque<net::Packet> wire;
  std::uint64_t delivered = 0;

  sim::TimeNs host_now() const override { return now_; }
  void host_schedule(sim::TimeNs dt, std::function<void()> fn) override {
    timers_.push(Timer{now_ + dt, seq_++, std::move(fn)});
  }
  void inject_send(const net::FilterDevice* from, net::Packet&& p) override {
    net::SendContext ctx;
    for (net::Packet& frame :
         chain.apply_send_below(from, std::move(p), ctx)) {
      wire.push_back(std::move(frame));
    }
  }
  void inject_receive(const net::FilterDevice* from,
                      net::Packet&& p) override {
    if (chain.apply_receive_above(from, std::move(p))) ++delivered;
  }

  bool timers_pending() const { return !timers_.empty(); }

  /// Advance the clock and run every timer now due.
  void advance(sim::TimeNs dt) {
    now_ += dt;
    while (!timers_.empty() && timers_.top().due <= now_) {
      std::function<void()> fn = timers_.top().fn;
      timers_.pop();
      fn();
    }
  }

 private:
  struct Timer {
    sim::TimeNs due;
    std::uint64_t seq;
    std::function<void()> fn;
    bool operator>(const Timer& o) const {
      return due != o.due ? due > o.due : seq > o.seq;
    }
  };
  sim::TimeNs now_ = 0;
  std::uint64_t seq_ = 0;
  std::priority_queue<Timer, std::vector<Timer>, std::greater<>> timers_;
};

}  // namespace

void time_chain(Pass& pass, const grid::Scenario& scenario,
                std::size_t payload_bytes) {
  constexpr int kRounds = 9;
  constexpr int kBatches = 16;
  constexpr int kPerBatch = 64;
  const net::Topology topo = scenario.topology();
  Loopback loop;
  loop.chain.set_host(&loop);
  const bool stack = scenario.faults.any();
  if (stack) {
    // The lossy-grid device set, as grid::make_machine installs it.
    net::install_reliability_stack(loop.chain, &topo, scenario.reliable,
                                   scenario.faults, 0, scenario.heartbeat,
                                   scenario.coalesce);
  }
  // Node 0 sends to every other node in turn: same-cluster and WAN
  // destinations in the topology's own proportion.
  const auto nodes = static_cast<net::NodeId>(topo.num_nodes());

  Scope span("net::Chain::apply_send/apply_receive");
  Samples send_ns, recv_ns;
  std::uint64_t id = 0;
  std::vector<net::Packet> out;
  for (int round = 0; round < kRounds; ++round) {
    std::int64_t send_total = 0, recv_total = 0;
    for (int batch = 0; batch < kBatches; ++batch) {
      std::vector<net::Packet> packets(kPerBatch);
      for (net::Packet& p : packets) {
        p.src = 0;
        p.dst = static_cast<net::NodeId>(1 + id % (nodes - 1));
        p.id = ++id;
        p.inject_time = loop.host_now();
        p.payload.assign(payload_bytes, std::byte{0x42});
      }
      const std::int64_t t0 = wall_ns();
      for (net::Packet& p : packets) {
        net::SendContext ctx;
        loop.chain.apply_send(std::move(p), ctx, out);
        for (net::Packet& frame : out) loop.wire.push_back(std::move(frame));
      }
      send_total += wall_ns() - t0;
      const std::int64_t t1 = wall_ns();
      while (!loop.wire.empty()) {
        net::Packet frame = std::move(loop.wire.front());
        loop.wire.pop_front();
        if (loop.chain.apply_receive(std::move(frame))) ++loop.delivered;
      }
      recv_total += wall_ns() - t1;
      loop.advance(sim::microseconds(100.0));
      // Frames the timers released (retransmissions, flushed bundles)
      // are received in the next batch.
    }
    send_ns.add(static_cast<double>(send_total) / (kBatches * kPerBatch));
    recv_ns.add(static_cast<double>(recv_total) / (kBatches * kPerBatch));
  }
  // Drain (untimed): let retransmissions and flushes finish, then every
  // packet must have come out of the receive path exactly once.
  for (int i = 0; i < 10000 && (!loop.wire.empty() || loop.timers_pending());
       ++i) {
    while (!loop.wire.empty()) {
      net::Packet frame = std::move(loop.wire.front());
      loop.wire.pop_front();
      if (loop.chain.apply_receive(std::move(frame))) ++loop.delivered;
    }
    loop.advance(sim::milliseconds(1.0));
  }
  pass.checks.expect(loop.delivered == id,
                     "net.chain: the loopback delivers every packet once");
  const std::string n = "median of " + std::to_string(kRounds) +
                        " rounds; " + std::to_string(payload_bytes) +
                        " B packets; " +
                        (stack ? "coalesce+reliable+checksum+fault"
                               : "bare chain");
  pass.report.set("net.chain.send_ns", send_ns.p50(), "ns", n);
  pass.report.set("net.chain.recv_ns", recv_ns.p50(), "ns", n);
}

// -- util pup -------------------------------------------------------------

namespace {

template <class T>
void time_pup_shape(Pass& pass, const std::string& shape, const T& value) {
  constexpr int kRounds = 7;
  constexpr int kReps = 2000;
  Samples pack_ns, unpack_ns;
  T out{};
  for (int round = 0; round < kRounds; ++round) {
    const std::int64_t t0 = wall_ns();
    for (int i = 0; i < kReps; ++i) {
      Bytes b = pack_object(value);
      ScratchArena::local().give(std::move(b));
    }
    const std::int64_t t1 = wall_ns();
    const Bytes packed = pack_object(value);
    const std::int64_t t2 = wall_ns();
    for (int i = 0; i < kReps; ++i) unpack_object(packed, out);
    const std::int64_t t3 = wall_ns();
    pack_ns.add(static_cast<double>(t1 - t0) / kReps);
    unpack_ns.add(static_cast<double>(t3 - t2) / kReps);
  }
  pass.checks.expect(out == value, "util.pup: " + shape + " round-trips");
  const std::string n = "median of " + std::to_string(kRounds) + " x " +
                        std::to_string(kReps);
  pass.report.set("util.pup.pack_ns." + shape, pack_ns.p50(), "ns", n);
  pass.report.set("util.pup.unpack_ns." + shape, unpack_ns.p50(), "ns", n);
}

}  // namespace

void time_pup(Pass& pass) {
  Scope span("pack_object/unpack_object");
  time_pup_shape(pass, "b64", std::vector<std::byte>(64, std::byte{7}));
  time_pup_shape(pass, "b16k",
                 std::vector<std::byte>(16 * 1024, std::byte{7}));
  // CMFD edge: one block edge of a 16x16 tile; stencil strip: one block
  // edge of a 64x64 object.
  time_pup_shape(pass, "cmfd_edge", std::vector<double>(16, 0.5));
  time_pup_shape(pass, "stencil_strip", std::vector<double>(64, 0.25));
}

}  // namespace mdo::bench
