#include "grid/scenario.hpp"

#include <cstdlib>

#include "util/assert.hpp"
#include "util/rng.hpp"

namespace mdo::grid {

Scenario& Scenario::with_partitions(std::uint64_t seed, std::size_t count,
                                    sim::TimeNs mean_len,
                                    sim::TimeNs horizon) {
  MDO_CHECK(mean_len > 0 && horizon > 0);
  const auto c = static_cast<net::ClusterId>(topology().num_clusters());
  if (c < 2) return *this;  // nothing to partition
  SplitMix64 rng(seed);
  for (std::size_t i = 0; i < count; ++i) {
    // A random directed cluster pair (src != dst), a start anywhere in
    // the horizon, and a length in [mean_len/2, 3*mean_len/2).
    const auto src = static_cast<net::ClusterId>(rng.bounded(
        static_cast<std::uint64_t>(c)));
    auto dst = static_cast<net::ClusterId>(rng.bounded(
        static_cast<std::uint64_t>(c - 1)));
    if (dst >= src) ++dst;
    const auto start = static_cast<sim::TimeNs>(
        rng.bounded(static_cast<std::uint64_t>(horizon)));
    const auto len = mean_len / 2 + static_cast<sim::TimeNs>(rng.bounded(
        static_cast<std::uint64_t>(mean_len)));
    faults.partitions.push_back({src, dst, start, start + len});
  }
  return *this;
}

net::Topology Scenario::topology() const {
  if (mode == Mode::kLocal) {
    return net::Topology::single_cluster(pes);
  }
  net::Topology topo = clusters == 2 ? net::Topology::two_cluster(pes)
                                     : net::Topology::n_cluster(pes, clusters);
  const auto c = static_cast<net::ClusterId>(topo.num_clusters());
  if (c < 2) return topo;  // pes == 1 collapses to one cluster

  // Synthesized defaults: latency grows with cluster distance (half the
  // base per extra hop), so an N-site grid is not all-equidistant and
  // the shortest-path tree has real choices to make. Distance 1 is
  // exactly `base`, which keeps two-cluster scenarios bit-identical to
  // the paper's original layout. Bandwidth under kArtificial is the SAN
  // rate because only latency is injected artificially; the table's
  // latency column is still the logical geometry the trees and sizing
  // read.
  const sim::TimeNs base = effective_one_way();
  const double bw = mode == Mode::kRealGrid ? kWanBytesPerUs : kSanBytesPerUs;
  for (net::ClusterId i = 0; i < c; ++i) {
    for (net::ClusterId j = 0; j < c; ++j) {
      if (i == j) continue;
      auto dist = static_cast<sim::TimeNs>(std::abs(i - j));
      sim::TimeNs latency = base + base * (dist - 1) / 2;
      topo.set_wan_link(i, j, net::LinkParams{latency, bw});
    }
  }
  for (const WanLink& link : wan_links) {
    topo.set_wan_link(link.src, link.dst, link.params);
  }
  return topo;
}

sim::TimeNs Scenario::max_one_way() const { return topology().max_wan_latency(); }

namespace {

net::GridLatencyModel::Config link_config(const Scenario& s) {
  net::GridLatencyModel::Config cfg;
  cfg.local = {kLocalLatency, kLocalBytesPerUs};
  cfg.intra = {kSanLatency, kSanBytesPerUs};
  switch (s.mode) {
    case Scenario::Mode::kArtificial:
      // Physically one cluster: the "inter-cluster" wire is still the
      // SAN; the delay device supplies the artificial WAN latencies.
      cfg.inter = {kSanLatency, kSanBytesPerUs};
      break;
    case Scenario::Mode::kRealGrid:
      cfg.inter = {kWanLatency, kWanBytesPerUs};
      cfg.wan_contention = true;
      cfg.wan_jitter_fraction = kWanJitterFraction;
      cfg.use_topology_links = true;  // per-pair α–β from the link table
      break;
    case Scenario::Mode::kLocal:
      cfg.inter = cfg.intra;
      break;
  }
  return cfg;
}

core::SimMachine::Overheads overheads() {
  core::SimMachine::Overheads ov;
  ov.send = kSendOverhead;
  ov.recv = kRecvOverhead;
  return ov;
}

/// The artificial delay belongs inside the reliability stack (below the
/// fault device) when faults are on, so acks and retransmissions pay WAN
/// latency too; otherwise it is the classic bare delay device. The
/// worst-link latency is passed as the device default — every populated
/// pair is then overridden from the link table, so the default only
/// guarantees the device gets installed when any link is non-zero.
sim::TimeNs stack_delay(const Scenario& s) {
  return s.mode == Scenario::Mode::kArtificial ? s.max_one_way() : 0;
}

/// Artificial-mode realization of the WAN link table: per-directed-pair
/// delays on the delay device (real-grid mode realizes the same table in
/// the latency model instead).
void apply_artificial_links(net::DelayDevice* delay,
                            const net::Topology& topo) {
  if (delay == nullptr) return;
  const auto c = static_cast<net::ClusterId>(topo.num_clusters());
  for (net::ClusterId i = 0; i < c; ++i) {
    for (net::ClusterId j = 0; j < c; ++j) {
      if (i == j) continue;
      if (const net::LinkParams* link = topo.wan_link(i, j)) {
        delay->set_cluster_delay(i, j, link->latency);
      }
    }
  }
}

/// Whether the full reliability stack (rather than the bare delay
/// device) must be installed. Adaptation needs the ack RTT estimator;
/// compression/striping live inside the stack; force_reliability makes
/// static baselines wire-comparable with adaptive runs.
bool wants_stack(const Scenario& s) {
  return s.faults.any() || s.heartbeat.enabled || s.adaptive.enabled ||
         s.compression.enabled || s.striping.enabled || s.force_reliability;
}

/// Shared chain-building for every backend: reliability stack or bare
/// delay device, optional standalone coalescing, optional adaptive
/// controller. Returns the delay device (drift target), if any.
net::DelayDevice* install_chain(core::ChainHost& chain, const Scenario& s,
                                const net::Topology& topo) {
  net::DelayDevice* delay = nullptr;
  if (wants_stack(s)) {
    const net::ReliabilityStack& stack = chain.add_reliability_stack(
        s.reliable, s.faults, stack_delay(s), s.heartbeat, s.coalesce,
        s.compression, s.striping);
    apply_artificial_links(stack.delay, topo);
    delay = stack.delay;
    if (s.adaptive.enabled) chain.add_adaptive_controller(s.adaptive);
  } else {
    // Clean fabric: coalesce (if requested) above the bare delay device,
    // so a bundle pays the artificial WAN latency once.
    if (s.coalesce.enabled) chain.add_coalesce_device(s.coalesce);
    if (s.mode == Scenario::Mode::kArtificial && stack_delay(s) > 0) {
      delay = chain.add_delay_device(s.artificial_one_way);
      apply_artificial_links(delay, topo);
    }
  }
  return delay;
}

std::unique_ptr<core::Machine> construct(const Scenario& s, Backend backend,
                                         core::MachineOptions options) {
  switch (backend) {
    case Backend::kSim:
      return std::make_unique<core::SimMachine>(s.topology(), link_config(s),
                                                overheads());
    case Backend::kThread:
      return std::make_unique<core::ThreadMachine>(s.topology(),
                                                   link_config(s), options);
    case Backend::kProcess:
      return std::make_unique<core::ProcessMachine>(s.topology(),
                                                    link_config(s), options);
  }
  MDO_CHECK_MSG(false, "unknown backend");
  return nullptr;
}

}  // namespace

std::unique_ptr<core::Machine> make_machine(const Scenario& scenario,
                                            Backend backend,
                                            core::MachineOptions options) {
  std::unique_ptr<core::Machine> machine =
      construct(scenario, backend, options);
  net::DelayDevice* delay =
      install_chain(machine->chain_host(), scenario, machine->topology());
  // Scheduled link drifts become delay-device retargets at their machine
  // times (on ProcessMachine pre-fork call_after stages them for replay
  // in every process, so each inherited delay-device copy drifts in step).
  if (!scenario.link_drifts.empty()) {
    MDO_CHECK_MSG(delay != nullptr,
                  "link drifts need the artificial delay device");
    for (const Scenario::LinkDrift& d : scenario.link_drifts) {
      machine->call_after(d.at, [delay, d] {
        delay->set_cluster_delay(d.src, d.dst, d.latency);
      });
    }
  }
  // A PE that runs out of work flushes its pending bundles immediately
  // instead of waiting out the coalescing backstop timer.
  if (net::CoalesceDevice* coalesce = machine->coalesce()) {
    machine->set_on_pe_idle([coalesce](core::Pe pe) {
      coalesce->flush_source(static_cast<net::NodeId>(pe));
    });
  }
  machine->set_tracing(scenario.tracing);
  return machine;
}

}  // namespace mdo::grid
