#pragma once
// Cluster/node layout of a (possibly multi-cluster) grid allocation,
// plus the per-directed-cluster-pair WAN link table. The paper's
// experiments stop at two clusters; the MPICH-G2 generalization is an
// N-cluster hierarchy where every directed cluster pair may have its
// own latency/bandwidth. The Topology owns that table as the single
// source of truth: the latency model, the delay device, the collective
// trees, and the failure-detector sizing all consult it.
//
// The table is *logical* WAN geometry. Who realizes it depends on the
// scenario: in real-grid mode the GridLatencyModel charges the per-link
// parameters on the wire; in the paper's artificial mode the physical
// links stay SAN-class and the DelayDevice injects the per-pair delays.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "net/packet.hpp"
#include "obs/json.hpp"
#include "sim/time.hpp"

namespace mdo::net {

using ClusterId = std::int32_t;

/// One link class: arrival = depart + latency + bytes/bandwidth.
struct LinkParams {
  sim::TimeNs latency = 0;          ///< α: one-way wire+software latency
  double bytes_per_us = 1e9;        ///< β: bandwidth in bytes per microsecond

  sim::TimeNs serialization(std::size_t bytes) const {
    return static_cast<sim::TimeNs>(static_cast<double>(bytes) /
                                    bytes_per_us * 1e3);
  }
  bool operator==(const LinkParams&) const = default;
};

class Topology {
 public:
  /// Add a cluster; returns its id (dense, starting at 0).
  ClusterId add_cluster(std::string name);

  /// Add a node to a cluster; returns its NodeId (dense, starting at 0).
  NodeId add_node(ClusterId cluster);

  ClusterId cluster_of(NodeId node) const;
  const std::string& cluster_name(ClusterId cluster) const;

  std::size_t num_nodes() const { return node_cluster_.size(); }
  std::size_t num_clusters() const { return cluster_names_.size(); }
  std::size_t cluster_size(ClusterId cluster) const;
  std::vector<NodeId> nodes_in(ClusterId cluster) const;

  bool same_cluster(NodeId a, NodeId b) const {
    return cluster_of(a) == cluster_of(b);
  }

  // -- per-directed-link WAN table -----------------------------------------
  /// Record the WAN link for the directed cluster pair src -> dst.
  void set_wan_link(ClusterId src, ClusterId dst, LinkParams link);

  /// The directed link src -> dst, or nullptr when the pair has no entry
  /// (callers fall back to their uniform default).
  const LinkParams* wan_link(ClusterId src, ClusterId dst) const;

  /// Table lookup with a fallback for pairs without an entry.
  LinkParams wan_link_or(ClusterId src, ClusterId dst,
                         const LinkParams& fallback) const {
    const LinkParams* link = wan_link(src, dst);
    return link != nullptr ? *link : fallback;
  }

  /// Largest one-way latency over the WAN links actually usable by
  /// traffic — directed pairs of distinct clusters that both contain at
  /// least one node — using `fallback` for pairs without a table entry.
  /// 0 when fewer than two clusters are populated. Failure-detector and
  /// coalescing windows size against this, not a single global constant.
  sim::TimeNs max_wan_latency(const LinkParams& fallback = {}) const;

  // -- factories -----------------------------------------------------------
  /// The paper's standard layout: `num_nodes` split evenly between two
  /// clusters ("siteA" gets the first half). num_nodes must be even,
  /// except num_nodes == 1 which yields a single-cluster single node
  /// (used for serial calibration runs).
  static Topology two_cluster(std::size_t num_nodes);

  /// Single cluster of `num_nodes` (no WAN anywhere).
  static Topology single_cluster(std::size_t num_nodes);

  /// The MPICH-G2 generalization: `num_nodes` split across `num_clusters`
  /// sites ("siteA", "siteB", ...). Nodes are distributed as evenly as
  /// possible; the first num_nodes % num_clusters clusters get one extra.
  /// Every cluster receives at least one node, so num_nodes must be >=
  /// num_clusters. The link table starts empty (uniform WAN).
  static Topology n_cluster(std::size_t num_nodes, std::size_t num_clusters);

  // -- serialization -------------------------------------------------------
  /// Snapshot the full layout (clusters, node->cluster table, WAN link
  /// table) as ordered JSON, so scenario configs are diffable artifacts.
  obs::Json to_json() const;

  /// Rebuild a Topology from to_json() output. nullopt on malformed or
  /// inconsistent documents (unknown cluster references, bad link ids).
  static std::optional<Topology> from_json(const obs::Json& doc);

  bool operator==(const Topology&) const = default;

 private:
  std::vector<std::string> cluster_names_;
  std::vector<ClusterId> node_cluster_;
  std::map<std::pair<ClusterId, ClusterId>, LinkParams> links_;
};

}  // namespace mdo::net
