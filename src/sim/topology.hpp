#pragma once

/// @file
/// N-device cluster topology: the scale-out generalization of the single
/// CPU+GPU pair the runtime was born with. A Topology is a set of nodes —
/// each one CPU + one GPU joined by a host link — plus a peer-link matrix
/// pricing device<->device transfers (PCIe peer-to-peer vs NVLink-class).
/// One sim::Runtime models ONE node of the topology (RuntimeConfig.topology
/// + device_index); the sharded serving layer (src/shard/) builds one
/// runtime per shard and prices cross-shard traffic through the peer links.
///
/// Bit-identity contract: SinglePair() reproduces the historical default
/// RuntimeConfig exactly (Xeon Gold 6226R + RTX A6000 over PCIe gen4 x16),
/// so a topology-carrying runtime with one device is indistinguishable from
/// a config that never mentions a topology.

#include <cstdint>
#include <string>
#include <vector>

#include "sim/device_spec.hpp"
#include "sim/sim_time.hpp"

namespace dgnn::sim {

/// Interconnect class of one directed link.
enum class LinkKind {
    kPcie,    ///< PCIe peer-to-peer (through the host root complex)
    kNvlink,  ///< NVLink-class direct device fabric
};

const char* ToString(LinkKind kind);

/// One directed link's analytic parameters (same model as PcieLink: fixed
/// per-transfer latency plus bytes / bandwidth, one contended queue).
struct LinkSpec {
    LinkKind kind = LinkKind::kPcie;
    double bandwidth_gbps = 12.0;
    SimTime latency_us = 10.0;

    /// PCIe 4.0 x16 with realistic pinned-memory efficiency — identical to
    /// PcieLink::Gen4x16() and the historical RuntimeConfig defaults.
    static LinkSpec PcieGen4() { return LinkSpec{LinkKind::kPcie, 12.0, 10.0}; }

    /// NVLink-class device fabric: ~7x the bandwidth at a fraction of the
    /// setup latency (the `--nvlink` sweep point of distributed-GNN
    /// harnesses).
    static LinkSpec NvlinkClass()
    {
        return LinkSpec{LinkKind::kNvlink, 80.0, 2.0};
    }
};

/// Rejects a link no transfer can be priced over (bandwidth not positive
/// and finite, latency negative or not finite) with a dgnn::Error naming
/// @p field (e.g. "interconnect.bandwidth_gbps").
void ValidateLinkSpec(const LinkSpec& link, const std::string& field);

/// One cluster node: a CPU + GPU pair and the host link between them.
struct TopologyNode {
    DeviceSpec cpu = DeviceSpec::XeonGold6226R();
    DeviceSpec gpu = DeviceSpec::RtxA6000();
    LinkSpec host_link = LinkSpec::PcieGen4();
};

/// The cluster: nodes plus a dense peer-link matrix (row-major, from x to).
/// Self links exist in the matrix but are never scheduled.
class Topology {
  public:
    Topology() = default;

    /// The historical single CPU+GPU pair — runtimes built from this node
    /// are bit-identical to the default RuntimeConfig.
    [[nodiscard]] static Topology SinglePair();

    /// @p devices identical SinglePair nodes, every peer pair joined by
    /// @p interconnect.
    static Topology ScaleOut(int32_t devices, const LinkSpec& interconnect);

    /// Appends a node; its peer links (both directions) default to PCIe.
    /// Rejects an unpriceable host link (ValidateLinkSpec, "host_link").
    void AddNode(const TopologyNode& node);

    int32_t DeviceCount() const
    {
        return static_cast<int32_t>(nodes_.size());
    }

    const TopologyNode& NodeAt(int32_t index) const;

    /// The directed link used for transfers from device @p from to device
    /// @p to. Must be distinct, in-range indices.
    const LinkSpec& PeerLink(int32_t from, int32_t to) const;

    /// Overrides one directed peer link; rejects an unpriceable one
    /// (ValidateLinkSpec, "peer_link").
    void SetPeerLink(int32_t from, int32_t to, const LinkSpec& spec);

  private:
    int64_t LinkIndex(int32_t from, int32_t to) const;

    std::vector<TopologyNode> nodes_;
    /// DeviceCount()^2 entries, row-major by `from`.
    std::vector<LinkSpec> peer_links_;
};

}  // namespace dgnn::sim
