#pragma once
// The runtime's wire unit: one Envelope per scheduled delivery. Entry
// messages carry marshalled user arguments; system envelopes implement
// broadcasts, multicast bundles, reduction partials, migrations, and
// location-protocol traffic. Envelopes serialize with PUP so they can
// cross the net-layer device chains as opaque packets.

#include <cstdint>

#include "core/types.hpp"
#include "sim/time.hpp"
#include "util/pup.hpp"

namespace mdo::core {

enum class MsgKind : std::uint8_t {
  kEntry = 0,        ///< invoke one entry method on one element
  kBroadcast = 1,    ///< deliver entry to all local elements + forward down tree
  kMulticast = 2,    ///< deliver entry to a listed subset of local elements
  kReduction = 3,    ///< partial reduction flowing up the PE tree
  kMigrate = 4,      ///< packed element state moving to a new PE
  kHostCall = 5,     ///< scheduled host-side callback (runs on dst PE)
  kPhaseMarker = 6,  ///< trace-only: application phase boundary; never
                     ///< enqueued or sent, synthesized into the trace by
                     ///< Machine::trace_phase
};

struct Envelope {
  MsgKind kind = MsgKind::kEntry;
  Pe src_pe = kInvalidPe;
  Pe dst_pe = kInvalidPe;
  ArrayId array = -1;
  Index index{};           ///< destination element (kEntry/kMigrate)
  EntryId entry = kInvalidEntry;
  Priority priority = 0;
  std::uint8_t flags = 0;  ///< kFlagFanout: broadcast is past the tree root
  /// Stamped by Runtime::post; no machine reads it (run queues are FIFO
  /// within a priority by arrival). Kept because it is packed on the
  /// wire: dropping it would change frame bytes and Sim virtual time.
  std::uint64_t seq = 0;
  sim::TimeNs sent_at = 0;
  /// Ref-counted and immutable once sealed: copying an envelope (local
  /// delivery, broadcast fan-out, device-chain pass-through) shares one
  /// buffer instead of duplicating it. Serializes identically to the
  /// Bytes vector it replaced.
  PayloadBuf payload;

  static constexpr std::uint8_t kFlagFanout = 1;

  void pup(Pup& p) {
    p | kind | src_pe | dst_pe | array | index | entry | priority | flags |
        seq | sent_at | payload;
  }

  std::size_t payload_bytes() const { return payload.size(); }

  /// Approximate on-wire size: header + payload. Used by cost models and
  /// the fabric when the device chain is bypassed.
  std::size_t wire_bytes() const { return payload.size() + kHeaderBytes; }

  static constexpr std::size_t kHeaderBytes = 48;
};

/// Pack `env` into a frame buffer allocated once, at its exact wire size.
/// For frames that leave the sending thread (Thread and Process): another
/// thread recycles the buffer into its own arena, so drawing it from the
/// sender's arena would drain that arena and regrow an empty vector on
/// every pack.
inline Bytes pack_frame(const Envelope& env) {
  Bytes out;
  out.reserve(pup_size(env));
  Pup p = Pup::packer(out);
  const_cast<Envelope&>(env).pup(p);  // packing never mutates
  return out;
}

}  // namespace mdo::core
