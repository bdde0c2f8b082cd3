// Identifier and configuration vocabulary for the group communication
// service (the lower half of the NewTop service, §3 of the paper).
#pragma once

#include <cstdint>

#include "util/time.hpp"
#include "util/strong_id.hpp"

namespace newtop {

struct GroupIdTag {};
struct EndpointIdTag {};

/// A group of communicating endpoints.
using GroupId = StrongId<GroupIdTag, std::uint64_t>;

/// One NewTop service object's group-communication identity.  An endpoint
/// may belong to many groups simultaneously (overlapping groups).
using EndpointId = StrongId<EndpointIdTag, std::uint64_t>;

/// Monotonic view number within a group; each installed view increments it.
using ViewEpoch = std::uint64_t;

/// Per-(group, sender, epoch) message sequence number, starting at 0.
using Seqno = std::uint64_t;

/// Lamport logical timestamp.  One clock per endpoint, shared across all of
/// its groups — the property that keeps delivery order consistent for
/// members of overlapping groups.
using Lamport = std::uint64_t;

/// How messages in a group are ordered before delivery.
enum class OrderMode : std::uint8_t {
    /// Causality-preserving total order, symmetric protocol: all members
    /// run the same deterministic Lamport-timestamp ordering rule and
    /// exchange null messages (time-silence) to advance it.
    kTotalSymmetric = 0,
    /// Causality-preserving total order, asymmetric protocol: the lowest-
    /// ranked view member acts as sequencer.
    kTotalAsymmetric = 1,
    /// Causal (vector-style) order only; concurrent messages may be
    /// delivered in different orders at different members.
    kCausal = 2,
};
constexpr OrderMode wire_max(OrderMode) { return OrderMode::kCausal; }

/// When the time-silence and failure-suspicion machinery runs (§3).
enum class LivenessMode : std::uint8_t {
    /// Mechanisms active for the whole lifetime of the group — appropriate
    /// for peer groups.
    kLively = 0,
    /// Mechanisms active only while application messages are outstanding —
    /// appropriate for request-reply groups.
    kEventDriven = 1,
};
constexpr LivenessMode wire_max(LivenessMode) { return LivenessMode::kEventDriven; }

/// Monotonic configuration number within a group: each view-synchronous
/// reconfiguration (a ConfigChangeMsg agreed through the group's own total
/// order and applied at a flush-delimited view install) increments it.
using ConfigEpoch = std::uint64_t;

// Protocol timers and limits: the same for every group, unlike GroupConfig.

/// A member that has sent nothing for this long emits an "I am alive" null
/// (while the mechanism is active).  Its job is liveness, so it only needs
/// to beat the suspicion timeout comfortably; ordering progress is driven
/// by the (much faster) kAckDelay nulls below.
inline constexpr SimDuration kTimeSilence{100'000};  // 100 ms
/// Symmetric-order progress nulls: while a message is held back waiting
/// for other members' timestamps, idle members null after this much
/// silence so the order advances promptly (the "protocol specific
/// messages ... to enable message ordering" of §1).
inline constexpr SimDuration kAckDelay{500};  // 0.5 ms
/// A member heard nothing from for this long is suspected to have failed
/// (while the mechanism is active).  Also the φ-accrual detector's floor:
/// a peer is never suspected earlier, whatever its history.
inline constexpr SimDuration kSuspicionTimeout{200'000};  // 200 ms
/// The φ-accrual detector's ceiling: at this much silence a peer is
/// suspected even if φ never crossed the threshold.
inline constexpr SimDuration kPhiCeiling{10 * kSuspicionTimeout};  // 2 s
/// A view-change round that has not completed within this long is
/// restarted by the next-ranked coordinator.
inline constexpr SimDuration kViewChangeTimeout{400'000};  // 400 ms
/// How often the stability vector is gossiped while active, to prune
/// retransmission buffers.
inline constexpr SimDuration kStabilityPeriod{100'000};  // 100 ms
/// Maximum application payloads coalesced into a single DataMsg once the
/// credit window (GroupConfig::order_window) is full.
inline constexpr std::size_t kOrderMaxBatch{64};

static_assert(kViewChangeTimeout > kSuspicionTimeout,
              "followers would suspect a coordinator still collecting flushes");

/// Per-group configuration.  Set at creation time and changed at runtime
/// only through the view-synchronous reconfiguration protocol
/// (GroupCommEndpoint::reconfigure): every member switches at the same
/// flush-delimited view cut, so no two members ever run one message stream
/// under different policies.  Every field is valid for any value.
struct GroupConfig {
    OrderMode order{OrderMode::kTotalSymmetric};
    LivenessMode liveness{LivenessMode::kEventDriven};
    /// Data-plane flow control: how many of this member's own application
    /// messages may be in flight (sent, not yet self-delivered) before
    /// further multicasts coalesce instead of going straight to the wire.
    /// Coalesced payloads ride one DataMsg — one marshalling pass, one
    /// stream slot, one ordering decision — so a saturated sender batches
    /// under load instead of stalling.  0 disables the window (every
    /// multicast ships immediately, the pre-flow-control behaviour).
    std::size_t order_window{16};
    /// Adaptive-policy hook: when non-zero, the view leader proposes a
    /// reconfiguration to the asymmetric sequencer once the installed view
    /// reaches this many members, and back to the symmetric protocol below
    /// it (the OptSCORE-style adaptation; §2's flexibility made view-time).
    /// 0 disables the hook.  Ignored for kCausal groups.
    std::size_t adaptive_asym_threshold{0};
    /// φ-accrual failure detection (Hayashibara et al., SRDS 2004): the
    /// suspicion level φ of a peer's current silence, computed against the
    /// peer's own inter-arrival history, must reach this threshold
    /// (milli-φ; 8000 = φ 8.0) before a suspicion is raised.  The fixed
    /// kSuspicionTimeout stays the *floor* — a peer is never suspected
    /// earlier than it, so crash detection is never slower than the fixed
    /// detector — and φ only extends the deadline for peers whose history
    /// shows them slow-but-alive.  0 disables accrual: suspicion falls back
    /// to the fixed timeout alone (the paper's original detector).
    std::uint64_t phi_threshold_milli{8000};

    friend bool operator==(const GroupConfig&, const GroupConfig&) = default;
};

}  // namespace newtop
