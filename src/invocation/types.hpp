// Vocabulary of the flexible object-group invocation layer (§4).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "gcs/types.hpp"
#include "util/time.hpp"
#include "util/bytes.hpp"

namespace newtop {

/// The four invocation primitives of §2.1.
enum class InvocationMode : std::uint8_t {
    kOneWay = 0,        // no reply expected
    kWaitFirst = 1,     // reply from a single member suffices
    kWaitMajority = 2,  // replies from a majority of the server group
    kWaitAll = 3,       // replies from every member
};
constexpr InvocationMode wire_max(InvocationMode) { return InvocationMode::kWaitAll; }

/// How a client is attached to a server group (§2.1, fig. 3).
enum class BindMode : std::uint8_t {
    /// Client joins the servers' communication: its requests are multicast
    /// directly to all replicas, failures are masked automatically.  Best
    /// on low-latency paths.
    kClosed = 0,
    /// Client forms a client/server group with a single member (the
    /// request manager) which forwards requests and gathers replies.  Best
    /// over high-latency paths.
    kOpen = 1,
};
constexpr BindMode wire_max(BindMode) { return BindMode::kOpen; }

/// Identifies one logical call end-to-end (client retry uses the same id so
/// servers can suppress re-execution — §4.1's "call number").
struct CallId {
    /// Issuing endpoint id, or the client *group* id for group-to-group
    /// invocations (see `group_origin`).
    std::uint64_t origin{0};
    std::uint64_t seq{0};
    bool group_origin{false};

    friend auto operator<=>(const CallId&, const CallId&) = default;
};

/// One server's reply to a call.
struct ReplyEntry {
    EndpointId replier;
    bool ok{true};  // false: the servant raised an exception
    Bytes value;    // result, or the exception message
};

/// What the client's completion handler receives.
struct GroupReply {
    /// True when the invocation mode's threshold was met; false when the
    /// call completed exceptionally (timeout with partial replies).
    bool complete{false};
    std::vector<ReplyEntry> replies;

    /// Convenience: the first successful reply value, or nullptr.
    [[nodiscard]] const Bytes* first_value() const {
        for (const auto& r : replies) {
            if (r.ok) return &r.value;
        }
        return nullptr;
    }
};

using GroupReplyHandler = std::function<void(const GroupReply&)>;

/// How long an invited request manager / server has to bring the client
/// into the client/server group before the binding gives up on it and
/// tries the next candidate.
inline constexpr SimDuration kInviteTimeout{3'000'000};  // 3 s

/// Client-side binding knobs (§4.2's customisations).
struct BindOptions {
    BindMode mode{BindMode::kOpen};
    /// Open groups: bind to the server group's leader so the request
    /// manager, sequencer (and primary, for passive replication) coincide —
    /// the "restricted group" optimisation.  When false, the client picks a
    /// server by hashing its identity across the membership.
    bool restricted{false};
    /// Open groups + kWaitFirst: the request manager replies from its own
    /// execution and forwards to the rest asynchronously ("asynchronous
    /// message forwarding").  Requires `restricted`.
    bool async_forwarding{false};
    /// Ordering protocol for the client/server group (open mode).
    OrderMode cs_order{OrderMode::kTotalAsymmetric};
    /// Give up on a call after this long (0 = wait forever; rebinding on
    /// request-manager failure still applies).
    SimDuration call_timeout{0};
};

}  // namespace newtop
