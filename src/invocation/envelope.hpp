// Invocation-layer wire envelopes.
//
// These ride as payloads of GCS multicasts (requests, forwards, in-group
// replies, aggregates) or of direct ORB oneways (closed-mode replies sent
// "directly" to the client, §2.1).
#pragma once

#include <variant>
#include <vector>

#include "gcs/messages.hpp"
#include "gcs/types.hpp"
#include "invocation/types.hpp"
#include "obs/trace.hpp"
#include "serial/serial.hpp"

namespace newtop {

// Compact wire formats (serial/wire.hpp); obs::SpanContext's fixed-width one
// lives in gcs/messages.hpp, since DATA messages carry spans too.  `args` and
// reply values are opaque blobs: only their lengths are varints, the
// application's own encoding inside them is untouched.
NEWTOP_WIRE_COMPACT(CallId, origin, seq, group_origin);
NEWTOP_WIRE_COMPACT(ReplyEntry, replier, ok, value);

/// Request flags (bit set).
inline constexpr std::uint8_t kFlagAsyncForwarding = 1 << 0;
/// The forward is informational only: execute but do not reply (used for
/// the passive side of asynchronous forwarding).
inline constexpr std::uint8_t kFlagNoReply = 1 << 1;

/// Client -> server(s).  In open mode, multicast in the client/server
/// group; in closed mode, multicast in the access group.
struct RequestEnv {
    CallId call;
    obs::SpanContext span;  // the client span issuing this call
    InvocationMode mode{InvocationMode::kWaitFirst};
    std::uint8_t flags{0};
    GroupId server_group;  // which service this call targets
    BindMode bind{BindMode::kOpen};
    std::uint32_t method{0};
    Bytes args;
    /// Absolute sim time after which the client has given up on this call
    /// (stamped from the binding's call_timeout at each send; 0 = none).
    /// Servers shed work for expired calls instead of burning CPU on
    /// replies nobody is waiting for.
    SimTime deadline{0};
};
NEWTOP_WIRE_COMPACT(RequestEnv, call, span, mode, flags, server_group, bind, method, args,
                    deadline);

/// Request manager -> server group (step (ii) of fig. 4).
struct ForwardEnv {
    CallId call;
    obs::SpanContext span;  // the request-manager span driving the forward
    InvocationMode mode{InvocationMode::kWaitFirst};
    std::uint8_t flags{0};
    EndpointId manager;  // who is collecting replies
    std::uint32_t method{0};
    Bytes args;
    /// Client deadline carried over from the RequestEnv (0 = none).
    SimTime deadline{0};
};
NEWTOP_WIRE_COMPACT(ForwardEnv, call, span, mode, flags, manager, method, args, deadline);

/// One server's reply.  Multicast within the server group (open mode,
/// fig. 4(iii)) or sent directly to the client (closed mode).
struct ReplyEnv {
    CallId call;
    obs::SpanContext span;  // the replier's execution span
    EndpointId replier;
    bool ok{true};
    Bytes value;
};
NEWTOP_WIRE_COMPACT(ReplyEnv, call, span, replier, ok, value);

/// Request manager -> client(s): the gathered replies (fig. 4(iv)).
struct AggregateEnv {
    CallId call;
    obs::SpanContext span;  // the request-manager span that collected
    bool complete{true};
    std::vector<ReplyEntry> replies;
};
NEWTOP_WIRE_COMPACT(AggregateEnv, call, span, complete, replies);

using InvocationEnvelope = std::variant<RequestEnv, ForwardEnv, ReplyEnv, AggregateEnv>;

/// The envelope wire frame: a one-byte tag (variant index + 1) and the body.
Bytes encode_envelope(const InvocationEnvelope& env);
InvocationEnvelope decode_envelope(const Bytes& wire);

}  // namespace newtop
