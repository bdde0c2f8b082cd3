// The mini-ORB: one-to-one request/reply and oneway invocations between
// nodes, with call correlation, timeouts, and IOGR failover.
//
// This stands in for omniORB2 in the paper's architecture (fig. 2): the
// application, the NewTop service objects and the group-communication
// protocol all exchange messages through ORB invocations.  Costs are
// explicit — marshalling/unmarshalling consume node CPU, payloads consume
// link bandwidth — so the "NewTop call = 2.5x plain call" overhead
// measured in §5.1.1 emerges from the same mechanism as in the paper.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "net/network.hpp"
#include "orb/ior.hpp"
#include "orb/object_adapter.hpp"
#include "serial/arena.hpp"

namespace newtop {

enum class ReplyStatus : std::uint8_t {
    kOk = 0,
    kNoObject = 1,   // target key not active at the node
    kException = 2,  // servant threw; payload carries the message
    kTimeout = 3,    // no reply within the caller's deadline
};

/// Completion callback for a two-way invocation.  Called exactly once.
using ReplyHandler = std::function<void(ReplyStatus, const Bytes& payload)>;

struct CallIdTag {};
using OrbCallId = StrongId<CallIdTag, std::uint64_t>;

class Orb {
public:
    /// Create the ORB runtime for `node` and attach it as the node's
    /// message receiver.  One ORB per node.
    Orb(Network& network, NodeId node);

    /// Cancels the unfinished calls' deadlines.
    ~Orb();

    Orb(const Orb&) = delete;
    Orb& operator=(const Orb&) = delete;

    [[nodiscard]] NodeId node_id() const { return node_; }
    ObjectAdapter& adapter() { return adapter_; }
    Scheduler& scheduler() { return network_->scheduler(); }
    Network& network() { return *network_; }

    /// Which life of the node this ORB belongs to (captured at
    /// construction).
    [[nodiscard]] std::uint32_t incarnation() const { return incarnation_; }

    /// True when the process this ORB belongs to no longer exists: the node
    /// is crashed, or it restarted and a newer incarnation owns the host.
    /// Checked instead of Node::crashed() so that a previous life stays dead
    /// after a restart (a restarted node must not resurrect its
    /// predecessor's protocol state).
    [[nodiscard]] bool process_defunct() const {
        const Node& n = network_->node(node_);
        return n.crashed() || n.incarnation() != incarnation_;
    }

    /// Two-way invocation.  `timeout` == 0 means wait forever (only safe
    /// when the target cannot fail).  The handler runs on this node's CPU.
    /// `args` is borrowed for the duration of the call (it is copied into
    /// the framed request), so one buffer can serve many invocations.
    OrbCallId invoke(const Ior& target, std::uint32_t method, const Bytes& args,
                     ReplyHandler handler, SimDuration timeout = 0);

    /// Oneway (fire-and-forget) invocation: no reply, no delivery guarantee
    /// beyond what the transport gives.
    void invoke_oneway(const Ior& target, std::uint32_t method, const Bytes& args);

    /// Two-way invocation whose reply is charged but not awaited.  On the
    /// wire and at the server it is an ordinary two-way call (the server
    /// executes it and sends a reply), framed with request id 0, which names
    /// no call.  When that reply arrives the caller counts it and its CPU is
    /// charged the reply's unmarshalling, as for any reply, but nothing is
    /// tracked: no call-table entry, no deadline and no completion event.
    /// Models a synchronous invocation whose result the caller ignores
    /// (§2.2's multicast legs).
    void invoke_unawaited(const Ior& target, std::uint32_t method, const Bytes& args);

    /// Abandon a pending call; its handler will not run.
    void cancel(OrbCallId id);

    /// Invoke through an object *group* reference: try the primary, and on
    /// timeout / missing object transparently retry the remaining members
    /// (§2.2's IOGR behaviour).  `per_member_timeout` must be positive.
    void invoke_group(const Iogr& group, std::uint32_t method, Bytes args,
                      ReplyHandler handler, SimDuration per_member_timeout);

    // -- Diagnostics (tests) --------------------------------------------------

    /// Two-way calls awaiting their reply, timeout or cancel.
    [[nodiscard]] std::size_t pending_calls() const { return live_calls_; }
    /// Entries in the call table, finished ones not yet dropped included.
    [[nodiscard]] std::size_t call_table_size() const { return calls_.size(); }

    /// The call table never drops finished entries while it holds fewer.
    static constexpr std::size_t kCompactFloor = 64;

private:
    /// One two-way call.  An empty handler marks a finished (completed,
    /// timed out or cancelled) call whose entry has not been dropped yet.
    struct Pending {
        std::uint64_t request_id{0};
        ReplyHandler handler;
        TimerId timer{0};
    };

    /// The unfinished call `request_id`, or nullptr.
    Pending* find_call(std::uint64_t request_id);
    /// Mark `call` finished: cancel its timer and empty its handler, which
    /// is returned.  Drops every finished entry in one pass once they
    /// outnumber the unfinished ones (and the floor), so no completion
    /// shifts the table.
    ReplyHandler finish(Pending& call);

    void on_message(NodeId from, Bytes payload);
    void handle_request(NodeId from, Decoder& d, Bytes wire);
    void handle_reply(Decoder& d);
    void send_reply(NodeId to, std::uint64_t request_id, ReplyStatus status, Bytes payload);
    /// Frame a request and send it once this node's CPU has marshalled it.
    void send_request(const Ior& target, std::uint64_t request_id, bool oneway,
                      std::uint32_t method, const Bytes& args);
    void complete(std::uint64_t request_id, ReplyStatus status, const Bytes& payload);
    void try_group_member(Iogr group, std::size_t attempt, std::uint32_t method, Bytes args,
                          ReplyHandler handler, SimDuration per_member_timeout);

    Network* network_;
    NodeId node_;
    std::uint32_t incarnation_;
    ObjectAdapter adapter_;
    obs::Counter invocations_;
    obs::Counter call_timeouts_;
    obs::Counter oneways_;
    obs::Counter requests_handled_;
    obs::Counter replies_sent_;
    obs::Counter replies_received_;
    obs::Counter group_retries_;
    /// Recycled wire buffers: received messages retire here after dispatch
    /// and the next outgoing encode reuses their storage, so the steady-
    /// state request/reply path allocates nothing.
    EncodeArena arena_;
    std::uint64_t next_request_id_{1};
    /// The call table, in ascending request id: ids are issued in order, so
    /// invoke() appends and a lookup is a binary search.  Never iterated in
    /// any order that reaches completion or the trace.
    std::vector<Pending> calls_;
    std::size_t live_calls_{0};
};

}  // namespace newtop
