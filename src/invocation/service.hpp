// InvocationService: the upper half of a NewTop service object (§4).
//
// It layers the paper's flexible invocation styles on the group
// communication endpoint:
//
//  * request-reply against a server group, in **closed** mode (the client
//    joins the servers' access group and multicasts requests directly —
//    failures masked automatically) or **open** mode (the client forms a
//    client/server group with a single *request manager* that forwards the
//    request inside the server group and gathers replies, fig. 4),
//  * the four primitives: one-way send / wait-first / wait-majority /
//    wait-all,
//  * the §4.2 optimisations: *restricted group* (RM = server-group leader =
//    sequencer) and *asynchronous message forwarding* (RM answers from its
//    own execution, forwarding one-way) — the passive-replication shape,
//  * **group-to-group** invocation via a client monitor group (§4.3),
//  * client rebinding with retry call-numbers and server-side reply caches
//    so retries never re-execute (§4.1),
//
// One InvocationService per NSO.  The NewTopService facade routes GCS
// deliveries/view events and NSO management traffic into it.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "gcs/endpoint.hpp"
#include "invocation/envelope.hpp"
#include "invocation/group_servant.hpp"
#include "invocation/types.hpp"
#include "orb/process_timer.hpp"
#include "util/rng.hpp"

namespace newtop {

/// Identifies a client-side binding created by bind()/bind_group().
using BindingId = std::uint64_t;

/// ORB method id of the NSO management servant's join-client/server-group
/// operation (see NewTopService).
inline constexpr std::uint32_t kNsoJoinCsMethod = 201;

class InvocationService {
public:
    InvocationService(Orb& orb, GroupCommEndpoint& endpoint, Directory& directory);

    InvocationService(const InvocationService&) = delete;
    InvocationService& operator=(const InvocationService&) = delete;

    // -- server side -----------------------------------------------------------

    /// Serve `service` with `servant`: creates the server group or joins it
    /// if it already exists.  All members of a service must pass equivalent
    /// configs.
    void serve(const std::string& service, const GroupConfig& config,
               std::shared_ptr<GroupServant> servant);

    /// True once this member is in the server group's installed view.
    [[nodiscard]] bool serving(const std::string& service) const;

    /// §2.2's IOGR story: each serve() also exports the servant as a plain
    /// ORB object, so a client can build an Interoperable Object *Group*
    /// Reference over the replicas and let the ORB fail over transparently
    /// (Orb::invoke_group) — no ordering, no reply gathering; the
    /// lightweight alternative to a full group binding.
    [[nodiscard]] static Iogr service_iogr(const Directory& directory,
                                           const std::string& service);

    // -- client side -----------------------------------------------------------

    /// Bind to a service.  Binding is asynchronous; calls made before the
    /// binding is ready are queued.
    BindingId bind(const std::string& service, const BindOptions& options);

    /// Bind a client *group* to a service (§4.3).  Every member of
    /// `client_group` must call this (and then make the same sequence of
    /// invocations); replies are multicast so all members receive them
    /// atomically.
    BindingId bind_group(GroupId client_group, const std::string& service,
                         const BindOptions& options);

    /// Invoke a method on the bound group.  `handler` runs exactly once
    /// (not at all for kOneWay when null).
    void invoke(BindingId binding, std::uint32_t method, Bytes args, InvocationMode mode,
                GroupReplyHandler handler);

    /// Fire-and-forget multicast invocation.
    void one_way(BindingId binding, std::uint32_t method, Bytes args);

    /// Tear down a binding (open mode: disbands the client/server group).
    void unbind(BindingId binding);

    [[nodiscard]] bool binding_ready(BindingId binding) const;
    /// Current request manager of an open binding (for tests/diagnostics).
    [[nodiscard]] std::optional<EndpointId> binding_manager(BindingId binding) const;
    /// How many times the binding has rebound after manager failures.
    [[nodiscard]] std::uint64_t binding_rebinds(BindingId binding) const;

    // -- hooks wired up by the NewTopService facade -------------------------------

    /// True when the delivery/view event belonged to (and was consumed by)
    /// one of this service's groups.
    bool on_deliver(const GroupCommEndpoint::Delivery& delivery);
    bool on_view_change(const GroupCommEndpoint::ViewChangeEvent& event);
    bool on_removed(GroupId group);

    /// Another NSO asks us (a server) to join a client/server group (as
    /// open-mode request manager, or as one of a closed group's members).
    /// Returns true if we are (now) joining.
    bool on_join_cs_request(const std::string& cs_name, GroupId server_group,
                            EndpointId owner);

private:
    // -- server-side state ------------------------------------------------------
    struct Served {
        std::string name;
        GroupId server_group;
        GroupConfig config;
        std::shared_ptr<GroupServant> servant;
        /// Per-origin reply cache: last executed call + our reply value, so
        /// a retried call is answered without re-execution.
        std::map<std::uint64_t, ReplyEnv> reply_cache;  // origin -> last reply
        /// Calls this member is currently collecting replies for (it is
        /// their request manager).
        struct Collecting {
            InvocationMode mode{InvocationMode::kWaitFirst};
            GroupId reply_group;  // client/server or monitor group
            obs::SpanContext span;  // this manager's span for the call
            std::vector<ReplyEntry> replies;
            std::set<EndpointId> repliers;
        };
        std::map<CallId, Collecting> collecting;
        /// Aggregates already sent, for answering client retries.
        std::map<std::uint64_t, AggregateEnv> aggregate_cache;  // origin -> last
        /// Group-to-group duplicate filter (§4.3: the RM expects the call
        /// from every member of the monitor group and forwards only one).
        std::set<CallId> seen_group_calls;
    };

    // -- client-side state ------------------------------------------------------
    struct PendingCall {
        std::uint64_t seq{0};
        std::uint32_t method{0};
        Bytes args;
        InvocationMode mode{InvocationMode::kWaitFirst};
        std::uint8_t flags{0};
        /// The client span for this call; trace id fixed at invoke() time so
        /// retries and rebinds stay inside one trace.
        obs::SpanContext span;
        GroupReplyHandler handler;
        ProcessTimer timeout;  // armed while in flight with a call_timeout
        /// Sim time of the first send (-1 until sent): feeds the per-mode
        /// reply-wait histograms and distinguishes retries from first sends.
        SimTime issued_at{-1};
        // closed mode: replies collected so far
        std::vector<ReplyEntry> replies;
        std::set<EndpointId> repliers;
    };

    struct Binding {
        BindingId id{0};
        std::string service;
        BindOptions options;
        GroupId server_group;
        /// kBackoff: every candidate server is gone (dead or evicted); the
        /// binding periodically re-resolves the service name with capped
        /// exponential backoff instead of failing permanently, so it heals
        /// when a recovered replica re-registers.  Calls made meanwhile
        /// fail immediately, like kDead.
        enum class State : std::uint8_t {
            kJoining,
            kReady,
            kBackoff,
            kDead
        } state{State::kJoining};

        // all modes
        GroupId cs_group;  // client/server group (open/closed) or monitor group gz
        std::uint64_t attempt{0};  // cs-group recreation counter
        std::uint64_t rebinds{0};
        ProcessTimer invite_timer;
        std::uint64_t backoff_round{0};  // consecutive failed re-resolutions
        ProcessTimer backoff_timer;

        // open / group-to-group
        EndpointId manager;  // current request manager
        std::set<EndpointId> failed_managers;

        // group-to-group
        bool group_origin{false};
        GroupId client_group;

        // closed: the servers invited into this binding's group (fig. 3(i):
        // the client/server group contains the client and *all* members of
        // the server group)
        std::set<EndpointId> invited_servers;

        std::uint64_t next_seq{0};
        std::deque<PendingCall> queued;                // waiting for readiness
        std::map<std::uint64_t, PendingCall> inflight; // sent, awaiting replies
    };

    // -- server-side internals (service_server.cpp) -------------------------------
    Served* served_by_server_group(GroupId g);
    void handle_closed_request(Served& served, GroupId cs_group, const RequestEnv& request);
    void handle_cs_request(Served& served, GroupId cs_group, const RequestEnv& request);
    void handle_forward(Served& served, const ForwardEnv& forward);
    void handle_server_reply(Served& served, const ReplyEnv& reply);
    void execute_and(Served& served, const CallId& call, std::uint32_t method, Bytes args,
                     obs::SpanContext parent, SimTime deadline,
                     std::function<void(ReplyEnv)> done);
    /// True (and counted/traced) when the call's deadline has passed — the
    /// client gave up already, so executing it only burns servant CPU.
    bool shed_expired(const CallId& call, SimTime deadline, const obs::SpanContext& span);
    void send_aggregate(Served& served, const CallId& call, GroupId reply_group,
                        AggregateEnv aggregate);
    void maybe_finish_collection(Served& served, const CallId& call);
    [[nodiscard]] std::size_t reply_threshold(InvocationMode mode, std::size_t servers) const;

    // -- client-side internals (service_client.cpp) --------------------------------
    Binding* find_binding(BindingId id);
    const Binding* find_binding(BindingId id) const;
    Binding* binding_by_cs_group(GroupId g);
    /// Configuration for a binding's client/server group: the server
    /// group's *current* directory config (kept fresh by runtime
    /// reconfigurations) with the binding's requested c/s ordering on top.
    /// One lookup path for every c/s group creation site, so a stale local
    /// GroupConfig can never leak into a new binding.
    [[nodiscard]] GroupConfig cs_group_config(const Binding& b) const;
    void start_open_bind(Binding& b);
    void start_closed_bind(Binding& b);
    void invite_manager(Binding& b);
    void invite_server(Binding& b, EndpointId server);
    void on_invite_expired(BindingId id, std::uint64_t attempt);
    void check_closed_ready(Binding& b, const View& view);
    void binding_became_ready(Binding& b);
    void send_call(Binding& b, PendingCall call);
    void complete_call(Binding& b, PendingCall call, bool complete);
    void handle_aggregate(Binding& b, const AggregateEnv& aggregate);
    void collect_closed_reply(Binding& b, const ReplyEnv& reply);
    void rebind(Binding& b);
    void enter_backoff(Binding& b);
    void on_backoff_retry(Binding& b);
    [[nodiscard]] std::vector<EndpointId> manager_candidates(const Binding& b) const;
    void reevaluate_closed_calls(Binding& b);
    [[nodiscard]] std::size_t live_server_count(const Binding& b) const;
    void arm_call_timeout(Binding& b, PendingCall& call);
    void fail_all_calls(Binding& b);
    [[nodiscard]] obs::MetricsRegistry& metrics() const;

    Orb* orb_;
    GroupCommEndpoint* endpoint_;
    Directory* directory_;

    /// A client/server group this member serves (as open-mode request
    /// manager or as one of a closed group's servers).
    struct ServedCsGroup {
        std::string service;
        EndpointId owner;  // the client that formed the group
    };

    std::map<std::string, Served> served_;               // by service name
    std::map<GroupId, std::string> served_index_;        // server group -> name
    std::map<GroupId, ServedCsGroup> rm_index_;          // cs group -> role

    std::map<BindingId, Binding> bindings_;
    std::map<GroupId, BindingId> bindings_by_group_;     // cs/access group -> binding
    BindingId next_binding_{1};
    std::uint64_t next_cs_name_{1};
    /// Jitter for backoff retries; seeded per-endpoint so worlds stay
    /// deterministic and concurrent bindings do not retry in lockstep.
    Rng backoff_rng_;
    /// Per-call metrics, bumped through handles into the world's registry.
    obs::Counter calls_sent_;
    obs::Counter calls_completed_;
    obs::Counter calls_failed_;
    obs::Counter replies_collected_;
    obs::Counter rm_replies_collected_;
    /// Reply-wait histogram per InvocationMode value; the last slot takes
    /// any value past kWaitAll.
    std::array<obs::Histogram, 5> reply_wait_;
};

}  // namespace newtop
