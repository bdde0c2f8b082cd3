// GroupCommEndpoint: one process's group-communication runtime — the lower
// half of a NewTop service object (NSO).
//
// One endpoint per NSO, regardless of how many groups the NSO's client
// participates in (§3).  The endpoint provides:
//
//  * group create / join / leave with a consistent membership (view)
//    service driven by a failure suspector,
//  * atomic multicast with causal + total order delivery (symmetric or
//    asymmetric per group), virtual synchrony across view changes,
//  * overlapping groups: one Lamport clock and one causal-knowledge store
//    span all of the endpoint's groups, so causally-related messages in
//    different groups are delivered in causal order (the fig. 7 property),
//  * the time-silence mechanism in lively and event-driven flavours.
//
// All protocol traffic travels as two-way ORB invocations between endpoint
// servants, mirroring the paper's synchronous multicast legs (§2.2): each
// leg's empty reply is charged to the sender's CPU but not awaited.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "gcs/directory.hpp"
#include "gcs/messages.hpp"
#include "obs/metrics.hpp"
#include "gcs/ordering.hpp"
#include "gcs/types.hpp"
#include "gcs/view.hpp"
#include "orb/process_timer.hpp"

namespace newtop {

/// ORB method id of the GCS servant's single "deliver" operation.
inline constexpr std::uint32_t kGcsDeliverMethod = 100;

class GroupCommEndpoint {
public:
    /// An application message delivered in agreed order.  The handler
    /// receives it as an rvalue and may take the payload; a handler taking
    /// `const Delivery&` binds as well.  Each ordered DATA message reaches
    /// the application in one colocated hand-off (one kLocalHandoffCost CPU
    /// task): a coalesced batch calls the handler once per payload, in
    /// submission order, at one sim instant, and a crash while the hand-off
    /// is queued drops the whole batch.
    struct Delivery {
        GroupId group;
        EndpointId sender;
        Lamport ts{0};
        Bytes payload;
    };
    using DeliverHandler = std::function<void(Delivery&&)>;

    /// A new view was installed at this member.
    struct ViewChangeEvent {
        View view;
        std::vector<EndpointId> joined;
        std::vector<EndpointId> departed;
    };
    using ViewHandler = std::function<void(const ViewChangeEvent&)>;

    /// This member is no longer part of the group (it left, was ejected,
    /// or the group disbanded around it).
    using RemovedHandler = std::function<void(GroupId)>;

    GroupCommEndpoint(Orb& orb, Directory& directory);

    GroupCommEndpoint(const GroupCommEndpoint&) = delete;
    GroupCommEndpoint& operator=(const GroupCommEndpoint&) = delete;

    [[nodiscard]] EndpointId id() const { return id_; }
    [[nodiscard]] const Ior& service_ior() const { return service_ior_; }
    Orb& orb() { return *orb_; }

    // -- Group management ----------------------------------------------------

    /// Create a group with this endpoint as sole member.  The first view
    /// installs immediately.
    GroupId create_group(const std::string& name, const GroupConfig& config);

    /// Join an existing group (asynchronous: membership is effective when
    /// the view including this endpoint is installed — watch the view
    /// handler).  Returns the group id.
    GroupId join_group(const std::string& name);

    /// Leave a group (asynchronous; the removed handler fires once the
    /// view excluding this endpoint installs).
    void leave_group(GroupId group);

    /// Atomic multicast to the group with the group's configured ordering.
    /// During a view change the message is queued and sent in the next view.
    /// `span` ties the payload to the invocation it belongs to for latency
    /// attribution; a zero span gets a deterministic per-endpoint synthetic
    /// trace so bare GCS traffic is profilable too.
    void multicast(GroupId group, Bytes payload, obs::SpanContext span = {});

    /// Propose a runtime configuration change for the group (must be a
    /// member).  The proposal rides the group's own ordered stream as a
    /// DataKind::kConfig message; its agreed delivery arms a
    /// flush-delimited view change whose install applies `next` at every
    /// member simultaneously.  View-synchronous: everything ordered before
    /// the cut is delivered under the old config (old OrderMode, old
    /// policies), everything after runs the new one, and in-flight sends —
    /// including coalesced batches and credit-blocked payloads — survive
    /// the switch.  Asynchronous; watch the view handler or config_epoch()
    /// for completion.
    void reconfigure(GroupId group, const GroupConfig& next);

    /// Monotonic count of configurations this member has installed for the
    /// group (0 = still on the creation-time config).
    [[nodiscard]] ConfigEpoch config_epoch(GroupId group) const;

    [[nodiscard]] bool knows_group(GroupId group) const { return groups_.contains(group); }
    [[nodiscard]] bool is_member(GroupId group) const;

    /// The current installed view ("groupdetails"), or nullptr before the
    /// first install / after removal.
    [[nodiscard]] const View* current_view(GroupId group) const;
    [[nodiscard]] const GroupConfig* group_config(GroupId group) const;

    void set_deliver_handler(DeliverHandler h) { deliver_handler_ = std::move(h); }
    void set_view_handler(ViewHandler h) { view_handler_ = std::move(h); }
    void set_removed_handler(RemovedHandler h) { removed_handler_ = std::move(h); }

    // -- Diagnostics (tests, benches) -----------------------------------------

    struct GroupStats {
        ViewEpoch epoch{0};
        bool in_view_change{false};
        std::size_t holdback{0};
        std::size_t unstable{0};
        std::uint64_t nulls_sent{0};
        std::uint64_t delivered{0};
    };
    [[nodiscard]] GroupStats group_stats(GroupId group) const;

    /// Total queued work across all of this endpoint's groups: ordering
    /// holdback plus payloads parked behind view changes or window credits.
    /// The invocation layer reads it as an overload signal when deciding
    /// whether to admit new client/server-group bindings.
    [[nodiscard]] std::size_t pending_load() const;

private:
    /// A payload waiting for a send credit (coalesce queue) or for a view
    /// change to finish (blocked_sends), with the span it keeps carrying.
    /// `kind` is kApplication for ordinary multicasts and kConfig for a
    /// parked reconfiguration proposal (config sends bypass coalescing but
    /// still block across a view change).
    struct PendingSend {
        Bytes payload;
        obs::SpanContext span;
        DataKind kind{DataKind::kApplication};
    };

    struct InboundStream {
        Seqno next_expected{0};
        std::map<Seqno, DataMsg> out_of_order;
        SimTime last_heard{0};
        /// This sender's delivered application-like messages this epoch
        /// (the view-change cut and cross-group knowledge barriers read it).
        DeliveredPrefix delivered;
        ProcessTimer nack_timer;
        /// φ-accrual inter-arrival history: the most recent positive gaps
        /// between this sender's messages (bounded ring, microseconds).
        /// Cleared with the rest of the stream at each view install, so φ
        /// always describes the current view's traffic pattern.
        std::vector<SimDuration> intervals;
        std::size_t interval_next{0};
    };

    /// φ-accrual history bounds: how many inter-arrival gaps the detector
    /// remembers per peer, and how many it needs before trusting the model
    /// (below the minimum it falls back to the fixed kSuspicionTimeout).
    static constexpr std::size_t kPhiWindow = 32;
    static constexpr std::size_t kPhiMinSamples = 3;

    struct Group {
        GroupId id;
        std::string name;
        GroupConfig config;

        View view;  // installed view; empty members + epoch 0 => skeleton
        bool installed{false};
        SimTime view_installed_at{0};
        enum class State : std::uint8_t { kNormal, kViewChange } state{State::kNormal};

        /// How many reconfigurations this member has installed (0 = the
        /// creation-time config).  Advances only at view installs, never at
        /// proposal delivery — the install *is* the switch point.
        ConfigEpoch config_epoch{0};
        /// A totally-ordered ConfigChangeMsg delivered but not yet honoured
        /// by a view install.  Virtual synchrony makes this agree across
        /// surviving members: all of them delivered the same proposals in
        /// the same order, so all hold the same pending value (last wins)
        /// and the coordinator's copy speaks for everyone.
        struct PendingConfig {
            GroupConfig next;
            std::uint64_t nonce{0};
            SimTime delivered_at{0};  // for the flush-stall histogram
        };
        std::optional<PendingConfig> pending_config;

        // send side
        Seqno next_send_seq{0};
        /// Own application-like messages delivered back to us this epoch.
        DeliveredPrefix own_delivered;
        SimTime last_send_time{0};
        bool ever_sent{false};
        /// Self-clocking for progress nulls: we only null when we have new
        /// information (something arrived since our last send), so two
        /// members waiting on a dead peer ping-pong at network pace instead
        /// of flooding their CPUs.
        bool received_since_send{false};
        /// Timestamp of our latest send in this group.  A progress null is
        /// useful only while this lags the ordering head — once we have
        /// spoken past the head, further nulls cannot unblock anyone.
        Lamport last_sent_ts{0};
        std::vector<PendingSend> blocked_sends;
        /// Flow control: own application DataMsgs in flight (sent but not
        /// yet self-delivered).  Credit-based — bounded by
        /// config.order_window; each send consumes a credit, each
        /// self-delivery returns one.
        std::size_t inflight_sends{0};
        /// Multicast payloads awaiting a window credit; drained (coalesced
        /// up to kOrderMaxBatch per DataMsg) as credits return.
        std::deque<PendingSend> coalesce_queue;

        // receive side
        std::map<EndpointId, InboundStream> inbound;
        FifoRing<DataMsg> release_queue;  // ordered, awaiting cross-group barrier
        /// At the sequencer: stream messages not yet given an order number
        /// because their cross-group barrier does not hold here yet, in
        /// arrival order (see feed_engine).
        std::vector<DataMsg> unassigned;
        UnstableStore unstable;  // own + received, this epoch

        /// The protocol config.order names, rebuilt at each view install.
        OrderingEngine engine;

        // stability
        std::map<EndpointId, std::map<EndpointId, Seqno>> stability_reports;

        /// Pending end-of-event-step ORDER flush (sequencer only): all data
        /// refs assigned while this is armed ride one multi-assignment ORDER
        /// broadcast instead of one broadcast each.
        ProcessTimer order_flush_timer;
        /// Zero-delay deferrals, armed at most once per instant: a config
        /// delivery's view-change check, an install's adaptive-order check.
        ProcessTimer config_timer;
        ProcessTimer adapt_timer;

        // liveness timers
        ProcessTimer silence_timer;
        ProcessTimer progress_timer;
        ProcessTimer suspicion_timer;
        ProcessTimer stability_timer;
        /// Event-driven groups shut the mechanisms down while idle; when
        /// they wake up, suspicion must not look at silence accumulated
        /// while they were off.
        bool liveness_active{false};
        SimTime active_since{0};

        // membership
        std::set<EndpointId> suspects;
        std::set<EndpointId> pending_joiners;
        std::set<EndpointId> pending_leavers;
        /// Ground truth for the detector's scoreboard: when each live
        /// suspicion was raised.  A later message from the suspect refutes
        /// it (gcs.suspicion_false); a view removing a suspect still listed
        /// here confirms it (gcs.suspicion_true).
        std::map<EndpointId, SimTime> suspected_at;

        // view-change round
        ViewEpoch vc_epoch{0};
        EndpointId vc_coordinator;
        bool leading{false};
        std::vector<EndpointId> vc_members;      // proposed membership
        std::set<EndpointId> vc_expected_flush;  // old members we await
        std::set<EndpointId> vc_flushed;
        std::map<MsgRef, DataMsg> vc_cut;
        std::map<std::uint64_t, MsgRef> vc_orders;
        ProcessTimer vc_timer;

        // counters
        std::uint64_t nulls_sent{0};
        std::uint64_t delivered_count{0};
    };

    class GcsServant;

    // -- wiring (endpoint.cpp) -------------------------------------------------
    /// The world's metrics registry (owned by the Network).
    [[nodiscard]] obs::MetricsRegistry& metrics() const;
    void on_wire(BytesView payload);
    void send_wire(EndpointId to, const GcsMessage& msg);
    /// Send an already-encoded GCS frame.
    void send_wire(EndpointId to, const Bytes& wire);
    void multicast_wire(const Group& g, const GcsMessage& msg);
    /// Multicast an already-encoded GCS frame to the other view members.
    void multicast_wire(const Group& g, const Bytes& wire);
    Group* find_group(GroupId id);
    const Group* find_group(GroupId id) const;
    Group& ensure_skeleton(GroupId id);

    // -- data path (endpoint.cpp) -----------------------------------------------
    void submit_send(Group& g, Bytes payload, obs::SpanContext span,
                     DataKind kind = DataKind::kApplication);
    void drain_coalesced(Group& g);
    void park_coalesced(Group& g);
    void send_data(Group& g, DataKind kind, Bytes payload, obs::SpanContext span = {},
                   std::vector<Bytes> batch = {}, std::vector<obs::SpanContext> batch_spans = {});
    /// `wire` is the frame `msg` was decoded from.
    void handle_data(DataMsg msg, BytesView wire);
    void handle_nack(const NackMsg& msg);
    void note_payload_arrival(const DataMsg& msg);
    /// `wire` is msg's frame, which the unstable store keeps.
    void ingest_in_order(Group& g, DataMsg msg, Bytes wire);
    /// Hand a FIFO-contiguous stream message to the engine, unless this
    /// member is the group's sequencer and the message's cross-group
    /// barrier does not hold here yet: then it waits in `unassigned`.
    void feed_engine(Group& g, DataMsg msg);
    /// Feed the engine every unassigned message whose barrier now holds and
    /// that no earlier unassigned message of its sender precedes; true if
    /// any was fed.
    bool assign_ready(Group& g);
    /// Move the engine's deliverable messages to the release queue.
    void queue_deliverable(Group& g);
    void pump(Group& g);
    void schedule_order_flush(Group& g);
    void flush_order(Group& g);
    void on_order_flush(Group& g);
    void try_release(Group& g);
    void try_release_all();
    [[nodiscard]] bool barrier_satisfied(const DataMsg& msg) const;
    /// True if the application-like message `ref` was delivered here this
    /// epoch (each sender's deliveries form a seq prefix).
    [[nodiscard]] bool delivered(const Group& g, const MsgRef& ref) const;
    /// Stream accounting shared by every delivery: advance the sender's
    /// delivered prefix and fold in the causal knowledge the message carries.
    void note_delivered(Group& g, const DataMsg& msg);
    void deliver_to_app(Group& g, DataMsg msg);
    /// Agreed delivery of a DataKind::kConfig message: decode the proposal,
    /// arm pending_config (last-wins across the totally-ordered stream) and
    /// trigger the flush-delimited view change that will honour it.
    void apply_config_delivery(Group& g, const DataMsg& msg);
    void schedule_nack(Group& g, EndpointId sender);
    void send_nack(Group& g, EndpointId sender);

    // -- liveness (endpoint_liveness.cpp) ----------------------------------------
    [[nodiscard]] bool mechanisms_active(const Group& g) const;
    void kick_liveness(Group& g);
    void stop_liveness(Group& g);
    void send_null(Group& g);
    void on_silence_timer(Group& g);
    void on_progress_timer(Group& g);
    void on_suspicion_scan(Group& g);
    void on_stability_tick(Group& g);
    void apply_stability_report(Group& g, EndpointId reporter,
                                const std::vector<std::pair<EndpointId, Seqno>>& counts);
    void recompute_stability(Group& g);
    [[nodiscard]] std::vector<std::pair<EndpointId, Seqno>> received_counts(const Group& g) const;
    /// φ-accrual suspicion level of `silence` against the stream's history
    /// (0 when the history is too thin to model).
    [[nodiscard]] static double phi_of(const InboundStream& stream, SimDuration silence);
    /// The detector's verdict for one peer: fixed-timeout when accrual is
    /// disabled or the history too thin, otherwise the φ rule bounded by
    /// kSuspicionTimeout (floor) and kPhiCeiling.
    [[nodiscard]] static bool suspicion_due(const GroupConfig& config,
                                            const InboundStream* stream, SimDuration silence);

    // -- membership (endpoint_membership.cpp) -------------------------------------
    void install_first_view(Group& g);
    void handle_join(const JoinReq& msg);
    void handle_leave(const LeaveReq& msg);
    void handle_suspect(const SuspectMsg& msg);
    void handle_propose(const ProposeMsg& msg);
    void handle_flush(const FlushMsg& msg);
    void handle_install(const InstallMsg& msg);
    void note_suspect(Group& g, EndpointId suspect, bool broadcast);
    void maybe_start_view_change(Group& g);
    void begin_round(Group& g);
    void enter_view_change(Group& g, ViewEpoch new_epoch, EndpointId coordinator);
    void add_flush(Group& g, EndpointId sender, std::vector<DataMsg> unstable,
                   const std::vector<std::pair<std::uint64_t, MsgRef>>& orders);
    void finish_if_flushes_complete(Group& g);
    void deliver_cut(Group& g, const InstallMsg& msg);
    void install_view(Group& g, const InstallMsg& msg);
    void resubmit_undelivered(Group& g);
    /// Adaptive ordering policy: after an install, the leader of a group
    /// with adaptive_asym_threshold > 0 proposes a switch to the sequencer
    /// protocol when membership reaches the threshold (and back to the
    /// symmetric protocol below it).  No-op for causal groups, non-leaders,
    /// or when a proposal is already pending.
    void maybe_adapt_order(Group& g);
    void on_adapt_order(Group& g);
    void on_vc_timeout(Group& g);
    void on_join_retry(const std::string& name);

    Orb* orb_;
    Directory* directory_;
    EndpointId id_;
    Ior service_ior_;
    Lamport clock_{0};
    /// Counts bare multicasts (no caller span) for synthetic trace ids.
    std::uint64_t multicast_seq_{0};
    /// Per-proposer reconfiguration counter; combined with the endpoint id
    /// it makes every ConfigChangeMsg nonce unique group-wide, so members
    /// can tell exactly which pending proposal an install honoured.
    std::uint64_t reconfig_seq_{0};
    /// Per-message metrics, bumped through handles into the world's registry.
    obs::Counter multicasts_;
    obs::Counter data_sent_;
    obs::Counter order_sent_;
    obs::Counter nulls_sent_;
    obs::Counter sends_coalesced_;
    obs::Counter delivered_payloads_;
    obs::Histogram delivery_latency_;
    obs::Histogram holdback_depth_;
    obs::Histogram order_batch_refs_;
    obs::Histogram send_batch_payloads_;

    std::map<GroupId, Group> groups_;
    /// Cross-group causal knowledge, spanning all of this endpoint's groups.
    KnowledgeTable knowledge_;
    /// Joins awaiting completion: group name -> retry timer.
    std::map<std::string, ProcessTimer> pending_joins_;

    /// pump()'s buffer for the engine's deliverables; empty between pumps,
    /// its capacity reused by the next.
    std::vector<DataMsg> deliverable_;

    /// Re-entrancy guard for drain_coalesced: a drained send can deliver
    /// synchronously (single-member group), returning a credit and
    /// re-triggering the drain mid-loop.
    bool draining_coalesced_{false};

    DeliverHandler deliver_handler_;
    ViewHandler view_handler_;
    RemovedHandler removed_handler_;
};

}  // namespace newtop
