// Message-ordering engines.
//
// Each group runs one engine, chosen by its OrderMode (§3 of the paper) and
// rebuilt at every view install:
//
//  * SymmetricOrder — causality-preserving total order by (Lamport ts,
//    sender id).  A message is deliverable once every other member has been
//    heard from with a later timestamp; idle members keep the order
//    advancing with time-silence nulls.
//  * SequencerOrder — the asymmetric protocol: the lowest-ranked view
//    member assigns global order numbers and multicasts them.
//  * CausalOrder — causal delivery only, via per-group dependency vectors.
//
// OrderingEngine holds exactly one of them and is all the endpoint sees:
// it feeds messages, takes deliverables and reads holdback without knowing
// which protocol runs.  Engines are pure ordering state machines: they are
// fed FIFO-contiguous messages (gap recovery happens upstream) and emit
// batches of deliverable messages.  Keeping them free of I/O makes them
// directly unit-testable.
#pragma once

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <variant>
#include <vector>

#include "gcs/messages.hpp"
#include "gcs/types.hpp"

namespace newtop {

/// Payload of a DataKind::kOrder stream message: the sequencer's record
/// that refs[i] holds global order number first_order + i.
struct OrderRecord {
    std::uint64_t first_order{0};
    std::vector<MsgRef> refs;
};
NEWTOP_WIRE(OrderRecord, first_order, refs);

/// Symmetric total order.  Deterministic rule shared by all members:
/// deliver pending messages in (ts, sender) order, releasing the head once
/// no member can still produce an earlier-ordered message.
class SymmetricOrder {
public:
    /// Install membership (resets all ordering state).
    void reset(std::vector<EndpointId> members);

    /// Feed one FIFO-contiguous message (application or null) from a
    /// current member.  Nulls advance the order but are not delivered.
    void on_data(DataMsg msg);

    /// Messages now deliverable, in delivery order.
    std::vector<DataMsg> take_deliverable();

    /// True if application messages are still waiting to be ordered —
    /// drives the event-driven time-silence mechanism: while someone's
    /// message is held back, everyone must keep nulling.
    [[nodiscard]] bool has_pending() const { return !holdback_.empty(); }

    /// Number of application messages currently held back (diagnostics).
    [[nodiscard]] std::size_t pending_count() const { return holdback_.size(); }

    /// Lowest timestamp this engine still considers undeliverable (for
    /// diagnostics/tests).
    [[nodiscard]] std::optional<Lamport> head_ts() const;

    /// Remove and return everything still held back (view-change flush).
    std::vector<DataMsg> drain_pending();

private:
    struct Key {
        Lamport ts;
        EndpointId sender;
        friend auto operator<=>(const Key&, const Key&) = default;
    };

    [[nodiscard]] bool deliverable(const Key& key) const;

    std::map<Key, DataMsg> holdback_;
    std::map<EndpointId, Lamport> latest_ts_;
};

/// Asymmetric total order.  The sequencer assigns consecutive order
/// numbers to application messages as it receives them; everyone delivers
/// in order-number sequence once both the data and its order record are
/// present.  The sequencer's own messages are ordered with zero extra hops
/// — the property the restricted-group optimisation (§4.2) exploits.
class SequencerOrder {
public:
    /// Install membership; `self` determines the sequencer role.
    void reset(std::vector<EndpointId> members, EndpointId self);

    [[nodiscard]] bool is_sequencer() const { return self_ == sequencer_; }
    [[nodiscard]] EndpointId sequencer() const { return sequencer_; }

    /// Feed one FIFO-contiguous message.  Nulls bypass ordering; a kOrder
    /// message is decoded as an OrderRecord and applied, except the
    /// sequencer's own, whose assignments are already here.  Throws
    /// DecodeError for a malformed order record.
    void on_data(DataMsg msg);

    /// Feed an order record from the sequencer.
    void on_order(const OrderRecord& record);

    /// If this member is the sequencer and new assignments were made,
    /// returns the order record to multicast, covering all of them.
    std::optional<OrderRecord> take_order_to_send();

    /// Assignments made but not yet handed out for broadcast — the batch an
    /// ORDER flush would cover.
    [[nodiscard]] std::size_t fresh_count() const { return fresh_assignments_.size(); }

    /// Messages now deliverable, in global order.
    std::vector<DataMsg> take_deliverable();

    [[nodiscard]] bool has_pending() const {
        return !data_store_.empty() || !assignment_.empty();
    }

    /// Number of distinct application messages awaiting order or data
    /// (diagnostics).  The two pending sets can be disjoint — data waiting
    /// for its order record, and assigned order numbers whose data has not
    /// arrived — so this counts their union, not the larger of the two.
    [[nodiscard]] std::size_t pending_count() const {
        std::size_t n = data_store_.size();
        for (const auto& [order, ref] : assignment_) {
            if (!data_store_.contains(ref)) ++n;
        }
        return n;
    }

    /// All *broadcast* assignments learned this epoch (including delivered
    /// ones) — the view-change flush reports these so the cut preserves
    /// sequencer order.  Assignments whose order record was never taken for
    /// sending are deliberately absent: no other member can have delivered
    /// by them, and the cut's (ts, sender) fallback must win instead.
    [[nodiscard]] const std::map<std::uint64_t, MsgRef>& assignment_log() const { return log_; }

    /// Remove and return everything still held back (view-change flush).
    std::vector<DataMsg> drain_pending();

private:
    EndpointId self_;
    EndpointId sequencer_;
    std::uint64_t next_assign_{0};   // sequencer: next order number to hand out
    std::uint64_t next_deliver_{0};  // everyone: next order number to deliver
    std::vector<MsgRef> fresh_assignments_;
    std::map<std::uint64_t, MsgRef> assignment_;  // order number -> undelivered message
    std::map<std::uint64_t, MsgRef> log_;         // order number -> message (whole epoch)
    std::map<MsgRef, DataMsg> data_store_;        // undelivered data
    /// Every ref ever fed to on_data this epoch — including delivered ones,
    /// whose data/assignment entries are already gone.  Duplicates (e.g. a
    /// redundant retransmission) must not reach the assignment path: a
    /// second order slot for the same ref can never be satisfied once the
    /// first delivery consumed the data, wedging delivery forever.
    std::set<MsgRef> seen_refs_;
};

/// Causal order via dependency vectors: message m carries, per member, how
/// many of that member's messages the sender had delivered; m is delivered
/// once the local count matches.
class CausalOrder {
public:
    void reset(std::vector<EndpointId> members);

    void on_data(DataMsg msg);

    std::vector<DataMsg> take_deliverable();

    /// Snapshot of delivered counts, to stamp onto outgoing messages.
    [[nodiscard]] std::vector<std::pair<EndpointId, Seqno>> delivered_vector() const;

    [[nodiscard]] bool has_pending() const { return !pending_.empty(); }

    /// Number of messages whose causal dependencies are unmet (diagnostics).
    [[nodiscard]] std::size_t pending_count() const { return pending_.size(); }

    /// Remove and return everything still held back (view-change flush).
    std::vector<DataMsg> drain_pending();

private:
    [[nodiscard]] bool satisfied(const DataMsg& msg) const;

    std::map<EndpointId, Seqno> delivered_count_;
    std::vector<DataMsg> pending_;
};

/// The one ordering engine of a group: the protocol its OrderMode names,
/// built over the installed view.  Callers never branch on the mode: the
/// common operations forward to the protocol, and each mode-specific query
/// answers "nothing" in the other modes.
class OrderingEngine {
public:
    OrderingEngine() = default;  // symmetric over no members: no view yet
    OrderingEngine(OrderMode mode, const std::vector<EndpointId>& members, EndpointId self);

    /// Feed one FIFO-contiguous stream message or null from a member.
    /// Throws DecodeError for a peer's malformed order record.
    void on_data(DataMsg msg);
    std::vector<DataMsg> take_deliverable();
    [[nodiscard]] bool has_pending() const;
    [[nodiscard]] std::size_t pending_count() const;
    std::vector<DataMsg> drain_pending();

    /// Symmetric: the lowest held-back timestamp, which progress nulls chase.
    [[nodiscard]] std::optional<Lamport> symmetric_head() const;
    /// Asymmetric: the broadcast assignments a view-change flush reports.
    [[nodiscard]] std::vector<std::pair<std::uint64_t, MsgRef>> flush_orders() const;
    /// Causal: the delivered counts to stamp on an outgoing message.
    [[nodiscard]] std::vector<std::pair<EndpointId, Seqno>> causal_vector() const;
    /// Asymmetric, at the sequencer: the assignments not yet broadcast, and
    /// the order record that hands them all out.
    [[nodiscard]] std::size_t fresh_count() const;
    std::optional<OrderRecord> take_order_to_send();

private:
    std::variant<SymmetricOrder, SequencerOrder, CausalOrder> engine_;
};

}  // namespace newtop
