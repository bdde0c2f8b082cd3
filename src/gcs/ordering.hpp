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
#include <span>
#include <utility>
#include <variant>
#include <vector>

#include "gcs/messages.hpp"
#include "gcs/types.hpp"
#include "sim/fifo_ring.hpp"
#include "util/check.hpp"

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
///
/// Held messages sit in one FIFO per member.  A sender's timestamps
/// strictly increase along its stream (every send ticks the sender's
/// Lamport clock), so each FIFO is already in ts order and the delivery
/// order is a k-way merge: the head is the least (front ts, member).
class SymmetricOrder {
public:
    /// Install membership (resets all ordering state).
    void reset(std::vector<EndpointId> members);

    /// Feed one FIFO-contiguous message (application or null) from a
    /// current member.  Nulls advance the order but are not delivered.
    /// An application-like message must carry a timestamp above every
    /// one already fed from its sender.
    void on_data(DataMsg msg);

    /// Append the messages now deliverable to `out`, in delivery order.
    void take_deliverable(std::vector<DataMsg>& out);
    /// The same into a fresh vector, for perfbench's ordering microloop.
    std::vector<DataMsg> take_deliverable();

    /// True if application messages are still waiting to be ordered —
    /// drives the event-driven time-silence mechanism: while someone's
    /// message is held back, everyone must keep nulling.
    [[nodiscard]] bool has_pending() const { return held_count_ != 0; }

    /// Number of application messages currently held back (diagnostics).
    [[nodiscard]] std::size_t pending_count() const { return held_count_; }

    /// Lowest timestamp this engine still considers undeliverable (for
    /// diagnostics/tests).
    [[nodiscard]] std::optional<Lamport> head_ts() const;

    /// Remove and return everything still held back (view-change flush).
    std::vector<DataMsg> drain_pending();

private:
    struct Stream {
        EndpointId member;
        Lamport latest_ts{0};        // highest ts heard, nulls included
        FifoRing<DataMsg> held;      // undelivered application-like messages
    };

    /// Index of the stream whose front orders first, or streams_.size()
    /// when nothing is held.
    [[nodiscard]] std::size_t head() const;
    [[nodiscard]] bool deliverable(std::size_t head) const;
    DataMsg pop(std::size_t head);

    std::vector<Stream> streams_;  // ascending member id
    std::size_t held_count_{0};
};

/// Asymmetric total order.  The sequencer assigns consecutive order
/// numbers to application messages as it receives them; everyone delivers
/// in order-number sequence once both the data and its order record are
/// present.  The sequencer's own messages are ordered with zero extra hops
/// — the property the restricted-group optimisation (§4.2) exploits.
///
/// State is per-sender FIFO.  Each sender's messages arrive in increasing
/// seq, and the sequencer assigns them order numbers in that same arrival
/// order, so the next message to deliver is always the front of its
/// sender's queue.  Order records cover 0, 1, 2, ... contiguously, so the
/// assignments of an epoch are one vector indexed by order number.
class SequencerOrder {
public:
    /// Install membership; `self` determines the sequencer role.
    void reset(std::vector<EndpointId> members, EndpointId self);

    [[nodiscard]] bool is_sequencer() const { return self_ == sequencer_; }
    [[nodiscard]] EndpointId sequencer() const { return sequencer_; }

    /// Feed one FIFO-contiguous message from a current member.  Nulls
    /// bypass ordering; a kOrder message is decoded as an OrderRecord and
    /// applied, except the sequencer's own, whose assignments are already
    /// here.  A message whose seq is not above every seq already fed from
    /// its sender is a retransmitted duplicate and is dropped.  Throws
    /// DecodeError for a malformed order record.
    void on_data(DataMsg msg);

    /// Feed an order record from the sequencer.  Records must continue the
    /// order numbers exactly where the previous one ended.
    void on_order(const OrderRecord& record);

    /// If this member is the sequencer and new assignments were made,
    /// returns the order record to multicast, covering all of them.
    std::optional<OrderRecord> take_order_to_send();

    /// Assignments made but not yet handed out for broadcast — the batch an
    /// ORDER flush would cover.
    [[nodiscard]] std::size_t fresh_count() const { return log_.size() - broadcast_; }

    /// Append the messages now deliverable to `out`, in global order.
    void take_deliverable(std::vector<DataMsg>& out);
    /// The same into a fresh vector, for perfbench's ordering microloop.
    std::vector<DataMsg> take_deliverable();

    [[nodiscard]] bool has_pending() const {
        return data_count_ != 0 || next_deliver_ < log_.size();
    }

    /// Number of distinct application messages awaiting order or data
    /// (diagnostics).  The two pending sets can be disjoint — data waiting
    /// for its order record, and assigned order numbers whose data has not
    /// arrived — so this counts their union, not the larger of the two.
    [[nodiscard]] std::size_t pending_count() const;

    /// All *broadcast* assignments learned this epoch (including delivered
    /// ones), indexed by order number — the view-change flush reports these
    /// so the cut preserves sequencer order.  Assignments whose order record
    /// was never taken for sending are deliberately absent: no other member
    /// can have delivered by them, and the cut's (ts, sender) fallback must
    /// win instead.
    [[nodiscard]] std::span<const MsgRef> assignment_log() const {
        return {log_.data(), broadcast_};
    }

    /// Remove and return everything still held back (view-change flush).
    std::vector<DataMsg> drain_pending();

private:
    struct SenderQueue {
        EndpointId member;
        /// One past the highest seq fed from this sender.  Streams are
        /// FIFO, so anything below it is a retransmitted duplicate — of a
        /// pending message or of one already delivered.  Without this a
        /// duplicate earns a second order slot whose data can never
        /// reappear, and take_deliverable() stalls there permanently.
        Seqno next_seq{0};
        FifoRing<DataMsg> data;  // fed, undelivered, in seq order
    };

    EndpointId self_;
    EndpointId sequencer_;
    std::vector<SenderQueue> senders_;  // ascending member id
    std::size_t data_count_{0};
    /// Order number -> message, for every assignment known this epoch.  At
    /// the sequencer the tail past broadcast_ is fresh: assigned, not yet
    /// handed out.  Elsewhere broadcast_ == log_.size().
    std::vector<MsgRef> log_;
    std::size_t broadcast_{0};
    std::uint64_t next_deliver_{0};  // everyone: next order number to deliver
};

/// Causal order via dependency vectors: message m carries, per member, how
/// many of that member's messages the sender had delivered; m is delivered
/// once the local count matches.
class CausalOrder {
public:
    void reset(std::vector<EndpointId> members);

    void on_data(DataMsg msg);

    /// Append the messages whose dependencies are now met to `out`.
    void take_deliverable(std::vector<DataMsg>& out);

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

/// The application-like messages of one sender delivered in the current
/// epoch.  Every engine releases a sender's messages in seq order, so the
/// delivered set is always a seq prefix and one count records it.
class DeliveredPrefix {
public:
    /// Record delivery of the sender's message `seq`.  Delivery never goes
    /// back inside the prefix.
    void note(Seqno seq);

    /// True if the sender's application-like message `seq` was delivered.
    [[nodiscard]] bool contains(Seqno seq) const { return seq < count_; }

    /// Last delivered seq + 1 (0 before the first delivery).
    [[nodiscard]] Seqno count() const { return count_; }

private:
    Seqno count_{0};
};

/// The messages of the current epoch that are not yet known stable: own
/// sends and in-order arrivals, kept for NACK retransmission and the
/// view-change flush.
///
/// A message is held as its GCS wire frame (encode_gcs_message) plus its
/// span, not as a decoded DataMsg: a NACK retransmits the frame as it is,
/// the sequencer reads the span, and only the view-change paths decode.
///
/// Each sender's held messages are one contiguous seq run.  Own sends take
/// consecutive seqs, arrivals are ingested in seq order, stability drops a
/// prefix, and a view install clears the store.  So the store keeps one
/// ring per sender, in ascending sender id, and finds a message by index.
/// Iteration is sender-major and seq-minor, which is exactly MsgRef order.
class UnstableStore {
public:
    struct Held {
        Bytes wire;  // the message's GCS frame
        obs::SpanContext span;
    };

    /// Keep `wire`, which must be encode_gcs_message(msg).  After a
    /// sender's first message in the epoch, each of its messages must
    /// continue the run: seq is one past the last seq added, whatever
    /// stability has dropped since.  Returns the message as held, valid
    /// until the store next changes.
    const Held& add(const DataMsg& msg, Bytes wire);

    /// The held message `ref`, or nullptr.
    [[nodiscard]] const Held* find(MsgRef ref) const;

    /// Drop `sender`'s messages below seq `floor`: they went stable.
    void erase_below(EndpointId sender, Seqno floor);

    /// Decode every held message and pass it to `fn`, in (sender, seq)
    /// order.  Only the view-change paths walk the store.
    template <typename Fn>
    void for_each(Fn&& fn) const {
        for (const Stream& stream : streams_) {
            for (std::size_t i = 0; i < stream.held.size(); ++i) {
                fn(decode_data_message(stream.held[i].wire));
            }
        }
    }

    [[nodiscard]] std::size_t size() const { return size_; }
    [[nodiscard]] bool empty() const { return size_ == 0; }

    /// Forget every message and sender (view install).
    void clear();

private:
    struct Stream {
        EndpointId member;
        Seqno first{0};  // seq of the oldest held message
        FifoRing<Held> held;
    };

    std::vector<Stream> streams_;  // ascending member id
    std::size_t size_{0};
};

/// Cross-group causal knowledge: for each (group, sender), the latest epoch
/// heard of and how many of the sender's stream messages are known to exist
/// in it.  A flat vector sorted by (group, sender): a single note binary-
/// searches, and merging a peer's snapshot, which is sorted the same way,
/// is one forward walk through both.
class KnowledgeTable {
public:
    /// Raise (group, sender)'s entry: a later epoch replaces it, the same
    /// epoch keeps the larger count, an earlier epoch is ignored.
    void note(const KnowledgeEntry& entry);

    /// note() every entry of a peer's snapshot.  Entries out of
    /// (group, sender) order still land correctly, just more slowly.
    void merge(const std::vector<KnowledgeEntry>& entries);

    /// Every entry outside group `excluding`, in (group, sender) order.
    [[nodiscard]] std::vector<KnowledgeEntry> snapshot(GroupId excluding) const;

private:
    /// note() `entry` into entries_[at], the first entry not ordered before it.
    void raise_at(std::size_t at, const KnowledgeEntry& entry);
    /// Index of the first entry not ordered before `entry`.
    [[nodiscard]] std::size_t lower_bound(const KnowledgeEntry& entry) const;

    std::vector<KnowledgeEntry> entries_;  // sorted and unique by (group, sender)
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
    /// Append the messages now deliverable to `out`, in delivery order.
    void take_deliverable(std::vector<DataMsg>& out);
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
