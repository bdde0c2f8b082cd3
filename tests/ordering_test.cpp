#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "gcs/ordering.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace newtop {
namespace {

DataMsg data(EndpointId sender, Seqno seq, Lamport ts,
             DataKind kind = DataKind::kApplication) {
    DataMsg m;
    m.group = GroupId(1);
    m.epoch = 1;
    m.sender = sender;
    m.seq = seq;
    m.ts = ts;
    m.kind = kind;
    m.payload = Bytes{static_cast<std::uint8_t>(ts)};
    return m;
}

/// Everything `engine` can deliver now, through its appending form.
template <typename Engine>
std::vector<DataMsg> deliverable(Engine& engine) {
    std::vector<DataMsg> out;
    engine.take_deliverable(out);
    return out;
}

std::vector<std::pair<Lamport, EndpointId>> keys(const std::vector<DataMsg>& msgs) {
    std::vector<std::pair<Lamport, EndpointId>> out;
    for (const auto& m : msgs) out.emplace_back(m.ts, m.sender);
    return out;
}

const EndpointId kA{1}, kB{2}, kC{3};

// -- SymmetricOrder ------------------------------------------------------------

TEST(SymmetricOrder, HoldsUntilAllMembersHeardFrom) {
    SymmetricOrder order;
    order.reset({kA, kB, kC});
    order.on_data(data(kA, 0, 5));
    EXPECT_TRUE(deliverable(order).empty());  // B and C silent
    order.on_data(data(kB, 0, 7));
    EXPECT_TRUE(deliverable(order).empty());  // C still silent
    order.on_data(data(kC, 0, 6, DataKind::kNull));
    // Now everyone has spoken past ts 5: A's message releases; B's (ts 7)
    // still waits on C (only heard ts 6) and A.
    const auto batch = deliverable(order);
    ASSERT_EQ(batch.size(), 1u);
    EXPECT_EQ(batch[0].sender, kA);
}

TEST(SymmetricOrder, DeliversInTimestampOrderRegardlessOfArrival) {
    SymmetricOrder order;
    order.reset({kA, kB, kC});
    order.on_data(data(kB, 0, 9));
    order.on_data(data(kA, 0, 3));
    order.on_data(data(kC, 0, 12));
    order.on_data(data(kA, 1, 13, DataKind::kNull));
    order.on_data(data(kB, 1, 14, DataKind::kNull));
    const auto batch = deliverable(order);
    EXPECT_EQ(keys(batch), (std::vector<std::pair<Lamport, EndpointId>>{{3, kA}, {9, kB}, {12, kC}}));
}

TEST(SymmetricOrder, TimestampTieBrokenBySenderId) {
    SymmetricOrder order;
    order.reset({kA, kB});
    order.on_data(data(kB, 0, 5));
    order.on_data(data(kA, 0, 5));
    const auto batch = deliverable(order);
    EXPECT_EQ(keys(batch), (std::vector<std::pair<Lamport, EndpointId>>{{5, kA}, {5, kB}}));
}

TEST(SymmetricOrder, NullsAdvanceOrderButAreNotDelivered) {
    SymmetricOrder order;
    order.reset({kA, kB});
    order.on_data(data(kA, 0, 1));
    order.on_data(data(kB, 0, 2, DataKind::kNull));
    const auto batch = deliverable(order);
    ASSERT_EQ(batch.size(), 1u);
    EXPECT_EQ(batch[0].sender, kA);
    EXPECT_FALSE(order.has_pending());
}

TEST(SymmetricOrder, SingleMemberDeliversImmediately) {
    SymmetricOrder order;
    order.reset({kA});
    order.on_data(data(kA, 0, 1));
    EXPECT_EQ(deliverable(order).size(), 1u);
}

TEST(SymmetricOrder, RejectsNonMember) {
    SymmetricOrder order;
    order.reset({kA, kB});
    EXPECT_THROW(order.on_data(data(kC, 0, 1)), PreconditionError);
}

TEST(SymmetricOrder, DrainPendingEmptiesHoldback) {
    SymmetricOrder order;
    order.reset({kA, kB});
    order.on_data(data(kA, 0, 5));
    const auto drained = order.drain_pending();
    ASSERT_EQ(drained.size(), 1u);
    EXPECT_FALSE(order.has_pending());
}

TEST(SymmetricOrder, AgreementProperty) {
    // Two replicas of the engine fed the same messages in different arrival
    // orders deliver identical sequences.
    Rng rng(77);
    for (int iter = 0; iter < 50; ++iter) {
        std::vector<DataMsg> msgs;
        Lamport ts = 1;
        for (EndpointId m : {kA, kB, kC}) {
            const Seqno n = rng.next_in(1, 4);
            for (Seqno s = 0; s < n; ++s) msgs.push_back(data(m, s, ts++));
        }
        // Close the round so everything can deliver.
        msgs.push_back(data(kA, 99, ts + 1, DataKind::kNull));
        msgs.push_back(data(kB, 99, ts + 2, DataKind::kNull));
        msgs.push_back(data(kC, 99, ts + 3, DataKind::kNull));

        auto run = [&](std::uint64_t seed) {
            // Shuffle preserving per-sender FIFO order (the engine contract).
            std::vector<std::vector<DataMsg>> by_sender(4);
            for (const auto& m : msgs) by_sender[m.sender.value()].push_back(m);
            SymmetricOrder order;
            order.reset({kA, kB, kC});
            Rng pick(seed);
            std::vector<std::size_t> cursor(4, 0);
            std::vector<std::pair<Lamport, EndpointId>> delivered;
            while (true) {
                std::vector<std::size_t> ready;
                for (std::size_t i = 1; i <= 3; ++i) {
                    if (cursor[i] < by_sender[i].size()) ready.push_back(i);
                }
                if (ready.empty()) break;
                const auto i = ready[pick.next_in(0, ready.size() - 1)];
                order.on_data(by_sender[i][cursor[i]++]);
                for (const auto& d : deliverable(order)) {
                    delivered.emplace_back(d.ts, d.sender);
                }
            }
            return delivered;
        };
        const auto a = run(iter * 2 + 1);
        const auto b = run(iter * 2 + 2);
        EXPECT_EQ(a, b);
        EXPECT_EQ(a.size(), msgs.size() - 3);  // all app messages delivered
        EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
    }
}

// -- SequencerOrder ------------------------------------------------------------

TEST(SequencerOrder, LowestMemberIsSequencer) {
    SequencerOrder order;
    order.reset({kA, kB, kC}, kB);
    EXPECT_EQ(order.sequencer(), kA);
    EXPECT_FALSE(order.is_sequencer());
    order.reset({kA, kB, kC}, kA);
    EXPECT_TRUE(order.is_sequencer());
}

TEST(SequencerOrder, SequencerAssignsAndDeliversImmediately) {
    SequencerOrder order;
    order.reset({kA, kB}, kA);
    order.on_data(data(kB, 0, 1));
    const auto to_send = order.take_order_to_send();
    ASSERT_TRUE(to_send.has_value());
    EXPECT_EQ(to_send->first_order, 0u);
    ASSERT_EQ(to_send->refs.size(), 1u);
    EXPECT_EQ(to_send->refs[0], (MsgRef{kB, 0}));
    EXPECT_EQ(deliverable(order).size(), 1u);
}

TEST(SequencerOrder, NonSequencerWaitsForOrderRecord) {
    SequencerOrder order;
    order.reset({kA, kB}, kB);
    order.on_data(data(kB, 0, 1));
    EXPECT_TRUE(deliverable(order).empty());
    EXPECT_FALSE(order.take_order_to_send().has_value());
    OrderRecord om;
    om.first_order = 0;
    om.refs = {MsgRef{kB, 0}};
    order.on_order(om);
    EXPECT_EQ(deliverable(order).size(), 1u);
}

TEST(SequencerOrder, DeliveryFollowsAssignmentNotArrival) {
    SequencerOrder order;
    order.reset({kA, kB, kC}, kC);
    order.on_data(data(kC, 0, 10));  // arrives first locally
    order.on_data(data(kB, 0, 5));
    OrderRecord om;
    om.first_order = 0;
    om.refs = {MsgRef{kB, 0}, MsgRef{kC, 0}};  // sequencer saw B first
    order.on_order(om);
    const auto batch = deliverable(order);
    ASSERT_EQ(batch.size(), 2u);
    EXPECT_EQ(batch[0].sender, kB);
    EXPECT_EQ(batch[1].sender, kC);
}

TEST(SequencerOrder, OrderRecordBeforeDataHolds) {
    SequencerOrder order;
    order.reset({kA, kB}, kB);
    OrderRecord om;
    om.first_order = 0;
    om.refs = {MsgRef{kA, 0}};
    order.on_order(om);
    EXPECT_TRUE(deliverable(order).empty());
    order.on_data(data(kA, 0, 3));
    EXPECT_EQ(deliverable(order).size(), 1u);
}

TEST(SequencerOrder, NullsBypassOrdering) {
    SequencerOrder order;
    order.reset({kA, kB}, kA);
    order.on_data(data(kB, 0, 1, DataKind::kNull));
    EXPECT_FALSE(order.take_order_to_send().has_value());
    EXPECT_TRUE(deliverable(order).empty());
    EXPECT_FALSE(order.has_pending());
}

TEST(SequencerOrder, RetransmittedDataDoesNotGetASecondOrderSlot) {
    // Regression: a retransmitted data message (NACK recovery re-delivers
    // the same {sender, seq}) used to be assigned a *second* order slot by
    // the sequencer.  take_deliverable() erases the data at the first slot,
    // so the duplicate slot could never be satisfied and delivery stalled
    // permanently for the whole group.
    SequencerOrder order;
    order.reset({kA, kB}, kA);  // self = kA = sequencer
    order.on_data(data(kB, 0, 1));
    order.on_data(data(kB, 0, 1));  // retransmission of the same message
    const auto first = order.take_order_to_send();
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(first->refs.size(), 1u);
    EXPECT_EQ(deliverable(order).size(), 1u);

    // The next message must deliver; with the duplicate slot it stalls.
    order.on_data(data(kB, 1, 2));
    EXPECT_TRUE(order.take_order_to_send().has_value());
    ASSERT_EQ(deliverable(order).size(), 1u);
    EXPECT_FALSE(order.has_pending());
}

TEST(SequencerOrder, DuplicateOfDeliveredDataIsIgnored) {
    SequencerOrder order;
    order.reset({kA, kB}, kA);
    order.on_data(data(kB, 0, 1));
    order.take_order_to_send();
    EXPECT_EQ(deliverable(order).size(), 1u);
    // The duplicate arrives after delivery (late retransmission).
    order.on_data(data(kB, 0, 1));
    EXPECT_FALSE(order.take_order_to_send().has_value());
    EXPECT_TRUE(deliverable(order).empty());
    EXPECT_FALSE(order.has_pending());
}

TEST(SequencerOrder, AssignmentLogKeepsDeliveredEntries) {
    SequencerOrder order;
    order.reset({kA, kB}, kA);
    order.on_data(data(kB, 0, 1));
    order.take_order_to_send();
    EXPECT_EQ(deliverable(order).size(), 1u);
    EXPECT_EQ(order.assignment_log().size(), 1u);
}

// The sequencer must not deliver — nor expose through the flushed
// assignment log — an order it has not yet handed out for broadcast.  A
// private arrival order influenced nobody; if a view change strikes first,
// every fragment's cut must fall back to the same (ts, sender) rule.
// Regression for a divergence found by the chaos campaign: the sequencer
// assigned orders mid-view-change (when order records are never sent),
// flushed them, and delivered a cut contradicting the other fragment's.
TEST(SequencerOrder, UnsentAssignmentsNeitherDeliverNorReachTheLog) {
    SequencerOrder order;
    order.reset({kA, kB}, kA);
    order.on_data(data(kB, 0, 1));
    EXPECT_TRUE(deliverable(order).empty());
    EXPECT_TRUE(order.assignment_log().empty());
    order.take_order_to_send();
    EXPECT_EQ(deliverable(order).size(), 1u);
    EXPECT_EQ(order.assignment_log().size(), 1u);
}

TEST(SequencerOrder, BatchedOrderRecord) {
    SequencerOrder order;
    order.reset({kA, kB}, kA);
    order.on_data(data(kB, 0, 1));
    order.on_data(data(kB, 1, 2));
    const auto to_send = order.take_order_to_send();
    ASSERT_TRUE(to_send.has_value());
    EXPECT_EQ(to_send->refs.size(), 2u);
    EXPECT_FALSE(order.take_order_to_send().has_value());  // drained
}

// Regression: pending_count() used to report max(|data|, |assignments|),
// undercounting when the two sets are disjoint (data held without an order
// record *and* order records held without their data are both pending).
TEST(SequencerOrder, PendingCountCoversDisjointSets) {
    SequencerOrder order;
    order.reset({kA, kB, kC}, kB);  // kA is the sequencer; we are kB
    // Data with no assignment yet.
    order.on_data(data(kC, 0, 1));
    EXPECT_EQ(order.pending_count(), 1u);
    // Assignment for a *different* message whose data has not arrived.
    OrderRecord om;
    om.first_order = 0;
    om.refs = {MsgRef{kB, 7}};
    order.on_order(om);
    EXPECT_EQ(order.pending_count(), 2u);  // disjoint: 1 data + 1 assignment
    // Once the assignment's data arrives and delivers, only the unordered
    // data message remains pending.
    order.on_data(data(kB, 7, 2));
    EXPECT_EQ(deliverable(order).size(), 1u);
    EXPECT_EQ(order.pending_count(), 1u);
}

// -- CausalOrder ---------------------------------------------------------------

DataMsg causal_data(EndpointId sender, Seqno seq,
                    std::vector<std::pair<EndpointId, Seqno>> vc) {
    DataMsg m = data(sender, seq, 1);
    m.causal_vc = std::move(vc);
    return m;
}

TEST(CausalOrder, IndependentMessagesDeliverOnArrival) {
    CausalOrder order;
    order.reset({kA, kB});
    order.on_data(causal_data(kA, 0, {{kA, 0}, {kB, 0}}));
    EXPECT_EQ(deliverable(order).size(), 1u);
    order.on_data(causal_data(kB, 0, {{kA, 0}, {kB, 0}}));
    EXPECT_EQ(deliverable(order).size(), 1u);
}

TEST(CausalOrder, DependentMessageWaitsForItsCause) {
    CausalOrder order;
    order.reset({kA, kB, kC});
    // B's message depends on having delivered one message from A.
    order.on_data(causal_data(kB, 0, {{kA, 1}, {kB, 0}, {kC, 0}}));
    EXPECT_TRUE(deliverable(order).empty());
    order.on_data(causal_data(kA, 0, {{kA, 0}, {kB, 0}, {kC, 0}}));
    const auto batch = deliverable(order);
    ASSERT_EQ(batch.size(), 2u);
    EXPECT_EQ(batch[0].sender, kA);
    EXPECT_EQ(batch[1].sender, kB);
}

TEST(CausalOrder, ChainUnblocksTransitively) {
    CausalOrder order;
    order.reset({kA, kB, kC});
    order.on_data(causal_data(kC, 0, {{kA, 1}, {kB, 1}, {kC, 0}}));
    order.on_data(causal_data(kB, 0, {{kA, 1}, {kB, 0}, {kC, 0}}));
    EXPECT_TRUE(deliverable(order).empty());
    order.on_data(causal_data(kA, 0, {{kA, 0}, {kB, 0}, {kC, 0}}));
    EXPECT_EQ(deliverable(order).size(), 3u);
}

TEST(CausalOrder, DeliveredVectorTracksCounts) {
    CausalOrder order;
    order.reset({kA, kB});
    order.on_data(causal_data(kA, 0, {{kA, 0}, {kB, 0}}));
    deliverable(order);
    const auto vc = order.delivered_vector();
    ASSERT_EQ(vc.size(), 2u);
    EXPECT_EQ(vc[0], (std::pair{kA, Seqno{1}}));
    EXPECT_EQ(vc[1], (std::pair{kB, Seqno{0}}));
}

TEST(CausalOrder, DependencyOnDepartedMemberIgnored) {
    CausalOrder order;
    order.reset({kA, kB});  // kC not a member
    order.on_data(causal_data(kA, 0, {{kA, 0}, {kC, 5}}));
    EXPECT_EQ(deliverable(order).size(), 1u);
}

// -- OrderingEngine -------------------------------------------------------------

DataMsg order_record(EndpointId sender, Seqno seq, const OrderRecord& record) {
    DataMsg m = data(sender, seq, 1, DataKind::kOrder);
    m.payload = encode_to_bytes(record);
    return m;
}

TEST(OrderingEngine, SymmetricAnswersNeutrallyToOtherModesQueries) {
    OrderingEngine engine(OrderMode::kTotalSymmetric, {kA, kB}, kA);
    engine.on_data(data(kA, 0, 4));
    EXPECT_EQ(engine.pending_count(), 1u);
    EXPECT_EQ(engine.symmetric_head(), Lamport{4});
    EXPECT_TRUE(engine.flush_orders().empty());
    EXPECT_TRUE(engine.causal_vector().empty());
    EXPECT_EQ(engine.fresh_count(), 0u);
    EXPECT_FALSE(engine.take_order_to_send().has_value());
    engine.on_data(data(kB, 0, 5, DataKind::kNull));  // nulls advance the order
    EXPECT_EQ(deliverable(engine).size(), 1u);
    EXPECT_FALSE(engine.has_pending());
    EXPECT_FALSE(engine.symmetric_head().has_value());
}

TEST(OrderingEngine, SequencerAnswersNeutrallyToOtherModesQueries) {
    OrderingEngine engine(OrderMode::kTotalAsymmetric, {kA, kB}, kA);  // kA sequences
    engine.on_data(data(kB, 0, 4));
    engine.on_data(data(kB, 0, 5, DataKind::kNull));  // dropped
    EXPECT_EQ(engine.pending_count(), 1u);
    EXPECT_FALSE(engine.symmetric_head().has_value());
    EXPECT_TRUE(engine.causal_vector().empty());
    EXPECT_EQ(engine.fresh_count(), 1u);
    EXPECT_TRUE(engine.flush_orders().empty());  // nothing broadcast yet
    const auto record = engine.take_order_to_send();
    ASSERT_TRUE(record.has_value());
    EXPECT_EQ(record->refs, (std::vector<MsgRef>{MsgRef{kB, 0}}));
    EXPECT_EQ(engine.flush_orders(),
              (std::vector<std::pair<std::uint64_t, MsgRef>>{{0, MsgRef{kB, 0}}}));
    EXPECT_EQ(deliverable(engine).size(), 1u);
    EXPECT_EQ(engine.pending_count(), 0u);
}

TEST(OrderingEngine, CausalAnswersNeutrallyToOtherModesQueries) {
    OrderingEngine engine(OrderMode::kCausal, {kA, kB}, kB);
    engine.on_data(causal_data(kA, 1, {{kA, 1}, {kB, 0}}));  // waits for A's first
    EXPECT_EQ(engine.pending_count(), 1u);
    EXPECT_TRUE(engine.has_pending());
    EXPECT_FALSE(engine.symmetric_head().has_value());
    EXPECT_TRUE(engine.flush_orders().empty());
    EXPECT_EQ(engine.fresh_count(), 0u);
    EXPECT_FALSE(engine.take_order_to_send().has_value());
    EXPECT_EQ(engine.causal_vector(),
              (std::vector<std::pair<EndpointId, Seqno>>{{kA, 0}, {kB, 0}}));
    EXPECT_EQ(engine.drain_pending().size(), 1u);
    EXPECT_EQ(engine.pending_count(), 0u);
}

TEST(OrderingEngine, RebuiltEngineRunsTheNewModeFromCleanState) {
    OrderingEngine engine(OrderMode::kTotalSymmetric, {kA, kB}, kA);
    engine.on_data(data(kA, 0, 4));
    ASSERT_TRUE(engine.symmetric_head().has_value());
    engine = OrderingEngine(OrderMode::kTotalAsymmetric, {kA, kB}, kA);
    EXPECT_EQ(engine.pending_count(), 0u);
    EXPECT_FALSE(engine.symmetric_head().has_value());
    engine.on_data(data(kB, 0, 9));
    EXPECT_EQ(engine.fresh_count(), 1u);  // the sequencer role is live
    engine = OrderingEngine(OrderMode::kCausal, {kA, kB}, kA);
    EXPECT_EQ(engine.pending_count(), 0u);
    EXPECT_EQ(engine.fresh_count(), 0u);
    EXPECT_EQ(engine.causal_vector().size(), 2u);
}

TEST(OrderingEngine, SequencerAppliesPeerOrderRecordsAndSkipsItsOwn) {
    OrderingEngine member(OrderMode::kTotalAsymmetric, {kA, kB}, kB);
    member.on_data(data(kB, 0, 1));
    member.on_data(order_record(kA, 0, OrderRecord{0, {MsgRef{kB, 0}}}));
    EXPECT_EQ(deliverable(member).size(), 1u);

    DataMsg garbled = order_record(kA, 1, OrderRecord{1, {}});
    garbled.payload.push_back(0);  // trailing byte
    EXPECT_THROW(member.on_data(garbled), DecodeError);

    // The sequencer's own record is skipped, not decoded.
    OrderingEngine sequencer(OrderMode::kTotalAsymmetric, {kA, kB}, kA);
    garbled.sender = kA;
    EXPECT_NO_THROW(sequencer.on_data(garbled));
    EXPECT_FALSE(sequencer.has_pending());
}

// -- Per-sender FIFO engines against the map-based reference models ---------
//
// SymmetricOrder and SequencerOrder keep their state as per-sender FIFOs.
// The map-based engines they replaced are kept here, logic unchanged, as
// reference models: fed the same per-sender-FIFO input, both must agree on
// every observable.

class MapSymmetricOrder {
public:
    void reset(const std::vector<EndpointId>& members) {
        holdback_.clear();
        latest_ts_.clear();
        for (EndpointId m : members) latest_ts_[m] = 0;
    }

    void on_data(DataMsg msg) {
        auto& latest = latest_ts_.at(msg.sender);
        latest = std::max(latest, msg.ts);
        if (orders_like_app(msg.kind)) {
            holdback_.emplace(Key{msg.ts, msg.sender}, std::move(msg));
        }
    }

    std::vector<DataMsg> take_deliverable() {
        std::vector<DataMsg> out;
        while (!holdback_.empty() && deliverable(holdback_.begin()->first)) {
            out.push_back(std::move(holdback_.begin()->second));
            holdback_.erase(holdback_.begin());
        }
        return out;
    }

    [[nodiscard]] bool has_pending() const { return !holdback_.empty(); }
    [[nodiscard]] std::size_t pending_count() const { return holdback_.size(); }

    [[nodiscard]] std::optional<Lamport> head_ts() const {
        if (holdback_.empty()) return std::nullopt;
        return holdback_.begin()->first.first;
    }

    std::vector<DataMsg> drain_pending() {
        std::vector<DataMsg> out;
        for (auto& [key, msg] : holdback_) out.push_back(std::move(msg));
        holdback_.clear();
        return out;
    }

private:
    using Key = std::pair<Lamport, EndpointId>;

    [[nodiscard]] bool deliverable(const Key& key) const {
        for (const auto& [member, ts] : latest_ts_) {
            if (member != key.second && ts < key.first) return false;
        }
        return true;
    }

    std::map<Key, DataMsg> holdback_;
    std::map<EndpointId, Lamport> latest_ts_;
};

class MapSequencerOrder {
public:
    void reset(const std::vector<EndpointId>& members, EndpointId self) {
        *this = MapSequencerOrder{};
        self_ = self;
        sequencer_ = members.front();
    }

    [[nodiscard]] bool is_sequencer() const { return self_ == sequencer_; }

    void on_data(DataMsg msg) {
        if (msg.kind == DataKind::kOrder) {
            if (msg.sender != self_) on_order(decode_from_bytes<OrderRecord>(msg.payload));
            return;
        }
        if (!orders_like_app(msg.kind)) return;
        const MsgRef ref{msg.sender, msg.seq};
        if (!seen_refs_.insert(ref).second) return;
        data_store_.emplace(ref, std::move(msg));
        if (is_sequencer()) {
            assignment_.emplace(next_assign_, ref);
            ++next_assign_;
            fresh_.push_back(ref);
        }
    }

    void on_order(const OrderRecord& record) {
        if (is_sequencer()) return;
        for (std::size_t i = 0; i < record.refs.size(); ++i) {
            assignment_.emplace(record.first_order + i, record.refs[i]);
            log_.emplace(record.first_order + i, record.refs[i]);
        }
    }

    std::optional<OrderRecord> take_order_to_send() {
        if (fresh_.empty()) return std::nullopt;
        OrderRecord out;
        out.first_order = next_assign_ - fresh_.size();
        for (std::size_t i = 0; i < fresh_.size(); ++i) log_.emplace(out.first_order + i, fresh_[i]);
        out.refs = fresh_;
        fresh_.clear();
        return out;
    }

    [[nodiscard]] std::size_t fresh_count() const { return fresh_.size(); }

    std::vector<DataMsg> take_deliverable() {
        std::vector<DataMsg> out;
        while (true) {
            const auto order_it = assignment_.find(next_deliver_);
            if (order_it == assignment_.end()) break;
            if (is_sequencer() && !log_.contains(next_deliver_)) break;
            const auto data_it = data_store_.find(order_it->second);
            if (data_it == data_store_.end()) break;
            out.push_back(std::move(data_it->second));
            data_store_.erase(data_it);
            assignment_.erase(order_it);
            ++next_deliver_;
        }
        return out;
    }

    [[nodiscard]] bool has_pending() const { return !data_store_.empty() || !assignment_.empty(); }

    [[nodiscard]] std::size_t pending_count() const {
        std::size_t n = data_store_.size();
        for (const auto& [order, ref] : assignment_) {
            if (!data_store_.contains(ref)) ++n;
        }
        return n;
    }

    [[nodiscard]] std::vector<std::pair<std::uint64_t, MsgRef>> flush_orders() const {
        return {log_.begin(), log_.end()};
    }

    std::vector<DataMsg> drain_pending() {
        std::vector<DataMsg> out;
        for (auto& [ref, msg] : data_store_) out.push_back(std::move(msg));
        data_store_.clear();
        assignment_.clear();
        return out;
    }

private:
    EndpointId self_;
    EndpointId sequencer_;
    std::uint64_t next_assign_{0};
    std::uint64_t next_deliver_{0};
    std::vector<MsgRef> fresh_;
    std::map<std::uint64_t, MsgRef> assignment_;
    std::map<std::uint64_t, MsgRef> log_;
    std::map<MsgRef, DataMsg> data_store_;
    std::set<MsgRef> seen_refs_;
};

using Observed = std::vector<std::tuple<EndpointId, Seqno, Lamport, DataKind>>;

Observed observed(const std::vector<DataMsg>& msgs) {
    Observed out;
    for (const DataMsg& m : msgs) out.emplace_back(m.sender, m.seq, m.ts, m.kind);
    return out;
}

std::vector<std::pair<std::uint64_t, MsgRef>> indexed(std::span<const MsgRef> log) {
    std::vector<std::pair<std::uint64_t, MsgRef>> out;
    for (std::size_t i = 0; i < log.size(); ++i) out.emplace_back(i, log[i]);
    return out;
}

/// 2-5 members with gaps between their ids, ascending.
std::vector<EndpointId> random_members(Rng& rng) {
    std::vector<EndpointId> members;
    std::uint64_t id = 0;
    const std::uint64_t n = rng.next_in(2, 5);
    for (std::uint64_t i = 0; i < n; ++i) {
        id += rng.next_in(1, 3);
        members.emplace_back(id);
    }
    return members;
}

/// One epoch of traffic: each member's stream in send order.  Every send
/// ticks the sender's Lamport clock, and random receipts pull it up to a
/// peer's, so timestamps strictly increase along a stream and tie across
/// streams.  Application-like messages take consecutive seqs; nulls carry
/// none.  A null sometimes trails the message sent after it, as an
/// unsequenced null can.  A final null per member lets everything order.
std::vector<std::vector<DataMsg>> random_streams(Rng& rng,
                                                 const std::vector<EndpointId>& members) {
    const std::size_t n = members.size();
    std::vector<std::vector<DataMsg>> streams(n);
    std::vector<Lamport> lamport(n, 0);
    std::vector<Seqno> next_seq(n, 0);
    const std::uint64_t sends = rng.next_in(1, 60);
    for (std::uint64_t i = 0; i < sends; ++i) {
        const std::size_t m = rng.next_in(0, n - 1);
        if (rng.next_bool(0.3)) lamport[m] = std::max(lamport[m], lamport[rng.next_in(0, n - 1)]);
        const std::uint64_t roll = rng.next_in(0, 9);
        const DataKind kind = roll < 3   ? DataKind::kNull
                              : roll < 4 ? DataKind::kConfig
                                         : DataKind::kApplication;
        const Seqno seq = kind == DataKind::kNull ? 0 : next_seq[m]++;
        streams[m].push_back(data(members[m], seq, ++lamport[m], kind));
    }
    for (auto& stream : streams) {
        for (std::size_t i = 0; i + 1 < stream.size(); ++i) {
            if (stream[i].kind == DataKind::kNull && rng.next_bool(0.3)) {
                std::swap(stream[i], stream[i + 1]);
                ++i;
            }
        }
    }
    const Lamport top = *std::max_element(lamport.begin(), lamport.end());
    for (std::size_t m = 0; m < n; ++m) {
        streams[m].push_back(data(members[m], 0, top + 1 + m, DataKind::kNull));
    }
    return streams;
}

/// A random interleaving of `streams` that keeps each one in order.
std::vector<DataMsg> interleave(Rng& rng, const std::vector<std::vector<DataMsg>>& streams) {
    std::vector<std::size_t> cursor(streams.size(), 0);
    std::vector<DataMsg> out;
    while (true) {
        std::vector<std::size_t> ready;
        for (std::size_t i = 0; i < streams.size(); ++i) {
            if (cursor[i] < streams[i].size()) ready.push_back(i);
        }
        if (ready.empty()) return out;
        const std::size_t i = ready[rng.next_in(0, ready.size() - 1)];
        out.push_back(streams[i][cursor[i]++]);
    }
}

TEST(FifoEngines, SymmetricMatchesMapReference) {
    for (std::uint64_t seed = 1; seed <= 300; ++seed) {
        Rng rng(seed);
        const std::vector<EndpointId> members = random_members(rng);
        SymmetricOrder order;
        MapSymmetricOrder reference;
        const std::uint64_t epochs = rng.next_in(1, 3);
        for (std::uint64_t epoch = 0; epoch < epochs; ++epoch) {
            order.reset(members);
            reference.reset(members);
            const std::vector<DataMsg> feed = interleave(rng, random_streams(rng, members));
            // Stop early now and then: the epoch ends with work still held.
            const std::size_t stop =
                rng.next_bool(0.5) ? feed.size() : rng.next_in(0, feed.size());
            for (std::size_t i = 0; i < stop; ++i) {
                order.on_data(feed[i]);
                reference.on_data(feed[i]);
                if (rng.next_bool(0.6)) {
                    ASSERT_EQ(observed(deliverable(order)),
                              observed(reference.take_deliverable()))
                        << "seed " << seed << " step " << i;
                }
                ASSERT_EQ(order.head_ts(), reference.head_ts()) << "seed " << seed;
                ASSERT_EQ(order.pending_count(), reference.pending_count()) << "seed " << seed;
                ASSERT_EQ(order.has_pending(), reference.has_pending()) << "seed " << seed;
            }
            if (rng.next_bool(0.5)) {
                ASSERT_EQ(observed(order.drain_pending()), observed(reference.drain_pending()))
                    << "seed " << seed;
                ASSERT_FALSE(order.has_pending());
            } else {
                ASSERT_EQ(observed(deliverable(order)),
                          observed(reference.take_deliverable()))
                    << "seed " << seed;
            }
        }
    }
}

TEST(FifoEngines, SequencerMatchesMapReference) {
    for (std::uint64_t seed = 1; seed <= 300; ++seed) {
        Rng rng(seed);
        const std::vector<EndpointId> members = random_members(rng);
        const EndpointId self = members[rng.next_in(0, members.size() - 1)];
        SequencerOrder order;
        MapSequencerOrder reference;
        const std::uint64_t epochs = rng.next_in(1, 3);
        for (std::uint64_t epoch = 0; epoch < epochs; ++epoch) {
            order.reset(members, self);
            reference.reset(members, self);
            const auto streams = random_streams(rng, members);
            std::vector<DataMsg> feed = interleave(rng, streams);
            if (!order.is_sequencer()) {
                // The sequencer's assignments: its own arrival order, handed
                // out in records of random size that ride its stream.
                std::vector<MsgRef> assigned;
                for (const DataMsg& m : interleave(rng, streams)) {
                    if (orders_like_app(m.kind)) assigned.push_back(MsgRef{m.sender, m.seq});
                }
                std::vector<DataMsg> records;
                for (std::size_t at = 0; at < assigned.size();) {
                    const std::size_t end = std::min<std::size_t>(
                        assigned.size(), at + rng.next_in(1, 4));
                    OrderRecord record{at, {assigned.begin() + static_cast<std::ptrdiff_t>(at),
                                            assigned.begin() + static_cast<std::ptrdiff_t>(end)}};
                    records.push_back(order_record(members.front(), records.size(), record));
                    at = end;
                }
                feed = interleave(rng, {feed, records});
            }
            const std::size_t stop =
                rng.next_bool(0.5) ? feed.size() : rng.next_in(0, feed.size());
            std::vector<DataMsg> fed;  // application-like messages fed so far
            for (std::size_t i = 0; i < stop;) {
                // A retransmission of data already fed, pending or
                // delivered, may turn up at any time.
                const bool duplicate = !fed.empty() && rng.next_bool(0.15);
                const DataMsg msg = duplicate ? fed[rng.next_in(0, fed.size() - 1)] : feed[i++];
                if (orders_like_app(msg.kind)) fed.push_back(msg);
                if (msg.kind == DataKind::kOrder && rng.next_bool(0.5)) {
                    const auto record = decode_from_bytes<OrderRecord>(msg.payload);
                    order.on_order(record);
                    reference.on_order(record);
                } else {
                    order.on_data(msg);
                    reference.on_data(msg);
                }
                if (order.is_sequencer() && rng.next_bool(0.4)) {
                    const auto sent = order.take_order_to_send();
                    const auto expected = reference.take_order_to_send();
                    ASSERT_EQ(sent.has_value(), expected.has_value()) << "seed " << seed;
                    if (sent) {
                        EXPECT_EQ(sent->first_order, expected->first_order);
                        EXPECT_EQ(sent->refs, expected->refs);
                    }
                }
                if (rng.next_bool(0.6)) {
                    ASSERT_EQ(observed(deliverable(order)),
                              observed(reference.take_deliverable()))
                        << "seed " << seed << " step " << i;
                }
                ASSERT_EQ(order.fresh_count(), reference.fresh_count()) << "seed " << seed;
                ASSERT_EQ(order.pending_count(), reference.pending_count()) << "seed " << seed;
                ASSERT_EQ(order.has_pending(), reference.has_pending()) << "seed " << seed;
                ASSERT_EQ(indexed(order.assignment_log()), reference.flush_orders())
                    << "seed " << seed;
            }
            if (rng.next_bool(0.5)) {
                ASSERT_EQ(observed(order.drain_pending()), observed(reference.drain_pending()))
                    << "seed " << seed;
                ASSERT_FALSE(order.has_pending());
            } else {
                ASSERT_EQ(observed(deliverable(order)),
                          observed(reference.take_deliverable()))
                    << "seed " << seed;
            }
        }
    }
}

// -- FifoRing against std::deque ---------------------------------------------

/// An element whose move leaves the source holding its buffer, as a copy
/// would.  So a slot lets go of a popped element's buffer only if the ring
/// resets it, which the buffer's expiry shows.
struct Sticky {
    std::shared_ptr<std::uint64_t> buffer;

    Sticky() = default;
    explicit Sticky(std::uint64_t value) : buffer(std::make_shared<std::uint64_t>(value)) {}
    Sticky(const Sticky&) = default;
    Sticky(Sticky&& other) noexcept : buffer(other.buffer) {}
    Sticky& operator=(const Sticky&) = default;
    Sticky& operator=(Sticky&& other) noexcept {
        buffer = other.buffer;
        return *this;
    }
    ~Sticky() = default;
};

// Random pushes, pops, indexed reads and clears against a deque.  The model
// also tracks the ring's head slot, so the test can tell that the runs grow
// the ring while it is wrapped, not only when its oldest element sits in
// slot 0.
TEST(FifoRing, MatchesDequeReference) {
    std::size_t wrapped_growths = 0;
    for (std::uint64_t seed = 1; seed <= 300; ++seed) {
        Rng rng(seed);
        FifoRing<Sticky> ring;
        std::deque<std::uint64_t> reference;
        std::vector<std::weak_ptr<std::uint64_t>> gone;  // buffers of elements that left
        std::size_t head = 0;  // the ring's head slot, modelled
        std::uint64_t next = 0;
        const double push_bias = 0.35 + 0.3 * rng.next_double();
        const std::uint64_t steps = rng.next_in(50, 400);
        for (std::uint64_t step = 0; step < steps; ++step) {
            const std::uint64_t action = rng.next_in(0, 99);
            if (action < 3) {
                for (std::size_t i = 0; i < ring.size(); ++i) gone.push_back(ring[i].buffer);
                const std::size_t capacity = ring.capacity();
                ring.clear();
                reference.clear();
                head = 0;
                ASSERT_EQ(ring.capacity(), capacity) << "seed " << seed;  // clear keeps it
            } else if (rng.next_bool(push_bias) || reference.empty()) {
                const std::size_t capacity = ring.capacity();
                if (ring.size() == capacity && head != 0) ++wrapped_growths;
                ring.push(Sticky(next));
                reference.push_back(next++);
                if (ring.capacity() != capacity) {
                    ASSERT_EQ(ring.capacity(), std::max<std::size_t>(4, 2 * capacity))
                        << "seed " << seed;
                    head = 0;
                }
            } else {
                const std::size_t capacity = ring.capacity();
                Sticky popped = ring.pop_front();
                ASSERT_EQ(*popped.buffer, reference.front()) << "seed " << seed;
                reference.pop_front();
                gone.push_back(popped.buffer);
                head = (head + 1) % capacity;
            }
            ASSERT_EQ(ring.size(), reference.size()) << "seed " << seed << " step " << step;
            ASSERT_EQ(ring.empty(), reference.empty()) << "seed " << seed;
            if (!reference.empty()) {
                const std::size_t i = rng.next_in(0, reference.size() - 1);
                ASSERT_EQ(*ring[i].buffer, reference[i]) << "seed " << seed << " step " << step;
                ASSERT_EQ(*ring.front().buffer, reference.front()) << "seed " << seed;
            }
            // No slot keeps the buffer of an element that left the ring.
            for (const auto& buffer : gone) {
                ASSERT_TRUE(buffer.expired()) << "seed " << seed << " step " << step;
            }
            gone.clear();
        }
        for (std::size_t i = 0; i < reference.size(); ++i) {
            ASSERT_EQ(*ring[i].buffer, reference[i]) << "seed " << seed;
        }
    }
    EXPECT_GT(wrapped_growths, 0u);
}

TEST(FifoRing, PopFromEmptyIsRejected) {
    FifoRing<int> ring;
    EXPECT_THROW(ring.pop_front(), PreconditionError);
    ring.push(1);
    EXPECT_EQ(ring.pop_front(), 1);
    EXPECT_THROW(ring.pop_front(), PreconditionError);
}

// -- UnstableStore against the map it replaced ------------------------------

/// Hold `m` as the endpoint does: with its frame.
void hold(UnstableStore& store, const DataMsg& m) { store.add(m, encode_gcs_message(m)); }

/// Every held message as (ref, wire bytes), in iteration order.
std::vector<std::pair<MsgRef, Bytes>> held(const UnstableStore& store) {
    std::vector<std::pair<MsgRef, Bytes>> out;
    store.for_each([&out](const DataMsg& m) {
        out.emplace_back(MsgRef{m.sender, m.seq}, encode_to_bytes(m));
    });
    return out;
}

std::vector<std::pair<MsgRef, Bytes>> held(const std::map<MsgRef, DataMsg>& reference) {
    std::vector<std::pair<MsgRef, Bytes>> out;
    for (const auto& [ref, m] : reference) out.emplace_back(ref, encode_to_bytes(m));
    return out;
}

// The endpoint's unstable store used to be a std::map<MsgRef, DataMsg>.
// Under any mix of contiguous per-sender adds (own sends and in-order
// arrivals alike), stability drops with floors below, inside and past a
// sender's run, lookups that hit and miss, and view-install clears, the
// per-sender rings must iterate, find and count exactly as that map did.
// A held frame is the reference message's encoding and decodes back to it.
TEST(UnstableStore, MatchesMapReference) {
    for (std::uint64_t seed = 1; seed <= 300; ++seed) {
        Rng rng(seed);
        const std::vector<EndpointId> members = random_members(rng);  // self is one of them
        UnstableStore store;
        std::map<MsgRef, DataMsg> reference;
        const std::uint64_t epochs = rng.next_in(1, 3);
        for (std::uint64_t epoch = 0; epoch < epochs; ++epoch) {
            store.clear();
            reference.clear();
            std::map<EndpointId, Seqno> next_seq;
            const std::uint64_t steps = rng.next_in(0, 150);
            for (std::uint64_t step = 0; step < steps; ++step) {
                const EndpointId sender = members[rng.next_in(0, members.size() - 1)];
                Seqno& next = next_seq[sender];
                const std::uint64_t action = rng.next_in(0, 9);
                if (action < 5) {
                    DataMsg m = data(sender, next++, step + 1);
                    m.batch.assign(rng.next_in(0, 2), Bytes(3, static_cast<std::uint8_t>(step)));
                    m.span = obs::SpanContext{step + 1, rng.next_in(1, 1000)};
                    hold(store, m);
                    reference.emplace(MsgRef{m.sender, m.seq}, m);
                } else if (action < 7) {
                    // From 0 up to a few past the run's end.
                    const Seqno floor = rng.next_in(0, next + 3);
                    store.erase_below(sender, floor);
                    reference.erase(reference.lower_bound(MsgRef{sender, 0}),
                                    reference.lower_bound(MsgRef{sender, floor}));
                } else {
                    const MsgRef ref{sender, rng.next_in(0, next + 1)};
                    const UnstableStore::Held* found = store.find(ref);
                    const auto it = reference.find(ref);
                    ASSERT_EQ(found != nullptr, it != reference.end())
                        << "seed " << seed << " step " << step;
                    if (found != nullptr) {
                        ASSERT_EQ(found->wire, encode_gcs_message(it->second))
                            << "seed " << seed << " step " << step;
                        ASSERT_EQ(encode_to_bytes(decode_data_message(found->wire)),
                                  encode_to_bytes(it->second))
                            << "seed " << seed << " step " << step;
                        ASSERT_EQ(found->span, it->second.span) << "seed " << seed;
                    }
                }
                ASSERT_EQ(store.size(), reference.size()) << "seed " << seed << " step " << step;
                ASSERT_EQ(store.empty(), reference.empty()) << "seed " << seed;
                if (rng.next_bool(0.2)) {
                    ASSERT_EQ(held(store), held(reference)) << "seed " << seed << " step " << step;
                }
            }
            ASSERT_EQ(held(store), held(reference)) << "seed " << seed;
        }
    }
}

// -- The FIFO invariants guard themselves ------------------------------------

TEST(FifoInvariants, SymmetricRejectsTimestampsThatDoNotIncrease) {
    SymmetricOrder order;
    order.reset({kA, kB});
    order.on_data(data(kA, 0, 5));
    EXPECT_THROW(order.on_data(data(kA, 1, 5)), PreconditionError);
    order.on_data(data(kB, 0, 9, DataKind::kNull));
    EXPECT_THROW(order.on_data(data(kB, 1, 8)), PreconditionError);
    // Nulls only raise the latest timestamp, so a stale one is harmless.
    EXPECT_NO_THROW(order.on_data(data(kB, 0, 7, DataKind::kNull)));
}

TEST(FifoInvariants, SequencerRejectsFeedOutOfSenderOrder) {
    SequencerOrder order;
    order.reset({kA, kB}, kB);
    order.on_data(data(kA, 1, 2));
    order.on_data(data(kA, 0, 1));  // below the high-water mark: taken for a duplicate
    order.on_order(OrderRecord{0, {MsgRef{kA, 0}, MsgRef{kA, 1}}});
    EXPECT_THROW(deliverable(order), PreconditionError);
}

TEST(FifoInvariants, SequencerRejectsNonContiguousOrderRecords) {
    SequencerOrder order;
    order.reset({kA, kB}, kB);
    order.on_order(OrderRecord{0, {MsgRef{kA, 0}}});
    EXPECT_THROW(order.on_order(OrderRecord{2, {MsgRef{kA, 1}}}), PreconditionError);
    EXPECT_THROW(order.on_order(OrderRecord{0, {MsgRef{kA, 0}}}), PreconditionError);
    EXPECT_NO_THROW(order.on_order(OrderRecord{1, {MsgRef{kA, 1}}}));
}

TEST(FifoInvariants, UnstableStoreRejectsNonContiguousAdd) {
    UnstableStore store;
    hold(store, data(kA, 0, 1));
    EXPECT_THROW(hold(store, data(kA, 2, 3)), PreconditionError);  // gap
    EXPECT_THROW(hold(store, data(kA, 0, 1)), PreconditionError);  // duplicate
    hold(store, data(kA, 1, 2));
    // A floor past the run empties it, but the run still ends at seq 2.
    store.erase_below(kA, 5);
    EXPECT_TRUE(store.empty());
    EXPECT_THROW(hold(store, data(kA, 5, 6)), PreconditionError);
    EXPECT_NO_THROW(hold(store, data(kA, 2, 3)));
    // Another sender's run starts wherever its first message is.
    EXPECT_NO_THROW(hold(store, data(kB, 4, 4)));
    EXPECT_EQ(store.size(), 2u);
}

TEST(FifoInvariants, DeliveredPrefixRejectsDeliveryInsideThePrefix) {
    DeliveredPrefix prefix;
    EXPECT_FALSE(prefix.contains(0));
    prefix.note(0);
    prefix.note(2);  // seq 1 was an order record, never delivered
    EXPECT_TRUE(prefix.contains(1));
    EXPECT_FALSE(prefix.contains(3));
    EXPECT_EQ(prefix.count(), 3u);
    EXPECT_THROW(prefix.note(2), PreconditionError);
    EXPECT_THROW(prefix.note(1), PreconditionError);
}

}  // namespace
}  // namespace newtop
