#include "gcs/ordering.hpp"

#include <algorithm>
#include <utility>

#include "util/check.hpp"

namespace newtop {

// -- SymmetricOrder -----------------------------------------------------------

void SymmetricOrder::reset(std::vector<EndpointId> members) {
    holdback_.clear();
    latest_ts_.clear();
    for (EndpointId m : members) latest_ts_[m] = 0;
}

void SymmetricOrder::on_data(DataMsg msg) {
    auto it = latest_ts_.find(msg.sender);
    NEWTOP_EXPECTS(it != latest_ts_.end(), "data from non-member fed to symmetric order");
    it->second = std::max(it->second, msg.ts);
    if (orders_like_app(msg.kind)) {
        holdback_.emplace(Key{msg.ts, msg.sender}, std::move(msg));
    }
}

bool SymmetricOrder::deliverable(const Key& key) const {
    // `key` is always the lowest-ordered held-back message (the holdback
    // map is scanned in order).  It is safe to deliver once every other
    // member has been heard from at ts >= key.ts: successive sends from a
    // member carry strictly increasing timestamps, so q's future messages
    // order after key; and if q's message *at* key.ts orders before key it
    // would itself be the holdback head.
    for (const auto& [member, ts] : latest_ts_) {
        if (member == key.sender) continue;
        if (ts < key.ts) return false;
    }
    return true;
}

std::vector<DataMsg> SymmetricOrder::take_deliverable() {
    std::vector<DataMsg> out;
    while (!holdback_.empty() && deliverable(holdback_.begin()->first)) {
        // newtop-lint: allow(hot-path-alloc): delivery batch is bounded by the holdback queue; amortized across the batch
        out.push_back(std::move(holdback_.begin()->second));
        holdback_.erase(holdback_.begin());
    }
    return out;
}

std::optional<Lamport> SymmetricOrder::head_ts() const {
    if (holdback_.empty()) return std::nullopt;
    return holdback_.begin()->first.ts;
}

std::vector<DataMsg> SymmetricOrder::drain_pending() {
    std::vector<DataMsg> out;
    out.reserve(holdback_.size());
    for (auto& [key, msg] : holdback_) out.push_back(std::move(msg));
    holdback_.clear();
    return out;
}

// -- SequencerOrder -----------------------------------------------------------

void SequencerOrder::reset(std::vector<EndpointId> members, EndpointId self) {
    NEWTOP_EXPECTS(!members.empty(), "sequencer order needs at least one member");
    NEWTOP_EXPECTS(std::is_sorted(members.begin(), members.end()), "members must be sorted");
    self_ = self;
    sequencer_ = members.front();
    next_assign_ = 0;
    next_deliver_ = 0;
    fresh_assignments_.clear();
    assignment_.clear();
    log_.clear();
    data_store_.clear();
    seen_refs_.clear();
}

void SequencerOrder::on_data(DataMsg msg) {
    if (msg.kind == DataKind::kOrder) {
        // The sequencer's own records carry assignments made right here.
        if (msg.sender != self_) on_order(decode_from_bytes<OrderRecord>(msg.payload));
        return;
    }
    if (!orders_like_app(msg.kind)) return;  // nulls bypass ordering
    const MsgRef ref{msg.sender, msg.seq};
    // Dedupe on the ref, covering refs already assigned, already delivered
    // (erased from data_store_/assignment_), and still pending.  Without
    // this a retransmitted message earns a second order slot whose data can
    // never reappear, and take_deliverable() stalls there permanently.
    if (!seen_refs_.insert(ref).second) return;
    data_store_.emplace(ref, std::move(msg));
    if (is_sequencer()) {
        // The assignment enters log_ only once its order record is actually
        // handed out for broadcast (take_order_to_send).  Until then it is
        // private state no other member can have observed, and it must not
        // leak into a view-change flush: a fragment that never saw the
        // order record sorts the same messages by (ts, sender), and
        // honouring an unsent arrival order here would contradict it.
        assignment_.emplace(next_assign_, ref);
        ++next_assign_;
        // newtop-lint: allow(hot-path-alloc): bounded by the ordering window; drained and reused every step
        fresh_assignments_.push_back(ref);
    }
}

void SequencerOrder::on_order(const OrderRecord& record) {
    if (is_sequencer()) return;  // we made the assignments ourselves
    for (std::size_t i = 0; i < record.refs.size(); ++i) {
        assignment_.emplace(record.first_order + i, record.refs[i]);
        log_.emplace(record.first_order + i, record.refs[i]);
    }
}

std::optional<OrderRecord> SequencerOrder::take_order_to_send() {
    if (fresh_assignments_.empty()) return std::nullopt;
    OrderRecord out;
    out.first_order = next_assign_ - fresh_assignments_.size();
    for (std::size_t i = 0; i < fresh_assignments_.size(); ++i) {
        log_.emplace(out.first_order + i, fresh_assignments_[i]);
    }
    // Copied, not moved: the fresh list keeps its capacity for the next step.
    out.refs.assign(fresh_assignments_.begin(), fresh_assignments_.end());
    fresh_assignments_.clear();
    return out;
}

std::vector<DataMsg> SequencerOrder::take_deliverable() {
    std::vector<DataMsg> out;
    while (true) {
        auto order_it = assignment_.find(next_deliver_);
        if (order_it == assignment_.end()) break;
        // The sequencer never delivers ahead of its own broadcast: an order
        // that has not been taken for sending is invisible to every flush,
        // so committing to it locally could not survive a view change.
        if (is_sequencer() && !log_.contains(next_deliver_)) break;
        auto data_it = data_store_.find(order_it->second);
        if (data_it == data_store_.end()) break;
        // newtop-lint: allow(hot-path-alloc): delivery batch bounded by contiguous assigned prefix; amortized
        out.push_back(std::move(data_it->second));
        data_store_.erase(data_it);
        assignment_.erase(order_it);
        ++next_deliver_;
    }
    return out;
}

std::vector<DataMsg> SequencerOrder::drain_pending() {
    std::vector<DataMsg> out;
    out.reserve(data_store_.size());
    for (auto& [ref, msg] : data_store_) out.push_back(std::move(msg));
    data_store_.clear();
    assignment_.clear();
    return out;
}

// -- CausalOrder --------------------------------------------------------------

void CausalOrder::reset(std::vector<EndpointId> members) {
    delivered_count_.clear();
    for (EndpointId m : members) delivered_count_[m] = 0;
    pending_.clear();
}

void CausalOrder::on_data(DataMsg msg) {
    if (!orders_like_app(msg.kind)) return;
    // newtop-lint: allow(hot-path-alloc): pending list is bounded by causal holdback; capacity persists across steps
    pending_.push_back(std::move(msg));
}

bool CausalOrder::satisfied(const DataMsg& msg) const {
    for (const auto& [member, needed] : msg.causal_vc) {
        const auto it = delivered_count_.find(member);
        // Dependencies on departed members were resolved by the view-change
        // flush before this engine was reset; ignore them.
        if (it == delivered_count_.end()) continue;
        if (it->second < needed) return false;
    }
    return true;
}

std::vector<DataMsg> CausalOrder::take_deliverable() {
    std::vector<DataMsg> out;
    bool progressed = true;
    while (progressed) {
        progressed = false;
        for (auto it = pending_.begin(); it != pending_.end();) {
            if (satisfied(*it)) {
                ++delivered_count_[it->sender];
                // newtop-lint: allow(hot-path-alloc): delivery batch bounded by satisfied pending set; amortized
                out.push_back(std::move(*it));
                it = pending_.erase(it);
                progressed = true;
            } else {
                ++it;
            }
        }
    }
    return out;
}

std::vector<DataMsg> CausalOrder::drain_pending() {
    std::vector<DataMsg> out = std::move(pending_);
    pending_.clear();
    return out;
}

std::vector<std::pair<EndpointId, Seqno>> CausalOrder::delivered_vector() const {
    std::vector<std::pair<EndpointId, Seqno>> out;
    out.reserve(delivered_count_.size());
    for (const auto& [member, count] : delivered_count_) out.emplace_back(member, count);
    return out;
}

// -- OrderingEngine -----------------------------------------------------------

OrderingEngine::OrderingEngine(OrderMode mode, const std::vector<EndpointId>& members,
                               EndpointId self) {
    switch (mode) {
        case OrderMode::kTotalSymmetric: engine_.emplace<SymmetricOrder>().reset(members); break;
        case OrderMode::kTotalAsymmetric:
            engine_.emplace<SequencerOrder>().reset(members, self);
            break;
        case OrderMode::kCausal: engine_.emplace<CausalOrder>().reset(members); break;
    }
}

void OrderingEngine::on_data(DataMsg msg) {
    std::visit([&](auto& engine) { engine.on_data(std::move(msg)); }, engine_);
}

std::vector<DataMsg> OrderingEngine::take_deliverable() {
    return std::visit([](auto& engine) { return engine.take_deliverable(); }, engine_);
}

bool OrderingEngine::has_pending() const {
    return std::visit([](const auto& engine) { return engine.has_pending(); }, engine_);
}

std::size_t OrderingEngine::pending_count() const {
    return std::visit([](const auto& engine) { return engine.pending_count(); }, engine_);
}

std::vector<DataMsg> OrderingEngine::drain_pending() {
    return std::visit([](auto& engine) { return engine.drain_pending(); }, engine_);
}

std::optional<Lamport> OrderingEngine::symmetric_head() const {
    const auto* symmetric = std::get_if<SymmetricOrder>(&engine_);
    return symmetric == nullptr ? std::nullopt : symmetric->head_ts();
}

std::vector<std::pair<std::uint64_t, MsgRef>> OrderingEngine::flush_orders() const {
    const auto* sequencer = std::get_if<SequencerOrder>(&engine_);
    if (sequencer == nullptr) return {};
    const auto& log = sequencer->assignment_log();
    return {log.begin(), log.end()};
}

std::vector<std::pair<EndpointId, Seqno>> OrderingEngine::causal_vector() const {
    const auto* causal = std::get_if<CausalOrder>(&engine_);
    return causal == nullptr ? std::vector<std::pair<EndpointId, Seqno>>{}
                             : causal->delivered_vector();
}

std::size_t OrderingEngine::fresh_count() const {
    const auto* sequencer = std::get_if<SequencerOrder>(&engine_);
    return sequencer == nullptr ? 0 : sequencer->fresh_count();
}

std::optional<OrderRecord> OrderingEngine::take_order_to_send() {
    auto* sequencer = std::get_if<SequencerOrder>(&engine_);
    return sequencer == nullptr ? std::nullopt : sequencer->take_order_to_send();
}

}  // namespace newtop
