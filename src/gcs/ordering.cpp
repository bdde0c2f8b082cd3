#include "gcs/ordering.hpp"

#include <algorithm>
#include <tuple>
#include <utility>

#include "util/check.hpp"

namespace newtop {

namespace {

/// The entry for `member` in per-member entries sorted by id, or nullptr.
template <typename Entries>
auto* find_member(Entries& entries, EndpointId member) {
    const auto it = std::lower_bound(
        entries.begin(), entries.end(), member,
        [](const auto& entry, EndpointId m) { return entry.member < m; });
    return it != entries.end() && it->member == member ? &*it : nullptr;
}

}  // namespace

// -- SymmetricOrder -----------------------------------------------------------

void SymmetricOrder::reset(std::vector<EndpointId> members) {
    std::sort(members.begin(), members.end());
    members.erase(std::unique(members.begin(), members.end()), members.end());
    streams_.clear();
    streams_.resize(members.size());
    for (std::size_t i = 0; i < members.size(); ++i) streams_[i].member = members[i];
    held_count_ = 0;
}

void SymmetricOrder::on_data(DataMsg msg) {
    Stream* stream = find_member(streams_, msg.sender);
    NEWTOP_EXPECTS(stream != nullptr, "data from non-member fed to symmetric order");
    if (orders_like_app(msg.kind)) {
        // The merge in head() relies on each FIFO being in ts order.
        NEWTOP_EXPECTS(msg.ts > stream->latest_ts,
                       "a sender's timestamps must strictly increase along its stream");
        stream->latest_ts = msg.ts;
        stream->held.push(std::move(msg));
        ++held_count_;
    } else {
        stream->latest_ts = std::max(stream->latest_ts, msg.ts);
    }
}

std::size_t SymmetricOrder::head() const {
    std::size_t best = streams_.size();
    for (std::size_t i = 0; i < streams_.size(); ++i) {
        // Ascending member order: a strict < keeps the lower id on ts ties.
        if (!streams_[i].held.empty() &&
            (best == streams_.size() ||
             streams_[i].held.front().ts < streams_[best].held.front().ts)) {
            best = i;
        }
    }
    return best;
}

bool SymmetricOrder::deliverable(std::size_t head) const {
    // `head` holds the lowest-ordered held-back message.  It is safe to
    // deliver once every other member has been heard from at ts >= its ts:
    // successive sends from a member carry strictly increasing timestamps,
    // so q's future messages order after it; and if q's message *at* that
    // ts orders before it, q's stream would itself be the head.
    const Lamport ts = streams_[head].held.front().ts;
    for (std::size_t i = 0; i < streams_.size(); ++i) {
        if (i != head && streams_[i].latest_ts < ts) return false;
    }
    return true;
}

DataMsg SymmetricOrder::pop(std::size_t head) {
    --held_count_;
    return streams_[head].held.pop_front();
}

void SymmetricOrder::take_deliverable(std::vector<DataMsg>& out) {
    for (std::size_t h = head(); h != streams_.size() && deliverable(h); h = head()) {
        // newtop-lint: allow(hot-path-alloc): the caller's buffer keeps its capacity across pumps
        out.push_back(pop(h));
    }
}

std::vector<DataMsg> SymmetricOrder::take_deliverable() {
    std::vector<DataMsg> out;
    take_deliverable(out);
    return out;
}

std::optional<Lamport> SymmetricOrder::head_ts() const {
    const std::size_t h = head();
    if (h == streams_.size()) return std::nullopt;
    return streams_[h].held.front().ts;
}

std::vector<DataMsg> SymmetricOrder::drain_pending() {
    std::vector<DataMsg> out;
    out.reserve(held_count_);
    for (std::size_t h = head(); h != streams_.size(); h = head()) out.push_back(pop(h));
    return out;
}

// -- SequencerOrder -----------------------------------------------------------

void SequencerOrder::reset(std::vector<EndpointId> members, EndpointId self) {
    NEWTOP_EXPECTS(!members.empty(), "sequencer order needs at least one member");
    NEWTOP_EXPECTS(std::is_sorted(members.begin(), members.end()), "members must be sorted");
    self_ = self;
    sequencer_ = members.front();
    senders_.clear();
    senders_.resize(members.size());
    for (std::size_t i = 0; i < members.size(); ++i) senders_[i].member = members[i];
    data_count_ = 0;
    log_.clear();
    broadcast_ = 0;
    next_deliver_ = 0;
}

void SequencerOrder::on_data(DataMsg msg) {
    if (msg.kind == DataKind::kOrder) {
        // The sequencer's own records carry assignments made right here.
        if (msg.sender != self_) on_order(decode_from_bytes<OrderRecord>(msg.payload));
        return;
    }
    if (!orders_like_app(msg.kind)) return;  // nulls bypass ordering
    SenderQueue* queue = find_member(senders_, msg.sender);
    NEWTOP_EXPECTS(queue != nullptr, "data from non-member fed to sequencer order");
    if (msg.seq < queue->next_seq) return;  // retransmitted duplicate
    queue->next_seq = msg.seq + 1;
    const MsgRef ref{msg.sender, msg.seq};
    queue->data.push(std::move(msg));
    ++data_count_;
    if (is_sequencer()) {
        // The assignment is broadcast, and so enters assignment_log(), only
        // once its order record is actually handed out (take_order_to_send).
        // Until then it is private state no other member can have observed,
        // and it must not leak into a view-change flush: a fragment that
        // never saw the order record sorts the same messages by (ts,
        // sender), and honouring an unsent arrival order here would
        // contradict it.
        // newtop-lint: allow(hot-path-alloc): one entry per ordered message of the epoch, amortized doubling; cleared at each view install
        log_.push_back(ref);
    }
}

void SequencerOrder::on_order(const OrderRecord& record) {
    if (is_sequencer()) return;  // we made the assignments ourselves
    // Records ride the sequencer's FIFO stream, so each starts where the
    // previous one ended; a gap would stall delivery at the missing number.
    NEWTOP_EXPECTS(record.first_order == log_.size(),
                   "order records must cover order numbers contiguously");
    log_.insert(log_.end(), record.refs.begin(), record.refs.end());
    broadcast_ = log_.size();
}

std::optional<OrderRecord> SequencerOrder::take_order_to_send() {
    if (fresh_count() == 0) return std::nullopt;
    OrderRecord out;
    out.first_order = broadcast_;
    out.refs.assign(log_.begin() + static_cast<std::ptrdiff_t>(broadcast_), log_.end());
    broadcast_ = log_.size();
    return out;
}

void SequencerOrder::take_deliverable(std::vector<DataMsg>& out) {
    // The sequencer never delivers ahead of its own broadcast: an order that
    // has not been taken for sending is invisible to every flush, so
    // committing to it locally could not survive a view change.
    while (next_deliver_ < broadcast_) {
        const MsgRef& ref = log_[next_deliver_];
        SenderQueue* queue = find_member(senders_, ref.sender);
        if (queue == nullptr || queue->data.empty()) break;  // data not here yet
        // FIFO streams, assigned in arrival order: the sender's oldest
        // undelivered message is the one this order number names.
        NEWTOP_EXPECTS(queue->data.front().seq == ref.seq,
                       "sequencer order must follow each sender's FIFO stream");
        // newtop-lint: allow(hot-path-alloc): the caller's buffer keeps its capacity across pumps
        out.push_back(queue->data.pop_front());
        --data_count_;
        ++next_deliver_;
    }
}

std::vector<DataMsg> SequencerOrder::take_deliverable() {
    std::vector<DataMsg> out;
    take_deliverable(out);
    return out;
}

std::size_t SequencerOrder::pending_count() const {
    std::size_t n = data_count_;
    for (std::size_t i = next_deliver_; i < log_.size(); ++i) {
        // An undelivered assignment's data is here iff its seq was fed.
        const SenderQueue* queue = find_member(senders_, log_[i].sender);
        if (queue == nullptr || log_[i].seq >= queue->next_seq) ++n;
    }
    return n;
}

std::vector<DataMsg> SequencerOrder::drain_pending() {
    std::vector<DataMsg> out;
    out.reserve(data_count_);
    for (SenderQueue& queue : senders_) {
        while (!queue.data.empty()) out.push_back(queue.data.pop_front());
    }
    data_count_ = 0;
    next_deliver_ = log_.size();  // the undelivered assignments go too
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

void CausalOrder::take_deliverable(std::vector<DataMsg>& out) {
    bool progressed = true;
    while (progressed) {
        progressed = false;
        for (auto it = pending_.begin(); it != pending_.end();) {
            if (satisfied(*it)) {
                ++delivered_count_[it->sender];
                // newtop-lint: allow(hot-path-alloc): the caller's buffer keeps its capacity across pumps
                out.push_back(std::move(*it));
                it = pending_.erase(it);
                progressed = true;
            } else {
                ++it;
            }
        }
    }
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

// -- DeliveredPrefix ----------------------------------------------------------

void DeliveredPrefix::note(Seqno seq) {
    // A delivery below the count would mean a skipped message is already
    // reported as delivered, and a view-change cut would silently drop it.
    NEWTOP_EXPECTS(seq >= count_, "a sender's messages must be delivered in seq order");
    count_ = seq + 1;
}

// -- UnstableStore -------------------------------------------------------------

const UnstableStore::Held& UnstableStore::add(const DataMsg& msg, Bytes wire) {
    const auto it = std::lower_bound(
        streams_.begin(), streams_.end(), msg.sender,
        [](const Stream& stream, EndpointId m) { return stream.member < m; });
    Stream* stream = nullptr;
    if (it != streams_.end() && it->member == msg.sender) {
        stream = &*it;
        // Index arithmetic in find() and erase_below() rests on this.
        NEWTOP_EXPECTS(msg.seq == stream->first + stream->held.size(),
                       "a sender's unstable messages must be one contiguous seq run");
    } else {
        stream = &*streams_.insert(it, Stream{msg.sender, msg.seq, {}});
    }
    ++size_;
    return stream->held.push(Held{std::move(wire), msg.span});
}

const UnstableStore::Held* UnstableStore::find(MsgRef ref) const {
    const Stream* stream = find_member(streams_, ref.sender);
    if (stream == nullptr || ref.seq < stream->first ||
        ref.seq - stream->first >= stream->held.size()) {
        return nullptr;
    }
    return &stream->held[ref.seq - stream->first];
}

void UnstableStore::erase_below(EndpointId sender, Seqno floor) {
    Stream* stream = find_member(streams_, sender);
    if (stream == nullptr || floor <= stream->first) return;
    const auto drop =
        static_cast<std::size_t>(std::min<Seqno>(floor - stream->first, stream->held.size()));
    for (std::size_t i = 0; i < drop; ++i) stream->held.pop_front();
    stream->first += drop;
    size_ -= drop;
}

void UnstableStore::clear() {
    streams_.clear();
    size_ = 0;
}

// -- KnowledgeTable -----------------------------------------------------------

namespace {
bool key_less(const KnowledgeEntry& a, const KnowledgeEntry& b) {
    return std::tie(a.group, a.sender) < std::tie(b.group, b.sender);
}
}  // namespace

std::size_t KnowledgeTable::lower_bound(const KnowledgeEntry& entry) const {
    return static_cast<std::size_t>(
        std::lower_bound(entries_.begin(), entries_.end(), entry, key_less) - entries_.begin());
}

void KnowledgeTable::raise_at(std::size_t at, const KnowledgeEntry& entry) {
    if (at == entries_.size() || key_less(entry, entries_[at])) {
        // New (group, sender): grows once per pair, never per message.
        entries_.insert(entries_.begin() + static_cast<std::ptrdiff_t>(at), entry);
        return;
    }
    KnowledgeEntry& held = entries_[at];
    if (entry.epoch > held.epoch) {
        held.epoch = entry.epoch;
        held.count = entry.count;
    } else if (entry.epoch == held.epoch) {
        held.count = std::max(held.count, entry.count);
    }
}

void KnowledgeTable::note(const KnowledgeEntry& entry) { raise_at(lower_bound(entry), entry); }

void KnowledgeTable::merge(const std::vector<KnowledgeEntry>& entries) {
    // One forward walk over both sorted sequences: `at` only moves ahead
    // while the input ascends (a repeated key finds the same entry again).
    // An entry ordered before its predecessor restarts from a search.
    std::size_t at = 0;
    const KnowledgeEntry* prev = nullptr;
    for (const KnowledgeEntry& entry : entries) {
        if (prev != nullptr && key_less(entry, *prev)) {
            at = lower_bound(entry);
        } else {
            while (at < entries_.size() && key_less(entries_[at], entry)) ++at;
        }
        raise_at(at, entry);
        prev = &entry;
    }
}

std::vector<KnowledgeEntry> KnowledgeTable::snapshot(GroupId excluding) const {
    // Sized to what it keeps: a send in an endpoint's only group, the
    // common case, snapshots nothing and allocates nothing.
    std::vector<KnowledgeEntry> out;
    out.reserve(static_cast<std::size_t>(
        std::count_if(entries_.begin(), entries_.end(),
                      [excluding](const KnowledgeEntry& entry) { return entry.group != excluding; })));
    for (const KnowledgeEntry& entry : entries_) {
        if (entry.group != excluding) out.push_back(entry);
    }
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

void OrderingEngine::take_deliverable(std::vector<DataMsg>& out) {
    std::visit([&out](auto& engine) { engine.take_deliverable(out); }, engine_);
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
    const auto log = sequencer->assignment_log();
    std::vector<std::pair<std::uint64_t, MsgRef>> out;
    out.reserve(log.size());
    for (std::size_t i = 0; i < log.size(); ++i) out.emplace_back(i, log[i]);
    return out;
}

std::vector<std::pair<EndpointId, Seqno>> OrderingEngine::causal_vector() const {
    const auto* causal = std::get_if<CausalOrder>(&engine_);
    return causal == nullptr ? std::vector<std::pair<EndpointId, Seqno>>{}
                             : causal->delivered_vector();
}

bool OrderingEngine::assigns_order() const {
    const auto* sequencer = std::get_if<SequencerOrder>(&engine_);
    return sequencer != nullptr && sequencer->is_sequencer();
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
