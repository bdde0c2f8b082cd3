#include "orb/orb.hpp"

#include <algorithm>
#include <utility>

#include "net/calibration.hpp"
#include "obs/names.hpp"
#include "util/check.hpp"
#include "util/log.hpp"

namespace newtop {

namespace {

constexpr std::uint8_t kMsgRequest = 1;
constexpr std::uint8_t kMsgReply = 2;

void write_request(Encoder& e, std::uint64_t request_id, bool oneway, ObjectKey key,
                   std::uint32_t method, const Bytes& args) {
    e.put_u8(kMsgRequest);
    e.put_u64(request_id);
    e.put_bool(oneway);
    encode(e, key);
    e.put_u32(method);
    e.put_blob(args);
}

}  // namespace

Bytes Orb::encode_request(std::uint64_t request_id, bool oneway, ObjectKey key,
                          std::uint32_t method, const Bytes& args) {
    // Counting pass, then encode into a recycled buffer of exactly that
    // size: the framing path performs zero allocations at steady state.
    Encoder counter = Encoder::counter();
    write_request(counter, request_id, oneway, key, method, args);
    Encoder e(arena_.acquire(counter.size()));
    e.reserve(counter.size());
    write_request(e, request_id, oneway, key, method, args);
    return std::move(e).take();
}

Orb::Orb(Network& network, NodeId node)
    : network_(&network),
      node_(node),
      incarnation_(network.node(node).incarnation()),
      adapter_(node),
      invocations_(network.metrics(), obs::metric::kOrbInvocations),
      call_timeouts_(network.metrics(), obs::metric::kOrbCallTimeouts),
      oneways_(network.metrics(), obs::metric::kOrbOneways),
      requests_handled_(network.metrics(), obs::metric::kOrbRequestsHandled),
      replies_sent_(network.metrics(), obs::metric::kOrbRepliesSent),
      replies_received_(network.metrics(), obs::metric::kOrbRepliesReceived),
      group_retries_(network.metrics(), obs::metric::kOrbGroupRetries) {
    network_->node(node_).set_receiver(
        [this](NodeId from, Bytes payload) { on_message(from, std::move(payload)); });
}

OrbCallId Orb::invoke(const Ior& target, std::uint32_t method, const Bytes& args,
                      ReplyHandler handler, SimDuration timeout) {
    NEWTOP_EXPECTS(handler != nullptr, "two-way invoke needs a reply handler");
    if (process_defunct()) return OrbCallId(0);
    invocations_.add();
    const std::uint64_t request_id = next_request_id_++;
    Pending pending{request_id, std::move(handler), 0};
    if (timeout > 0) {
        // Deadlines of one timeout never decrease: they share a lane.
        const LaneId lane = deadline_lane(timeout);
        const SimTime deadline = scheduler().now() + timeout;
        pending.timer = scheduler().schedule_in(lane, deadline, [this, request_id] {
            if (find_call(request_id) != nullptr) call_timeouts_.add();
            complete(request_id, ReplyStatus::kTimeout, Bytes{});
        });
    }
    // Ids ascend, so appending keeps the table sorted.
    calls_.push_back(std::move(pending));
    ++live_calls_;

    Bytes wire = encode_request(request_id, /*oneway=*/false, target.key, method, args);
    Node& self = network_->node(node_);
    self.cpu().execute(calibration::marshal_cost(wire.size()),
                       [this, to = target.node, wire = std::move(wire)]() mutable {
                           network_->send(node_, to, std::move(wire));
                       });
    return OrbCallId(request_id);
}

LaneId Orb::deadline_lane(SimDuration timeout) {
    for (const DeadlineLane& d : deadline_lanes_) {
        if (d.timeout == timeout) return d.lane;
    }
    deadline_lanes_.push_back(DeadlineLane{timeout, scheduler().open_lane()});
    return deadline_lanes_.back().lane;
}

void Orb::invoke_oneway(const Ior& target, std::uint32_t method, const Bytes& args) {
    if (process_defunct()) return;
    oneways_.add();
    Bytes wire = encode_request(/*request_id=*/0, /*oneway=*/true, target.key, method, args);
    Node& self = network_->node(node_);
    self.cpu().execute(calibration::marshal_cost(wire.size()),
                       [this, to = target.node, wire = std::move(wire)]() mutable {
                           network_->send(node_, to, std::move(wire));
                       });
}

void Orb::cancel(OrbCallId id) {
    if (Pending* call = find_call(id.value())) finish(*call);
}

Orb::Pending* Orb::find_call(std::uint64_t request_id) {
    const auto it = std::lower_bound(
        calls_.begin(), calls_.end(), request_id,
        [](const Pending& call, std::uint64_t id) { return call.request_id < id; });
    if (it == calls_.end() || it->request_id != request_id || !it->handler) return nullptr;
    return &*it;
}

ReplyHandler Orb::finish(Pending& call) {
    scheduler().cancel(call.timer);
    ReplyHandler handler = std::move(call.handler);
    call.handler = nullptr;
    --live_calls_;
    const std::size_t finished = calls_.size() - live_calls_;
    if (finished > live_calls_ && finished >= kCompactFloor) {
        // Order-preserving, so the table stays sorted by request id.
        std::erase_if(calls_, [](const Pending& c) { return !c.handler; });
    }
    return handler;
}

void Orb::on_message(NodeId from, Bytes payload) {
    // Parse errors on wire input are dropped (a real ORB would log and
    // close the connection); the caller's timeout handles the fallout.
    try {
        // The decoder points into payload's heap storage, which a vector
        // move does not relocate — handle_request may safely take the
        // buffer while `d` is still live.
        Decoder d(payload);
        const std::uint8_t type = d.get_u8();
        switch (type) {
            case kMsgRequest: handle_request(from, d, std::move(payload)); return;
            case kMsgReply: handle_reply(d); break;
            default: throw DecodeError("unknown ORB message type");
        }
        // Reply wire consumed synchronously: its storage feeds the next
        // outgoing encode.
        arena_.recycle(std::move(payload));
    } catch (const DecodeError& err) {
        NEWTOP_WARN("node " << node_ << ": dropping malformed message from " << from << ": "
                            << err.what());
    }
}

void Orb::handle_request(NodeId from, Decoder& d, Bytes wire) {
    requests_handled_.add();
    const std::uint64_t request_id = d.get_u64();
    const bool oneway = d.get_bool();
    ObjectKey key;
    decode(d, key);
    const std::uint32_t method = d.get_u32();
    // Zero-copy: the arguments stay in the received wire buffer; the
    // dispatch closure keeps the buffer alive and hands the servant a view.
    const BytesView args = d.get_blob_view();
    const std::size_t args_off = static_cast<std::size_t>(args.data() - wire.data());
    const std::size_t args_len = args.size();

    Node& self = network_->node(node_);
    Servant* servant = adapter_.find(key);
    if (servant == nullptr) {
        // Charge the unmarshal that located (or failed to locate) the key.
        self.cpu().execute(calibration::unmarshal_cost(args_len),
                           [this, from, request_id, oneway] {
            if (!oneway) send_reply(from, request_id, ReplyStatus::kNoObject, Bytes{});
        });
        return;
    }

    const SimDuration cost =
        calibration::unmarshal_cost(args_len) + servant->execution_cost(method);
    self.cpu().execute(cost, [this, from, request_id, oneway, key, method,
                              wire = std::move(wire), args_off, args_len]() mutable {
        // Re-resolve: the object may have been deactivated while queued.
        Servant* target = adapter_.find(key);
        if (target == nullptr) {
            if (!oneway) send_reply(from, request_id, ReplyStatus::kNoObject, Bytes{});
            return;
        }
        try {
            Bytes result = target->dispatch(method, BytesView{wire.data() + args_off, args_len});
            // Retire the request wire before framing the reply, so the
            // reply encode can reuse its storage.
            arena_.recycle(std::move(wire));
            if (!oneway) send_reply(from, request_id, ReplyStatus::kOk, std::move(result));
        } catch (const ServantError& err) {
            arena_.recycle(std::move(wire));
            if (!oneway) {
                send_reply(from, request_id, ReplyStatus::kException,
                           encode_to_bytes(std::string(err.what())));
            }
        }
    });
}

void Orb::send_reply(NodeId to, std::uint64_t request_id, ReplyStatus status, Bytes payload) {
    replies_sent_.add();
    // Fixed framing (type + id + status + blob length prefix) around the
    // payload: size it exactly and encode into a recycled buffer.
    const std::size_t frame_size = 1 + 8 + 1 + 4 + payload.size();
    Encoder e(arena_.acquire(frame_size));
    e.reserve(frame_size);
    e.put_u8(kMsgReply);
    e.put_u64(request_id);
    e.put_u8(static_cast<std::uint8_t>(status));
    e.put_blob(payload);
    Bytes wire = std::move(e).take();

    Node& self = network_->node(node_);
    self.cpu().execute(calibration::marshal_cost(wire.size()),
                       [this, to, wire = std::move(wire)]() mutable {
        network_->send(node_, to, std::move(wire));
    });
}

void Orb::handle_reply(Decoder& d) {
    const std::uint64_t request_id = d.get_u64();
    const std::uint8_t raw_status = d.get_u8();
    if (raw_status > static_cast<std::uint8_t>(ReplyStatus::kTimeout)) {
        throw DecodeError("invalid reply status");
    }
    Bytes payload = d.get_blob();
    if (find_call(request_id) == nullptr) return;  // late or duplicate reply
    replies_received_.add();

    Node& self = network_->node(node_);
    self.cpu().execute(calibration::unmarshal_cost(payload.size()),
                       [this, request_id, status = static_cast<ReplyStatus>(raw_status),
                        payload = std::move(payload)] {
                           complete(request_id, status, payload);
                       });
}

void Orb::complete(std::uint64_t request_id, ReplyStatus status, const Bytes& payload) {
    Pending* call = find_call(request_id);
    if (call == nullptr) return;  // cancelled or already completed
    // The handler runs after finish(): it may invoke again, which can
    // reallocate the table.
    ReplyHandler handler = finish(*call);
    // A dead process runs no completion handlers; the entry is still
    // reaped above so a timeout timer from a previous life cannot leak it.
    if (process_defunct()) return;
    handler(status, payload);
}

void Orb::invoke_group(const Iogr& group, std::uint32_t method, Bytes args, ReplyHandler handler,
                       SimDuration per_member_timeout) {
    NEWTOP_EXPECTS(!group.members.empty(), "empty object group reference");
    NEWTOP_EXPECTS(per_member_timeout > 0, "IOGR failover requires a per-member timeout");
    // Rotate so the primary is attempted first, then the rest in order.
    Iogr rotated = group;
    try_group_member(std::move(rotated), 0, method, std::move(args), std::move(handler),
                     per_member_timeout);
}

void Orb::try_group_member(Iogr group, std::size_t attempt, std::uint32_t method, Bytes args,
                           ReplyHandler handler, SimDuration per_member_timeout) {
    const std::size_t index = (group.primary_index + attempt) % group.members.size();
    const Ior target = group.members[index];
    const bool last = attempt + 1 >= group.members.size();
    invoke(
        target, method, args,
        [this, group = std::move(group), attempt, method, args, handler,
         per_member_timeout, last](ReplyStatus status, const Bytes& payload) mutable {
            const bool retryable =
                status == ReplyStatus::kTimeout || status == ReplyStatus::kNoObject;
            if (retryable && !last) {
                group_retries_.add();
                try_group_member(std::move(group), attempt + 1, method, std::move(args),
                                 std::move(handler), per_member_timeout);
            } else {
                handler(status, payload);
            }
        },
        per_member_timeout);
}

}  // namespace newtop
