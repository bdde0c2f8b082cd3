// Client side of the invocation layer: binding (open / closed / group-to-
// group), issuing calls with the four primitives, reply collection for
// closed mode, timeouts, and rebinding after request-manager failure.
#include "invocation/service.hpp"

#include <algorithm>

#include "net/calibration.hpp"
#include "obs/names.hpp"
#include "util/check.hpp"
#include "util/log.hpp"

namespace newtop {

using namespace sim_literals;

namespace {
/// Backoff schedule for bindings whose server group died entirely: retry
/// the name re-resolution at kBackoffBase, doubling up to kBackoffCap, each
/// round jittered by up to a quarter of the base so concurrent clients do
/// not thunder back in lockstep when the service recovers.
constexpr SimDuration kBackoffBase = 250_ms;
constexpr SimDuration kBackoffCap = 4_s;
}  // namespace

InvocationService::Binding* InvocationService::find_binding(BindingId id) {
    const auto it = bindings_.find(id);
    return it == bindings_.end() ? nullptr : &it->second;
}

const InvocationService::Binding* InvocationService::find_binding(BindingId id) const {
    const auto it = bindings_.find(id);
    return it == bindings_.end() ? nullptr : &it->second;
}

InvocationService::Binding* InvocationService::binding_by_cs_group(GroupId g) {
    const auto it = bindings_by_group_.find(g);
    return it == bindings_by_group_.end() ? nullptr : find_binding(it->second);
}

bool InvocationService::binding_ready(BindingId binding) const {
    const Binding* b = find_binding(binding);
    return b != nullptr && b->state == Binding::State::kReady;
}

std::optional<EndpointId> InvocationService::binding_manager(BindingId binding) const {
    const Binding* b = find_binding(binding);
    if (b == nullptr || b->options.mode != BindMode::kOpen) return std::nullopt;
    return b->manager;
}

std::uint64_t InvocationService::binding_rebinds(BindingId binding) const {
    const Binding* b = find_binding(binding);
    return b == nullptr ? 0 : b->rebinds;
}

// -- binding -----------------------------------------------------------------------

BindingId InvocationService::bind(const std::string& service, const BindOptions& options) {
    NEWTOP_EXPECTS(directory_->find_group(service) != nullptr,
                   "service has no server group yet");
    NEWTOP_EXPECTS(!options.async_forwarding || options.restricted,
                   "asynchronous forwarding requires the restricted-group optimisation");

    Binding b;
    b.id = next_binding_++;
    b.service = service;
    b.options = options;
    b.server_group = directory_->find_group(service)->id;

    const BindingId id = b.id;
    auto [it, inserted] = bindings_.emplace(id, std::move(b));
    if (options.mode == BindMode::kClosed) {
        start_closed_bind(it->second);
    } else {
        start_open_bind(it->second);
    }
    return id;
}

GroupConfig InvocationService::cs_group_config(const Binding& b) const {
    const Directory::GroupInfo* info = directory_->find_group(b.service);
    GroupConfig cfg = info == nullptr ? GroupConfig{} : info->config;
    cfg.order = b.options.cs_order;
    // The c/s group is a binding-lifetime side group, never reconfigured
    // adaptively; only the server group's policies (timeouts, windows)
    // carry over.
    cfg.adaptive_asym_threshold = 0;
    return cfg;
}

void InvocationService::start_closed_bind(Binding& b) {
    // Fig. 3(i): form a client/server group containing this client and
    // every member of the server group, and invite them all in.
    b.state = Binding::State::kJoining;
    ++b.attempt;
    const std::string cs_name = "cs:" + std::to_string(endpoint_->id().value()) + ":" +
                                std::to_string(b.id) + ":" + std::to_string(b.attempt);
    b.cs_group = endpoint_->create_group(cs_name, cs_group_config(b));
    bindings_by_group_[b.cs_group] = b.id;

    const Directory::GroupInfo* info = directory_->find_group(b.service);
    b.invited_servers.clear();
    if (info != nullptr) {
        for (const EndpointId server : info->contact_hint) {
            // Skip endpoints the directory knows are dead; inviting them
            // would only burn the invite timeout.
            if (!directory_->known_defunct(server)) b.invited_servers.insert(server);
        }
    }
    if (b.invited_servers.empty()) {
        // Every server is gone.  Back off and re-resolve instead of dying:
        // queued calls fail now (their handlers must not hang), but the
        // binding heals once a recovered replica re-registers.
        enter_backoff(b);
        return;
    }
    for (const EndpointId server : b.invited_servers) invite_server(b, server);

    b.invite_timer.arm(*orb_, kInviteTimeout + 1_s,
                       [this, id = b.id, attempt = b.attempt] { on_invite_expired(id, attempt); });
}

void InvocationService::invite_server(Binding& b, EndpointId server) {
    Encoder e;
    encode(e, directory_->find_group(b.cs_group)->name);
    encode(e, b.server_group);
    encode(e, endpoint_->id());
    orb_->invoke(directory_->nso_ior(server), kNsoJoinCsMethod, std::move(e).take(),
                 [](ReplyStatus, const Bytes&) {}, kInviteTimeout);
}

void InvocationService::check_closed_ready(Binding& b, const View& view) {
    if (!view.contains(endpoint_->id())) return;
    // Ready once every invited server that is still considered live has
    // joined.  Servers that died before joining are written off by the
    // invite timeout.
    for (const EndpointId server : b.invited_servers) {
        if (!view.contains(server)) return;
    }
    binding_became_ready(b);
}

BindingId InvocationService::bind_group(GroupId client_group, const std::string& service,
                                        const BindOptions& options) {
    NEWTOP_EXPECTS(endpoint_->is_member(client_group),
                   "must be a member of the client group");
    NEWTOP_EXPECTS(options.mode == BindMode::kOpen, "group-to-group bindings are open");

    Binding b;
    b.id = next_binding_++;
    b.service = service;
    b.options = options;
    b.options.restricted = true;  // all members must agree on the manager
    b.server_group = directory_->find_group(service)->id;
    b.group_origin = true;
    b.client_group = client_group;

    // The client monitor group gz (fig. 6): the client group plus the
    // request manager.  Deterministic name so every member finds the same
    // group; the first to call creates it.
    const std::string gz_name =
        "g2g:" + std::to_string(client_group.value()) + ":" + service;
    if (directory_->find_group(gz_name) == nullptr) {
        b.cs_group = endpoint_->create_group(gz_name, cs_group_config(b));
    } else {
        b.cs_group = endpoint_->join_group(gz_name);
    }
    bindings_by_group_[b.cs_group] = b.id;

    const auto candidates = manager_candidates(b);
    NEWTOP_EXPECTS(!candidates.empty(), "service has no live members");
    b.manager = candidates.front();

    const BindingId id = b.id;
    auto [it, inserted] = bindings_.emplace(id, std::move(b));
    invite_manager(it->second);
    return id;
}

std::vector<EndpointId> InvocationService::manager_candidates(const Binding& b) const {
    const Directory::GroupInfo* info = directory_->find_group(b.service);
    std::vector<EndpointId> out;
    if (info == nullptr) return out;
    for (const EndpointId member : info->contact_hint) {
        if (b.failed_managers.contains(member)) continue;
        if (directory_->known_defunct(member)) continue;
        out.push_back(member);
    }
    return out;
}

void InvocationService::start_open_bind(Binding& b) {
    const auto candidates = manager_candidates(b);
    if (candidates.empty()) {
        enter_backoff(b);
        return;
    }
    // Restricted group (§4.2): always the leader, so request manager =
    // sequencer (= primary).  Otherwise spread clients across members.
    b.manager = b.options.restricted
                    ? candidates.front()
                    : candidates[endpoint_->id().value() % candidates.size()];
    b.state = Binding::State::kJoining;
    ++b.attempt;

    const std::string cs_name = "cs:" + std::to_string(endpoint_->id().value()) + ":" +
                                std::to_string(b.id) + ":" + std::to_string(b.attempt);
    b.cs_group = endpoint_->create_group(cs_name, cs_group_config(b));
    bindings_by_group_[b.cs_group] = b.id;
    invite_manager(b);
}

void InvocationService::invite_manager(Binding& b) {
    // Ask the chosen server's NSO (a plain ORB request) to join our
    // client/server group as request manager.
    Encoder e;
    encode(e, directory_->find_group(b.cs_group)->name);
    encode(e, b.server_group);
    encode(e, endpoint_->id());
    const BindingId id = b.id;
    const std::uint64_t attempt = b.attempt;
    orb_->invoke(directory_->nso_ior(b.manager), kNsoJoinCsMethod, std::move(e).take(),
                 [this, id, attempt](ReplyStatus status, const Bytes&) {
                     if (status == ReplyStatus::kOk) return;  // now wait for the view
                     on_invite_expired(id, attempt);
                 },
                 kInviteTimeout);

    b.invite_timer.arm(*orb_, kInviteTimeout + 1_s,
                       [this, id, attempt] { on_invite_expired(id, attempt); });
}

void InvocationService::on_invite_expired(BindingId id, std::uint64_t attempt) {
    Binding* b = find_binding(id);
    if (b == nullptr || b->state != Binding::State::kJoining || b->attempt != attempt) return;

    if (b->options.mode == BindMode::kClosed) {
        // Servers that never made it into the group are written off; the
        // binding proceeds with whoever joined.
        const View* view = endpoint_->current_view(b->cs_group);
        if (view != nullptr) {
            std::erase_if(b->invited_servers,
                          [&](EndpointId server) { return !view->contains(server); });
        }
        if (!b->invited_servers.empty() && view != nullptr &&
            view->contains(endpoint_->id())) {
            binding_became_ready(*b);
            return;
        }
        NEWTOP_DEBUG("binding " << id << ": closed bind attempt " << attempt << " failed");
        rebind(*b);
        return;
    }

    NEWTOP_DEBUG("binding " << id << ": manager " << b->manager << " unresponsive, rebinding");
    rebind(*b);
}

void InvocationService::binding_became_ready(Binding& b) {
    b.state = Binding::State::kReady;
    b.invite_timer.cancel();
    while (!b.queued.empty() && b.state == Binding::State::kReady) {
        PendingCall call = std::move(b.queued.front());
        b.queued.pop_front();
        send_call(b, std::move(call));
    }
}

void InvocationService::rebind(Binding& b) {
    if (b.state == Binding::State::kDead) return;
    ++b.rebinds;
    metrics().add(obs::metric::kInvRebinds);
    metrics().trace(obs::TraceKind::kRebound, orb_->scheduler().now(),
                    endpoint_->id().value(), b.id, b.rebinds);
    b.failed_managers.insert(b.manager);

    // In-flight calls go back to the queue (same call numbers: servers'
    // reply caches make the retries idempotent, §4.1).
    std::vector<std::uint64_t> seqs;
    for (const auto& [seq, call] : b.inflight) seqs.push_back(seq);
    std::sort(seqs.begin(), seqs.end(), std::greater<>());
    for (const std::uint64_t seq : seqs) {
        auto node = b.inflight.extract(seq);
        node.mapped().timeout.cancel();
        b.queued.push_front(std::move(node.mapped()));
    }

    if (b.group_origin) {
        // The monitor group survives; just invite a replacement manager.
        const auto candidates = manager_candidates(b);
        if (candidates.empty()) {
            enter_backoff(b);
            return;
        }
        b.state = Binding::State::kJoining;
        b.manager = candidates.front();
        ++b.attempt;
        invite_manager(b);
        return;
    }

    // The old client/server group is disbanded and a fresh one is created.
    // Detach the binding from the old group *before* leaving it — leaving
    // as the last member fires on_removed, which must not re-enter this
    // rebind.
    const GroupId old_group = b.cs_group;
    b.cs_group = GroupId{};
    bindings_by_group_.erase(old_group);
    if (endpoint_->is_member(old_group)) endpoint_->leave_group(old_group);
    if (b.options.mode == BindMode::kClosed) {
        start_closed_bind(b);
    } else {
        start_open_bind(b);
    }
}

void InvocationService::enter_backoff(Binding& b) {
    if (b.state == Binding::State::kDead) return;
    NEWTOP_WARN("binding " << b.id << ": no live server for " << b.service
                           << "; backing off (round " << b.backoff_round << ")");
    b.state = Binding::State::kBackoff;
    b.invite_timer.cancel();
    // Calls can never complete while no server exists; their handlers must
    // not hang, so fail them now.  New calls fail fast until we re-bind.
    fail_all_calls(b);
    // Tear down this attempt's client/server group (the group-to-group
    // monitor group survives: its membership is shared with the other
    // clients).  Same re-entrancy dance as rebind(): detach first.
    if (!b.group_origin) {
        const GroupId old_group = b.cs_group;
        b.cs_group = GroupId{};
        bindings_by_group_.erase(old_group);
        if (endpoint_->is_member(old_group)) endpoint_->leave_group(old_group);
    }
    metrics().add(obs::metric::kInvBackoffs);
    const std::uint64_t shift = std::min<std::uint64_t>(b.backoff_round, 8);
    const SimDuration base = std::min(kBackoffCap, kBackoffBase << shift);
    const auto jitter = static_cast<SimDuration>(
        backoff_rng_.next_in(0, static_cast<std::uint64_t>(base / 4)));
    ++b.backoff_round;
    b.backoff_timer.arm(*orb_, base + jitter, [this, &b] { on_backoff_retry(b); });
}

void InvocationService::on_backoff_retry(Binding& b) {
    if (b.state != Binding::State::kBackoff) return;  // healed meanwhile
    // Written-off managers age out: one of them may be exactly the replica
    // that recovered.
    b.failed_managers.clear();
    const auto candidates = manager_candidates(b);
    if (candidates.empty()) {
        enter_backoff(b);  // schedules the next, longer retry
        return;
    }
    metrics().add(obs::metric::kInvBackoffRebinds);
    b.backoff_round = 0;
    if (b.group_origin) {
        // The monitor group is still intact; just invite a new manager.
        b.state = Binding::State::kJoining;
        b.manager = candidates.front();
        ++b.attempt;
        invite_manager(b);
    } else if (b.options.mode == BindMode::kClosed) {
        start_closed_bind(b);
    } else {
        start_open_bind(b);
    }
}

void InvocationService::unbind(BindingId binding) {
    Binding* b = find_binding(binding);
    if (b == nullptr) return;
    const GroupId cs_group = b->cs_group;
    // Erase the binding (and with it every timer it owns) first: leaving a
    // group can fire on_removed, which must not find (and try to revive) a
    // binding being torn down.
    bindings_by_group_.erase(cs_group);
    bindings_.erase(binding);
    if (endpoint_->is_member(cs_group)) endpoint_->leave_group(cs_group);
}

// -- issuing calls ------------------------------------------------------------------

void InvocationService::invoke(BindingId binding, std::uint32_t method, Bytes args,
                               InvocationMode mode, GroupReplyHandler handler) {
    Binding* b = find_binding(binding);
    NEWTOP_EXPECTS(b != nullptr, "unknown binding");
    NEWTOP_EXPECTS(mode == InvocationMode::kOneWay || handler != nullptr,
                   "two-way invocation needs a handler");

    PendingCall call;
    call.seq = b->next_seq++;
    call.method = method;
    call.args = std::move(args);
    call.mode = mode;
    call.handler = std::move(handler);
    if (b->options.async_forwarding && mode == InvocationMode::kWaitFirst) {
        call.flags |= kFlagAsyncForwarding;
    }
    // Root of the call's span tree.  The trace id depends only on the
    // CallId, so retries, rebinds and every downstream principal land in
    // the same trace.
    const std::uint64_t origin =
        b->group_origin ? b->client_group.value() : endpoint_->id().value();
    call.span.trace = obs::invocation_trace_id(origin, call.seq, b->group_origin);
    call.span.span =
        obs::span_id(call.span.trace, endpoint_->id().value(), obs::SpanRole::kClient);

    if (b->state == Binding::State::kDead || b->state == Binding::State::kBackoff) {
        // Dead, or every server is gone and we are between re-resolution
        // attempts: fail fast rather than park the call indefinitely.
        complete_call(*b, std::move(call), false);
        return;
    }
    if (b->state != Binding::State::kReady) {
        metrics().add(obs::metric::kInvRequestsQueued);
        metrics().trace(obs::TraceKind::kRequestQueued, orb_->scheduler().now(),
                        endpoint_->id().value(), call.span, 0, b->id, call.seq);
        b->queued.push_back(std::move(call));
        return;
    }
    send_call(*b, std::move(call));
}

void InvocationService::one_way(BindingId binding, std::uint32_t method, Bytes args) {
    invoke(binding, method, std::move(args), InvocationMode::kOneWay, nullptr);
}

void InvocationService::send_call(Binding& b, PendingCall call) {
    RequestEnv request;
    request.call = CallId{b.group_origin ? b.client_group.value() : endpoint_->id().value(),
                          call.seq, b.group_origin};
    request.span = call.span;
    request.mode = call.mode;
    request.flags = call.flags;
    request.server_group = b.server_group;
    request.bind = b.options.mode;
    request.method = call.method;
    request.args = call.args;
    const SimTime now = orb_->scheduler().now();
    // Re-stamped on every send, so a retry after a rebind carries the fresh
    // attempt's give-up time, not the original one.
    request.deadline = b.options.call_timeout > 0 ? now + b.options.call_timeout : 0;
    Bytes wire = encode_envelope(request);
    const GroupId target = b.cs_group;

    if (call.issued_at < 0) {
        call.issued_at = now;
        calls_sent_.add();
        metrics().trace(obs::TraceKind::kRequestSent, now, endpoint_->id().value(), call.span,
                        0, b.id, call.seq);
    } else {
        metrics().add(obs::metric::kInvCallsRetried);
        metrics().trace(obs::TraceKind::kRequestRetried, now, endpoint_->id().value(),
                        call.span, 0, b.id, call.seq);
    }

    const bool one_way = call.mode == InvocationMode::kOneWay;
    if (!one_way) {
        arm_call_timeout(b, call);
        b.inflight.emplace(call.seq, std::move(call));
    }

    // Crossing from the application into the NSO costs the colocated
    // hand-off (fig. 9's m1); the multicast itself then pays per-member
    // marshalling inside the endpoint.  The client span rides along so the
    // GCS phase events chain back to this invocation.
    const GroupId group = target;
    orb_->network().node(orb_->node_id()).cpu().execute(
        calibration::kLocalHandoffCost,
        [this, group, wire = std::move(wire), span = request.span]() mutable {
            if (endpoint_->is_member(group)) endpoint_->multicast(group, std::move(wire), span);
        });

    if (one_way && call.handler) {
        complete_call(b, std::move(call), true);
    }
}

void InvocationService::arm_call_timeout(Binding& b, PendingCall& call) {
    if (b.options.call_timeout <= 0) return;
    // The timer lives in the in-flight entry of `b` (node-stable in
    // bindings_), so it fires only while both are there.
    call.timeout.arm(*orb_, b.options.call_timeout, [this, &b, seq = call.seq] {
        auto node = b.inflight.extract(seq);
        metrics().add(obs::metric::kInvCallsTimedOut);
        metrics().trace(obs::TraceKind::kCallTimedOut, orb_->scheduler().now(),
                        endpoint_->id().value(), node.mapped().span, 0, b.id,
                        obs::pack_completion_detail(
                            static_cast<std::uint64_t>(node.mapped().mode), seq));
        complete_call(b, std::move(node.mapped()), false);
    });
}

void InvocationService::complete_call(Binding& b, PendingCall call, bool complete) {
    const SimTime now = orb_->scheduler().now();
    (complete ? calls_completed_ : calls_failed_).add();
    metrics().trace(complete ? obs::TraceKind::kCallCompleted : obs::TraceKind::kCallFailed,
                    now, endpoint_->id().value(), call.span, 0, b.id,
                    obs::pack_completion_detail(static_cast<std::uint64_t>(call.mode),
                                                call.seq));
    if (call.issued_at >= 0) {
        reply_wait_[std::min(static_cast<std::size_t>(call.mode), reply_wait_.size() - 1)]
            .observe(now - call.issued_at);
    }
    if (!call.handler) return;
    GroupReply reply;
    reply.complete = complete;
    reply.replies = std::move(call.replies);
    // The reply crosses back into the application (fig. 9's m6).
    orb_->network().node(orb_->node_id()).cpu().execute(
        calibration::kLocalHandoffCost,
        [handler = std::move(call.handler), reply = std::move(reply)] { handler(reply); });
}

void InvocationService::handle_aggregate(Binding& b, const AggregateEnv& aggregate) {
    const auto it = b.inflight.find(aggregate.call.seq);
    if (it == b.inflight.end()) return;  // duplicate or timed out
    if (b.group_origin != aggregate.call.group_origin) return;
    auto node = b.inflight.extract(it);
    node.mapped().replies = aggregate.replies;
    complete_call(b, std::move(node.mapped()), aggregate.complete);
}

// -- closed-mode reply collection ------------------------------------------------------

void InvocationService::collect_closed_reply(Binding& b, const ReplyEnv& reply) {
    if (reply.call.group_origin || reply.call.origin != endpoint_->id().value()) return;
    const auto it = b.inflight.find(reply.call.seq);
    if (it == b.inflight.end()) return;  // duplicate / already satisfied
    PendingCall& call = it->second;
    if (!call.repliers.insert(reply.replier).second) return;
    call.replies.push_back(ReplyEntry{reply.replier, reply.ok, reply.value});
    replies_collected_.add();
    metrics().trace(obs::TraceKind::kReplyCollected, orb_->scheduler().now(),
                    endpoint_->id().value(), call.span, reply.span.span,
                    reply.replier.value(), reply.call.seq);
    const std::size_t needed = reply_threshold(call.mode, live_server_count(b));
    if (needed > 0 && call.repliers.size() >= needed) {
        auto node = b.inflight.extract(reply.call.seq);
        complete_call(b, std::move(node.mapped()), true);
    }
}

std::size_t InvocationService::live_server_count(const Binding& b) const {
    // The servers are simply the other members of the client/server group:
    // the view *is* the failure-masking boundary (fig. 3(i)).
    const View* view = endpoint_->current_view(b.cs_group);
    if (view == nullptr) return 0;
    std::size_t live = 0;
    for (const EndpointId member : view->members) {
        if (member != endpoint_->id()) ++live;
    }
    return live;
}

void InvocationService::reevaluate_closed_calls(Binding& b) {
    // Only a ready binding has calls keyed to the current view; while
    // joining, the cs group's first view contains just the client and must
    // not be read as "all servers failed".
    if (b.state != Binding::State::kReady) return;
    const std::size_t servers = live_server_count(b);
    if (servers == 0) {
        // Every server left the view.  No reply can ever arrive, and
        // reply_threshold() never returns 0 for two-way modes, so without
        // this the calls hang forever when no call timeout is configured.
        // Back off and re-resolve: the whole group may come back.
        NEWTOP_WARN("binding " << b.id << ": all servers left the closed view");
        enter_backoff(b);
        return;
    }
    std::vector<std::uint64_t> done;
    for (auto& [seq, call] : b.inflight) {
        const std::size_t needed = reply_threshold(call.mode, servers);
        if (needed > 0 && call.repliers.size() >= needed) done.push_back(seq);
    }
    for (const std::uint64_t seq : done) {
        auto node = b.inflight.extract(seq);
        complete_call(b, std::move(node.mapped()), true);
    }
}

void InvocationService::fail_all_calls(Binding& b) {
    std::vector<std::uint64_t> seqs;
    seqs.reserve(b.inflight.size());
    for (const auto& [seq, call] : b.inflight) seqs.push_back(seq);
    for (const std::uint64_t seq : seqs) {
        auto node = b.inflight.extract(seq);
        complete_call(b, std::move(node.mapped()), false);
    }
    while (!b.queued.empty()) {
        PendingCall call = std::move(b.queued.front());
        b.queued.pop_front();
        complete_call(b, std::move(call), false);
    }
}

}  // namespace newtop
