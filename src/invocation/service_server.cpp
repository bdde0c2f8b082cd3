// Server and request-manager side of the invocation layer (fig. 4):
// executing delivered requests, multicasting replies inside the server
// group, gathering them per invocation mode, and the §4.2 optimisations.
#include "invocation/service.hpp"

#include "net/calibration.hpp"
#include "obs/names.hpp"
#include "util/check.hpp"

namespace newtop {

std::size_t InvocationService::reply_threshold(InvocationMode mode, std::size_t servers) const {
    switch (mode) {
        case InvocationMode::kOneWay: return 0;
        case InvocationMode::kWaitFirst: return servers == 0 ? 0 : 1;
        case InvocationMode::kWaitMajority: return servers / 2 + 1;
        case InvocationMode::kWaitAll: return servers;
    }
    return servers;
}

bool InvocationService::shed_expired(const CallId& call, SimTime deadline,
                                     const obs::SpanContext& span) {
    if (deadline <= 0) return false;
    const SimTime now = orb_->scheduler().now();
    if (now <= deadline) return false;
    metrics().add(obs::metric::kInvShed);
    metrics().trace(obs::TraceKind::kRequestShed, now, endpoint_->id().value(), span, 0,
                    call.origin, call.seq);
    return true;
}

void InvocationService::execute_and(Served& served, const CallId& call, std::uint32_t method,
                                    Bytes args, obs::SpanContext parent, SimTime deadline,
                                    std::function<void(ReplyEnv)> done) {
    // The delivered request crosses the colocated boundary into the
    // application object (fig. 9's m3/m4) and consumes servant CPU.
    const SimDuration cost =
        calibration::kLocalHandoffCost + served.servant->execution_cost(method);
    auto servant = served.servant;
    const EndpointId self = endpoint_->id();
    // The replica's execution span: child of whichever span shipped the
    // request here (client, manager forward, ...).  Rides back in the reply
    // so the collector can record which execution each reply came from.
    const obs::SpanContext exec{parent.trace,
                                obs::span_id(parent.trace, self.value(), obs::SpanRole::kServer)};
    // Emitted at *queue* time; the gap to kExecutionDone is CPU-queue wait
    // plus the execution itself, so the detail packs the pure execution cost
    // next to the call seq for the profiler to split the two.
    metrics().trace(obs::TraceKind::kExecutionBegun, orb_->scheduler().now(), self.value(), exec,
                    parent.span, call.origin,
                    obs::pack_execution_detail(static_cast<std::uint64_t>(cost), call.seq));
    orb_->network().node(orb_->node_id()).cpu().execute(
        cost, [this, servant, call, method, args = std::move(args), done = std::move(done), self,
               exec, parent, deadline] {
            // Second shed gate: the call may have expired while queued
            // behind other work on this (possibly slowed) node's CPU.
            if (shed_expired(call, deadline, exec)) return;
            ReplyEnv reply;
            reply.call = call;
            reply.span = exec;
            reply.replier = self;
            try {
                reply.value = servant->handle(method, args);
            } catch (const ServantError& err) {
                reply.ok = false;
                const std::string what = err.what();
                reply.value = Bytes(what.begin(), what.end());
            }
            metrics().trace(obs::TraceKind::kExecutionDone, orb_->scheduler().now(), self.value(),
                            exec, parent.span, call.origin, call.seq);
            done(std::move(reply));
        });
}

// -- closed mode ------------------------------------------------------------------
// Fig. 3(i): the client/server group contains the client and every server.
// Each server executes the totally-ordered request and multicasts its reply
// within the group — the client receives the replies directly from each
// server, and the group's ordering/liveness protocol now spans the client's
// (possibly high-latency) link, which is exactly the cost the paper's
// closed-vs-open comparison measures.

void InvocationService::handle_closed_request(Served& served, GroupId cs_group,
                                              const RequestEnv& request) {
    if (request.bind != BindMode::kClosed) return;

    // Retry suppression: answer repeated call numbers from the cache
    // without re-executing (§4.1).
    const auto cached = served.reply_cache.find(request.call.origin);
    if (cached != served.reply_cache.end()) {
        if (cached->second.call.seq == request.call.seq) {
            if (request.mode != InvocationMode::kOneWay &&
                endpoint_->is_member(cs_group)) {
                endpoint_->multicast(cs_group, encode_envelope(cached->second),
                                     cached->second.span);
            }
            return;
        }
        if (cached->second.call.seq > request.call.seq) return;  // stale duplicate
    }

    // First shed gate, at delivery: an expired request never even queues.
    if (shed_expired(request.call, request.deadline, request.span)) return;

    const InvocationMode mode = request.mode;
    execute_and(served, request.call, request.method, request.args, request.span,
                request.deadline, [this, &served, cs_group, mode](ReplyEnv reply) {
                    served.reply_cache[reply.call.origin] = reply;
                    if (mode == InvocationMode::kOneWay) return;
                    if (endpoint_->is_member(cs_group)) {
                        endpoint_->multicast(cs_group, encode_envelope(reply), reply.span);
                    }
                });
}

// -- open mode: the request-manager path -----------------------------------------

void InvocationService::handle_cs_request(Served& served, GroupId cs_group,
                                          const RequestEnv& request) {
    if (request.bind != BindMode::kOpen) return;

    if (request.call.group_origin) {
        // §4.3: the monitor group delivers one copy per client-group member;
        // forward only the first.
        if (!served.seen_group_calls.insert(request.call).second) return;
    } else {
        const auto cached = served.aggregate_cache.find(request.call.origin);
        if (cached != served.aggregate_cache.end()) {
            if (cached->second.call.seq == request.call.seq) {
                // A retry of a call we already answered (we may be a new
                // request manager after a rebind, with the aggregate arrived
                // via the server group's reply cache round).
                endpoint_->multicast(cs_group, encode_envelope(cached->second),
                                     cached->second.span);
                return;
            }
            if (cached->second.call.seq > request.call.seq) return;
        }
        if (served.collecting.contains(request.call)) return;  // duplicate in flight
    }

    // Expired before the manager even saw it (slow ordering, overload):
    // shed instead of fanning a doomed call out to the whole server group.
    if (shed_expired(request.call, request.deadline, request.span)) return;

    // This member becomes the call's request manager: open its manager span
    // as a child of the client span carried by the request.
    const obs::SpanContext manager_span{
        request.span.trace,
        obs::span_id(request.span.trace, endpoint_->id().value(), obs::SpanRole::kManager)};
    metrics().trace(obs::TraceKind::kRequestForwarded, orb_->scheduler().now(),
                    endpoint_->id().value(), manager_span, request.span.span,
                    request.call.origin, request.call.seq);

    ForwardEnv forward;
    forward.call = request.call;
    forward.span = manager_span;
    forward.mode = request.mode;
    forward.manager = endpoint_->id();
    forward.method = request.method;
    forward.args = request.args;
    forward.deadline = request.deadline;

    if (request.mode == InvocationMode::kOneWay) {
        endpoint_->multicast(served.server_group, encode_envelope(forward), manager_span);
        return;
    }

    if ((request.flags & kFlagAsyncForwarding) != 0 &&
        request.mode == InvocationMode::kWaitFirst) {
        // §4.2 "asynchronous message forwarding": execute here, reply to the
        // client at once, and push the request to the rest of the group
        // one-way.  With the restricted group this is the passive-
        // replication shape: manager = sequencer = primary.
        forward.flags = kFlagNoReply;
        endpoint_->multicast(served.server_group, encode_envelope(forward), manager_span);
        execute_and(served, request.call, request.method, request.args, manager_span,
                    request.deadline, [this, &served, cs_group, manager_span](ReplyEnv reply) {
                        served.reply_cache[reply.call.origin] = reply;
                        rm_replies_collected_.add();
                        metrics().trace(obs::TraceKind::kReplyCollected,
                                        orb_->scheduler().now(), endpoint_->id().value(),
                                        manager_span, reply.span.span, reply.replier.value(),
                                        reply.call.seq);
                        AggregateEnv aggregate;
                        aggregate.call = reply.call;
                        aggregate.span = manager_span;
                        aggregate.complete = true;
                        aggregate.replies.push_back(
                            ReplyEntry{reply.replier, reply.ok, reply.value});
                        send_aggregate(served, reply.call, cs_group, std::move(aggregate));
                    });
        return;
    }

    Served::Collecting collecting;
    collecting.mode = request.mode;
    collecting.reply_group = cs_group;
    collecting.span = manager_span;
    served.collecting.emplace(request.call, std::move(collecting));
    endpoint_->multicast(served.server_group, encode_envelope(forward), manager_span);
}

void InvocationService::handle_forward(Served& served, const ForwardEnv& forward) {
    if ((forward.flags & kFlagNoReply) != 0) {
        // Passive-side forward: the manager already executed and replied.
        if (forward.manager == endpoint_->id()) return;
        const auto cached = served.reply_cache.find(forward.call.origin);
        if (cached != served.reply_cache.end() &&
            cached->second.call.seq >= forward.call.seq) {
            return;
        }
        if (shed_expired(forward.call, forward.deadline, forward.span)) return;
        execute_and(served, forward.call, forward.method, forward.args, forward.span,
                    forward.deadline, [&served](ReplyEnv reply) {
                        served.reply_cache[reply.call.origin] = reply;
                    });
        return;
    }

    // Replay from the cache without re-execution (rebind retries).
    if (!forward.call.group_origin) {
        const auto cached = served.reply_cache.find(forward.call.origin);
        if (cached != served.reply_cache.end()) {
            if (cached->second.call.seq == forward.call.seq) {
                endpoint_->multicast(served.server_group, encode_envelope(cached->second),
                                     cached->second.span);
                return;
            }
            if (cached->second.call.seq > forward.call.seq) return;
        }
    }

    if (shed_expired(forward.call, forward.deadline, forward.span)) return;

    const bool one_way = forward.mode == InvocationMode::kOneWay;
    execute_and(served, forward.call, forward.method, forward.args, forward.span,
                forward.deadline, [this, &served, one_way](ReplyEnv reply) {
                    served.reply_cache[reply.call.origin] = reply;
                    if (one_way) return;
                    // Fig. 4(iii): each member multicasts its reply within
                    // the server group; the request manager gathers them.
                    if (endpoint_->is_member(served.server_group)) {
                        endpoint_->multicast(served.server_group, encode_envelope(reply),
                                             reply.span);
                    }
                });
}

void InvocationService::handle_server_reply(Served& served, const ReplyEnv& reply) {
    const auto it = served.collecting.find(reply.call);
    if (it == served.collecting.end()) return;  // we are not this call's manager
    Served::Collecting& collecting = it->second;
    if (!collecting.repliers.insert(reply.replier).second) return;
    collecting.replies.push_back(ReplyEntry{reply.replier, reply.ok, reply.value});
    rm_replies_collected_.add();
    metrics().trace(obs::TraceKind::kReplyCollected, orb_->scheduler().now(),
                    endpoint_->id().value(), collecting.span, reply.span.span,
                    reply.replier.value(), reply.call.seq);
    maybe_finish_collection(served, reply.call);
}

void InvocationService::maybe_finish_collection(Served& served, const CallId& call) {
    const auto it = served.collecting.find(call);
    if (it == served.collecting.end()) return;
    Served::Collecting& collecting = it->second;

    const View* view = endpoint_->current_view(served.server_group);
    const std::size_t servers = view == nullptr ? 0 : view->members.size();
    const std::size_t needed = reply_threshold(collecting.mode, servers);
    if (collecting.repliers.size() < needed || needed == 0) return;

    AggregateEnv aggregate;
    aggregate.call = call;
    aggregate.span = collecting.span;
    aggregate.complete = true;
    aggregate.replies = std::move(collecting.replies);
    const GroupId reply_group = collecting.reply_group;
    served.collecting.erase(it);
    send_aggregate(served, call, reply_group, std::move(aggregate));
}

void InvocationService::send_aggregate(Served& served, const CallId& call, GroupId reply_group,
                                       AggregateEnv aggregate) {
    if (!call.group_origin) served.aggregate_cache[call.origin] = aggregate;
    // End of the manager span: the gathered replies leave for the client.
    metrics().trace(obs::TraceKind::kAggregateSent, orb_->scheduler().now(),
                    endpoint_->id().value(), aggregate.span, 0, call.origin, call.seq);
    // The client (or the whole client group, §4.3) receives the replies as
    // one atomic multicast in the client/server (monitor) group.
    if (endpoint_->is_member(reply_group)) {
        endpoint_->multicast(reply_group, encode_envelope(aggregate), aggregate.span);
    }
}

}  // namespace newtop
