// InvocationService: construction, serve(), and event routing.  The client
// side lives in service_client.cpp, the server/request-manager side in
// service_server.cpp.
#include "invocation/service.hpp"

#include "obs/names.hpp"
#include "util/check.hpp"
#include "util/log.hpp"

namespace newtop {

namespace {
/// Per-mode reply-wait histogram names (issue to handler completion).
std::string_view reply_wait_metric(InvocationMode mode) {
    switch (mode) {
        case InvocationMode::kOneWay: return obs::metric::kInvReplyWaitOneway;
        case InvocationMode::kWaitFirst: return obs::metric::kInvReplyWaitFirst;
        case InvocationMode::kWaitMajority: return obs::metric::kInvReplyWaitMajority;
        case InvocationMode::kWaitAll: return obs::metric::kInvReplyWaitAll;
    }
    return obs::metric::kInvReplyWaitOther;
}
}  // namespace

InvocationService::InvocationService(Orb& orb, GroupCommEndpoint& endpoint,
                                     Directory& directory)
    : orb_(&orb),
      endpoint_(&endpoint),
      directory_(&directory),
      // Seeded from the endpoint identity: deterministic per world, yet
      // distinct clients jitter their backoff retries differently.
      backoff_rng_(0x9e3779b97f4a7c15ULL ^ endpoint.id().value()),
      calls_sent_(metrics(), obs::metric::kInvCallsSent),
      calls_completed_(metrics(), obs::metric::kInvCallsCompleted),
      calls_failed_(metrics(), obs::metric::kInvCallsFailed),
      replies_collected_(metrics(), obs::metric::kInvRepliesCollected),
      rm_replies_collected_(metrics(), obs::metric::kInvRmRepliesCollected) {
    for (std::size_t mode = 0; mode < reply_wait_.size(); ++mode) {
        reply_wait_[mode] = obs::Histogram(
            metrics(), reply_wait_metric(static_cast<InvocationMode>(mode)));
    }
}

obs::MetricsRegistry& InvocationService::metrics() const { return orb_->network().metrics(); }

// -- serve -----------------------------------------------------------------------

namespace {

std::string direct_object_name(const std::string& service, EndpointId member) {
    return "direct:" + service + ":" + std::to_string(member.value());
}

/// Exposes a GroupServant as a plain (non-replicated) ORB object, for
/// IOGR-style direct access to a single replica.
class DirectServant : public Servant {
public:
    explicit DirectServant(std::shared_ptr<GroupServant> app) : app_(std::move(app)) {}

    Bytes dispatch(std::uint32_t method, BytesView args) override {
        try {
            // GroupServant::handle owns its argument buffer (the ordered
            // path hands it an envelope copy); materialize the borrowed view.
            return app_->handle(method, Bytes(args.begin(), args.end()));
        } catch (const ServantError&) {
            throw;  // propagate as an ORB exception reply
        }
    }

    [[nodiscard]] SimDuration execution_cost(std::uint32_t method) const override {
        return app_->execution_cost(method);
    }

private:
    std::shared_ptr<GroupServant> app_;
};

}  // namespace

Iogr InvocationService::service_iogr(const Directory& directory, const std::string& service) {
    const Directory::GroupInfo* info = directory.find_group(service);
    NEWTOP_EXPECTS(info != nullptr, "unknown service");
    Iogr iogr;
    for (const EndpointId member : info->contact_hint) {
        const Ior* ior = directory.find_object(direct_object_name(service, member));
        if (ior != nullptr) iogr.members.push_back(*ior);
    }
    NEWTOP_EXPECTS(!iogr.members.empty(), "service has no directly invocable replicas");
    return iogr;
}

void InvocationService::serve(const std::string& service, const GroupConfig& config,
                              std::shared_ptr<GroupServant> servant) {
    NEWTOP_EXPECTS(servant != nullptr, "serve requires a servant");
    NEWTOP_EXPECTS(!served_.contains(service), "already serving this service");

    Served served;
    served.name = service;
    served.config = config;
    served.servant = std::move(servant);

    // Export the replica for IOGR-style direct invocation (§2.2).
    const Ior direct = orb_->adapter().activate(
        std::make_shared<DirectServant>(served.servant), service + ".direct");
    directory_->register_object(direct_object_name(service, endpoint_->id()), direct);

    // First server creates the group; later ones join.  A joiner adopts the
    // group's *current* config from the directory (kept fresh by runtime
    // reconfigurations), not its caller's creation-time copy — a replica
    // recovering after the group reconfigured must rejoin under the
    // policies the group actually runs (the install it receives is the
    // authority; this keeps the local record consistent with it).
    const Directory::GroupInfo* existing = directory_->find_group(service);
    if (existing == nullptr) {
        served.server_group = endpoint_->create_group(service, config);
    } else {
        served.config = existing->config;
        served.server_group = endpoint_->join_group(service);
    }

    served_index_[served.server_group] = service;
    served_.emplace(service, std::move(served));
}

bool InvocationService::serving(const std::string& service) const {
    const auto it = served_.find(service);
    return it != served_.end() && endpoint_->is_member(it->second.server_group);
}

InvocationService::Served* InvocationService::served_by_server_group(GroupId g) {
    const auto it = served_index_.find(g);
    if (it == served_index_.end()) return nullptr;
    return &served_.at(it->second);
}

// -- event routing ------------------------------------------------------------------

bool InvocationService::on_deliver(const GroupCommEndpoint::Delivery& delivery) {
    const bool known = served_index_.contains(delivery.group) ||
                       rm_index_.contains(delivery.group) ||
                       bindings_by_group_.contains(delivery.group);
    if (!known) return false;

    InvocationEnvelope env;
    try {
        env = decode_envelope(delivery.payload);
    } catch (const DecodeError& err) {
        NEWTOP_WARN("invocation: malformed envelope in group " << delivery.group << ": "
                                                               << err.what());
        return true;
    }

    std::visit(
        [&](auto&& body) {
            using T = std::decay_t<decltype(body)>;
            if constexpr (std::is_same_v<T, RequestEnv>) {
                if (const auto rm = rm_index_.find(delivery.group); rm != rm_index_.end()) {
                    Served& served = served_.at(rm->second.service);
                    if (body.bind == BindMode::kOpen) {
                        handle_cs_request(served, delivery.group, body);
                    } else {
                        handle_closed_request(served, delivery.group, body);
                    }
                }
                // The issuing client observes its own request echo: ignored.
            } else if constexpr (std::is_same_v<T, ForwardEnv>) {
                if (Served* served = served_by_server_group(delivery.group)) {
                    handle_forward(*served, body);
                }
            } else if constexpr (std::is_same_v<T, ReplyEnv>) {
                if (Served* served = served_by_server_group(delivery.group)) {
                    handle_server_reply(*served, body);
                } else if (Binding* b = binding_by_cs_group(delivery.group)) {
                    // Closed mode: each server's reply is multicast within
                    // the client/server group; the client gathers them.
                    collect_closed_reply(*b, body);
                }
                // Servers of a closed group also see each other's replies:
                // ignored (only the client collects).
            } else if constexpr (std::is_same_v<T, AggregateEnv>) {
                if (Binding* b = binding_by_cs_group(delivery.group)) {
                    handle_aggregate(*b, body);
                }
                // The request manager also hears its own aggregate: ignored.
            }
        },
        std::move(env));
    return true;
}

bool InvocationService::on_view_change(const GroupCommEndpoint::ViewChangeEvent& event) {
    const GroupId group = event.view.group;
    bool known = false;

    // A client/server group we serve: if the owning client vanished, the
    // group has no purpose — fold it up.
    if (const auto rm = rm_index_.find(group); rm != rm_index_.end()) {
        known = true;
        if (!event.view.contains(rm->second.owner)) {
            Served& served = served_.at(rm->second.service);
            std::erase_if(served.collecting,
                          [&](const auto& entry) { return entry.second.reply_group == group; });
            rm_index_.erase(group);
            if (endpoint_->is_member(group)) endpoint_->leave_group(group);
        }
    }

    if (served_index_.contains(group)) {
        known = true;
        // Server-group membership changed: reply thresholds may now be
        // reachable (a crashed member will never reply).
        Served& served = served_.at(served_index_.at(group));
        std::vector<CallId> calls;
        calls.reserve(served.collecting.size());
        for (const auto& [call, state] : served.collecting) calls.push_back(call);
        for (const CallId& call : calls) maybe_finish_collection(served, call);
    }

    // Client bindings watching this group.
    for (auto& [id, b] : bindings_) {
        if (b.cs_group != group) continue;
        known = true;
        if (b.options.mode == BindMode::kOpen) {
            if (b.state == Binding::State::kJoining && event.view.contains(b.manager) &&
                event.view.contains(endpoint_->id())) {
                binding_became_ready(b);
            } else if (b.state == Binding::State::kReady && !event.view.contains(b.manager)) {
                // The request manager failed or got disconnected: the
                // client/server group is disbanded and we rebind (§4.1).
                rebind(b);
            }
        } else {
            // Closed binding: the group *is* the replication boundary —
            // server failures shrink the view and are masked by adapting
            // the reply thresholds, no rebinding required.
            if (b.state == Binding::State::kJoining) check_closed_ready(b, event.view);
            reevaluate_closed_calls(b);
        }
        break;
    }
    return known;
}

bool InvocationService::on_removed(GroupId group) {
    if (rm_index_.erase(group) > 0) return true;

    for (auto& [id, b] : bindings_) {
        if (b.state == Binding::State::kDead || b.cs_group != group) continue;
        bindings_by_group_.erase(group);
        if (b.group_origin) {
            // The monitor group dissolved around us; the binding dies.
            b.state = Binding::State::kDead;
            fail_all_calls(b);
        } else {
            rebind(b);
        }
        return true;
    }
    return served_index_.contains(group);
}

namespace {
/// Bind-admission backpressure threshold: a server whose endpoint has this
/// much queued GCS work (ordering holdback + parked sends, summed over all
/// its groups) refuses new client/server-group invitations.  The refusal
/// surfaces as an invite failure at the client, whose existing
/// rebind/backoff machinery defers the bind — overload sheds the *new*
/// load, never the calls already in flight.  Far above anything a healthy
/// endpoint accumulates (order windows are tens of messages), so only a
/// genuinely swamped server ever trips it.
constexpr std::size_t kBindAdmissionLimit = 512;
}  // namespace

bool InvocationService::on_join_cs_request(const std::string& cs_name, GroupId server_group,
                                           EndpointId owner) {
    const auto it = served_index_.find(server_group);
    if (it == served_index_.end()) return false;  // we do not serve that group
    const std::size_t load = endpoint_->pending_load();
    if (load >= kBindAdmissionLimit) {
        metrics().add(obs::metric::kInvBindShed);
        metrics().trace(obs::TraceKind::kBindShed, orb_->scheduler().now(),
                        endpoint_->id().value(), owner.value(), load);
        NEWTOP_WARN("endpoint " << endpoint_->id() << ": overloaded (" << load
                                << " queued), refusing bind from " << owner);
        return false;
    }
    const Directory::GroupInfo* info = directory_->find_group(cs_name);
    if (info == nullptr) return false;
    rm_index_[info->id] = ServedCsGroup{it->second, owner};
    endpoint_->join_group(cs_name);
    return true;
}

}  // namespace newtop
