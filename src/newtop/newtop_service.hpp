// NewTopService — the NewTop Service Object (NSO) of §3.
//
// One NSO serves one application process (client, server, or peer — or all
// at once).  It bundles the group-communication endpoint with the
// invocation layer and exposes the public API of the system:
//
//   NewTopService nso(orb, directory);
//   // server:
//   nso.serve("random", config, servant);
//   // client:
//   GroupProxy proxy = nso.bind("random", {.mode = BindMode::kOpen});
//   proxy.invoke(kDraw, args, InvocationMode::kWaitFirst, handler);
//   // peer participation:
//   PeerGroup chat = nso.join_peer_group("room1", peer_config, on_message);
//   chat.publish(payload);
//
// The NSO is colocated with its application in these experiments (the most
// efficient configuration, §3); the local hand-offs still pay CPU cost as
// in fig. 9.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>

#include "gcs/directory.hpp"
#include "gcs/endpoint.hpp"
#include "invocation/service.hpp"

namespace newtop {

class NewTopService;

/// Client-side handle to a bound server group.  Thin and copyable; the
/// binding lives in the NSO.
class GroupProxy {
public:
    GroupProxy() = default;

    /// Invoke `method`; `handler` fires once with the gathered replies.
    void invoke(std::uint32_t method, Bytes args, InvocationMode mode,
                GroupReplyHandler handler);

    /// One-way send: no replies, returns immediately.
    void one_way(std::uint32_t method, Bytes args);

    /// True once the binding can carry calls (calls made earlier are queued).
    [[nodiscard]] bool ready() const;

    /// The current request manager (open bindings).
    [[nodiscard]] std::optional<EndpointId> manager() const;

    /// Times the binding has re-bound to a new request manager.
    [[nodiscard]] std::uint64_t rebinds() const;

    /// Release the binding.
    void unbind();

private:
    friend class NewTopService;
    GroupProxy(InvocationService* service, BindingId id) : service_(service), id_(id) {}

    InvocationService* service_{nullptr};
    BindingId id_{0};
};

/// Handle for peer-participation groups (§2.1(iii)): every member
/// multicasts one-way and receives everyone's messages in group order.
class PeerGroup {
public:
    PeerGroup() = default;

    /// One-way multicast to all members (including this one).
    void publish(Bytes payload);

    /// Propose a runtime configuration change (view-synchronous: applied at
    /// an agreed view boundary at every member; see
    /// GroupCommEndpoint::reconfigure).  Asynchronous — poll config_epoch().
    void reconfigure(const GroupConfig& next);

    /// Configurations installed since creation (see
    /// GroupCommEndpoint::config_epoch).
    [[nodiscard]] ConfigEpoch config_epoch() const;

    [[nodiscard]] GroupId id() const { return group_; }
    [[nodiscard]] const View* view() const;
    [[nodiscard]] bool joined() const;

private:
    friend class NewTopService;
    PeerGroup(GroupCommEndpoint* endpoint, GroupId group)
        : endpoint_(endpoint), group_(group) {}

    GroupCommEndpoint* endpoint_{nullptr};
    GroupId group_;
};

class NewTopService {
public:
    /// A peer-group message: sender and raw payload.
    struct PeerMessage {
        GroupId group;
        EndpointId sender;
        Bytes payload;
    };
    using PeerHandler = std::function<void(const PeerMessage&)>;
    using PeerViewHandler = std::function<void(const View&)>;

    NewTopService(Orb& orb, Directory& directory);

    NewTopService(const NewTopService&) = delete;
    NewTopService& operator=(const NewTopService&) = delete;

    [[nodiscard]] EndpointId id() const { return endpoint_.id(); }
    GroupCommEndpoint& group_comm() { return endpoint_; }
    InvocationService& invocation() { return invocation_; }
    Orb& orb() { return *orb_; }
    Directory& directory() { return *directory_; }

    /// The simulated world's metrics registry (owned by the Network; shared
    /// by every node and NSO in this world).
    [[nodiscard]] obs::MetricsRegistry& metrics() { return orb_->network().metrics(); }
    [[nodiscard]] const obs::MetricsRegistry& metrics() const {
        return orb_->network().metrics();
    }

    // -- request/reply ---------------------------------------------------------

    /// Serve `service` (create or join its server group).
    void serve(const std::string& service, const GroupConfig& config,
               std::shared_ptr<GroupServant> servant);

    /// Propose a view-synchronous runtime reconfiguration of a group this
    /// NSO participates in (server group or peer group).  The proposal is
    /// agreed through the group's own total order and applied at a flush-
    /// delimited view boundary; no in-flight invocation is dropped,
    /// duplicated or reordered by the switch.
    void reconfigure(GroupId group, const GroupConfig& next) {
        endpoint_.reconfigure(group, next);
    }

    /// Number of reconfigurations the local member has installed for
    /// `group` (0 = still on the creation-time config).
    [[nodiscard]] ConfigEpoch config_epoch(GroupId group) const {
        return endpoint_.config_epoch(group);
    }

    /// Bind to a service as a client.
    GroupProxy bind(const std::string& service, const BindOptions& options = {});

    /// Bind an entire client group to a service (§4.3); call from every
    /// member of `client_group`.
    GroupProxy bind_group(GroupId client_group, const std::string& service,
                          const BindOptions& options = {});

    // -- peer participation ------------------------------------------------------

    /// Join (creating if needed) a peer group.  `handler` receives every
    /// member's messages in the group's agreed order.
    PeerGroup join_peer_group(const std::string& name, const GroupConfig& config,
                              PeerHandler handler, PeerViewHandler view_handler = nullptr);

    /// Observe every view change seen by this NSO (all groups); observers
    /// run before the event is routed to the invocation layer.  Used by
    /// subsystems layered on top (e.g. replication state transfer).
    using ViewObserver = std::function<void(const GroupCommEndpoint::ViewChangeEvent&)>;
    void add_view_observer(ViewObserver observer);

    /// Build an IOGR over a service's replicas for ORB-level transparent
    /// failover (§2.2) — invoke it with Orb::invoke_group.  Plain direct
    /// access to one replica: no ordering, no reply gathering.
    [[nodiscard]] Iogr service_iogr(const std::string& service) const {
        return InvocationService::service_iogr(*directory_, service);
    }

private:
    class ManagementServant;

    /// Hand a delivery to its peer-group handler (the payload moves into
    /// the PeerMessage) or to the invocation layer.
    void route_delivery(GroupCommEndpoint::Delivery&& delivery);
    void route_view_change(const GroupCommEndpoint::ViewChangeEvent& event);
    void route_removed(GroupId group);
    Bytes handle_management(std::uint32_t method, BytesView args);

    Orb* orb_;
    Directory* directory_;
    GroupCommEndpoint endpoint_;
    InvocationService invocation_;
    Ior management_ior_;

    struct Peer {
        PeerHandler handler;
        PeerViewHandler view_handler;
    };
    std::map<GroupId, Peer> peers_;
    std::vector<ViewObserver> view_observers_;
};

}  // namespace newtop
