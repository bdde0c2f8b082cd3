// Bootstrap directory (naming service).
//
// Endpoints register their service IORs here and groups are named here.
// This stands in for the out-of-band configuration a deployment would use
// (a CORBA naming service, config files): it is consulted only to find an
// endpoint's IOR and a group's id/config/contact hint — every protocol
// interaction (join, membership agreement, multicast) then travels through
// the simulated network.  The membership hint is advisory and may be stale;
// the join protocol tolerates that by contacting several hint members.
#pragma once

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "gcs/types.hpp"
#include "orb/ior.hpp"

namespace newtop {

namespace obs {
class MetricsRegistry;
}  // namespace obs

class Directory {
public:
    struct GroupInfo {
        GroupId id;
        std::string name;
        GroupConfig config;
        /// Last membership reported by an installer; advisory only.
        std::vector<EndpointId> contact_hint;
    };

    /// Register an endpoint's GCS servant reference; returns its identity.
    EndpointId register_endpoint(Ior service_ior);

    /// IOR of a registered endpoint's GCS servant.
    [[nodiscard]] const Ior& endpoint_ior(EndpointId id) const;

    /// Register the NewTop service object (NSO) management reference that
    /// fronts an endpoint (used for client/server group invitations and
    /// closed-mode direct replies).
    void register_nso(EndpointId id, Ior nso_ior);
    [[nodiscard]] const Ior& nso_ior(EndpointId id) const;

    /// Whether `id` currently has a live NSO registration.  Callers that
    /// pick invitation targets from contact hints must filter on this —
    /// evicted endpoints have no NSO and nso_ior() refuses them.
    [[nodiscard]] bool has_nso(EndpointId id) const;

    /// Drop a (suspected or provably) dead endpoint's NSO registration so
    /// rebinding clients stop selecting it as a request manager.  Eviction
    /// is advisory, like the contact hint: a falsely suspected endpoint
    /// re-registers the next time it installs a view.  Counted as
    /// directory.evictions when a registration was actually removed.
    void evict_endpoint(EndpointId id);

    /// True if `id` was evicted and never re-registered — i.e. the rest of
    /// the system has concluded this process is dead.  Deliberately
    /// distinct from !has_nso(): worlds running the bare GCS layer never
    /// register NSOs, and nothing there is ever *known* defunct.
    [[nodiscard]] bool known_defunct(EndpointId id) const;

    Directory() = default;
    Directory(const Directory&) = delete;
    Directory& operator=(const Directory&) = delete;

    /// Attach a metrics registry (the directory is world-global and built
    /// before the network, so this is wired explicitly after construction;
    /// every endpoint constructor attaches its world's registry).
    void attach_metrics(obs::MetricsRegistry* metrics) { metrics_ = metrics; }

    /// Register a new group.  Throws if the name is taken.
    GroupId register_group(const std::string& name, const GroupConfig& config,
                           EndpointId creator);

    [[nodiscard]] const GroupInfo* find_group(const std::string& name) const;
    [[nodiscard]] const GroupInfo* find_group(GroupId id) const;

    /// Called by members when they install a view, to refresh the hint.
    void update_contact_hint(GroupId id, std::vector<EndpointId> members);

    /// Called by members when a view install applies a reconfiguration, so
    /// late joiners, recovering replicas and rebinding clients resolve the
    /// group's *current* policies instead of its creation-time ones.  Like
    /// the contact hint this copy is advisory — the authoritative config
    /// always travels in the InstallMsg — but keeping it fresh is what lets
    /// bootstrap paths (ensure_skeleton, client cs-group construction) start
    /// from the right place.
    void update_group_config(GroupId id, const GroupConfig& config);

    /// Generic named-object registry (a tiny naming service) used by
    /// subsystems that need to find each other's auxiliary objects, e.g.
    /// replication state-transfer servants.
    void register_object(const std::string& name, Ior ior);
    [[nodiscard]] const Ior* find_object(const std::string& name) const;

private:
    obs::MetricsRegistry* metrics_{nullptr};
    std::vector<Ior> endpoint_iors_;
    std::map<EndpointId, Ior> nso_iors_;
    std::set<EndpointId> evicted_;
    std::map<std::string, Ior> objects_;
    std::map<std::string, GroupInfo> groups_by_name_;
    std::map<GroupId, std::string> names_by_id_;
    GroupId::rep_type next_group_{1};
};

}  // namespace newtop
