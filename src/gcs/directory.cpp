#include "gcs/directory.hpp"

#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "util/check.hpp"

namespace newtop {

EndpointId Directory::register_endpoint(Ior service_ior) {
    endpoint_iors_.push_back(std::move(service_ior));
    return EndpointId(endpoint_iors_.size() - 1);
}

const Ior& Directory::endpoint_ior(EndpointId id) const {
    NEWTOP_EXPECTS(id.value() < endpoint_iors_.size(), "unknown endpoint");
    return endpoint_iors_[id.value()];
}

void Directory::register_nso(EndpointId id, Ior nso_ior) {
    nso_iors_[id] = std::move(nso_ior);
    evicted_.erase(id);
}

const Ior& Directory::nso_ior(EndpointId id) const {
    const auto it = nso_iors_.find(id);
    NEWTOP_EXPECTS(it != nso_iors_.end(), "endpoint has no registered NSO");
    return it->second;
}

bool Directory::has_nso(EndpointId id) const { return nso_iors_.contains(id); }

void Directory::evict_endpoint(EndpointId id) {
    if (nso_iors_.erase(id) == 0) return;
    evicted_.insert(id);
    if (metrics_ != nullptr) metrics_->add(obs::metric::kDirectoryEvictions);
}

bool Directory::known_defunct(EndpointId id) const { return evicted_.contains(id); }

GroupId Directory::register_group(const std::string& name, const GroupConfig& config,
                                  EndpointId creator) {
    NEWTOP_EXPECTS(!groups_by_name_.contains(name), "group name already registered");
    const GroupId id(next_group_++);
    groups_by_name_.emplace(name, GroupInfo{id, name, config, {creator}});
    names_by_id_.emplace(id, name);
    return id;
}

const Directory::GroupInfo* Directory::find_group(const std::string& name) const {
    const auto it = groups_by_name_.find(name);
    return it == groups_by_name_.end() ? nullptr : &it->second;
}

const Directory::GroupInfo* Directory::find_group(GroupId id) const {
    const auto it = names_by_id_.find(id);
    return it == names_by_id_.end() ? nullptr : find_group(it->second);
}

void Directory::register_object(const std::string& name, Ior ior) {
    objects_[name] = std::move(ior);
}

const Ior* Directory::find_object(const std::string& name) const {
    const auto it = objects_.find(name);
    return it == objects_.end() ? nullptr : &it->second;
}

void Directory::update_contact_hint(GroupId id, std::vector<EndpointId> members) {
    const auto it = names_by_id_.find(id);
    if (it == names_by_id_.end()) return;
    groups_by_name_[it->second].contact_hint = std::move(members);
}

void Directory::update_group_config(GroupId id, const GroupConfig& config) {
    const auto it = names_by_id_.find(id);
    if (it == names_by_id_.end()) return;
    groups_by_name_[it->second].config = config;
}

}  // namespace newtop
