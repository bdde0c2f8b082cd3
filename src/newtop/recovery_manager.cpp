#include "newtop/recovery_manager.hpp"

#include "obs/names.hpp"
#include "util/check.hpp"

namespace newtop {

RecoveryManager::RecoveryManager(Network& network, Directory& directory, SiteId site,
                                 GenerationFactory factory)
    : net_(&network), directory_(&directory), factory_(std::move(factory)) {
    NEWTOP_EXPECTS(factory_ != nullptr, "recovery manager needs a generation factory");
    node_ = net_->add_node(site);
    // The hook runs inside Node::restart(), after the node revived with a
    // bumped incarnation: the previous life is already defunct by the time
    // we rebuild.
    net_->node(node_).set_restart_hook([this] { on_restart(); });
    spawn_generation(/*after_crash=*/false);
}

bool RecoveryManager::recovered() const {
    if (net_->node(node_).crashed()) return false;
    return live_->app.ready == nullptr || live_->app.ready();
}

void RecoveryManager::on_restart() {
    // The previous life's endpoint is gone for good: tombstone its
    // directory registration so clients and joiners stop courting it.
    // (Survivors that already suspected it evict it independently.)
    directory_->evict_endpoint(live_->nso->id());
    spawn_generation(/*after_crash=*/true);
}

void RecoveryManager::spawn_generation(bool after_crash) {
    auto gen = std::make_unique<Gen>();
    if (after_crash) gen->crashed_at = net_->node(node_).crashed_at();
    // The ORB constructor re-wires the node's message receiver; the NSO
    // registers a fresh endpoint (new EndpointId) with the directory.
    gen->orb = std::make_unique<Orb>(*net_, node_);
    gen->nso = std::make_unique<NewTopService>(*gen->orb, *directory_);

    // The factory may invoke note_recovered synchronously (an app with no
    // sync protocol is recovered the moment it serves), so the generation
    // must already be live.  The old one is destroyed on return, after the
    // factory, which may still release handles into it.
    const std::unique_ptr<Gen> old = std::exchange(live_, std::move(gen));
    if (after_crash) ++generation_;
    live_->app = factory_(*live_->nso,
                          [this, generation = generation_] { note_recovered(generation); });
}

void RecoveryManager::note_recovered(std::uint64_t generation) {
    // Stale generations (superseded by a later restart) and repeat
    // notifications are no-ops; so is the founding generation, which never
    // crashed.
    if (generation != generation_ || live_->crashed_at < 0) return;
    net_->metrics().observe(obs::metric::kRecoveryMttr,
                            net_->scheduler().now() - std::exchange(live_->crashed_at, -1));
}

}  // namespace newtop
