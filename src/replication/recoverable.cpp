#include "replication/recoverable.hpp"

#include <utility>

#include "util/check.hpp"

namespace newtop {

namespace {

/// Forwards to the wrapped application servant and fires `on_first_execute`
/// at the first successful execution.  Under active replication the shim
/// only reaches the application once state transfer completed, so the
/// probe marks the first *correct* post-recovery execution; under passive
/// replication it fires when this member first executes as primary.
class ProbedStatefulServant : public StatefulServant {
public:
    ProbedStatefulServant(std::shared_ptr<StatefulServant> inner,
                          std::function<void()> on_first_execute)
        : inner_(std::move(inner)), on_first_execute_(std::move(on_first_execute)) {}

    Bytes handle(std::uint32_t method, const Bytes& args) override {
        Bytes reply = inner_->handle(method, args);
        if (on_first_execute_) {
            auto fire = std::move(on_first_execute_);
            on_first_execute_ = nullptr;
            fire();
        }
        return reply;
    }

    [[nodiscard]] SimDuration execution_cost(std::uint32_t method) const override {
        return inner_->execution_cost(method);
    }

    [[nodiscard]] Bytes snapshot() const override { return inner_->snapshot(); }

    void restore(const Bytes& snapshot) override { inner_->restore(snapshot); }

private:
    std::shared_ptr<StatefulServant> inner_;
    std::function<void()> on_first_execute_;
};

}  // namespace

RecoveryManager::GenerationFactory make_active_generation(std::string service,
                                                          GroupConfig config,
                                                          StatefulServantFactory make_app) {
    NEWTOP_EXPECTS(make_app != nullptr, "active generation needs a servant factory");
    return [service = std::move(service), config, make_app = std::move(make_app)](
               NewTopService& nso, std::function<void()> note_recovered) {
        auto probed =
            std::make_shared<ProbedStatefulServant>(make_app(), std::move(note_recovered));
        auto replica = std::make_shared<ActiveReplica>(nso, service, config, probed);
        RecoveryManager::Generation gen;
        gen.keepalive = replica;
        gen.ready = [replica, &nso, service] {
            return replica->synced() && nso.invocation().serving(service);
        };
        return gen;
    };
}

RecoveryManager::GenerationFactory make_passive_generation(std::string service,
                                                           GroupConfig config,
                                                           StatefulServantFactory make_app) {
    NEWTOP_EXPECTS(make_app != nullptr, "passive generation needs a servant factory");
    return [service = std::move(service), config, make_app = std::move(make_app)](
               NewTopService& nso, std::function<void()> note_recovered) {
        auto probed =
            std::make_shared<ProbedStatefulServant>(make_app(), std::move(note_recovered));
        auto replica = std::make_shared<PassiveReplica>(nso, service, config, probed);
        RecoveryManager::Generation gen;
        gen.keepalive = replica;
        gen.ready = [&nso, service] { return nso.invocation().serving(service); };
        return gen;
    };
}

}  // namespace newtop
