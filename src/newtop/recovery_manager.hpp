// RecoveryManager — crash-recovery for a NewTop process.
//
// A crashed node loses every layer above the hardware: its ORB, its GCS
// endpoint, its NSO and its servants are gone.  When the node restarts
// (Network::restart) it comes back with a bumped incarnation and *nothing*
// running.  The RecoveryManager owns that rebuild, end-to-end:
//
//   restart -> evict the dead endpoint's stale directory registrations
//           -> fresh ORB (re-wires the node's receiver)
//           -> fresh GCS endpoint + NSO (fresh EndpointId; old ids are
//              never reused, so survivors can tell the new life apart)
//           -> the application-supplied GenerationFactory re-registers
//              servants, rejoins server/peer groups and, when layered with
//              replication, drives state transfer
//           -> serve.
//
// Each life of the process is one *generation*; only the live one is kept.
// A restart builds the new generation, then destroys the old app keepalive,
// NSO and ORB.  Nothing queued can reach them afterwards: process timers
// and ORB call deadlines are cancelled with their owners, and the crash
// dropped the CPU work.
//
// MTTR accounting: the factory receives a `note_recovered` callback; the
// application fires it at the first *correct* post-recovery service action
// (e.g. the first request executed after state transfer completes).  The
// manager records the crash -> recovered interval into the
// `recovery.mttr` sim-time histogram, once per restart.
//
// The manager is replication-agnostic: replication glue lives in
// src/replication/recoverable.hpp and plugs in through the factory.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>

#include "gcs/directory.hpp"
#include "invocation/group_servant.hpp"
#include "newtop/newtop_service.hpp"
#include "orb/orb.hpp"

namespace newtop {

class RecoveryManager {
public:
    /// What one life of the application amounts to: opaque state kept alive
    /// for the generation's lifetime, plus a readiness probe.
    struct Generation {
        /// Owns the application objects of this life (replica handles,
        /// servants, ...).  Opaque to the manager.
        std::shared_ptr<void> keepalive;
        /// True once this life serves correctly (e.g. replica synced and in
        /// the server group's view).  Null means "ready immediately".
        std::function<bool()> ready;
    };

    /// Builds the application on top of a (possibly brand-new) NSO.  Called
    /// once at construction and again after every restart.  The factory
    /// must fire `note_recovered` at the first correct post-recovery
    /// service action; the call is idempotent and a no-op for the founding
    /// generation.
    using GenerationFactory =
        std::function<Generation(NewTopService&, std::function<void()> note_recovered)>;

    /// Creates the node at `site` and spawns the founding generation.
    RecoveryManager(Network& network, Directory& directory, SiteId site,
                    GenerationFactory factory);

    RecoveryManager(const RecoveryManager&) = delete;
    RecoveryManager& operator=(const RecoveryManager&) = delete;

    [[nodiscard]] NodeId node_id() const { return node_; }

    /// The current life's NSO (defunct while the node is crashed).
    NewTopService& nso() { return *live_->nso; }
    [[nodiscard]] const NewTopService& nso() const { return *live_->nso; }

    /// The current life's endpoint id (changes across restarts).
    [[nodiscard]] EndpointId endpoint() const { return live_->nso->id(); }

    /// Which life is current: 0 for the founding generation.
    [[nodiscard]] std::uint64_t generation() const { return generation_; }

    /// True when the node is up and the current life reports ready.  The
    /// chaos oracle uses this as the resync-liveness predicate.
    [[nodiscard]] bool recovered() const;

    /// Fault-injection conveniences (same semantics as the Network calls).
    void crash() { net_->crash(node_); }
    void restart_after(SimDuration delay) { net_->restart(node_, delay); }

private:
    /// One life.  Destroyed app first, then NSO, then ORB.
    struct Gen {
        std::unique_ptr<Orb> orb;
        std::unique_ptr<NewTopService> nso;
        Generation app;
        SimTime crashed_at{-1};  // crash this life recovered from; -1 once noted
    };

    void spawn_generation(bool after_crash);
    void on_restart();
    void note_recovered(std::uint64_t generation);

    Network* net_;
    Directory* directory_;
    GenerationFactory factory_;
    NodeId node_;
    std::unique_ptr<Gen> live_;
    std::uint64_t generation_{0};
};

/// Wraps a GroupServant and fires `on_first_serve` once, at the first
/// successfully handled request.  Wire its callback to the factory's
/// `note_recovered` to measure MTTR as crash -> first correct execution at
/// the recovered replica.
class RecoveryProbeServant : public GroupServant {
public:
    RecoveryProbeServant(std::shared_ptr<GroupServant> inner,
                         std::function<void()> on_first_serve)
        : inner_(std::move(inner)), on_first_serve_(std::move(on_first_serve)) {}

    Bytes handle(std::uint32_t method, const Bytes& args) override {
        Bytes reply = inner_->handle(method, args);
        if (on_first_serve_) {
            auto fire = std::move(on_first_serve_);
            on_first_serve_ = nullptr;
            fire();
        }
        return reply;
    }

    [[nodiscard]] SimDuration execution_cost(std::uint32_t method) const override {
        return inner_->execution_cost(method);
    }

private:
    std::shared_ptr<GroupServant> inner_;
    std::function<void()> on_first_serve_;
};

}  // namespace newtop
