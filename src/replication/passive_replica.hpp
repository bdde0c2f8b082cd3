// Passive (primary-backup) replication on top of the invocation layer.
//
// The paper's recipe (§4.2): bind clients with the *restricted group* +
// *asynchronous message forwarding* optimisations so the request manager,
// the sequencer and the primary are all the same member.  The primary
// executes and answers; the backups receive every request through the
// ordered channel but only log it.  The primary periodically ships
// checkpoints (full state snapshots tagged with a position in the request
// stream); a backup applies a checkpoint and discards the covered prefix
// of its log.  On primary failure the next-ranked member replays its log
// past its last checkpoint and takes over.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "newtop/newtop_service.hpp"
#include "replication/stateful_servant.hpp"

namespace newtop {

/// ORB method id of the checkpoint receiver object.
inline constexpr std::uint32_t kCheckpointInstallMethod = 311;

/// The primary ships a checkpoint to the backups after every this many
/// executed requests.
inline constexpr std::uint64_t kCheckpointEvery = 4;

class PassiveReplica {
public:
    /// Serve `service` passively.  The group config should use the
    /// asymmetric ordering protocol (sequencer = primary); clients should
    /// bind with {restricted = true, async_forwarding = true}.
    PassiveReplica(NewTopService& nso, std::string service, const GroupConfig& config,
                   std::shared_ptr<StatefulServant> app);

    PassiveReplica(const PassiveReplica&) = delete;
    PassiveReplica& operator=(const PassiveReplica&) = delete;

    /// True while this member is the executing primary.
    [[nodiscard]] bool is_primary() const;

    /// Requests executed by this member (as primary, including failover
    /// replay).
    [[nodiscard]] std::uint64_t executed() const;

    /// Requests currently logged, awaiting a checkpoint (backups only).
    [[nodiscard]] std::size_t log_size() const;

    [[nodiscard]] const std::string& service() const { return service_; }

private:
    class Shim;
    class CheckpointServant;

    NewTopService* nso_;
    std::string service_;
    std::shared_ptr<Shim> shim_;
};

}  // namespace newtop
