// Glue between the crash-recovery subsystem and the replication styles.
//
// RecoveryManager is replication-agnostic: it rebuilds the NSO after a
// restart and delegates the application rebuild to a GenerationFactory.
// The helpers here produce factories for the two replication styles:
//
//   RecoveryManager server(net, directory, site,
//       make_active_generation("random", config,
//                              [] { return std::make_shared<Counter>(); }));
//
// Each restart builds a *fresh* replica (new ActiveReplica / PassiveReplica
// over a fresh application servant); the replica joins the surviving group
// and pulls authoritative state through the normal state-transfer /
// checkpoint machinery.  `ready` reports synced-and-serving, and the first
// request executed after that fires the manager's MTTR probe.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "newtop/recovery_manager.hpp"
#include "replication/active_replica.hpp"
#include "replication/passive_replica.hpp"

namespace newtop {

/// Makes fresh application servants, one per life of the process.
using StatefulServantFactory = std::function<std::shared_ptr<StatefulServant>()>;

/// A generation factory serving `service` as an actively-replicated member.
/// Ready once state transfer completed and the member is in the server
/// group's installed view.
RecoveryManager::GenerationFactory make_active_generation(std::string service,
                                                          GroupConfig config,
                                                          StatefulServantFactory make_app);

/// A generation factory serving `service` as a passive (primary-backup)
/// member.  Ready once the member is in the server group's installed view
/// (a rejoining backup is consistent from its first checkpoint onwards).
RecoveryManager::GenerationFactory make_passive_generation(std::string service,
                                                           GroupConfig config,
                                                           StatefulServantFactory make_app);

}  // namespace newtop
