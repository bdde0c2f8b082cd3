// Group views.
//
// A view is the membership of a group as agreed at one point in time.  All
// members that install a view have delivered the same set of messages in
// the preceding view (virtual synchrony); ranks within a view are the basis
// for deterministic role election (coordinator, sequencer).
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "gcs/types.hpp"
#include "serial/serial.hpp"

namespace newtop {

struct View {
    GroupId group;
    ViewEpoch epoch{0};
    /// Members in ascending EndpointId order; the position of a member is
    /// its rank.
    std::vector<EndpointId> members;

    [[nodiscard]] bool contains(EndpointId member) const;

    /// Rank (0-based) of `member`, or nullopt if absent.
    [[nodiscard]] std::optional<std::size_t> rank_of(EndpointId member) const;

    /// The deterministic-election winner: the lowest-id member.  Used for
    /// both the membership coordinator and the asymmetric-order sequencer
    /// (electing a new one after a view change is trivial because every
    /// member has the identical view — §3 of the paper).
    [[nodiscard]] EndpointId leader() const;

    /// Canonicalise: sort members and drop duplicates.
    void normalize();

    friend bool operator==(const View&, const View&) = default;
};

NEWTOP_WIRE_COMPACT(View, group, epoch, members);

/// Post-decode check: members arrive sorted, defending downstream rank logic
/// against malformed input.
void wire_check(const View& view);

}  // namespace newtop
