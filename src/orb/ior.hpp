// Object references.
//
// An Ior (Interoperable Object Reference) names one remote object: the node
// hosting it, the key its adapter knows it by, and a type name for sanity
// checking.  An Iogr (Interoperable Object *Group* Reference) embeds several
// member IORs with a designated primary — the forthcoming-at-the-time
// fault-tolerance extension the paper proposes exploiting (§2.2): the ORB
// can transparently fail over from the primary to another member.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/ids.hpp"
#include "serial/serial.hpp"
#include "util/strong_id.hpp"

namespace newtop {

struct ObjectKeyTag {};
using ObjectKey = StrongId<ObjectKeyTag, std::uint64_t>;

struct Ior {
    NodeId node;
    ObjectKey key;
    std::string type_name;

    friend bool operator==(const Ior&, const Ior&) = default;
};

NEWTOP_WIRE(Ior, node, key, type_name);

struct Iogr {
    std::vector<Ior> members;
    std::uint32_t primary_index{0};

    [[nodiscard]] const Ior& primary() const;

    friend bool operator==(const Iogr&, const Iogr&) = default;
};

NEWTOP_WIRE(Iogr, members, primary_index);

/// Post-decode check: a non-empty IOGR's primary index names a member.
void wire_check(const Iogr& iogr);

}  // namespace newtop
