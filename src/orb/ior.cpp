#include "orb/ior.hpp"

#include "util/check.hpp"

namespace newtop {

const Ior& Iogr::primary() const {
    NEWTOP_EXPECTS(!members.empty(), "empty object group reference");
    NEWTOP_EXPECTS(primary_index < members.size(), "primary index out of range");
    return members[primary_index];
}

void wire_check(const Iogr& iogr) {
    if (!iogr.members.empty() && iogr.primary_index >= iogr.members.size()) {
        throw DecodeError("IOGR primary index out of range");
    }
}

}  // namespace newtop
