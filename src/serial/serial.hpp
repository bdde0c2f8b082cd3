// Convenience umbrella for the serialization layer (including the
// declarative wire formats of serial/wire.hpp), plus adapters for
// library-wide vocabulary types (strong ids).
#pragma once

#include "serial/decoder.hpp"
#include "serial/encoder.hpp"
#include "serial/wire.hpp"
#include "util/strong_id.hpp"

namespace newtop {

template <typename Tag, typename Rep>
void encode(Encoder& e, StrongId<Tag, Rep> id) {
    encode(e, id.value());
}

template <typename Tag, typename Rep>
void decode(Decoder& d, StrongId<Tag, Rep>& id) {
    Rep value{};
    decode(d, value);
    id = StrongId<Tag, Rep>(value);
}

}  // namespace newtop
