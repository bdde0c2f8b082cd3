#include "invocation/envelope.hpp"

namespace newtop {

Bytes encode_envelope(const InvocationEnvelope& env) {
    // encode_to_bytes counts first so the real encode allocates exactly once.
    return encode_to_bytes(env);
}

InvocationEnvelope decode_envelope(const Bytes& wire) {
    return decode_from_bytes<InvocationEnvelope>(wire);
}

}  // namespace newtop
