#include "gcs/messages.hpp"

namespace newtop {

Bytes encode_gcs_message(const GcsMessage& msg) {
    // encode_to_bytes counts first, so the real encode reserves the exact
    // size and performs at most one allocation regardless of message size.
    return encode_to_bytes(msg);
}

GcsMessage decode_gcs_message(BytesView wire) { return decode_from_bytes<GcsMessage>(wire); }

}  // namespace newtop
