#include "gcs/messages.hpp"

#include <type_traits>

namespace newtop {

Bytes encode_gcs_message(const GcsMessage& msg) {
    // encode_to_bytes counts first, so the real encode reserves the exact
    // size and performs at most one allocation regardless of message size.
    return encode_to_bytes(msg);
}

GcsMessage decode_gcs_message(BytesView wire) { return decode_from_bytes<GcsMessage>(wire); }

namespace {
/// DataMsg's frame tag, as the variant codec writes it.
constexpr std::uint8_t kDataTag = 1;
static_assert(std::is_same_v<std::variant_alternative_t<kDataTag - 1, GcsMessage>, DataMsg>);

void encode_data_frame(Encoder& e, const DataMsg& msg) {
    e.put_u8(kDataTag);
    encode(e, msg);
}
}  // namespace

Bytes encode_gcs_message(const DataMsg& msg) {
    Encoder counter = Encoder::counter();
    encode_data_frame(counter, msg);
    Encoder e;
    e.reserve(counter.size());
    encode_data_frame(e, msg);
    return std::move(e).take();
}

DataMsg decode_data_message(BytesView wire) {
    Decoder d(wire);
    if (d.get_u8() != kDataTag) throw DecodeError("not a data message");
    DataMsg msg;
    decode(d, msg);
    if (!d.exhausted()) throw DecodeError("trailing bytes after value");
    return msg;
}

}  // namespace newtop
