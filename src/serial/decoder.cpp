#include "serial/decoder.hpp"

#include <cstring>

namespace newtop {

void Decoder::throw_truncated() { throw DecodeError("truncated input"); }

bool Decoder::get_bool() {
    const std::uint8_t v = get_u8();
    if (v > 1) throw DecodeError("invalid bool encoding");
    return v == 1;
}

double Decoder::get_double() {
    const std::uint64_t bits = get_u64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

// newtop-lint: allow(hot-path-alloc): string fields appear only in cold control-plane messages
std::string Decoder::get_string() {
    const std::uint32_t n = get_u32();
    require(n);
    // newtop-lint: allow(hot-path-alloc): same — invocation payloads travel as blob views, not strings
    std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return s;
}

Bytes Decoder::get_blob() {
    const std::uint32_t n = get_u32();
    require(n);
    Bytes b(data_ + pos_, data_ + pos_ + n);
    pos_ += n;
    return b;
}

BytesView Decoder::get_blob_view() {
    const std::uint32_t n = get_u32();
    require(n);
    const BytesView v{data_ + pos_, n};
    pos_ += n;
    return v;
}

}  // namespace newtop
