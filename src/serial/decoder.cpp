#include "serial/decoder.hpp"

#include <cstring>

namespace newtop {

void Decoder::throw_truncated() { throw DecodeError("truncated input"); }

std::uint64_t Decoder::get_varint_long() {
    std::uint64_t v = 0;
    for (unsigned shift = 0;; shift += 7) {
        if (pos_ == size_) throw_truncated();
        const std::uint8_t b = data_[pos_++];
        // The 10th byte holds bit 63 only; anything more overflows 64 bits.
        if (shift == 63 && b > 1) throw DecodeError("varint overflows 64 bits");
        v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
        if (b < 0x80) {
            if (b == 0 && shift != 0) throw DecodeError("non-minimal varint");
            return v;
        }
    }
}

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
    const BytesView v = get_view(get_u32());
    // newtop-lint: allow(hot-path-alloc): same — invocation payloads travel as blob views, not strings
    return std::string(reinterpret_cast<const char*>(v.data()), v.size());
}

Bytes Decoder::get_blob() {
    const BytesView v = get_blob_view();
    return Bytes(v.begin(), v.end());
}

BytesView Decoder::get_blob_view() { return get_view(get_u32()); }

}  // namespace newtop
