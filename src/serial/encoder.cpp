#include "serial/encoder.hpp"

#include <algorithm>
#include <cstring>

namespace newtop {

void Encoder::put_double(double v) {
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    put_u64(bits);
}

void Encoder::grow(std::size_t n) {
    // Smallest first step: a handful of fields fit before the next grow().
    constexpr std::size_t kMinSize = 64;
    const std::size_t need = len_ + n;
    std::size_t size = std::max({need, 2 * buf_.size(), kMinSize});
    // Inside the reserved or adopted capacity, stop at its edge rather than
    // reallocate; a field that fits needs no bigger buffer.
    if (need <= buf_.capacity()) size = std::min(size, buf_.capacity());
    buf_.resize(size);
}

void Encoder::put_bytes(const std::uint8_t* data, std::size_t n) {
    if (!counting_) {
        if (buf_.size() - len_ < n) grow(n);
        if (n != 0) std::memcpy(buf_.data() + len_, data, n);
    }
    len_ += n;
}

void Encoder::put_string(std::string_view v) {
    put_u32(static_cast<std::uint32_t>(v.size()));
    put_bytes(reinterpret_cast<const std::uint8_t*>(v.data()), v.size());
}

void Encoder::put_blob(const Bytes& v) {
    put_u32(static_cast<std::uint32_t>(v.size()));
    put_bytes(v.data(), v.size());
}

void Encoder::put_blob(BytesView v) {
    put_u32(static_cast<std::uint32_t>(v.size()));
    put_bytes(v.data(), v.size());
}

}  // namespace newtop
