// Wire encoding (CDR-inspired).
//
// Every protocol message in the system — ORB requests, group-communication
// control traffic, invocation-layer envelopes — is serialized to bytes with
// this encoder before it touches the network model, so message sizes (and
// hence transmission delays) are realistic.
//
// Format: little-endian fixed-width integers, length-prefixed strings and
// sequences, one byte per bool.  There is no alignment padding; the format
// is private to this library.  put_varint writes the compact integer form
// that NewTop's own protocol structs use (serial/wire.hpp,
// NEWTOP_WIRE_COMPACT): minimal unsigned LEB128, seven bits a byte.
//
// Allocation discipline: the hot encode paths run once per simulated wire
// message, so the encoder supports exact pre-sizing.  A *counting* encoder
// (Encoder::counter()) runs the same encode() functions but only tallies
// bytes; a real encoder then reserves that size up front, so one encode
// costs at most one allocation — zero when it adopts a recycled buffer with
// enough capacity (see serial/arena.hpp).
//
// Writes go through a cursor: `buf_` is sized ahead of the bytes written
// (`len_`) and each field is stored in place at the cursor, so a pre-sized
// encode never resizes per field.  Only a field that does not fit calls the
// out-of-line grow(), which sizes geometrically but stops at the buffer's
// capacity while the field still fits in it: an adopted arena buffer (up to
// 1 MiB) is zero-filled only about as far as the message reaches, never to
// its whole capacity.  take() trims the buffer to the cursor.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/bytes.hpp"

namespace newtop {

class Encoder {
public:
    Encoder() = default;

    /// Adopt `buf`'s storage (its bytes discarded, capacity kept) so
    /// encoding reuses a recycled buffer instead of allocating a fresh one.
    explicit Encoder(Bytes buf) : buf_(std::move(buf)) { buf_.clear(); }

    /// A counting encoder: runs every put_* but only tallies the byte
    /// count.  Drive the same encode() calls through it to learn a
    /// message's exact wire size before encoding for real.
    [[nodiscard]] static Encoder counter() { return Encoder(CountingTag{}); }

    void put_u8(std::uint8_t v) { put_le(v); }
    void put_u16(std::uint16_t v) { put_le(v); }
    void put_u32(std::uint32_t v) { put_le(v); }
    void put_u64(std::uint64_t v) { put_le(v); }
    void put_i32(std::int32_t v) { put_le(static_cast<std::uint32_t>(v)); }
    void put_i64(std::int64_t v) { put_le(static_cast<std::uint64_t>(v)); }
    void put_bool(bool v) { put_u8(v ? 1 : 0); }
    void put_double(double v);
    void put_string(std::string_view v);
    void put_blob(const Bytes& v);
    void put_blob(BytesView v);

    /// Minimal unsigned LEB128: seven bits a byte, low group first, the high
    /// bit set on every byte but the last.  Sized before it is stored, so a
    /// buffer reserved to the counted size never grows for it.
    void put_varint(std::uint64_t v) {
        const std::size_t n = varint_size(v);
        if (!counting_) {
            if (buf_.size() - len_ < n) grow(n);
            std::uint8_t* out = buf_.data() + len_;
            for (; v >= 0x80; v >>= 7) *out++ = static_cast<std::uint8_t>(v | 0x80);
            *out = static_cast<std::uint8_t>(v);
        }
        len_ += n;
    }

    /// Bytes put_varint(v) writes: 1 for 0..127, up to 10 for 2^63 and above.
    [[nodiscard]] static constexpr std::size_t varint_size(std::uint64_t v) {
        return (static_cast<std::size_t>(std::bit_width(v | 1)) + 6) / 7;
    }

    /// Append `n` raw bytes in one bulk write.
    void put_bytes(const std::uint8_t* data, std::size_t n);

    /// Pre-size the output buffer for a message of `n` bytes in all, so
    /// encoding it never calls grow() (no-op while counting).
    void reserve(std::size_t n) {
        if (counting_ || buf_.size() >= n) return;
        buf_.reserve(n);
        buf_.resize(n);
    }

    /// Finish and take the encoded buffer, trimmed to the bytes written.
    [[nodiscard]] Bytes take() && {
        buf_.resize(len_);
        return std::move(buf_);
    }

    /// Bytes written (or, for a counting encoder, tallied) so far.
    [[nodiscard]] std::size_t size() const { return len_; }

    /// Output buffer capacity (allocation diagnostics in tests).
    [[nodiscard]] std::size_t capacity() const { return buf_.capacity(); }

    /// Address of the output storage (allocation diagnostics in tests).
    [[nodiscard]] const std::uint8_t* data() const { return buf_.data(); }

private:
    struct CountingTag {};
    explicit Encoder(CountingTag) : counting_(true) {}

    /// One fixed-width little-endian field stored at the cursor.  The fold
    /// writes each byte by shift, so the format does not depend on the host's
    /// byte order, and the compiler merges the stores into one.
    template <typename T>
    void put_le(T v) {
        if (!counting_) {
            if (buf_.size() - len_ < sizeof(T)) grow(sizeof(T));
            store_le(buf_.data() + len_, v, std::make_index_sequence<sizeof(T)>{});
        }
        len_ += sizeof(T);
    }

    template <typename T, std::size_t... I>
    static void store_le(std::uint8_t* out, T v, std::index_sequence<I...>) {
        ((out[I] = static_cast<std::uint8_t>(v >> (8 * I))), ...);
    }

    /// Make room for `n` more bytes past the cursor (see the header comment).
    void grow(std::size_t n);

    Bytes buf_;            // sized ahead of the cursor; bytes past len_ are scratch
    std::size_t len_{0};   // bytes written, or tallied while counting
    bool counting_{false};
};

// ---------------------------------------------------------------------------
// encode(): the extension point.  Types become wire-encodable by providing a
// free function `encode(Encoder&, const T&)` findable by ADL; the overloads
// below cover primitives and standard containers of encodable types.
// ---------------------------------------------------------------------------

inline void encode(Encoder& e, std::uint8_t v) { e.put_u8(v); }
inline void encode(Encoder& e, std::uint16_t v) { e.put_u16(v); }
inline void encode(Encoder& e, std::uint32_t v) { e.put_u32(v); }
inline void encode(Encoder& e, std::uint64_t v) { e.put_u64(v); }
inline void encode(Encoder& e, std::int32_t v) { e.put_i32(v); }
inline void encode(Encoder& e, std::int64_t v) { e.put_i64(v); }
inline void encode(Encoder& e, bool v) { e.put_bool(v); }
inline void encode(Encoder& e, double v) { e.put_double(v); }
inline void encode(Encoder& e, const std::string& v) { e.put_string(v); }
inline void encode(Encoder& e, const Bytes& v) { e.put_blob(v); }

template <typename T>
void encode(Encoder& e, const std::vector<T>& v) {
    e.put_u32(static_cast<std::uint32_t>(v.size()));
    for (const auto& item : v) encode(e, item);
}

template <typename T>
void encode(Encoder& e, const std::optional<T>& v) {
    e.put_bool(v.has_value());
    if (v) encode(e, *v);
}

template <typename A, typename B>
void encode(Encoder& e, const std::pair<A, B>& v) {
    encode(e, v.first);
    encode(e, v.second);
}

template <typename K, typename V>
void encode(Encoder& e, const std::map<K, V>& v) {
    e.put_u32(static_cast<std::uint32_t>(v.size()));
    for (const auto& [key, value] : v) {
        encode(e, key);
        encode(e, value);
    }
}

/// Exact wire size of a value, via a counting pass.
template <typename T>
std::size_t encoded_size(const T& value) {
    Encoder c = Encoder::counter();
    encode(c, value);
    return c.size();
}

/// Encode a single value to a standalone buffer, sized exactly.
template <typename T>
Bytes encode_to_bytes(const T& value) {
    Encoder e;
    e.reserve(encoded_size(value));
    encode(e, value);
    return std::move(e).take();
}

}  // namespace newtop
