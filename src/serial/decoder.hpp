// Wire decoding, the inverse of Encoder.
//
// Every read is bounds-checked; malformed or truncated input raises
// DecodeError rather than reading out of range (Core Guidelines P.7: catch
// run-time errors early).  Decoders never copy the input buffer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "util/bytes.hpp"

namespace newtop {

/// Thrown when the input is truncated or structurally invalid.
class DecodeError : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

class Decoder {
public:
    /// The decoder borrows `buf`; the caller keeps it alive while decoding.
    explicit Decoder(const Bytes& buf) : data_(buf.data()), size_(buf.size()) {}

    /// Decode out of a borrowed view (e.g. a slice of a received wire
    /// buffer); the view's owner keeps the storage alive while decoding.
    explicit Decoder(BytesView buf) : data_(buf.data()), size_(buf.size()) {}

    std::uint8_t get_u8() { return get_le<std::uint8_t>(); }
    std::uint16_t get_u16() { return get_le<std::uint16_t>(); }
    std::uint32_t get_u32() { return get_le<std::uint32_t>(); }
    std::uint64_t get_u64() { return get_le<std::uint64_t>(); }
    std::int32_t get_i32() { return static_cast<std::int32_t>(get_u32()); }
    std::int64_t get_i64() { return static_cast<std::int64_t>(get_u64()); }
    bool get_bool();
    double get_double();
    // newtop-lint: allow(hot-path-alloc): control-plane only; data-plane payload reads use get_blob_view
    std::string get_string();
    Bytes get_blob();

    /// Zero-copy blob read: a view into the decoder's underlying buffer,
    /// valid only as long as that buffer.  Use for payloads consumed before
    /// the wire message is released.
    BytesView get_blob_view();

    /// Minimal unsigned LEB128 (Encoder::put_varint).  Throws DecodeError
    /// for a truncated varint, one past 64 bits (an 11th byte, or a 10th
    /// above 1), and a non-minimal one (a trailing zero byte, as `80 00`),
    /// so every value has exactly one encoding.
    std::uint64_t get_varint() {
        if (pos_ < size_ && data_[pos_] < 0x80) return data_[pos_++];
        return get_varint_long();
    }

    /// The next `n` bytes as a zero-copy view (bounds-checked).
    BytesView get_view(std::size_t n) {
        require(n);
        const BytesView v{data_ + pos_, n};
        pos_ += n;
        return v;
    }

    /// True when the whole buffer has been consumed.
    [[nodiscard]] bool exhausted() const { return pos_ == size_; }

    /// Bytes remaining.
    [[nodiscard]] std::size_t remaining() const { return size_ - pos_; }

private:
    /// One fixed-width little-endian field: a single bounds check, then an
    /// assembly that does not depend on the host's byte order.  It is a fold
    /// with one shift-or per byte and no loop, a pattern GCC and Clang merge
    /// into a single load (a loop over the bytes is not merged at -O2).
    template <typename T>
    T get_le() {
        require(sizeof(T));
        const T v = load_le<T>(data_ + pos_, std::make_index_sequence<sizeof(T)>{});
        pos_ += sizeof(T);
        return v;
    }

    template <typename T, std::size_t... I>
    static T load_le(const std::uint8_t* in, std::index_sequence<I...>) {
        return static_cast<T>(((static_cast<std::uint64_t>(in[I]) << (8 * I)) | ...));
    }

    void require(std::size_t n) const {
        if (size_ - pos_ < n) throw_truncated();
    }
    [[noreturn]] static void throw_truncated();
    std::uint64_t get_varint_long();

    const std::uint8_t* data_;
    std::size_t size_;
    std::size_t pos_{0};
};

// ---------------------------------------------------------------------------
// decode(): mirror of encode().  Types provide `decode(Decoder&, T&)`.
// ---------------------------------------------------------------------------

inline void decode(Decoder& d, std::uint8_t& v) { v = d.get_u8(); }
inline void decode(Decoder& d, std::uint16_t& v) { v = d.get_u16(); }
inline void decode(Decoder& d, std::uint32_t& v) { v = d.get_u32(); }
inline void decode(Decoder& d, std::uint64_t& v) { v = d.get_u64(); }
inline void decode(Decoder& d, std::int32_t& v) { v = d.get_i32(); }
inline void decode(Decoder& d, std::int64_t& v) { v = d.get_i64(); }
inline void decode(Decoder& d, bool& v) { v = d.get_bool(); }
inline void decode(Decoder& d, double& v) { v = d.get_double(); }
inline void decode(Decoder& d, std::string& v) { v = d.get_string(); }
inline void decode(Decoder& d, Bytes& v) { v = d.get_blob(); }

template <typename T>
void decode(Decoder& d, std::vector<T>& v) {
    const std::uint32_t n = d.get_u32();
    // Guard against hostile lengths: each element needs at least one byte.
    if (n > d.remaining()) throw DecodeError("sequence length exceeds input");
    v.clear();
    v.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
        T item;
        decode(d, item);
        v.push_back(std::move(item));
    }
}

template <typename T>
void decode(Decoder& d, std::optional<T>& v) {
    if (d.get_bool()) {
        T item;
        decode(d, item);
        v = std::move(item);
    } else {
        v.reset();
    }
}

template <typename A, typename B>
void decode(Decoder& d, std::pair<A, B>& v) {
    decode(d, v.first);
    decode(d, v.second);
}

template <typename K, typename V>
void decode(Decoder& d, std::map<K, V>& v) {
    const std::uint32_t n = d.get_u32();
    if (n > d.remaining()) throw DecodeError("map length exceeds input");
    v.clear();
    for (std::uint32_t i = 0; i < n; ++i) {
        K key;
        V value;
        decode(d, key);
        decode(d, value);
        v.emplace(std::move(key), std::move(value));
    }
}

/// Decode a whole buffer into one value; throws if bytes are left over.
template <typename T>
T decode_from_bytes(BytesView buf) {
    Decoder d(buf);
    T value;
    decode(d, value);
    if (!d.exhausted()) throw DecodeError("trailing bytes after value");
    return value;
}

}  // namespace newtop
