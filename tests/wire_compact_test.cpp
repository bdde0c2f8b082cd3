// The compact wire form (serial/wire.hpp, NEWTOP_WIRE_COMPACT): varint
// primitives, a canonical round trip for random instances of every compact
// struct, and the malformed inputs decode must reject.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "gcs/messages.hpp"
#include "gcs/ordering.hpp"
#include "gcs/view.hpp"
#include "invocation/envelope.hpp"
#include "serial/serial.hpp"
#include "util/rng.hpp"

namespace newtop {
namespace {

/// A field type no protocol struct uses yet: a two-byte enum.
enum class WideKind : std::uint16_t { kLow = 0, kHigh = 300 };
constexpr WideKind wire_max(WideKind) { return WideKind::kHigh; }

/// Exercises the narrow-field checks: a u16, a signed i32 and a wide enum.
struct NarrowFields {
    std::uint16_t narrow{0};
    std::int32_t small_signed{0};
    WideKind wide{WideKind::kLow};
    std::uint8_t byte{0};
};

}  // namespace

NEWTOP_WIRE_COMPACT(NarrowFields, narrow, small_signed, wide, byte);

namespace {

Bytes unhex(std::string_view digits) {
    auto nibble = [](char c) {
        return static_cast<std::uint8_t>(c <= '9' ? c - '0' : c - 'a' + 10);
    };
    Bytes out;
    for (std::size_t i = 0; i + 1 < digits.size(); i += 2) {
        out.push_back(static_cast<std::uint8_t>(nibble(digits[i]) << 4 | nibble(digits[i + 1])));
    }
    return out;
}

Bytes varint(std::uint64_t v) {
    Encoder e;
    e.put_varint(v);
    return std::move(e).take();
}

std::uint64_t read_varint(const Bytes& wire) {
    Decoder d(wire);
    const std::uint64_t v = d.get_varint();
    EXPECT_TRUE(d.exhausted());
    return v;
}

constexpr std::uint64_t kTwo63 = std::uint64_t{1} << 63;

// -- primitives -------------------------------------------------------------

TEST(WireCompact, VarintBytesAtEveryBoundary) {
    EXPECT_EQ(varint(0), unhex("00"));
    EXPECT_EQ(varint(127), unhex("7f"));
    EXPECT_EQ(varint(128), unhex("8001"));
    EXPECT_EQ(varint(16'383), unhex("ff7f"));
    EXPECT_EQ(varint(16'384), unhex("808001"));
    EXPECT_EQ(varint(kTwo63), unhex("80808080808080808001"));
    EXPECT_EQ(varint(std::numeric_limits<std::uint64_t>::max()), unhex("ffffffffffffffffff01"));
    for (const std::uint64_t v : {std::uint64_t{0}, std::uint64_t{127}, std::uint64_t{128},
                                  std::uint64_t{16'384}, kTwo63 - 1, kTwo63,
                                  std::numeric_limits<std::uint64_t>::max()}) {
        const Bytes wire = varint(v);
        EXPECT_EQ(wire.size(), Encoder::varint_size(v)) << v;
        EXPECT_EQ(read_varint(wire), v);
        Encoder counter = Encoder::counter();
        counter.put_varint(v);
        EXPECT_EQ(counter.size(), wire.size()) << v;
    }
}

TEST(WireCompact, SignedFieldsAreZigZag) {
    NarrowFields v{1, -1, WideKind::kHigh, 0xff};
    // u16 1; i32 -1 -> 1; enum 300 = 0x2c|0x80, 0x02; the byte as is.
    EXPECT_EQ(encode_to_bytes(v), unhex("01" "01" "ac02" "ff"));
    v.small_signed = 1;
    EXPECT_EQ(encode_to_bytes(v), unhex("01" "02" "ac02" "ff"));
    v.small_signed = std::numeric_limits<std::int32_t>::min();
    EXPECT_EQ(encode_to_bytes(v), unhex("01" "ffffffff0f" "ac02" "ff"));
    const NarrowFields back = decode_from_bytes<NarrowFields>(encode_to_bytes(v));
    EXPECT_EQ(back.small_signed, std::numeric_limits<std::int32_t>::min());
    EXPECT_EQ(back.wide, WideKind::kHigh);
}

// -- canonical round trip of every compact struct ------------------------------

/// Integers the property draws from: the varint length boundaries (0, 127,
/// 128), 2^63 (the one value that needs the tenth byte) and random ones.
template <typename U>
U pick_unsigned(Rng& rng) {
    constexpr std::array<std::uint64_t, 4> kEdges{0, 127, 128, kTwo63};
    const std::uint64_t raw =
        rng.next_bool(0.6) ? kEdges[rng.next_in(0, kEdges.size() - 1)] : rng.next_u64();
    return static_cast<U>(raw);  // narrow fields keep the low bits
}

template <typename T>
inline constexpr bool kIsStrongIdField = false;
template <typename Tag, typename Rep>
inline constexpr bool kIsStrongIdField<StrongId<Tag, Rep>> = true;
template <typename T>
inline constexpr bool kIsVectorField = false;
template <typename T>
inline constexpr bool kIsVectorField<std::vector<T>> = true;

/// A random value of any field type a compact struct uses; wire structs are
/// filled field by field through their own field lists.
template <typename T>
void fill(Rng& rng, T& v) {
    if constexpr (WireStruct<T>) {
        std::apply([&](auto... field) { (fill(rng, v.*field), ...); }, WireFields<T>::kFields);
        if constexpr (std::is_same_v<T, View>) v.normalize();  // members arrive sorted
    } else if constexpr (std::is_same_v<T, bool>) {
        v = rng.next_bool(0.5);
    } else if constexpr (std::is_enum_v<T>) {
        v = static_cast<T>(rng.next_in(0, static_cast<std::uint64_t>(wire_max(T{}))));
    } else if constexpr (kIsStrongIdField<T>) {
        v = T(pick_unsigned<typename T::rep_type>(rng));
    } else if constexpr (std::is_same_v<T, Bytes>) {
        v.resize(rng.next_in(0, 3) == 0 ? 200 : rng.next_in(0, 4));
        for (std::uint8_t& b : v) b = static_cast<std::uint8_t>(rng.next_u64());
    } else if constexpr (kIsVectorField<T>) {
        v.resize(rng.next_in(0, 3));
        for (auto& item : v) fill(rng, item);
    } else if constexpr (std::is_unsigned_v<T>) {
        v = pick_unsigned<T>(rng);
    } else if constexpr (std::is_signed_v<T>) {
        constexpr std::array<T, 6> kEdges{0, 127, 128, -1, std::numeric_limits<T>::min(),
                                          std::numeric_limits<T>::max()};
        v = rng.next_bool(0.6) ? kEdges[rng.next_in(0, kEdges.size() - 1)]
                               : static_cast<T>(rng.next_u64());
    } else {
        fill(rng, v.first);
        fill(rng, v.second);
    }
}

/// f = encode(x) for random x: decode(f) re-encodes to f, the counting pass
/// predicts f's size, and a buffer reserved to that size never grows.
template <typename T>
void expect_canonical_roundtrips(std::uint64_t seed) {
    Rng rng(seed);
    for (int iter = 0; iter < 300; ++iter) {
        T value{};
        fill(rng, value);
        const Bytes f = encode_to_bytes(value);
        EXPECT_EQ(encode_to_bytes(decode_from_bytes<T>(f)), f) << "iteration " << iter;
        Encoder exact;
        exact.reserve(encoded_size(value));
        const std::uint8_t* storage = exact.data();
        encode(exact, value);
        EXPECT_EQ(exact.data(), storage) << "iteration " << iter;
        EXPECT_EQ(std::move(exact).take(), f) << "iteration " << iter;
    }
}

template <typename... T>
void expect_all_canonical() {
    std::uint64_t seed = 1;
    (expect_canonical_roundtrips<T>(seed++), ...);
}

TEST(WireCompact, EveryCompactStructRoundTripsCanonically) {
    static_assert(WireFields<DataMsg>::kCompact && !WireFields<obs::SpanContext>::kCompact);
    expect_all_canonical<DataMsg, KnowledgeEntry, MsgRef, OrderRecord, NackMsg, JoinReq,
                         LeaveReq, SuspectMsg, ProposeMsg, FlushMsg, InstallMsg,
                         ConfigChangeMsg, View, GroupConfig, CallId, ReplyEntry, RequestEnv,
                         ForwardEnv, ReplyEnv, AggregateEnv, NarrowFields>();
}

TEST(WireCompact, GcsFramesAndEnvelopesRoundTripCanonically) {
    Rng rng(99);
    for (int iter = 0; iter < 200; ++iter) {
        DataMsg data;
        fill(rng, data);
        const Bytes frame = encode_gcs_message(data);
        EXPECT_EQ(frame, encode_gcs_message(GcsMessage{data}));
        EXPECT_EQ(encode_gcs_message(decode_data_message(frame)), frame);
        InstallMsg install;
        fill(rng, install);
        const Bytes wire = encode_gcs_message(GcsMessage{install});
        EXPECT_EQ(encode_gcs_message(decode_gcs_message(wire)), wire);
        RequestEnv request;
        fill(rng, request);
        const Bytes env = encode_envelope(request);
        EXPECT_EQ(encode_envelope(decode_envelope(env)), env);
    }
}

// -- rejection ---------------------------------------------------------------------

TEST(WireCompactRejects, NonMinimalVarint) {
    for (const std::string_view hex : {"8000", "ff00", "808000", "ff8000"}) {
        const Bytes wire = unhex(hex);
        Decoder d(wire);
        EXPECT_THROW(d.get_varint(), DecodeError) << hex;
    }
    // A JoinReq whose group, 1, is spelled `81 00` instead of `01`.
    EXPECT_NO_THROW(decode_gcs_message(unhex("03" "01" "05")));
    EXPECT_THROW(decode_gcs_message(unhex("03" "8100" "05")), DecodeError);
}

TEST(WireCompactRejects, VarintPastSixtyFourBits) {
    // Eleven bytes, and a tenth byte holding more than bit 63.
    for (const std::string_view hex : {"ffffffffffffffffff8101", "ffffffffffffffffff02",
                                       "80808080808080808080"}) {
        const Bytes wire = unhex(hex);
        Decoder d(wire);
        EXPECT_THROW(d.get_varint(), DecodeError) << hex;
    }
}

TEST(WireCompactRejects, TruncatedVarint) {
    for (const std::string_view hex : {"", "80", "ffff", "ffffffffffffffffff"}) {
        const Bytes wire = unhex(hex);
        Decoder d(wire);
        EXPECT_THROW(d.get_varint(), DecodeError) << hex;
    }
    // A DataMsg cut inside its two-byte ts.
    EXPECT_THROW(decode_data_message(unhex("01" "03" "07" "09" "2a" "d2")), DecodeError);
}

TEST(WireCompactRejects, ValueOverflowsItsFieldOrEnum) {
    // narrow (u16): 65535 fits, 65536 does not.
    EXPECT_NO_THROW(decode_from_bytes<NarrowFields>(unhex("ffff03" "00" "00" "00")));
    EXPECT_THROW(decode_from_bytes<NarrowFields>(unhex("808004" "00" "00" "00")), DecodeError);
    // small_signed (i32): ZigZag 2^32 - 1 is INT32_MIN, 2^32 is out of range.
    EXPECT_NO_THROW(decode_from_bytes<NarrowFields>(unhex("00" "ffffffff0f" "00" "00")));
    EXPECT_THROW(decode_from_bytes<NarrowFields>(unhex("00" "8080808010" "00" "00")),
                 DecodeError);
    // wide (u16 enum): 300 is wire_max, 301 is past it.
    EXPECT_NO_THROW(decode_from_bytes<NarrowFields>(unhex("00" "00" "ac02" "00")));
    EXPECT_THROW(decode_from_bytes<NarrowFields>(unhex("00" "00" "ad02" "00")), DecodeError);
    // RequestEnv.method (u32): 2^32 - 1 fits, 2^32 does not.
    const std::string_view head =
        "01" "05" "06" "01" "1100000000000000" "2200000000000000" "03" "01" "04" "00";
    const std::string_view tail = "02" "6162" "00";
    EXPECT_NO_THROW(decode_envelope(unhex(std::string(head) + "ffffffff0f" + std::string(tail))));
    EXPECT_THROW(decode_envelope(unhex(std::string(head) + "8080808010" + std::string(tail))),
                 DecodeError);
}

TEST(WireCompactRejects, LengthPastTheInput) {
    // DataMsg whose payload claims 3 bytes and has 2.
    const std::string_view head = "01" "01" "02" "02" "00" "08" "00" "00";
    EXPECT_THROW(decode_data_message(unhex(std::string(head) + "03" "6869")), DecodeError);
    // NackMsg whose missing list claims 5 entries and has 2.
    EXPECT_NO_THROW(decode_gcs_message(unhex("02" "01" "02" "03" "02" "04" "05")));
    EXPECT_THROW(decode_gcs_message(unhex("02" "01" "02" "03" "05" "04" "05")), DecodeError);
    // ... and one claiming 2^40 entries is refused before anything is reserved.
    EXPECT_THROW(decode_gcs_message(unhex("02" "01" "02" "03" "808080808020" "04")), DecodeError);
    // A length of 2^63, far past any input.
    EXPECT_THROW(decode_data_message(unhex(std::string(head) + "80808080808080808001")),
                 DecodeError);
}

}  // namespace
}  // namespace newtop
