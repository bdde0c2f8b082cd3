// Declarative wire formats.
//
// A wire struct states its format once, as the ordered list of its fields,
// at namespace newtop scope next to the struct:
//
//     NEWTOP_WIRE_COMPACT(MsgRef, sender, seq);
//
// That one list drives encode, the counting pass (Encoder::counter() runs
// the same encode) and decode, so the two directions cannot drift apart.
// The list is checked at compile time against the struct: it must name
// every field of the aggregate (a brace-init arity probe counts them), and
// each field once.  The list is non-intrusive, so a header that can see
// both a struct and this one may declare the struct's format (gcs/ declares
// obs::SpanContext's without obs/ depending on serial/).
//
// Two forms, fixed per struct at compile time:
//   * NEWTOP_WIRE: the CDR-style form of serial/encoder.hpp, fixed-width
//     little-endian integers and u32 lengths.  Kept by what stands in for
//     omniORB (IORs, the ORB header, application arguments) and by
//     obs::SpanContext, whose 64-bit hash ids would not shrink as varints.
//   * NEWTOP_WIRE_COMPACT: NewTop's own protocol structs (the GCS messages
//     and the invocation envelopes).  Every unsigned integer wider than a
//     byte, every StrongId and enum wider than a byte, and every sequence
//     and blob length is a minimal unsigned LEB128 varint; signed
//     integers are ZigZag varints; bytes, bools and doubles are unchanged.
//     The rule reaches into nested vectors and pairs; a nested wire struct
//     keeps its own form.  Decode rejects non-minimal and over-long varints
//     and values too large for their field, so the form stays canonical:
//     decoding and re-encoding gives back the bytes that arrived.
//
// Two further opt-ins complete the vocabulary:
//   * Enums: `constexpr E wire_max(E)` declared next to the enum.  The enum
//     travels as its unsigned underlying type; decode throws DecodeError for
//     any value above wire_max.
//   * Post-decode validation: `void wire_check(const T&)`, found by ADL, runs
//     after a wire struct's fields are decoded and throws DecodeError for a
//     value its fields can express but the protocol forbids.
//
// std::variant travels as a one-byte tag, index() + 1, followed by the
// alternative; decode rejects tag 0 and tags past the last alternative.
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <tuple>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "serial/decoder.hpp"
#include "serial/encoder.hpp"
#include "util/bytes.hpp"
#include "util/strong_id.hpp"

namespace newtop {

/// The field list of a wire struct, and whether it travels compact.
/// Specialised only by NEWTOP_WIRE and NEWTOP_WIRE_COMPACT.
template <typename T>
struct WireFields;

template <typename T>
concept WireStruct = requires { WireFields<T>::kFields; };

template <typename E>
concept WireEnum = std::is_enum_v<E> && std::is_unsigned_v<std::underlying_type_t<E>> &&
                   requires(E e) {
                       { wire_max(e) } -> std::same_as<E>;
                   };

namespace wire_detail {

/// Converts to any field type: the stand-in element of the arity probe.
struct AnyField {
    template <typename F>
    operator F() const;  // never defined: only named in unevaluated probes
};

/// Number of fields of aggregate T: the longest list of AnyField that
/// brace-initialises it.
template <typename T, typename... Probe>
constexpr std::size_t field_count() {
    if constexpr (requires { T{Probe{}..., AnyField{}}; }) {
        return field_count<T, Probe..., AnyField>();
    } else {
        return sizeof...(Probe);
    }
}

/// NEWTOP_WIRE's member pointers as a tuple, checked to cover all of T.
template <typename T, typename... F>
constexpr std::tuple<F T::*...> field_list(F T::*... fields) {
    static_assert(std::is_aggregate_v<T>, "a wire struct must be an aggregate");
    static_assert(sizeof...(F) == field_count<T>(),
                  "NEWTOP_WIRE must list every field of the struct");
    return {fields...};
}

template <typename A, typename B>
constexpr bool same_field(A a, B b) {
    if constexpr (std::is_same_v<A, B>) {
        return a == b;
    } else {
        return false;
    }
}

/// True when no field appears twice in the list: each field matches only
/// itself, so the matches total the list's length.
template <typename... M>
constexpr bool all_distinct(const std::tuple<M...>& list) {
    return std::apply(
        [](auto... field) {
            std::size_t matches = 0;
            auto count_matches = [&](auto self) {
                matches += (static_cast<std::size_t>(same_field(self, field)) + ...);
            };
            (count_matches(field), ...);
            return matches == sizeof...(field);
        },
        list);
}

template <typename T>
inline constexpr bool kIsStrongId = false;
template <typename Tag, typename Rep>
inline constexpr bool kIsStrongId<StrongId<Tag, Rep>> = true;
template <typename T>
inline constexpr bool kIsVector = false;
template <typename T>
inline constexpr bool kIsVector<std::vector<T>> = true;
template <typename T>
inline constexpr bool kIsPair = false;
template <typename A, typename B>
inline constexpr bool kIsPair<std::pair<A, B>> = true;

/// Travels as in the fixed form: one byte, a bool or a double.
template <typename T>
inline constexpr bool kFixedInCompact =
    std::is_same_v<T, bool> || std::is_floating_point_v<T> || sizeof(T) == 1;

/// An unsigned varint decoded into a field of type U, rejected when it
/// does not fit.
template <typename U>
U get_unsigned(Decoder& d) {
    const std::uint64_t v = d.get_varint();
    if constexpr (sizeof(U) < sizeof(std::uint64_t)) {
        if (v > std::numeric_limits<U>::max()) throw DecodeError("varint overflows its field");
    }
    return static_cast<U>(v);
}

/// A field of a NEWTOP_WIRE_COMPACT struct (see the header comment).
template <typename T>
void put_compact(Encoder& e, const T& v) {
    if constexpr (WireStruct<T> || kFixedInCompact<T>) {
        encode(e, v);
    } else if constexpr (kIsStrongId<T>) {
        put_compact(e, v.value());
    } else if constexpr (std::is_enum_v<T>) {
        put_compact(e, static_cast<std::underlying_type_t<T>>(v));
    } else if constexpr (std::is_unsigned_v<T>) {
        e.put_varint(v);
    } else if constexpr (std::is_signed_v<T>) {
        // ZigZag: 0, -1, 1, -2, ... become 0, 1, 2, 3, ...
        const auto u = static_cast<std::uint64_t>(static_cast<std::int64_t>(v));
        e.put_varint((u << 1) ^ (v < 0 ? ~std::uint64_t{0} : 0));
    } else if constexpr (std::is_same_v<T, Bytes>) {
        e.put_varint(v.size());
        e.put_bytes(v.data(), v.size());
    } else if constexpr (kIsVector<T>) {
        e.put_varint(v.size());
        for (const auto& item : v) put_compact(e, item);
    } else {
        static_assert(kIsPair<T>, "no compact wire form for this field type");
        put_compact(e, v.first);
        put_compact(e, v.second);
    }
}

template <typename T>
void get_compact(Decoder& d, T& v) {
    if constexpr (WireStruct<T> || kFixedInCompact<T>) {
        decode(d, v);
    } else if constexpr (kIsStrongId<T>) {
        v = T(get_unsigned<typename T::rep_type>(d));
    } else if constexpr (std::is_enum_v<T>) {
        const auto raw = get_unsigned<std::underlying_type_t<T>>(d);
        if (raw > static_cast<std::underlying_type_t<T>>(wire_max(T{}))) {
            throw DecodeError("enum value out of range");
        }
        v = static_cast<T>(raw);
    } else if constexpr (std::is_unsigned_v<T>) {
        v = get_unsigned<T>(d);
    } else if constexpr (std::is_signed_v<T>) {
        const std::uint64_t u = d.get_varint();
        const auto wide = static_cast<std::int64_t>((u >> 1) ^ (~(u & 1) + 1));
        if constexpr (sizeof(T) < sizeof(std::int64_t)) {
            if (wide < std::numeric_limits<T>::min() || wide > std::numeric_limits<T>::max()) {
                throw DecodeError("varint overflows its field");
            }
        }
        v = static_cast<T>(wide);
    } else if constexpr (std::is_same_v<T, Bytes>) {
        const BytesView bytes = d.get_view(get_unsigned<std::size_t>(d));
        v.assign(bytes.begin(), bytes.end());
    } else if constexpr (kIsVector<T>) {
        const std::uint64_t n = d.get_varint();
        // Guard against hostile lengths: each element needs at least one byte.
        if (n > d.remaining()) throw DecodeError("sequence length exceeds input");
        v.clear();
        v.reserve(n);
        for (std::uint64_t i = 0; i < n; ++i) get_compact(d, v.emplace_back());
    } else {
        static_assert(kIsPair<T>, "no compact wire form for this field type");
        get_compact(d, v.first);
        get_compact(d, v.second);
    }
}

}  // namespace wire_detail

// The field list becomes `&Type::f1, &Type::f2, ...` by __VA_OPT__ recursion:
// each rescan peels one field, and EXPAND rescans at least 64 times.
#define NEWTOP_WIRE_PARENS ()
#define NEWTOP_WIRE_EXPAND(...) \
    NEWTOP_WIRE_EXPAND3(NEWTOP_WIRE_EXPAND3(NEWTOP_WIRE_EXPAND3(NEWTOP_WIRE_EXPAND3(__VA_ARGS__))))
#define NEWTOP_WIRE_EXPAND3(...) \
    NEWTOP_WIRE_EXPAND2(NEWTOP_WIRE_EXPAND2(NEWTOP_WIRE_EXPAND2(NEWTOP_WIRE_EXPAND2(__VA_ARGS__))))
#define NEWTOP_WIRE_EXPAND2(...) \
    NEWTOP_WIRE_EXPAND1(NEWTOP_WIRE_EXPAND1(NEWTOP_WIRE_EXPAND1(NEWTOP_WIRE_EXPAND1(__VA_ARGS__))))
#define NEWTOP_WIRE_EXPAND1(...) __VA_ARGS__
#define NEWTOP_WIRE_MEMBERS(Type, ...) \
    __VA_OPT__(NEWTOP_WIRE_EXPAND(NEWTOP_WIRE_MEMBER(Type, __VA_ARGS__)))
#define NEWTOP_WIRE_MEMBER(Type, field, ...) \
    &Type::field __VA_OPT__(, NEWTOP_WIRE_MEMBER_AGAIN NEWTOP_WIRE_PARENS(Type, __VA_ARGS__))
#define NEWTOP_WIRE_MEMBER_AGAIN() NEWTOP_WIRE_MEMBER

#define NEWTOP_WIRE_FORMAT(Type, compact, ...)                                       \
    template <>                                                                      \
    struct WireFields<Type> {                                                        \
        static constexpr bool kCompact = compact;                                    \
        static constexpr auto kFields =                                              \
            wire_detail::field_list<Type>(NEWTOP_WIRE_MEMBERS(Type, __VA_ARGS__));   \
        static_assert(wire_detail::all_distinct(kFields),                            \
                      "the wire format of " #Type " lists a field twice");           \
    }

/// Declare `Type`'s fixed-width wire format: its fields, in wire order.  Use
/// at namespace newtop scope.
#define NEWTOP_WIRE(Type, ...) NEWTOP_WIRE_FORMAT(Type, false, __VA_ARGS__)

/// Declare `Type`'s compact wire format (varint integers and lengths): its
/// fields, in wire order.  Use at namespace newtop scope.
#define NEWTOP_WIRE_COMPACT(Type, ...) NEWTOP_WIRE_FORMAT(Type, true, __VA_ARGS__)

// ---------------------------------------------------------------------------
// Generic codecs.
// ---------------------------------------------------------------------------

template <WireStruct T>
void encode(Encoder& e, const T& v) {
    std::apply(
        [&](auto... field) {
            if constexpr (WireFields<T>::kCompact) {
                (wire_detail::put_compact(e, v.*field), ...);
            } else {
                (encode(e, v.*field), ...);
            }
        },
        WireFields<T>::kFields);
}

template <WireStruct T>
void decode(Decoder& d, T& v) {
    std::apply(
        [&](auto... field) {
            if constexpr (WireFields<T>::kCompact) {
                (wire_detail::get_compact(d, v.*field), ...);
            } else {
                (decode(d, v.*field), ...);
            }
        },
        WireFields<T>::kFields);
    if constexpr (requires { wire_check(std::as_const(v)); }) wire_check(std::as_const(v));
}

template <WireEnum E>
void encode(Encoder& e, E v) {
    encode(e, static_cast<std::underlying_type_t<E>>(v));
}

template <WireEnum E>
void decode(Decoder& d, E& v) {
    std::underlying_type_t<E> raw{};
    decode(d, raw);
    if (raw > static_cast<std::underlying_type_t<E>>(wire_max(E{}))) {
        throw DecodeError("enum value out of range");
    }
    v = static_cast<E>(raw);
}

template <typename... Alts>
void encode(Encoder& e, const std::variant<Alts...>& v) {
    static_assert(sizeof...(Alts) < 256, "variant tag must fit one byte");
    e.put_u8(static_cast<std::uint8_t>(v.index() + 1));
    std::visit([&e](const auto& alt) { encode(e, alt); }, v);
}

template <typename... Alts>
void decode(Decoder& d, std::variant<Alts...>& v) {
    using Variant = std::variant<Alts...>;
    static constexpr void (*kDecodeAlt[])(Decoder&, Variant&) = {
        [](Decoder& in, Variant& out) { decode(in, out.template emplace<Alts>()); }...};
    const std::uint8_t tag = d.get_u8();
    if (tag == 0 || tag > sizeof...(Alts)) throw DecodeError("unknown variant tag");
    kDecodeAlt[tag - 1](d, v);
}

}  // namespace newtop
