// Declarative wire formats.
//
// A wire struct states its format once, as the ordered list of its fields,
// at namespace newtop scope next to the struct:
//
//     NEWTOP_WIRE(MsgRef, sender, seq);
//
// That one list drives encode, the counting pass (Encoder::counter() runs
// the same encode) and decode, so the two directions cannot drift apart.
// The list is checked at compile time against the struct: it must name
// every field of the aggregate (a brace-init arity probe counts them), and
// each field once.  The list is non-intrusive, so a header that can see
// both a struct and this one may declare the struct's format (gcs/ declares
// obs::SpanContext's without obs/ depending on serial/).
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
#include <tuple>
#include <type_traits>
#include <utility>
#include <variant>

#include "serial/decoder.hpp"
#include "serial/encoder.hpp"

namespace newtop {

/// The field list of a wire struct.  Specialised only by NEWTOP_WIRE.
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

/// Declare `Type`'s wire format: its fields, in wire order.  Use at
/// namespace newtop scope.
#define NEWTOP_WIRE(Type, ...)                                                       \
    template <>                                                                      \
    struct WireFields<Type> {                                                        \
        static constexpr auto kFields =                                              \
            wire_detail::field_list<Type>(NEWTOP_WIRE_MEMBERS(Type, __VA_ARGS__));   \
        static_assert(wire_detail::all_distinct(kFields),                            \
                      "NEWTOP_WIRE(" #Type ") lists a field twice");                 \
    }

// ---------------------------------------------------------------------------
// Generic codecs.
// ---------------------------------------------------------------------------

template <WireStruct T>
void encode(Encoder& e, const T& v) {
    std::apply([&](auto... field) { (encode(e, v.*field), ...); }, WireFields<T>::kFields);
}

template <WireStruct T>
void decode(Decoder& d, T& v) {
    std::apply([&](auto... field) { (decode(d, v.*field), ...); }, WireFields<T>::kFields);
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
