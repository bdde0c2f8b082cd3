#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "invocation/envelope.hpp"
#include "serial/arena.hpp"
#include "serial/serial.hpp"
#include "util/rng.hpp"

namespace newtop {
namespace {

template <typename T>
T roundtrip(const T& value) {
    return decode_from_bytes<T>(encode_to_bytes(value));
}

TEST(Serial, PrimitiveRoundtrips) {
    EXPECT_EQ(roundtrip<std::uint8_t>(0xab), 0xab);
    EXPECT_EQ(roundtrip<std::uint16_t>(0x1234), 0x1234);
    EXPECT_EQ(roundtrip<std::uint32_t>(0xdeadbeef), 0xdeadbeefu);
    EXPECT_EQ(roundtrip<std::uint64_t>(0x0123456789abcdefULL), 0x0123456789abcdefULL);
    EXPECT_EQ(roundtrip<std::int32_t>(-42), -42);
    EXPECT_EQ(roundtrip<std::int64_t>(std::numeric_limits<std::int64_t>::min()),
              std::numeric_limits<std::int64_t>::min());
    EXPECT_EQ(roundtrip<bool>(true), true);
    EXPECT_EQ(roundtrip<bool>(false), false);
    EXPECT_DOUBLE_EQ(roundtrip<double>(3.14159), 3.14159);
    EXPECT_DOUBLE_EQ(roundtrip<double>(-0.0), -0.0);
}

TEST(Serial, StringRoundtrips) {
    EXPECT_EQ(roundtrip<std::string>(""), "");
    EXPECT_EQ(roundtrip<std::string>("hello"), "hello");
    const std::string with_nul("a\0b", 3);
    EXPECT_EQ(roundtrip<std::string>(with_nul), with_nul);
}

TEST(Serial, BlobRoundtrips) {
    EXPECT_EQ(roundtrip<Bytes>(Bytes{}), Bytes{});
    EXPECT_EQ(roundtrip<Bytes>(Bytes{0, 255, 1, 2}), (Bytes{0, 255, 1, 2}));
}

TEST(Serial, VectorRoundtrips) {
    const std::vector<std::uint32_t> v{1, 2, 3, 0xffffffff};
    EXPECT_EQ(roundtrip(v), v);
    EXPECT_EQ(roundtrip(std::vector<std::string>{"a", "", "bc"}),
              (std::vector<std::string>{"a", "", "bc"}));
}

TEST(Serial, NestedVectorRoundtrips) {
    const std::vector<std::vector<std::uint8_t>> v{{1}, {}, {2, 3}};
    EXPECT_EQ(roundtrip(v), v);
}

TEST(Serial, OptionalRoundtrips) {
    EXPECT_EQ(roundtrip(std::optional<std::uint32_t>{}), std::nullopt);
    EXPECT_EQ(roundtrip(std::optional<std::uint32_t>{7}), std::optional<std::uint32_t>{7});
}

TEST(Serial, PairAndMapRoundtrips) {
    const std::pair<std::uint32_t, std::string> p{9, "nine"};
    EXPECT_EQ(roundtrip(p), p);
    const std::map<std::string, std::uint64_t> m{{"a", 1}, {"b", 2}};
    EXPECT_EQ(roundtrip(m), m);
}

TEST(Serial, StrongIdRoundtrips) {
    struct Tag {};
    using Id = StrongId<Tag, std::uint64_t>;
    EXPECT_EQ(roundtrip(Id(12345)), Id(12345));
}

TEST(Serial, LittleEndianLayout) {
    Encoder e;
    e.put_u32(0x01020304);
    const Bytes b = std::move(e).take();
    ASSERT_EQ(b.size(), 4u);
    EXPECT_EQ(b[0], 0x04);
    EXPECT_EQ(b[3], 0x01);
}

TEST(Serial, TruncatedInputThrows) {
    Encoder e;
    e.put_u64(1);
    Bytes b = std::move(e).take();
    b.pop_back();
    Decoder d(b);
    EXPECT_THROW(d.get_u64(), DecodeError);
}

TEST(Serial, TruncatedStringThrows) {
    Encoder e;
    e.put_u32(100);  // claims 100 bytes follow
    const Bytes b = std::move(e).take();
    Decoder d(b);
    EXPECT_THROW(d.get_string(), DecodeError);
}

TEST(Serial, HostileSequenceLengthThrows) {
    Encoder e;
    e.put_u32(0xffffffff);  // sequence "length"
    const Bytes b = std::move(e).take();
    Decoder d(b);
    std::vector<std::uint8_t> v;
    EXPECT_THROW(decode(d, v), DecodeError);
}

TEST(Serial, InvalidBoolThrows) {
    const Bytes b{2};
    Decoder d(b);
    EXPECT_THROW(d.get_bool(), DecodeError);
}

TEST(Serial, TrailingBytesDetected) {
    Encoder e;
    e.put_u32(1);
    e.put_u8(0);  // extra byte
    const Bytes b = std::move(e).take();
    EXPECT_THROW(decode_from_bytes<std::uint32_t>(b), DecodeError);
}

TEST(Serial, ExhaustedAndRemaining) {
    Encoder e;
    e.put_u16(7);
    const Bytes b = std::move(e).take();
    Decoder d(b);
    EXPECT_FALSE(d.exhausted());
    EXPECT_EQ(d.remaining(), 2u);
    d.get_u16();
    EXPECT_TRUE(d.exhausted());
}

TEST(Serial, EmptyBufferDecodeThrows) {
    const Bytes b;
    Decoder d(b);
    EXPECT_THROW(d.get_u8(), DecodeError);
}

// Property test: random mixed-field records always round-trip.
TEST(Serial, RandomRecordRoundtripProperty) {
    Rng rng(0xfeed);
    for (int iter = 0; iter < 200; ++iter) {
        Encoder e;
        std::vector<std::uint64_t> u64s;
        std::vector<std::string> strings;
        const int fields = static_cast<int>(rng.next_in(0, 10));
        for (int f = 0; f < fields; ++f) u64s.push_back(rng.next_u64());
        const int nstr = static_cast<int>(rng.next_in(0, 5));
        for (int f = 0; f < nstr; ++f) {
            std::string s;
            const auto len = rng.next_in(0, 64);
            for (std::uint64_t i = 0; i < len; ++i) {
                s.push_back(static_cast<char>(rng.next_in(0, 255)));
            }
            strings.push_back(std::move(s));
        }
        encode(e, u64s);
        encode(e, strings);
        const Bytes b = std::move(e).take();

        Decoder d(b);
        std::vector<std::uint64_t> u64s_out;
        std::vector<std::string> strings_out;
        decode(d, u64s_out);
        decode(d, strings_out);
        EXPECT_EQ(u64s_out, u64s);
        EXPECT_EQ(strings_out, strings);
        EXPECT_TRUE(d.exhausted());
    }
}

// -- invocation envelope round-trips -----------------------------------------
// Property tests over every InvocationEnvelope variant: the envelopes have
// no operator==, so round-trip fidelity is asserted as encode/decode/encode
// byte stability (a lossy decode cannot re-encode to the same bytes).

Bytes random_payload(Rng& rng, std::uint64_t max_len) {
    Bytes out;
    const auto len = rng.next_in(0, max_len);
    out.reserve(len);
    for (std::uint64_t i = 0; i < len; ++i) {
        out.push_back(static_cast<std::uint8_t>(rng.next_in(0, 255)));
    }
    return out;
}

CallId random_call(Rng& rng) {
    return CallId{rng.next_u64(), rng.next_u64(), rng.next_bool(0.3)};
}

obs::SpanContext random_span(Rng& rng) {
    return obs::SpanContext{rng.next_u64(), rng.next_u64()};
}

InvocationMode random_mode(Rng& rng) {
    return static_cast<InvocationMode>(rng.next_in(0, 3));
}

void expect_stable_roundtrip(const InvocationEnvelope& env, int iter) {
    const Bytes once = encode_envelope(env);
    const InvocationEnvelope decoded = decode_envelope(once);
    EXPECT_EQ(decoded.index(), env.index()) << "variant changed, iter " << iter;
    const Bytes twice = encode_envelope(decoded);
    EXPECT_EQ(once, twice) << "lossy round-trip, iter " << iter;
}

TEST(Serial, RequestEnvelopeRoundtripsUnderRandomPayloads) {
    Rng rng(0xe1);
    for (int iter = 0; iter < 200; ++iter) {
        RequestEnv env;
        env.call = random_call(rng);
        env.span = random_span(rng);
        env.mode = random_mode(rng);
        env.flags = static_cast<std::uint8_t>(rng.next_in(0, 3));
        env.server_group = GroupId(static_cast<GroupId::rep_type>(rng.next_in(0, 1000)));
        env.bind = rng.next_bool(0.5) ? BindMode::kOpen : BindMode::kClosed;
        env.method = static_cast<std::uint32_t>(rng.next_u64());
        env.args = random_payload(rng, 512);
        env.deadline = static_cast<SimTime>(rng.next_u64() >> 1);
        expect_stable_roundtrip(env, iter);
    }
}

TEST(Serial, ForwardEnvelopeRoundtripsUnderRandomPayloads) {
    Rng rng(0xe2);
    for (int iter = 0; iter < 200; ++iter) {
        ForwardEnv env;
        env.call = random_call(rng);
        env.span = random_span(rng);
        env.mode = random_mode(rng);
        env.flags = static_cast<std::uint8_t>(rng.next_in(0, 3));
        env.manager = EndpointId(static_cast<EndpointId::rep_type>(rng.next_in(0, 1000)));
        env.method = static_cast<std::uint32_t>(rng.next_u64());
        env.args = random_payload(rng, 512);
        env.deadline = static_cast<SimTime>(rng.next_u64() >> 1);
        expect_stable_roundtrip(env, iter);
    }
}

TEST(Serial, ReplyEnvelopeRoundtripsUnderRandomPayloads) {
    Rng rng(0xe3);
    for (int iter = 0; iter < 200; ++iter) {
        ReplyEnv env;
        env.call = random_call(rng);
        env.span = random_span(rng);
        env.replier = EndpointId(static_cast<EndpointId::rep_type>(rng.next_in(0, 1000)));
        env.ok = rng.next_bool(0.8);
        env.value = random_payload(rng, 512);
        expect_stable_roundtrip(env, iter);
    }
}

TEST(Serial, AggregateEnvelopeRoundtripsUnderRandomPayloads) {
    Rng rng(0xe4);
    for (int iter = 0; iter < 200; ++iter) {
        AggregateEnv env;
        env.call = random_call(rng);
        env.span = random_span(rng);
        env.complete = rng.next_bool(0.7);
        const auto replies = rng.next_in(0, 6);
        for (std::uint64_t r = 0; r < replies; ++r) {
            ReplyEntry entry;
            entry.replier = EndpointId(static_cast<EndpointId::rep_type>(rng.next_in(0, 1000)));
            entry.ok = rng.next_bool(0.9);
            entry.value = random_payload(rng, 128);
            env.replies.push_back(std::move(entry));
        }
        expect_stable_roundtrip(env, iter);
    }
}

TEST(Serial, EnvelopeGarbageNeverCrashes) {
    Rng rng(0xe5);
    for (int iter = 0; iter < 500; ++iter) {
        Bytes garbage = random_payload(rng, 96);
        try {
            (void)decode_envelope(garbage);
        } catch (const DecodeError&) {
            // expected for most inputs
        }
    }
}

// Property test: decoding random garbage either throws DecodeError or
// produces a value, but never crashes or reads out of bounds.
TEST(Serial, RandomGarbageNeverCrashes) {
    Rng rng(0xdead);
    for (int iter = 0; iter < 500; ++iter) {
        Bytes garbage;
        const auto len = rng.next_in(0, 64);
        for (std::uint64_t i = 0; i < len; ++i) {
            garbage.push_back(static_cast<std::uint8_t>(rng.next_in(0, 255)));
        }
        Decoder d(garbage);
        try {
            std::vector<std::string> v;
            decode(d, v);
        } catch (const DecodeError&) {
            // expected for most inputs
        }
    }
}

// -- counting / arena encode path ------------------------------------------------

// Property: the counting encoder predicts the real encoding's size exactly,
// for arbitrary nested values.
TEST(Serial, CountingEncoderMatchesRealSize) {
    Rng rng(0xc0);
    for (int iter = 0; iter < 100; ++iter) {
        std::map<std::string, std::vector<Bytes>> value;
        const auto entries = rng.next_in(0, 5);
        for (std::uint64_t i = 0; i < entries; ++i) {
            std::vector<Bytes> blobs;
            const auto n = rng.next_in(0, 4);
            for (std::uint64_t j = 0; j < n; ++j) blobs.push_back(random_payload(rng, 64));
            value["key" + std::to_string(i)] = std::move(blobs);
        }
        Encoder counter = Encoder::counter();
        encode(counter, value);
        EXPECT_EQ(counter.size(), encode_to_bytes(value).size());
    }
}

// Every fixed width, through the encoder's in-place stores and the
// decoder's folded loads: 0, 1, the extremes, a lone high bit in each byte
// and two mixed patterns, laid out little-endian byte by byte.
template <typename T>
void expect_fixed_width_roundtrips() {
    std::vector<T> values{T{0}, T{1}, std::numeric_limits<T>::max(),
                          std::numeric_limits<T>::min()};
    std::uint64_t ascending = 0;
    std::uint64_t alternating = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
        values.push_back(static_cast<T>(std::uint64_t{0x80} << (8 * i)));
        ascending |= std::uint64_t{i + 1} << (8 * i);
        alternating |= std::uint64_t{i % 2 == 0 ? 0xa5u : 0x5au} << (8 * i);
    }
    values.push_back(static_cast<T>(ascending));
    values.push_back(static_cast<T>(alternating));
    for (const T v : values) {
        const Bytes wire = encode_to_bytes(v);
        ASSERT_EQ(wire.size(), sizeof(T));
        for (std::size_t i = 0; i < sizeof(T); ++i) {
            EXPECT_EQ(wire[i], static_cast<std::uint8_t>(static_cast<std::uint64_t>(v) >> (8 * i)))
                << "byte " << i << " of " << +v;
        }
        EXPECT_EQ(decode_from_bytes<T>(wire), v);
    }
}

TEST(Serial, EveryFixedWidthRoundtripsByteExactly) {
    expect_fixed_width_roundtrips<std::uint8_t>();
    expect_fixed_width_roundtrips<std::uint16_t>();
    expect_fixed_width_roundtrips<std::uint32_t>();
    expect_fixed_width_roundtrips<std::uint64_t>();
    expect_fixed_width_roundtrips<std::int32_t>();
    expect_fixed_width_roundtrips<std::int64_t>();
    // Back to back at every misalignment.
    Encoder e;
    e.put_u8(0xfe);
    e.put_u64(0x0102030405060708ULL);
    e.put_u16(0xbeef);
    e.put_u32(0xcafef00d);
    e.put_i64(-2);
    const Bytes wire = std::move(e).take();
    ASSERT_EQ(wire.size(), 1u + 8 + 2 + 4 + 8);
    Decoder d(wire);
    EXPECT_EQ(d.get_u8(), 0xfe);
    EXPECT_EQ(d.get_u64(), 0x0102030405060708ULL);
    EXPECT_EQ(d.get_u16(), 0xbeef);
    EXPECT_EQ(d.get_u32(), 0xcafef00du);
    EXPECT_EQ(d.get_i64(), -2);
    EXPECT_TRUE(d.exhausted());
}

// How the output buffer was sized must never show in the bytes: growing
// from empty, an exact reserve, an adopted arena buffer far larger than the
// message (holding stale bytes) and an adopted buffer of exactly the
// message's size all encode the same message alike.
TEST(Serial, EncoderBytesIndependentOfBufferSizing) {
    Rng rng(0x51e);
    for (int iter = 0; iter < 100; ++iter) {
        std::vector<std::pair<int, Bytes>> fields;
        const auto n = rng.next_in(0, 40);
        for (std::uint64_t i = 0; i < n; ++i) {
            fields.emplace_back(static_cast<int>(rng.next_in(0, 4)), random_payload(rng, 300));
        }
        const auto write = [&fields](Encoder& e) {
            for (const auto& [kind, blob] : fields) {
                const std::uint64_t v = blob.size() * 0x9e3779b97f4a7c15ULL;
                switch (kind) {
                    case 0: e.put_u8(static_cast<std::uint8_t>(v)); break;
                    case 1: e.put_u16(static_cast<std::uint16_t>(v)); break;
                    case 2: e.put_u32(static_cast<std::uint32_t>(v)); break;
                    case 3: e.put_u64(v); break;
                    default: e.put_blob(blob); break;
                }
            }
        };
        Encoder counter = Encoder::counter();
        write(counter);

        Encoder grown;
        write(grown);
        Encoder exact;
        exact.reserve(counter.size());
        write(exact);
        EXPECT_EQ(exact.capacity(), counter.size());
        EncodeArena arena;
        Bytes retired(4096, 0xee);
        retired.reserve(std::size_t{1} << 20);  // the largest buffer the arena pools
        const std::uint8_t* storage = retired.data();
        arena.recycle(std::move(retired));
        Encoder adopted(arena.acquire(16));
        write(adopted);
        // Adopted with room for exactly this message and no reserve():
        // growth stops at the capacity instead of reallocating.
        Bytes snug;
        snug.reserve(counter.size());
        const std::uint8_t* snug_storage = snug.data();
        Encoder fitted(std::move(snug));
        write(fitted);

        const Bytes expected = std::move(grown).take();
        ASSERT_EQ(expected.size(), counter.size());
        EXPECT_EQ(std::move(exact).take(), expected) << "iter " << iter;
        const Bytes from_arena = std::move(adopted).take();
        EXPECT_EQ(from_arena.data(), storage);  // never reallocated
        EXPECT_EQ(from_arena, expected) << "iter " << iter;
        const Bytes from_snug = std::move(fitted).take();
        if (!expected.empty()) {
            EXPECT_EQ(from_snug.data(), snug_storage);
        }
        EXPECT_EQ(from_snug, expected) << "iter " << iter;
    }
}

// Regression: put_le used to grow the buffer one push_back at a time, and
// blob encodes never pre-sized.  Encoding a 64 KiB payload must perform
// O(1) allocations: after the exact reserve, the buffer never reallocates.
TEST(Serial, LargePayloadEncodesWithoutReallocation) {
    const Bytes payload(64 * 1024, 0x5a);
    Encoder e;
    e.reserve(encoded_size(payload));
    const std::uint8_t* before = e.data();
    const std::size_t reserved = e.capacity();
    e.put_blob(payload);
    EXPECT_EQ(e.data(), before);          // storage never moved
    EXPECT_EQ(e.capacity(), reserved);    // ... nor grew
    EXPECT_EQ(e.size(), encoded_size(payload));
    // encode_to_bytes pre-sizes the same way: zero growth slack.
    const Bytes wire = encode_to_bytes(payload);
    EXPECT_EQ(wire.capacity(), wire.size());
}

TEST(Serial, EncoderAdoptsAndArenaRecyclesStorage) {
    EncodeArena arena;
    Bytes retired;
    retired.reserve(4096);
    const std::uint8_t* storage = retired.data();
    arena.recycle(std::move(retired));
    EXPECT_EQ(arena.pooled(), 1u);

    // acquire() hands back the pooled storage, cleared.
    Bytes buf = arena.acquire(1024);
    EXPECT_EQ(arena.pooled(), 0u);
    EXPECT_EQ(buf.data(), storage);
    EXPECT_TRUE(buf.empty());
    EXPECT_GE(buf.capacity(), 4096u);

    // An adopting encoder writes into that same storage.
    Encoder e{std::move(buf)};
    e.put_u64(0x1122334455667788ULL);
    EXPECT_EQ(e.data(), storage);
    Bytes wire = std::move(e).take();
    EXPECT_EQ(wire.data(), storage);
    EXPECT_EQ(decode_from_bytes<std::uint64_t>(wire), 0x1122334455667788ULL);

    // Round and round: the wire buffer retires into the next encode.
    arena.recycle(std::move(wire));
    EXPECT_EQ(arena.acquire(16).data(), storage);
}

TEST(Serial, ArenaDropsOversizedAndSurplusBuffers) {
    EncodeArena arena;
    Bytes huge;
    huge.reserve((std::size_t{1} << 20) + 1);
    arena.recycle(std::move(huge));
    EXPECT_EQ(arena.pooled(), 0u);  // over the per-buffer cap: freed
    for (int i = 0; i < 40; ++i) arena.recycle(Bytes(8, 0));
    EXPECT_LE(arena.pooled(), 16u);  // pool count is bounded
}

TEST(Serial, BlobViewIsZeroCopy) {
    Encoder e;
    e.put_u32(7);
    e.put_blob(Bytes{1, 2, 3, 4});
    const Bytes wire = std::move(e).take();
    Decoder d(wire);
    EXPECT_EQ(d.get_u32(), 7u);
    const BytesView view = d.get_blob_view();
    ASSERT_EQ(view.size(), 4u);
    EXPECT_GE(view.data(), wire.data());
    EXPECT_LE(view.data() + view.size(), wire.data() + wire.size());
    EXPECT_EQ(view[3], 4u);
    EXPECT_TRUE(d.exhausted());
}

TEST(Serial, TruncatedBlobViewThrows) {
    Encoder e;
    e.put_blob(Bytes(16, 0xff));
    Bytes wire = std::move(e).take();
    wire.resize(wire.size() - 1);
    Decoder d(wire);
    EXPECT_THROW(d.get_blob_view(), DecodeError);
}

}  // namespace
}  // namespace newtop
