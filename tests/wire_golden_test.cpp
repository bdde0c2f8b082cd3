// Golden wire bytes: the exact encoding of one fixed-valued instance of
// every wire type that crosses the simulated network.
//
// Round-trip tests cannot see a change that both halves of a codec agree
// on (a reordered field, a widened integer, a renumbered tag); these pins
// can.  Any edit to the wire format must update the hex here on purpose.
// The second half flips single bytes of the golden encodings to check that
// decode rejects unknown variant tags and out-of-range enum values.
#include <gtest/gtest.h>

#include <cstddef>
#include <initializer_list>
#include <string>
#include <string_view>

#include "gcs/messages.hpp"
#include "gcs/ordering.hpp"
#include "invocation/envelope.hpp"
#include "orb/ior.hpp"

namespace newtop {
namespace {

std::string hex(const Bytes& bytes) {
    static constexpr char kDigits[] = "0123456789abcdef";
    std::string out;
    out.reserve(bytes.size() * 2);
    for (const std::uint8_t b : bytes) {
        out += kDigits[b >> 4];
        out += kDigits[b & 0xf];
    }
    return out;
}

Bytes text(const char* s) { return Bytes(s, s + std::char_traits<char>::length(s)); }

Bytes unhex(std::string_view digits) {
    auto nibble = [](char c) { return static_cast<std::uint8_t>(c <= '9' ? c - '0' : c - 'a' + 10); };
    Bytes out;
    out.reserve(digits.size() / 2);
    for (std::size_t i = 0; i + 1 < digits.size(); i += 2) {
        out.push_back(static_cast<std::uint8_t>(nibble(digits[i]) << 4 | nibble(digits[i + 1])));
    }
    return out;
}

Bytes with_byte(Bytes bytes, std::size_t at, std::uint8_t value) {
    bytes.at(at) = value;
    return bytes;
}

/// The value encodes to exactly `golden`, and decoding `golden` re-encodes
/// to the same bytes (so decode reads every byte the way encode wrote it).
void expect_golden(const GcsMessage& msg, std::string_view golden) {
    EXPECT_EQ(hex(encode_gcs_message(msg)), golden);
    EXPECT_EQ(hex(encode_gcs_message(decode_gcs_message(unhex(golden)))), golden);
}

void expect_golden(const InvocationEnvelope& env, std::string_view golden) {
    EXPECT_EQ(hex(encode_envelope(env)), golden);
    EXPECT_EQ(hex(encode_envelope(decode_envelope(unhex(golden)))), golden);
}

template <typename T>
void expect_golden_value(const T& value, std::string_view golden) {
    EXPECT_EQ(hex(encode_to_bytes(value)), golden);
    EXPECT_EQ(hex(encode_to_bytes(decode_from_bytes<T>(unhex(golden)))), golden);
}

// -- fixed instances ---------------------------------------------------------

DataMsg golden_data() {
    DataMsg m;
    m.group = GroupId(3);
    m.epoch = 7;
    m.sender = EndpointId(9);
    m.seq = 42;
    m.ts = 1234;
    m.kind = DataKind::kApplication;
    m.knowledge = {{GroupId(1), 2, EndpointId(4), 5}};
    m.payload = text("hi");
    m.batch = {text("b"), Bytes{}};
    m.received_counts = {{EndpointId(9), 43}};
    m.causal_vc = {{EndpointId(1), 2}};
    m.sent_at = 5000;
    m.span = obs::SpanContext{0x11, 0x22};
    m.batch_spans = {obs::SpanContext{0x33, 0x44}, obs::SpanContext{}};
    return m;
}

DataMsg small_data() {
    DataMsg m;
    m.group = GroupId(1);
    m.epoch = 2;
    m.sender = EndpointId(2);
    m.seq = 0;
    m.ts = 8;
    m.kind = DataKind::kConfig;
    m.payload = text("c");
    return m;
}

GroupConfig golden_config() {
    GroupConfig cfg;
    cfg.order = OrderMode::kCausal;
    cfg.liveness = LivenessMode::kLively;
    cfg.order_window = 6;
    cfg.adaptive_asym_threshold = 8;
    cfg.phi_threshold_milli = 9;
    return cfg;
}

View golden_view() { return View{GroupId(1), 3, {EndpointId(1), EndpointId(2)}}; }

RequestEnv golden_request() {
    RequestEnv env;
    env.call = CallId{5, 6, true};
    env.span = obs::SpanContext{0x11, 0x22};
    env.mode = InvocationMode::kWaitAll;
    env.flags = kFlagAsyncForwarding;
    env.server_group = GroupId(4);
    env.bind = BindMode::kClosed;
    env.method = 0x0102;
    env.args = text("ab");
    env.deadline = 9000;
    return env;
}

ForwardEnv golden_forward() {
    ForwardEnv env;
    env.call = CallId{5, 6, false};
    env.span = obs::SpanContext{0x33, 0x44};
    env.mode = InvocationMode::kWaitMajority;
    env.flags = kFlagNoReply;
    env.manager = EndpointId(7);
    env.method = 3;
    env.args = text("x");
    env.deadline = 9001;
    return env;
}

ReplyEnv golden_reply() {
    ReplyEnv env;
    env.call = CallId{5, 6, false};
    env.span = obs::SpanContext{0x55, 0x66};
    env.replier = EndpointId(8);
    env.ok = false;
    env.value = text("err");
    return env;
}

AggregateEnv golden_aggregate() {
    AggregateEnv env;
    env.call = CallId{5, 6, false};
    env.span = obs::SpanContext{0x77, 0x88};
    env.complete = true;
    env.replies = {ReplyEntry{EndpointId(1), true, text("v")},
                   ReplyEntry{EndpointId(2), false, Bytes{}}};
    return env;
}

Iogr golden_iogr() {
    Iogr iogr;
    iogr.members = {Ior{NodeId(1), ObjectKey(10), "Svc"}, Ior{NodeId(2), ObjectKey(11), "Svc"}};
    iogr.primary_index = 1;
    return iogr;
}

// -- golden encodings --------------------------------------------------------
// Little-endian integers, u32 length prefixes, one byte per bool and enum;
// GCS messages and envelopes lead with a one-byte variant tag.

constexpr std::string_view kDataMsg =
    "01"                                                  // tag: DataMsg
    "0300000000000000" "0700000000000000"                 // group, epoch
    "0900000000000000" "2a00000000000000"                 // sender, seq
    "d204000000000000" "00"                               // ts, kind
    "01000000" "0100000000000000" "0200000000000000"      // knowledge
    "0400000000000000" "0500000000000000"
    "02000000" "6869"                                     // payload
    "02000000" "01000000" "62" "00000000"                 // batch
    "01000000" "0900000000000000" "2b00000000000000"      // received_counts
    "01000000" "0100000000000000" "0200000000000000"      // causal_vc
    "8813000000000000"                                    // sent_at
    "1100000000000000" "2200000000000000"                 // span
    "02000000" "3300000000000000" "4400000000000000"      // batch_spans
    "0000000000000000" "0000000000000000";
constexpr std::size_t kDataKindAt = 41;

constexpr std::string_view kSmallData =
    "0100000000000000" "0200000000000000" "0200000000000000" "0000000000000000"
    "0800000000000000" "03" "00000000" "01000000" "63" "00000000" "00000000" "00000000"
    "0000000000000000" "0000000000000000" "0000000000000000" "00000000";

/// Payload of a DataKind::kOrder stream message: the sequencer's
/// assignment record (first order number, then the refs it orders).
constexpr std::string_view kOrderRecord =
    "0700000000000000"                                    // first_order
    "02000000" "0100000000000000" "0000000000000000"      // refs
    "0200000000000000" "0300000000000000";

constexpr std::string_view kOrderRecordData =
    "0100000000000000" "0200000000000000" "0100000000000000" "0000000000000000"
    "0800000000000000" "02" "00000000" "2c000000";        // ... kind, knowledge, payload
constexpr std::string_view kOrderRecordDataTail =
    "00000000" "00000000" "00000000" "0000000000000000" "0000000000000000" "0000000000000000"
    "00000000";

constexpr std::string_view kGroupConfig =
    "02" "00"  // order, liveness
    "0600000000000000" "0800000000000000" "0900000000000000";

constexpr std::string_view kConfigChange = "0400000000000000";  // + config + nonce
constexpr std::size_t kOrderModeAt = 8;
constexpr std::size_t kLivenessModeAt = 9;

constexpr std::string_view kViewHex =
    "0100000000000000" "0300000000000000" "02000000" "0100000000000000" "0200000000000000";
constexpr std::size_t kFirstViewMemberAt = 20;

constexpr std::string_view kRequestEnv =
    "01"                                                  // tag: RequestEnv
    "0500000000000000" "0600000000000000" "01"            // call
    "1100000000000000" "2200000000000000"                 // span
    "03" "01" "0400000000000000" "00"                     // mode, flags, server_group, bind
    "02010000" "02000000" "6162" "2823000000000000";      // method, args, deadline
constexpr std::size_t kRequestModeAt = 34;
constexpr std::size_t kRequestBindAt = 44;

constexpr std::string_view kForwardEnv =
    "02"                                                  // tag: ForwardEnv
    "0500000000000000" "0600000000000000" "00"            // call
    "3300000000000000" "4400000000000000"                 // span
    "02" "02" "0700000000000000"                          // mode, flags, manager
    "03000000" "01000000" "78" "2923000000000000";        // method, args, deadline
constexpr std::size_t kForwardModeAt = 34;

constexpr std::string_view kReplyEnv =
    "03" "0500000000000000" "0600000000000000" "00" "5500000000000000" "6600000000000000"
    "0800000000000000" "00" "03000000" "657272";

constexpr std::string_view kAggregateEnv =
    "04" "0500000000000000" "0600000000000000" "00" "7700000000000000" "8800000000000000"
    "01" "02000000" "0100000000000000" "01" "01000000" "76"
    "0200000000000000" "00" "00000000";

constexpr std::string_view kIogrHex =
    "02000000" "01000000" "0a00000000000000" "03000000" "537663"
    "02000000" "0b00000000000000" "03000000" "537663" "01000000";

std::string cat(std::initializer_list<std::string_view> parts) {
    std::string out;
    for (const std::string_view p : parts) out += p;
    return out;
}

TEST(WireGolden, DataMsgWithEveryFieldSet) { expect_golden(golden_data(), kDataMsg); }

TEST(WireGolden, NackMsg) {
    expect_golden(NackMsg{GroupId(1), 2, EndpointId(3), {4, 5}},
                  "02" "0100000000000000" "0200000000000000" "0300000000000000"
                  "02000000" "0400000000000000" "0500000000000000");
}

TEST(WireGolden, OrderRecordDataMsg) {
    const OrderRecord golden{7, {MsgRef{EndpointId(1), 0}, MsgRef{EndpointId(2), 3}}};
    expect_golden_value(golden, kOrderRecord);
    const Bytes record = encode_to_bytes(golden);

    DataMsg m;
    m.group = GroupId(1);
    m.epoch = 2;
    m.sender = EndpointId(1);
    m.ts = 8;
    m.kind = DataKind::kOrder;
    m.payload = record;
    expect_golden(m, cat({"01", kOrderRecordData, kOrderRecord, kOrderRecordDataTail}));
}

TEST(WireGolden, JoinAndLeave) {
    expect_golden(JoinReq{GroupId(1), EndpointId(5)}, "03" "0100000000000000" "0500000000000000");
    expect_golden(LeaveReq{GroupId(1), EndpointId(6)}, "04" "0100000000000000" "0600000000000000");
}

TEST(WireGolden, SuspectMsg) {
    expect_golden(SuspectMsg{GroupId(1), 2, EndpointId(1), {EndpointId(9)}},
                  "05" "0100000000000000" "0200000000000000" "0100000000000000"
                  "01000000" "0900000000000000");
}

TEST(WireGolden, ProposeMsg) {
    expect_golden(ProposeMsg{GroupId(1), 2, 3, EndpointId(1), {EndpointId(1), EndpointId(2)}},
                  "06" "0100000000000000" "0200000000000000" "0300000000000000"
                  "0100000000000000" "02000000" "0100000000000000" "0200000000000000");
}

TEST(WireGolden, FlushMsg) {
    expect_golden(FlushMsg{GroupId(1), 3, EndpointId(1), EndpointId(2), {small_data()},
                           {{4, MsgRef{EndpointId(2), 0}}}},
                  cat({"07" "0100000000000000" "0300000000000000" "0100000000000000"
                       "0200000000000000" "01000000",
                       kSmallData,
                       "01000000" "0400000000000000" "0200000000000000" "0000000000000000"}));
}

TEST(WireGolden, InstallMsg) {
    expect_golden(InstallMsg{GroupId(1), golden_view(), EndpointId(1), {small_data()},
                             {{4, MsgRef{EndpointId(2), 0}}}, golden_config(), 2, 7},
                  cat({"08" "0100000000000000", kViewHex, "0100000000000000" "01000000",
                       kSmallData,
                       "01000000" "0400000000000000" "0200000000000000" "0000000000000000",
                       kGroupConfig, "0200000000000000" "0700000000000000"}));
}

TEST(WireGolden, Envelopes) {
    expect_golden(golden_request(), kRequestEnv);
    expect_golden(golden_forward(), kForwardEnv);
    expect_golden(golden_reply(), kReplyEnv);
    expect_golden(golden_aggregate(), kAggregateEnv);
}

TEST(WireGolden, ConfigChangeMsg) {
    expect_golden_value(ConfigChangeMsg{GroupId(4), golden_config(), 0x0102030405060708ULL},
                        cat({kConfigChange, kGroupConfig, "0807060504030201"}));
}

TEST(WireGolden, ViewAndIogr) {
    expect_golden_value(golden_view(), kViewHex);
    expect_golden_value(golden_iogr(), kIogrHex);
}

// -- rejection of flipped bytes -----------------------------------------------

TEST(WireGoldenRejects, GcsTagOutsideTheVariant) {
    const Bytes join = unhex("03" "0100000000000000" "0500000000000000");
    EXPECT_THROW(decode_gcs_message(with_byte(join, 0, 0)), DecodeError);
    EXPECT_THROW(decode_gcs_message(with_byte(join, 0, 9)), DecodeError);
    EXPECT_THROW(decode_gcs_message(with_byte(join, 0, 0xff)), DecodeError);
}

TEST(WireGoldenRejects, EnvelopeTagOutsideTheVariant) {
    const Bytes reply = unhex(kReplyEnv);
    EXPECT_THROW(decode_envelope(with_byte(reply, 0, 0)), DecodeError);
    EXPECT_THROW(decode_envelope(with_byte(reply, 0, 5)), DecodeError);
}

TEST(WireGoldenRejects, DataKindAboveConfig) {
    const Bytes data = unhex(kDataMsg);
    EXPECT_NO_THROW(decode_gcs_message(with_byte(data, kDataKindAt, 3)));
    EXPECT_THROW(decode_gcs_message(with_byte(data, kDataKindAt, 4)), DecodeError);
}

TEST(WireGoldenRejects, GroupConfigEnumsAboveTheirRange) {
    const Bytes change = unhex(cat({kConfigChange, kGroupConfig, "0807060504030201"}));
    EXPECT_NO_THROW(decode_from_bytes<ConfigChangeMsg>(with_byte(change, kOrderModeAt, 2)));
    EXPECT_THROW(decode_from_bytes<ConfigChangeMsg>(with_byte(change, kOrderModeAt, 3)),
                 DecodeError);
    EXPECT_NO_THROW(decode_from_bytes<ConfigChangeMsg>(with_byte(change, kLivenessModeAt, 1)));
    EXPECT_THROW(decode_from_bytes<ConfigChangeMsg>(with_byte(change, kLivenessModeAt, 2)),
                 DecodeError);
}

TEST(WireGoldenRejects, InvocationEnumsAboveTheirRange) {
    const Bytes request = unhex(kRequestEnv);
    EXPECT_NO_THROW(decode_envelope(with_byte(request, kRequestModeAt, 3)));
    EXPECT_THROW(decode_envelope(with_byte(request, kRequestModeAt, 4)), DecodeError);
    EXPECT_NO_THROW(decode_envelope(with_byte(request, kRequestBindAt, 1)));
    EXPECT_THROW(decode_envelope(with_byte(request, kRequestBindAt, 2)), DecodeError);
    const Bytes forward = unhex(kForwardEnv);
    EXPECT_THROW(decode_envelope(with_byte(forward, kForwardModeAt, 4)), DecodeError);
}

TEST(WireGoldenRejects, PostDecodeChecks) {
    // View members must arrive sorted; an IOGR's primary must be a member.
    EXPECT_THROW(decode_from_bytes<View>(with_byte(unhex(kViewHex), kFirstViewMemberAt, 3)),
                 DecodeError);
    const Bytes iogr = unhex(kIogrHex);
    EXPECT_THROW(decode_from_bytes<Iogr>(with_byte(iogr, iogr.size() - 4, 2)), DecodeError);
}

}  // namespace
}  // namespace newtop
