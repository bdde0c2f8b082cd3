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
// GCS messages and invocation envelopes travel compact: every integer wider
// than a byte, id and length is a minimal LEB128 varint (seven bits a byte,
// low group first, 0x80 on every byte but the last), a signed time is a
// ZigZag varint (v -> 2v for v >= 0), and bytes, bools, one-byte enums and
// span ids (two fixed 8-byte little-endian words) are as they were.  GCS
// messages and envelopes lead with a one-byte variant tag.  IORs keep the
// fixed-width form: little-endian integers and u32 lengths.

constexpr std::string_view kDataMsg =
    "01"                                                  // tag: DataMsg
    "03" "07" "09" "2a"                                   // group 3, epoch 7, sender 9, seq 42
    "d209" "00"                                           // ts 1234 = 0x52|0x80, 9; kind
    "01" "01" "02" "04" "05"                              // knowledge: 1 x {1, 2, 4, 5}
    "02" "6869"                                           // payload "hi"
    "02" "01" "62" "00"                                   // batch: "b", ""
    "01" "09" "2b"                                        // received_counts: {9, 43}
    "01" "01" "02"                                        // causal_vc: {1, 2}
    "904e"                                                // sent_at 5000: 10000 = 0x10|0x80, 0x4e
    "1100000000000000" "2200000000000000"                 // span (fixed)
    "02" "3300000000000000" "4400000000000000"            // batch_spans: count, 2 spans
    "0000000000000000" "0000000000000000";
constexpr std::size_t kDataKindAt = 7;

constexpr std::string_view kSmallData =
    "01" "02" "02" "00" "08" "03"                         // group, epoch, sender, seq, ts, kind
    "00" "01" "63" "00" "00" "00"                         // knowledge, payload "c", batch,
                                                          // received_counts, causal_vc
    "00"                                                  // sent_at 0
    "0000000000000000" "0000000000000000" "00";           // span, batch_spans

/// Payload of a DataKind::kOrder stream message: the sequencer's
/// assignment record (first order number, then the refs it orders).
constexpr std::string_view kOrderRecord =
    "07"                                                  // first_order
    "02" "01" "00" "02" "03";                             // refs: {1, 0}, {2, 3}

constexpr std::string_view kOrderRecordData =
    "01" "02" "01" "00" "08" "02"                         // group, epoch, sender, seq, ts, kind
    "00" "06";                                            // knowledge, payload length
constexpr std::string_view kOrderRecordDataTail =
    "00" "00" "00" "00"                                   // batch, received_counts, causal_vc,
                                                          // sent_at
    "0000000000000000" "0000000000000000" "00";           // span, batch_spans

constexpr std::string_view kGroupConfig =
    "02" "00"                                             // order, liveness
    "06" "08" "09";                                       // order_window, adaptive, phi

constexpr std::string_view kConfigChange = "04";          // group; + config + nonce
constexpr std::string_view kNonce = "888e98a8c0e0808101"; // 0x0102030405060708, 7 bits a byte
constexpr std::size_t kOrderModeAt = 1;
constexpr std::size_t kLivenessModeAt = 2;

constexpr std::string_view kViewHex = "01" "03" "02" "01" "02";  // group, epoch, members
constexpr std::size_t kFirstViewMemberAt = 3;

constexpr std::string_view kRequestEnv =
    "01"                                                  // tag: RequestEnv
    "05" "06" "01"                                        // call
    "1100000000000000" "2200000000000000"                 // span
    "03" "01" "04" "00"                                   // mode, flags, server_group, bind
    "8202"                                                // method 0x0102 = 0x02|0x80, 0x02
    "02" "6162"                                           // args "ab"
    "d08c01";                                             // deadline 9000: 18000 in 3 groups
constexpr std::size_t kRequestModeAt = 20;
constexpr std::size_t kRequestBindAt = 23;

constexpr std::string_view kForwardEnv =
    "02"                                                  // tag: ForwardEnv
    "05" "06" "00"                                        // call
    "3300000000000000" "4400000000000000"                 // span
    "02" "02" "07"                                        // mode, flags, manager
    "03" "01" "78" "d28c01";                              // method, args "x", deadline 9001
constexpr std::size_t kForwardModeAt = 20;

constexpr std::string_view kReplyEnv =
    "03" "05" "06" "00" "5500000000000000" "6600000000000000"  // tag, call, span
    "08" "00" "03" "657272";                              // replier, ok, value "err"

constexpr std::string_view kAggregateEnv =
    "04" "05" "06" "00" "7700000000000000" "8800000000000000"  // tag, call, span
    "01" "02"                                             // complete, 2 replies
    "01" "01" "01" "76"                                   // {1, ok, "v"}
    "02" "00" "00";                                       // {2, failed, ""}

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
                  "02" "01" "02" "03" "02" "04" "05");
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
    expect_golden(JoinReq{GroupId(1), EndpointId(5)}, "03" "01" "05");
    expect_golden(LeaveReq{GroupId(1), EndpointId(6)}, "04" "01" "06");
}

TEST(WireGolden, SuspectMsg) {
    expect_golden(SuspectMsg{GroupId(1), 2, EndpointId(1), {EndpointId(9)}},
                  "05" "01" "02" "01" "01" "09");
}

TEST(WireGolden, ProposeMsg) {
    expect_golden(ProposeMsg{GroupId(1), 2, 3, EndpointId(1), {EndpointId(1), EndpointId(2)}},
                  "06" "01" "02" "03" "01" "02" "01" "02");
}

TEST(WireGolden, FlushMsg) {
    expect_golden(FlushMsg{GroupId(1), 3, EndpointId(1), EndpointId(2), {small_data()},
                           {{4, MsgRef{EndpointId(2), 0}}}},
                  cat({"07" "01" "03" "01" "02"   // tag, group, new_epoch, coordinator, sender
                       "01",                      // unstable: 1 message
                       kSmallData,
                       "01" "04" "02" "00"}));    // orders: {4, {2, 0}}
}

TEST(WireGolden, InstallMsg) {
    expect_golden(InstallMsg{GroupId(1), golden_view(), EndpointId(1), {small_data()},
                             {{4, MsgRef{EndpointId(2), 0}}}, golden_config(), 2, 7},
                  cat({"08" "01", kViewHex,       // tag, group, view
                       "01" "01", kSmallData,     // coordinator, cut: 1 message
                       "01" "04" "02" "00",       // orders: {4, {2, 0}}
                       kGroupConfig, "02" "07"}));  // config, config_epoch, applied_nonce
}

TEST(WireGolden, Envelopes) {
    expect_golden(golden_request(), kRequestEnv);
    expect_golden(golden_forward(), kForwardEnv);
    expect_golden(golden_reply(), kReplyEnv);
    expect_golden(golden_aggregate(), kAggregateEnv);
}

TEST(WireGolden, ConfigChangeMsg) {
    expect_golden_value(ConfigChangeMsg{GroupId(4), golden_config(), 0x0102030405060708ULL},
                        cat({kConfigChange, kGroupConfig, kNonce}));
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
    const Bytes change = unhex(cat({kConfigChange, kGroupConfig, kNonce}));
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
