// Layer microloops: host time around single public calls into one layer,
// with inputs shaped like the workloads.  Each loop runs a fixed number of
// iterations five times; the reported number is the median per iteration.
#include <algorithm>
#include <functional>

#include "common.hpp"
#include "gcs/messages.hpp"
#include "gcs/ordering.hpp"
#include "invocation/envelope.hpp"
#include "net/calibration.hpp"
#include "obs/names.hpp"
#include "orb/orb.hpp"

namespace perfbench {

namespace {

constexpr int kRepeats = 5;

/// Keeps a computed value observable so the optimizer cannot drop the work.
volatile std::uint64_t g_sink = 0;

/// Median over kRepeats of (host seconds of `body(iterations)`) / iterations,
/// in nanoseconds.  `setup` runs before each repeat and is not timed.
Metric time_loop(std::size_t iterations, const std::function<void()>& setup,
                 const std::function<void(std::size_t)>& body, double scale = 1e9,
                 const char* unit = "ns") {
    std::vector<double> per_iteration;
    for (int r = 0; r < kRepeats; ++r) {
        setup();
        const double start = cpu_seconds();
        body(iterations);
        per_iteration.push_back((cpu_seconds() - start) * scale /
                                static_cast<double>(iterations));
    }
    return {median(per_iteration), unit, static_cast<std::uint64_t>(kRepeats) * iterations};
}

Bytes payload_bytes(std::size_t n, std::uint64_t salt) {
    Bytes b(n);
    for (std::size_t i = 0; i < n; ++i) b[i] = static_cast<std::uint8_t>(salt * 31 + i);
    return b;
}

/// A DataMsg shaped like peer_flood's traffic: 32-byte payloads, coalesced
/// `payloads` to a message.
DataMsg flood_data(std::size_t payloads) {
    DataMsg msg;
    msg.group = GroupId(7);
    msg.epoch = 3;
    msg.sender = EndpointId(2);
    msg.seq = 12345;
    msg.ts = 67890;
    msg.payload = payload_bytes(32, 1);
    for (std::size_t i = 1; i < payloads; ++i) msg.batch.push_back(payload_bytes(32, i + 1));
    msg.sent_at = 1'000'000;
    return msg;
}

class EchoServant : public Servant {
public:
    Bytes dispatch(std::uint32_t, BytesView args) override {
        return Bytes(args.begin(), args.end());
    }
};

}  // namespace

std::map<std::string, Metric> run_microloops(double payloads_per_data) {
    std::map<std::string, Metric> out;

    // src/sim: one schedule_after + step pair over a queue holding a few
    // hundred pending timers, like a busy world.
    {
        std::unique_ptr<Scheduler> scheduler;
        std::uint64_t fired = 0;
        out["sim.schedule_step_ns"] = time_loop(
            200'000,
            [&] {
                scheduler = std::make_unique<Scheduler>();
                for (int i = 0; i < 256; ++i) {
                    scheduler->schedule_after(1'000'000'000 + i, [&fired] { ++fired; });
                }
            },
            [&](std::size_t n) {
                std::uint64_t lcg = 12345;
                for (std::size_t i = 0; i < n; ++i) {
                    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
                    scheduler->schedule_after(static_cast<SimDuration>(lcg >> 54),
                                              [&fired] { ++fired; });
                    scheduler->step();
                }
            });
        g_sink = fired;
    }

    // src/serial: the gcs codec on a flood-shaped DATA batch, and the
    // invocation envelope codec on a request plus its reply.
    {
        const auto payloads = static_cast<std::size_t>(std::max(1.0, payloads_per_data + 0.5));
        const GcsMessage msg = flood_data(payloads);
        out["serial.gcs_codec_ns"] = time_loop(50'000, [] {}, [&](std::size_t n) {
            std::uint64_t acc = 0;
            for (std::size_t i = 0; i < n; ++i) {
                const Bytes wire = encode_gcs_message(msg);
                const GcsMessage back = decode_gcs_message(wire);
                acc += wire.size() + std::get<DataMsg>(back).batch.size();
            }
            g_sink = acc;
        });

        RequestEnv request;
        request.call = CallId{42, 1000, false};
        request.mode = InvocationMode::kWaitMajority;
        request.server_group = GroupId(9);
        request.method = 1;
        request.args = payload_bytes(8, 3);
        ReplyEnv reply;
        reply.call = request.call;
        reply.replier = EndpointId(5);
        reply.value = payload_bytes(8, 4);
        const InvocationEnvelope request_env = request;
        const InvocationEnvelope reply_env = reply;
        out["serial.envelope_codec_ns"] = time_loop(100'000, [] {}, [&](std::size_t n) {
            std::uint64_t acc = 0;
            for (std::size_t i = 0; i < n; ++i) {
                const Bytes a = encode_envelope(request_env);
                const Bytes b = encode_envelope(reply_env);
                acc += decode_envelope(a).index() + decode_envelope(b).index() + a.size();
            }
            g_sink = acc;
        });
    }

    // src/gcs ordering: feed + release one message through each engine in
    // a three-member view (the sequencer's own view for SequencerOrder).
    {
        const std::vector<EndpointId> members = {EndpointId(1), EndpointId(2), EndpointId(3)};
        SequencerOrder seq;
        out["gcs.seq_order_ns"] = time_loop(
            50'000, [&] { seq.reset(members, members.front()); },
            [&](std::size_t n) {
                DataMsg msg = flood_data(1);
                std::uint64_t acc = 0;
                for (std::size_t i = 0; i < n; ++i) {
                    msg.sender = members[1 + i % 2];
                    msg.seq = i / 2;
                    seq.on_data(msg);
                    if (auto order = seq.take_order_to_send()) acc += order->refs.size();
                    acc += seq.take_deliverable().size();
                }
                g_sink = acc;
            });

        SymmetricOrder sym;
        out["gcs.sym_order_ns"] = time_loop(
            50'000, [&] { sym.reset(members); },
            [&](std::size_t n) {
                DataMsg msg = flood_data(1);
                std::uint64_t acc = 0;
                for (std::size_t i = 0; i < n; ++i) {
                    msg.sender = members[i % 3];
                    msg.seq = i / 3;
                    msg.ts = i + 1;
                    sym.on_data(msg);
                    acc += sym.take_deliverable().size();
                }
                g_sink = acc;
            });
    }

    // src/obs: a counter bump in a registry holding a world's worth of names.
    {
        namespace mn = obs::metric;
        const std::string_view names[] = {
            mn::kCpuTasks,        mn::kCpuBusyUs,       mn::kNetMessagesSent, mn::kNetBytesSent,
            mn::kNetMessagesDelivered, mn::kOrbInvocations, mn::kOrbOneways, mn::kGcsMulticasts,
            mn::kGcsDataSent,     mn::kGcsOrderSent,    mn::kGcsNullsSent,    mn::kGcsDelivered,
            mn::kInvCallsSent,    mn::kInvCallsCompleted, mn::kInvRepliesCollected,
            mn::kGcsRetransmits};
        obs::MetricsRegistry registry;
        for (const std::string_view name : names) registry.add(name, 0);
        out["obs.metric_add_ns"] = time_loop(500'000, [] {}, [&](std::size_t n) {
            constexpr std::size_t kNames = sizeof(names) / sizeof(names[0]);
            for (std::size_t i = 0; i < n; ++i) registry.add(names[i % kNames]);
        });
        g_sink = registry.counter(mn::kCpuTasks);
    }

    // src/orb: a bare two-node LAN round trip through Orb::invoke, closed
    // loop, host time per completed call.
    {
        constexpr std::size_t kCalls = 2'000;
        out["orb.roundtrip_host_us"] = time_loop(
            kCalls, [] {},
            [&](std::size_t n) {
                Scheduler scheduler;
                Network network(scheduler, calibration::make_lan_topology(), 1);
                Orb server(network, network.add_node(SiteId(0)));
                Orb client(network, network.add_node(SiteId(0)));
                const Ior target =
                    server.adapter().activate(std::make_shared<EchoServant>(), "Echo");
                const Bytes args = payload_bytes(8, 5);
                std::size_t done = 0;
                std::function<void()> issue = [&] {
                    client.invoke(target, 1, args, [&](ReplyStatus status, const Bytes&) {
                        if (status == ReplyStatus::kOk && ++done < n) issue();
                    });
                };
                issue();
                scheduler.run();
                g_sink = done;
            },
            1e6, "us");
    }
    return out;
}

}  // namespace perfbench
