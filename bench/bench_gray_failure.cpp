// Gray-failure resilience: failure-detection latency vs false-positive
// behaviour across CPU slowdown factors, φ-accrual vs fixed-timeout.
//
// For each slowdown factor F in {1, 2, 4, 8} and each detector (the
// default φ-accrual configuration, then phi_threshold_milli = 0 to get the
// paper's original fixed-timeout detector), a 3-replica lively group runs
// a call stream whose servant cost ramps linearly while one non-sequencer
// replica's host executes all CPU work F× slower.  The ramp matters: a
// slowed host's heartbeat gaps then grow gradually, which is exactly the
// history an accrual detector adapts to and a fixed timeout cannot.
//
// Two numbers per configuration:
//
//   false_suspicions : kSuspected events naming the slow-but-alive replica
//                      before any crash — a gray failure misread as a real
//                      one.  The φ detector should stay at zero where the
//                      fixed detector trips (F >= 4 pushes single CPU
//                      bursts past the 200 ms kSuspicionTimeout).  Fixed-
//                      detector trips *cascade*: the slowed host's delayed
//                      ingest also makes it suspect its healthy peers, and
//                      gossiped suspicions then eject good members.
//   detection_ms     : a *healthy* replica is then crashed and the latency
//                      to the first survivor suspicion measured — the cost
//                      side of the trade.  The fixed floor keeps φ's crash
//                      detection in the same band as the fixed detector.
//                      `crash_detected` = 0 (and no detection_ms) records a
//                      cascade that ejected the healthy replica before its
//                      real crash could be observed.
//
// The run also reports the overload-shedding counters (requests past their
// deadline dropped by the slowed replica) so the degraded-mode behaviour
// is visible in the same table.
//
// Emits BENCH_gray_failure.json (override with NEWTOP_BENCH_OUT) in the
// shared artifact schema (harness.hpp `Artifact`): one row per detector x
// factor, and for every φ run the checks `<row>.no_false_suspicions` and
// `<row>.crash_detected`.
#include "harness.hpp"

#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace {

using namespace newtop;
using namespace newtop::bench;
using namespace newtop::sim_literals;

constexpr int kServers = 3;
constexpr int kCalls = 60;
// Spacing exceeds the largest slowed burst (60 ms nominal x 8 = 480 ms), so
// the slowed host lags but never *saturates*: each burst delays its sends
// and its ingest by up to the burst length, which is the gray condition —
// a saturated CPU (backlog growing without bound) is a real overload the
// detector is right to eject.
constexpr SimTime kCallSpacing = 500_ms;
constexpr SimDuration kCostStep = 1_ms;
constexpr int kSlowReplica = 2;   // never the sequencer (rank 0)
constexpr int kCrashReplica = 1;  // healthy replica crashed for the detection probe

/// Servant whose execution cost ramps with the method number: call k is
/// issued with method k+1, so the slowed host's CPU bursts grow a step at
/// a time instead of jumping — the shape a failure detector must adapt to.
class RampServant : public GroupServant {
public:
    Bytes handle(std::uint32_t, const Bytes&) override {
        return encode_to_bytes(std::uint64_t{1});
    }
    [[nodiscard]] SimDuration execution_cost(std::uint32_t method) const override {
        return static_cast<SimDuration>(method) * kCostStep;
    }
};

struct GrayResult {
    bool crash_detected{false};         // a survivor suspected the crashed replica
    double detection_ms{0.0};           // crash -> first survivor suspicion
    std::uint64_t false_suspicions{0};  // suspicions of the slow-but-alive replica
    bool slow_in_view{false};           // still a member when the crash happens
    std::uint64_t suspicion_false{0};   // the runtime's own false-suspicion counter
    std::uint64_t shed{0};              // requests shed past their deadline
    std::uint64_t completed{0};
    std::uint64_t timed_out{0};
};

GrayResult run_gray(double factor, bool accrual, std::uint64_t seed) {
    Scheduler scheduler;
    Network net(scheduler, calibration::make_lan_topology(), seed);
    Directory directory;
    obs::VectorTraceSink sink;
    net.metrics().set_trace_sink(&sink);

    std::vector<std::unique_ptr<Orb>> orbs;
    std::vector<std::unique_ptr<NewTopService>> nsos;
    auto add = [&]() -> NewTopService& {
        orbs.push_back(std::make_unique<Orb>(net, net.add_node(SiteId(0))));
        nsos.push_back(std::make_unique<NewTopService>(*orbs.back(), directory));
        return *nsos.back();
    };

    GroupConfig cfg;
    cfg.order = OrderMode::kTotalAsymmetric;
    cfg.liveness = LivenessMode::kLively;
    cfg.phi_threshold_milli = accrual ? 8000 : 0;
    for (int i = 0; i < kServers; ++i) {
        add().serve("svc", cfg, std::make_shared<RampServant>());
        scheduler.run_until(scheduler.now() + 300_ms);
    }
    NewTopService& client = add();
    GroupProxy proxy = client.bind(
        "svc", {.mode = BindMode::kOpen, .restricted = true, .call_timeout = 2_s});
    scheduler.run_until(scheduler.now() + 2_s);

    GrayResult result;
    net.set_cpu_slowdown(orbs[kSlowReplica]->node_id(), factor);
    for (int k = 0; k < kCalls; ++k) {
        proxy.invoke(static_cast<std::uint32_t>(k + 1),
                     encode_to_bytes(static_cast<std::uint64_t>(k)),
                     InvocationMode::kWaitFirst, [&](const GroupReply& reply) {
                         if (reply.complete) {
                             ++result.completed;
                         } else {
                             ++result.timed_out;
                         }
                     });
        scheduler.run_until(scheduler.now() + kCallSpacing);
    }
    // Let the slowed replica's backlog drain (deadline shedding bounds it),
    // then crash a *healthy* replica and time the survivors' detection.
    scheduler.run_until(scheduler.now() + 4_s);

    const std::uint64_t slow_id = nsos[kSlowReplica]->id().value();
    const std::uint64_t crashed_id = nsos[kCrashReplica]->id().value();
    const auto* info = directory.find_group("svc");
    const View* view = nsos[0]->group_comm().current_view(info->id);
    result.slow_in_view = view != nullptr && view->contains(EndpointId(slow_id));
    const SimTime crash_at = scheduler.now();
    net.crash(orbs[kCrashReplica]->node_id());
    scheduler.run_until(scheduler.now() + 8_s);

    for (const obs::TraceEvent& e : sink.events()) {
        if (e.kind != obs::TraceKind::kSuspected) continue;
        if (e.detail == slow_id && e.at < crash_at) ++result.false_suspicions;
        if (e.detail == crashed_id && e.at >= crash_at && !result.crash_detected) {
            result.crash_detected = true;
            result.detection_ms = static_cast<double>(e.at - crash_at) / 1000.0;
        }
    }
    result.suspicion_false = net.metrics().counter(obs::metric::kGcsSuspicionFalse);
    result.shed = net.metrics().counter(obs::metric::kInvShed);
    net.metrics().set_trace_sink(nullptr);
    return result;
}

}  // namespace

int main() {
    Artifact artifact("gray_failure", 1);
    for (const bool accrual : {true, false}) {
        for (const int factor : {1, 2, 4, 8}) {
            const GrayResult r = run_gray(factor, accrual, 1);
            const std::string name =
                std::string(accrual ? "phi" : "fixed") + "_x" + std::to_string(factor);
            ArtifactRow& row = artifact.row(name)
                                   .lower("false_suspicions", r.false_suspicions)
                                   .lower("suspicion_false", r.suspicion_false)
                                   .lower("shed", r.shed)
                                   .lower("timed_out", r.timed_out)
                                   .higher("completed", r.completed)
                                   .higher("slow_in_view", r.slow_in_view)
                                   .higher("crash_detected", r.crash_detected);
            if (r.crash_detected) row.lower("detection_ms", r.detection_ms);

            // Under the fixed detector both are the *expected* cascade
            // (the falsely ejected healthy replica is gone before it
            // dies); only the accrual runs make the claim.
            if (accrual) {
                artifact.check(name + ".no_false_suspicions", r.false_suspicions == 0,
                               "the accrual detector suspected the slow-but-alive "
                               "replica\n");
                artifact.check(name + ".crash_detected", r.crash_detected,
                               "the crash of a healthy replica went undetected\n");
            }
        }
    }
    artifact.write();
}
