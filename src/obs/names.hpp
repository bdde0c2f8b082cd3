// Central registry of metric and phase names.
//
// Every counter/histogram name and every profiler phase label lives
// here as a named constant.  Emission sites reference the constants instead
// of spelling string literals, so a typo becomes a compile error instead of
// a silently separate metric — enforced by the newtop_lint
// "metric-name" rule, which flags metric-prefixed string literals anywhere
// in src/ outside this file.
#pragma once

#include <string_view>

namespace newtop::obs::metric {

// -- cpu ----------------------------------------------------------------------
inline constexpr std::string_view kCpuTasks = "cpu.tasks";
inline constexpr std::string_view kCpuBusyUs = "cpu.busy_us";
inline constexpr std::string_view kCpuQueueWaitUs = "cpu.queue_wait_us";

// -- net ----------------------------------------------------------------------
inline constexpr std::string_view kNetMessagesSent = "net.messages_sent";
inline constexpr std::string_view kNetBytesSent = "net.bytes_sent";
inline constexpr std::string_view kNetWanMessages = "net.wan_messages";
inline constexpr std::string_view kNetMessagesLost = "net.messages_lost";
inline constexpr std::string_view kNetStaleIncarnationDrops = "net.stale_incarnation_drops";
inline constexpr std::string_view kNetMessagesDelivered = "net.messages_delivered";
inline constexpr std::string_view kNetDeliveryLatencyUs = "net.delivery_latency_us";
inline constexpr std::string_view kNetCrashes = "net.crashes";
inline constexpr std::string_view kNetCrashIgnored = "net.crash_ignored";
inline constexpr std::string_view kNetRestarts = "net.restarts";
inline constexpr std::string_view kNetRestartIgnored = "net.restart_ignored";
/// Prefix for the per-(site,site) link counters ("net.link.A->B.messages",
/// ".bytes", ".drops"); the full names are composed at runtime.
inline constexpr std::string_view kNetLinkPrefix = "net.link.";

// -- orb ----------------------------------------------------------------------
inline constexpr std::string_view kOrbInvocations = "orb.invocations";
inline constexpr std::string_view kOrbCallTimeouts = "orb.call_timeouts";
inline constexpr std::string_view kOrbOneways = "orb.oneways";
inline constexpr std::string_view kOrbRequestsHandled = "orb.requests_handled";
inline constexpr std::string_view kOrbRepliesSent = "orb.replies_sent";
inline constexpr std::string_view kOrbRepliesReceived = "orb.replies_received";
inline constexpr std::string_view kOrbGroupRetries = "orb.group_retries";

// -- gcs ----------------------------------------------------------------------
inline constexpr std::string_view kGcsMulticasts = "gcs.multicasts";
inline constexpr std::string_view kGcsSendsCoalesced = "gcs.sends_coalesced";
inline constexpr std::string_view kGcsSendBatchPayloads = "gcs.send_batch_payloads";
inline constexpr std::string_view kGcsNullsSent = "gcs.nulls_sent";
inline constexpr std::string_view kGcsOrderSent = "gcs.order_sent";
inline constexpr std::string_view kGcsDataSent = "gcs.data_sent";
inline constexpr std::string_view kGcsHoldbackDepth = "gcs.holdback_depth";
inline constexpr std::string_view kGcsOrderBatchRefs = "gcs.order_batch_refs";
inline constexpr std::string_view kGcsDelivered = "gcs.delivered";
inline constexpr std::string_view kGcsDeliveryLatencyUs = "gcs.delivery_latency_us";
inline constexpr std::string_view kGcsNacksSent = "gcs.nacks_sent";
inline constexpr std::string_view kGcsRetransmits = "gcs.retransmits";
inline constexpr std::string_view kGcsGroupRefounds = "gcs.group_refounds";
inline constexpr std::string_view kGcsFlushesSent = "gcs.flushes_sent";
inline constexpr std::string_view kGcsViewsInstalled = "gcs.views_installed";
/// View installs that applied a new configuration (runtime reconfigurations
/// honoured, counted once per member that switched).
inline constexpr std::string_view kGcsReconfigs = "gcs.reconfigs";
/// Histogram: proposal delivery -> reconfigured view install, per member —
/// the flush stall an in-flight reconfiguration imposes on the group.
inline constexpr std::string_view kGcsReconfigStallUs = "gcs.reconfig_stall_us";
/// Suspicions retroactively confirmed: the suspect was removed by a view
/// without ever being heard from again after the suspicion was raised.
inline constexpr std::string_view kGcsSuspicionTrue = "gcs.suspicion_true";
/// Suspicions retroactively refuted: a message from the suspect arrived
/// after the suspicion was raised — the peer was slow, not dead.
inline constexpr std::string_view kGcsSuspicionFalse = "gcs.suspicion_false";
/// Histogram: silence accrued when a suspicion was raised (last heard ->
/// suspected), the detector's detection latency per suspicion.
inline constexpr std::string_view kGcsDetectionLatencyUs = "gcs.detection_latency_us";

// -- invocation ---------------------------------------------------------------
inline constexpr std::string_view kInvRebinds = "invocation.rebinds";
inline constexpr std::string_view kInvBackoffs = "invocation.backoffs";
inline constexpr std::string_view kInvBackoffRebinds = "invocation.backoff_rebinds";
inline constexpr std::string_view kInvRequestsQueued = "invocation.requests_queued";
inline constexpr std::string_view kInvCallsSent = "invocation.calls_sent";
inline constexpr std::string_view kInvCallsRetried = "invocation.calls_retried";
inline constexpr std::string_view kInvCallsTimedOut = "invocation.calls_timed_out";
inline constexpr std::string_view kInvCallsCompleted = "invocation.calls_completed";
inline constexpr std::string_view kInvCallsFailed = "invocation.calls_failed";
inline constexpr std::string_view kInvRepliesCollected = "invocation.replies_collected";
inline constexpr std::string_view kInvRmRepliesCollected = "invocation.rm_replies_collected";
inline constexpr std::string_view kInvReplyWaitOneway = "invocation.reply_wait_us.oneway";
inline constexpr std::string_view kInvReplyWaitFirst = "invocation.reply_wait_us.first";
inline constexpr std::string_view kInvReplyWaitMajority = "invocation.reply_wait_us.majority";
inline constexpr std::string_view kInvReplyWaitAll = "invocation.reply_wait_us.all";
inline constexpr std::string_view kInvReplyWaitOther = "invocation.reply_wait_us.other";
/// Requests dropped at a server because their deadline had already passed
/// (graceful degradation: shed work nobody is waiting for).
inline constexpr std::string_view kInvShed = "invocation.shed";
/// Bind admissions refused because the server endpoint was overloaded; the
/// client's invite times out and its capped backoff defers the retry.
inline constexpr std::string_view kInvBindShed = "invocation.bind_shed";

// -- directory ----------------------------------------------------------------
inline constexpr std::string_view kDirectoryEvictions = "directory.evictions";

// -- replication / recovery ---------------------------------------------------
inline constexpr std::string_view kReplicationStateRefounds = "replication.state_refounds";
inline constexpr std::string_view kRecoveryMttr = "recovery.mttr";

// -- obs (self-observation) ---------------------------------------------------
/// Events evicted from a bounded RingTraceSink; non-zero means the trace is
/// truncated and the profiler/oracle must refuse to attribute from it.
inline constexpr std::string_view kObsTraceDropped = "obs.trace_dropped";

}  // namespace newtop::obs::metric

namespace newtop::obs::phase {

// Profiler phase labels: every invocation's end-to-end latency decomposes
// into these buckets (see src/obs/profiler.hpp).  The segment→bucket
// mapping is defined in profiler.cpp; names here keep report producers and
// consumers (bench JSON, newtop_prof, tests) in agreement.
inline constexpr std::string_view kMarshal = "marshal";
inline constexpr std::string_view kCreditWait = "credit_wait";
inline constexpr std::string_view kWire = "wire";
inline constexpr std::string_view kOrderWait = "order_wait";
inline constexpr std::string_view kCpuWait = "cpu_wait";
inline constexpr std::string_view kExecution = "execution";
inline constexpr std::string_view kReplyCollection = "reply_collection";
/// Diagnostic only (overlaps order_wait; excluded from the phase sum):
/// sequencer DATA arrival → ORDER assignment broadcast.
inline constexpr std::string_view kSequencerTurnaround = "sequencer_turnaround";

inline constexpr std::string_view kAll[] = {kMarshal,  kCreditWait, kWire,           kOrderWait,
                                            kCpuWait,  kExecution,  kReplyCollection};

}  // namespace newtop::obs::phase
