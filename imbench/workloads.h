// The benchmark's named workloads. Inputs are made here from the seed; the
// engine only ever receives the generated records.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/instameasure.h"
#include "netio/flow_key.h"
#include "runtime/multicore.h"
#include "trace/trace.h"

namespace imbench {

/// Every workload runs at the paper's design point: a 32 KB L1 sketch
/// (128 KB FlowRegulator, cache resident) in front of a 2^22-slot WSAF
/// (about 235 MB, past a 105 MB LLC).
inline constexpr unsigned kWsafLog2 = 22;
inline constexpr std::size_t kL1Bytes = 32 * 1024;
/// Manager plus this many workers, so no more than nproc - 1 busy threads
/// on a 4-vCPU host.
inline constexpr unsigned kWorkers = 2;
/// Offered rate of the paced ("live") replay of caida and churn, records
/// per wall second: low enough that the workers, which also scan their
/// shard for every view, stay underloaded when the host is slow. attack
/// replays at its own timestamps (about 2.9 Mpps).
inline constexpr double kLiveRatePps = 4.0e6;
/// The live passes of a run fill about this much wall time, with at least
/// two: caida and churn (3-4 s per pass) get two, attack (2 s) gets four.
inline constexpr double kLiveWindowS = 8.5;
/// Views are published on a trace-time cadence worth this much wall time.
inline constexpr double kLivePublishWallMs = 100.0;
/// The poller's sleep between QueryEngine polls.
inline constexpr double kPollPeriodMs = 0.2;
/// K of the poller's top_k query.
inline constexpr std::size_t kPollTopK = 100;
/// Flows with at least this many true packets are "elephants" for ARE.
inline constexpr std::uint64_t kElephantPackets = 10'000;

struct Workload {
  std::string name;
  instameasure::trace::Trace trace;
  /// Heavy-hitter packet threshold the engine detects at.
  double hh_threshold = 0;
  /// 2-worker runtime configuration of the closed-loop passes; its engine
  /// template (as a worker gets it) also drives the 1t passes.
  instameasure::runtime::MultiCoreConfig closed;
  /// Same, for the paced live replay with the poller.
  instameasure::runtime::MultiCoreConfig live;
  /// Replay speed of the live pass (1 = the trace's own timestamps).
  double live_speed = 1.0;
  /// Record counts at which the accuracy pass stops the engine and scores
  /// the flows of the interval just ended (churn: one per segment, since
  /// expired flows are invisible to later queries). Always ends with the
  /// trace size.
  std::vector<std::size_t> checkpoints;
  /// K of topk_recall at every checkpoint.
  std::size_t top_k = 1000;
  /// Injected attackers (attack only); each must be detected, and they are
  /// the heavy hitters detect_ms and visible_ms are taken over.
  std::vector<instameasure::netio::FlowKey> attackers;
};

[[nodiscard]] bool known_workload(const std::string& name);

/// Build the named workload's input and configuration from `seed`.
[[nodiscard]] Workload make_workload(const std::string& name,
                                     std::uint64_t seed);

/// The engine configuration a MultiCoreEngine worker would get from
/// `mc` — the 1t pass runs exactly one of them.
[[nodiscard]] instameasure::core::EngineConfig single_engine_config(
    const instameasure::runtime::MultiCoreConfig& mc);

}  // namespace imbench
