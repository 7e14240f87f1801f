#include "workloads.h"

#include <algorithm>
#include <stdexcept>

#include "trace/generator.h"
#include "util/hash.h"

namespace imbench {
namespace {

using instameasure::netio::PacketRecord;
namespace trace = instameasure::trace;
namespace runtime = instameasure::runtime;

// caida: the generator's CAIDA-like Zipf mix at this share of its full
// 67M-packet size (about 15M packets over 60 s of trace time: two
// million-packet flows, about 70 flows of 10K packets or more).
constexpr double kCaidaScale = 0.2;
constexpr double kCaidaThreshold = 500;

// churn: back-to-back segments, each a fresh population. The mid-size
// flows outnumber the heavy tiers so that most WSAF events are inserts
// (core.wsaf.insert_share); with 25 elephants of 10K-20K packets and 9,000
// flows of 20-100 packets it was under a third.
constexpr unsigned kChurnSegments = 8;
constexpr double kChurnSegmentS = 1.5;
constexpr std::size_t kChurnMidFlows = 15'000;  // per segment
constexpr double kChurnThreshold = 1'000;
constexpr std::size_t kChurnElephants = 10;  // per segment
constexpr std::size_t kChurnHeavy = 40;      // per segment, 1K-5K packets
constexpr std::uint64_t kChurnIdleTimeoutNs = 500'000'000;  // < one segment

// attack: caida-like background compressed into kAttackS seconds, plus
// staggered constant-rate attackers and one scanner: about 1.9 Mpps
// offered. Every view scans both 2^22-slot shards (25-40 ms each, every
// 100 ms), so at twice the background (2.75 Mpps) a slow period of the
// host left the workers behind and visible_ms_p90 grew to a second.
constexpr double kAttackS = 2.0;
constexpr double kAttackBackgroundScale = 0.03;
constexpr unsigned kAttackers = 120;
constexpr double kAttackerMinPps = 130'000;  // Fig 9b: >= 130 kpps
constexpr double kAttackerS = 0.1;
constexpr double kFig9bThreshold = 500;

bool by_time(const PacketRecord& a, const PacketRecord& b) {
  return a.timestamp_ns < b.timestamp_ns;
}

runtime::MultiCoreConfig base_runtime(const instameasure::core::EngineConfig& e) {
  runtime::MultiCoreConfig mc;
  mc.workers = kWorkers;
  mc.dispatch = runtime::DispatchPolicy::kPopcount;
  mc.overload.policy = runtime::OverloadPolicy::kBlock;
  mc.engine = e;
  return mc;
}

instameasure::core::EngineConfig base_engine(double threshold) {
  instameasure::core::EngineConfig e;
  e.regulator.l1_memory_bytes = kL1Bytes;
  e.wsaf.log2_entries = kWsafLog2;
  e.heavy_hitter.packet_threshold = threshold;
  return e;
}

/// Live (paced) configuration: views on a trace-time cadence worth
/// kLivePublishWallMs of wall time at `speed`.
runtime::MultiCoreConfig live_runtime(runtime::MultiCoreConfig mc,
                                      double speed) {
  mc.enable_query_plane = true;
  mc.query_plane.publish_every_ns =
      static_cast<std::uint64_t>(kLivePublishWallMs * 1e6 * speed);
  return mc;
}

trace::Trace make_churn(std::uint64_t seed,
                        std::vector<std::size_t>& segment_ends) {
  trace::Trace out;
  out.name = "churn";
  for (unsigned s = 0; s < kChurnSegments; ++s) {
    trace::TraceConfig c;
    c.name = "churn-segment";
    c.duration_s = kChurnSegmentS;
    // A small elephant tier plus a fresh population of mid-size flows (tens
    // to about 100 packets); no Zipf tail. Most heavy hitters are in the
    // 1K-5K tier, whose rates form a continuum, so the detection-delay
    // percentiles fall inside one tier rather than between the clusters
    // that two tiers' few saturation events make.
    c.tiers = {{kChurnElephants, 10'000, 12'000},
               {kChurnHeavy, 1'000, 5'000},
               {kChurnMidFlows, 60, 120}};
    c.mice = {0, 1.0, 1};
    c.seed = instameasure::util::mix64(seed * 0x9e3779b97f4a7c15ULL + s + 1);
    auto seg = trace::generate(c);
    const auto offset =
        static_cast<std::uint64_t>(static_cast<double>(s) * kChurnSegmentS * 1e9);
    for (auto& r : seg.packets) r.timestamp_ns += offset;
    out.packets.insert(out.packets.end(), seg.packets.begin(),
                       seg.packets.end());
    segment_ends.push_back(out.packets.size());
  }
  return out;
}

}  // namespace

bool known_workload(const std::string& name) {
  return name == "caida" || name == "churn" || name == "attack";
}

instameasure::core::EngineConfig single_engine_config(
    const runtime::MultiCoreConfig& mc) {
  auto e = mc.engine;
  if (mc.enable_query_plane) {
    e.publish_views = true;
    e.publish = mc.query_plane;
    e.publish.shard = 0;
  }
  return e;
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.name = name;
  if (name == "caida") {
    w.trace = trace::generate(trace::caida_like_config(kCaidaScale, seed));
    w.hh_threshold = kCaidaThreshold;
    // Default view cadence: rarely publishes.
    w.closed = base_runtime(base_engine(w.hh_threshold));
    w.live_speed = kLiveRatePps / w.trace.average_pps();
    w.live = live_runtime(w.closed, w.live_speed);
  } else if (name == "churn") {
    w.trace = make_churn(seed, w.checkpoints);
    // At a segment's end only its elephants are live and large: the top-K
    // is the elephant tier.
    w.top_k = kChurnElephants;
    w.hh_threshold = kChurnThreshold;
    auto engine = base_engine(w.hh_threshold);
    engine.wsaf.idle_timeout_ns = kChurnIdleTimeoutNs;
    w.closed = base_runtime(engine);
    w.live_speed = kLiveRatePps / w.trace.average_pps();
    w.live = live_runtime(w.closed, w.live_speed);
  } else if (name == "attack") {
    auto bg = trace::caida_like_config(kAttackBackgroundScale, seed);
    bg.duration_s = kAttackS;
    auto background = trace::generate(bg);

    // Attackers go into their own small trace, sorted once, then one merge:
    // inject_attack re-sorts whatever trace it is given.
    trace::Trace attack;
    attack.name = "attackers";
    const double stagger = (kAttackS - kAttackerS - 0.1) / kAttackers;
    for (unsigned i = 0; i < kAttackers; ++i) {
      trace::Trace one;
      trace::AttackSpec spec;
      spec.rate_pps = kAttackerMinPps + 10'000.0 * (i % 8);
      spec.start_s = 0.05 + stagger * i;
      spec.duration_s = kAttackerS;
      spec.seed = seed * 1'000 + i;
      w.attackers.push_back(trace::inject_attack(one, spec));
      attack.packets.insert(attack.packets.end(), one.packets.begin(),
                            one.packets.end());
    }
    std::sort(attack.packets.begin(), attack.packets.end(), by_time);
    trace::ScanSpec scan;
    scan.n_destinations = 5'000;
    scan.start_s = 0.2;
    scan.duration_s = kAttackS - 0.4;
    scan.seed = seed + 77;
    (void)trace::inject_scan(attack, scan);
    w.trace = trace::merge(background, attack);
    w.trace.name = "attack";

    w.hh_threshold = kFig9bThreshold;
    auto engine = base_engine(w.hh_threshold);
    engine.enable_audit = true;
    w.live_speed = 1.0;
    w.closed = live_runtime(base_runtime(engine), w.live_speed);
    w.live = w.closed;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  if (w.checkpoints.empty()) w.checkpoints.push_back(w.trace.packets.size());
  return w;
}

}  // namespace imbench
