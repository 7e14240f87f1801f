// imbench: the layered benchmark of the InstaMeasure reproduction.
//
//   imbench --workload caida|churn|attack --seed N --seconds S --trace 0|1
//           [--git-sha SHA] [--spans-out FILE]
//
// Untraced (--trace 0) it prints the end-to-end metrics; traced (--trace 1)
// it records spans around every call into a layer and prints the per-layer
// metrics, the span self times, the layer sum and the tracing overhead.
// Either way the correctness gate runs, and any failed check makes the run
// exit non-zero without printing metrics. The last stdout line is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
// Thread budget (4 vCPUs): the 1t pass is one thread; the 2w passes are the
// manager (this thread) plus 2 workers; the live pass adds one poller that
// sleeps between polls. See README.md beside this file.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "analysis/ground_truth.h"
#include "analysis/metrics.h"
#include "analysis/trajectory.h"
#include "core/flow_regulator.h"
#include "core/instameasure.h"
#include "core/wsaf_table.h"
#include "ledger.h"
#include "netio/source.h"
#include "resilience/faultpoint.h"
#include "runtime/multicore.h"
#include "telemetry/metrics.h"
#include "telemetry/perf_counters.h"
#include "util/format.h"
#include "workloads.h"

namespace im = instameasure;
using im::netio::FlowKey;
using imbench::now_ns;

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string git_sha = "unavailable";
  std::string spans_out;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "imbench: %s\nusage: imbench --workload caida|churn|attack "
               "--seed N --seconds S --trace 0|1 [--git-sha SHA] "
               "[--spans-out FILE]\n",
               why.c_str());
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage("missing value for " + k);
    const std::string v = argv[++i];
    try {
      if (k == "--workload") {
        a.workload = v;
      } else if (k == "--seed") {
        a.seed = std::stoull(v);
        have_seed = true;
      } else if (k == "--seconds") {
        a.seconds = std::stod(v);
      } else if (k == "--trace") {
        a.trace = std::stoi(v);
      } else if (k == "--git-sha") {
        a.git_sha = v;
      } else if (k == "--spans-out") {
        a.spans_out = v;
      } else {
        usage("unknown argument " + k);
      }
    } catch (const std::exception&) {
      usage("bad value '" + v + "' for " + k);
    }
  }
  if (!imbench::known_workload(a.workload)) usage("unknown workload");
  if (!have_seed) usage("--seed is required");
  if (!(a.seconds > 0 && a.seconds <= 60)) usage("--seconds must be in (0, 60]");
  if (a.trace != 0 && a.trace != 1) usage("--trace must be 0 or 1");
  return a;
}

// ---------------------------------------------------------------- output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    if (!std::isfinite(value)) {
      missing_.push_back(name + " (not finite)");
      return;
    }
    metrics_.push_back(Metric{name, value, unit});
  }
  void set(const std::string& name, std::optional<double> value,
           const std::string& unit, std::size_t samples) {
    if (!value) {
      missing_.push_back(name + " (" + std::to_string(samples) +
                         " samples, too few beyond the percentile)");
      return;
    }
    set(name, *value, unit);
  }
  [[nodiscard]] const std::vector<std::string>& missing() const {
    return missing_;
  }
  [[nodiscard]] std::string json() const {
    std::string out = "{";
    for (const auto& m : metrics_) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.17g", m.value);
      out += (out.size() > 1 ? ", \"" : "\"") + m.name + "\": {\"value\": " +
             buf + ", \"unit\": \"" + m.unit + "\"}";
    }
    return out + "}";
  }

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> missing_;
};

std::string llc_size() {
  std::ifstream in{"/sys/devices/system/cpu/cpu0/cache/index3/size"};
  std::string s;
  if (in >> s && !s.empty()) return s;
  const long bytes = ::sysconf(_SC_LEVEL3_CACHE_SIZE);
  return bytes > 0 ? std::to_string(bytes / 1024) + "K" : "unavailable";
}

std::string stamp_json(const Args& args) {
  const auto host = im::analysis::collect_host_info();
  im::telemetry::PerfCounterGroup pmu;
  const bool pmu_ok = im::telemetry::kPerfEnabled && pmu.available();
  auto flag = [](bool on) { return on ? "\"on\"" : "\"off\""; };
  std::string s = "{\"workload\": \"" + args.workload +
                  "\", \"seed\": " + std::to_string(args.seed) +
                  ", \"nproc\": " + std::to_string(host.cpus) +
                  ", \"llc\": \"" + llc_size() + "\", \"cpu\": \"" +
                  im::util::json_escape(host.cpu) + "\", \"pmu\": \"" +
                  (pmu_ok ? "available" : "unavailable") +
                  "\", \"flavours\": {\"telemetry\": " +
                  flag(im::telemetry::kEnabled) +
                  ", \"perf\": " + flag(im::telemetry::kPerfEnabled) +
                  ", \"audit\": " + flag(im::audit::kEnabled) +
                  ", \"faultpoints\": " +
                  flag(im::resilience::kFaultPointsEnabled) +
                  "}, \"build_type\": \"" IMBENCH_BUILD_TYPE
                  "\", \"git_sha\": \"" +
                  im::util::json_escape(args.git_sha) + "\"}";
  return s;
}

double peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---------------------------------------------------------------- truth

/// Exact counts for the records of one accuracy checkpoint interval.
struct Checkpoint {
  std::size_t end = 0;  ///< the interval is [previous end, end)
  im::analysis::GroundTruth flows;
  std::vector<FlowKey> elephants;
  std::vector<FlowKey> top_k;
};

struct Truth {
  std::vector<Checkpoint> checkpoints;
  std::size_t flows = 0;
  std::size_t elephants = 0;
  /// The heavy hitters detect_ms and visible_ms are taken over (the
  /// attackers where there are any, else every flow whose true count
  /// reaches the threshold), with the trace time that count was reached.
  std::vector<std::pair<FlowKey, std::uint64_t>> crossings;
};

Truth make_truth(const imbench::Workload& w) {
  Truth t;
  std::unordered_map<FlowKey, std::uint64_t, im::netio::FlowKeyHash> running;
  std::size_t begin = 0;
  for (const auto end : w.checkpoints) {
    Checkpoint cp;
    cp.end = end;
    for (std::size_t i = begin; i < end; ++i) cp.flows.add(w.trace.packets[i]);
    for (const auto& [key, ft] : cp.flows.flows()) {
      if (ft.packets >= imbench::kElephantPackets) cp.elephants.push_back(key);
      if (w.attackers.empty() &&
          static_cast<double>(ft.packets) >= w.hh_threshold) {
        running.emplace(key, 0);
      }
    }
    cp.top_k = cp.flows.top_k_keys(w.top_k, false);
    t.flows += cp.flows.flow_count();
    t.elephants += cp.elephants.size();
    t.checkpoints.push_back(std::move(cp));
    begin = end;
  }
  for (const auto& k : w.attackers) running.emplace(k, 0);
  // One pass finds every crossing (GroundTruth::crossing_time_ns rescans
  // the trace per key; the gate cross-checks one key against it).
  const auto need = static_cast<std::uint64_t>(std::ceil(w.hh_threshold));
  for (const auto& rec : w.trace.packets) {
    const auto it = running.find(rec.key);
    if (it == running.end()) continue;
    if (++it->second == need) t.crossings.emplace_back(rec.key, rec.timestamp_ns);
  }
  return t;
}

// ---------------------------------------------------------------- passes

struct OneThreadPass {
  double mpps = 0;
  double construct_s = 0;
  std::uint64_t audit_comparisons = 0;
};

/// One thread, fresh engine, process_batch in 64-record bursts.
OneThreadPass run_1t(const im::trace::Trace& trace,
                     const im::core::EngineConfig& base, bool audit,
                     imbench::SpanLog& spans, std::uint32_t pass) {
  OneThreadPass r;
  im::telemetry::Registry registry;
  auto config = base;
  config.registry = &registry;
  config.enable_audit = audit;
  std::unique_ptr<im::core::InstaMeasure> engine;
  {
    imbench::SpanScope s{spans, "core.engine.construct", pass};
    const auto c0 = now_ns();
    engine = std::make_unique<im::core::InstaMeasure>(config);
    r.construct_s = static_cast<double>(now_ns() - c0) / 1e9;
  }
  const auto& pkts = trace.packets;
  const std::size_t n = pkts.size();
  constexpr std::size_t kBurst = 64;
  std::uint64_t t0 = 0;
  std::uint64_t t1 = 0;
  {
    imbench::SpanScope s{spans, "core.engine.pass_1t", pass};
    t0 = now_ns();
    if (spans.enabled()) {
      for (std::size_t i = 0; i < n; i += kBurst) {
        const auto len = std::min(kBurst, n - i);
        const auto b0 = now_ns();
        engine->process_batch(std::span{pkts.data() + i, len});
        spans.add(imbench::Span{"core.engine.process_batch", b0, now_ns(), -1,
                                pass, len});
      }
    } else {
      for (std::size_t i = 0; i < n; i += kBurst) {
        engine->process_batch(
            std::span{pkts.data() + i, std::min(kBurst, n - i)});
      }
    }
    t1 = now_ns();
    s.set_calls(n);
  }
  r.mpps = static_cast<double>(n) / (static_cast<double>(t1 - t0) / 1e3);
  if (const auto* a = engine->auditor()) r.audit_comparisons = a->summary().comparisons;
  return r;
}

struct TwoWorkerPass {
  im::runtime::RunStats stats;
  std::uint64_t pulls = 0;
  std::uint64_t pulled = 0;
  std::uint64_t pull_ns = 0;
};

TwoWorkerPass run_2w(const im::trace::Trace& trace,
                     const im::runtime::MultiCoreConfig& config,
                     imbench::SpanLog& spans, std::uint32_t pass,
                     imbench::Gate& gate) {
  TwoWorkerPass r;
  std::unique_ptr<im::runtime::MultiCoreEngine> engine;
  {
    imbench::SpanScope s{spans, "runtime.construct", pass};
    engine = std::make_unique<im::runtime::MultiCoreEngine>(config);
  }
  im::netio::ReplaySource replay{std::span{trace.packets}};
  imbench::TimedSource source{replay, trace.packets.front().timestamp_ns,
                              false, 1.0, &spans, pass};
  {
    imbench::SpanScope s{spans, "runtime.run_source", pass};
    r.stats = engine->run_source(source);
    s.set_calls(r.stats.processed);
  }
  r.pulls = source.pulls();
  r.pulled = source.records();
  r.pull_ns = source.pull_ns();
  imbench::check_run_accounting(gate, "2w pass " + std::to_string(pass),
                                r.stats, replay.stats().received,
                                trace.packets.size());
  return r;
}

/// The samples of every live pass of a run, pooled.
struct LiveSamples {
  unsigned passes = 0;
  double wall_s = 0;
  std::uint64_t packets = 0;
  std::uint64_t lost = 0;  ///< dropped + shed + kernel-dropped
  std::uint64_t views_published = 0;
  std::uint64_t publish_skipped = 0;
  std::size_t queue_depth_max = 0;
  std::vector<double> late_ns;
  std::vector<double> visible_ms;
  std::vector<double> top_k_us;
  std::vector<double> top_k_p50_by_pass;
  std::vector<double> hh_us;
  std::vector<double> age_ms;
  std::uint64_t polls = 0;
  std::uint64_t failed_polls = 0;
  std::size_t tracked = 0;
  std::size_t invisible = 0;
};

/// Paced replay through the 2-worker runtime with one poller thread that
/// queries the live plane every kPollPeriodMs; appends to `r`.
void run_live(const imbench::Workload& w,
              const std::vector<std::pair<FlowKey, std::uint64_t>>& tracked,
              imbench::SpanLog& spans, imbench::Gate& gate, std::uint32_t pass,
              LiveSamples& r) {
  ++r.passes;
  r.tracked += tracked.size();
  const auto first_poll = static_cast<std::ptrdiff_t>(r.top_k_us.size());
  bool viewed = false;
  im::runtime::MultiCoreEngine engine{w.live};
  const auto* queries = engine.queries();
  std::unordered_map<FlowKey, std::size_t, im::netio::FlowKeyHash> index;
  for (std::size_t i = 0; i < tracked.size(); ++i) index.emplace(tracked[i].first, i);
  std::vector<std::uint64_t> first_visible(tracked.size(), 0);

  imbench::SpanLog poll_spans{spans.enabled()};
  std::atomic<bool> stop{false};
  const auto poll_once = [&] {
    const auto t0 = now_ns();
    const auto hh = queries->heavy_hitters(w.hh_threshold,
                                           im::core::TopKMetric::kPackets);
    const auto t1 = now_ns();
    const auto top = queries->top_k(imbench::kPollTopK,
                                    im::core::TopKMetric::kPackets);
    const auto t2 = now_ns();
    const auto age = queries->snapshot_age_ns();
    ++r.polls;
    if (age == UINT64_MAX) {
      // No view yet is expected before the first publish only.
      if (viewed) ++r.failed_polls;
    } else {
      viewed = true;
      r.age_ms.push_back(static_cast<double>(age) / 1e6);
    }
    r.hh_us.push_back(static_cast<double>(t1 - t0) / 1e3);
    r.top_k_us.push_back(static_cast<double>(t2 - t1) / 1e3);
    poll_spans.add(imbench::Span{"core.query.heavy_hitters", t0, t1, -1, pass,
                                 hh.size()});
    poll_spans.add(imbench::Span{"core.query.top_k", t1, t2, -1, pass,
                                 top.size()});
    for (const auto& e : hh) {
      const auto it = index.find(e.key);
      if (it != index.end() && first_visible[it->second] == 0) {
        first_visible[it->second] = t1;
      }
    }
  };

  im::netio::ReplaySource::Config pace;
  pace.pace_by_timestamps = true;
  pace.speed = w.live_speed;
  im::netio::ReplaySource replay{std::span{w.trace.packets}, pace};
  // Lateness is a per-layer metric: only the traced run keeps its samples,
  // one per burst (millions per pass, so in an untraced run they would add
  // a timing-dependent tens of MB to rss_mb).
  imbench::TimedSource source{replay, w.trace.packets.front().timestamp_ns,
                              spans.enabled(), w.live_speed, &spans, pass};
  std::thread poller{[&] {
    const auto period = std::chrono::duration<double, std::milli>(
        imbench::kPollPeriodMs);
    while (!stop.load(std::memory_order_acquire)) {
      poll_once();
      std::this_thread::sleep_for(period);
    }
  }};
  im::runtime::RunStats stats;
  {
    imbench::SpanScope s{spans, "runtime.run_source_live", pass};
    stats = engine.run_source(source);
    s.set_calls(stats.processed);
  }
  stop.store(true, std::memory_order_release);
  poller.join();
  poll_once();  // after the workers' final publish
  spans.merge(poll_spans, -1);

  imbench::check_run_accounting(gate, "live pass", stats,
                                replay.stats().received, w.trace.packets.size());
  r.wall_s += stats.wall_seconds;
  r.packets += stats.packets;
  r.lost += stats.dropped + stats.shed + stats.io_kernel_dropped;
  r.views_published += stats.views_published;
  r.publish_skipped += stats.view_publishes_skipped;
  for (const auto d : stats.max_queue_depth) {
    r.queue_depth_max = std::max(r.queue_depth_max, d);
  }
  r.late_ns.insert(r.late_ns.end(), source.late_ns().begin(),
                   source.late_ns().end());
  r.top_k_p50_by_pass.push_back(
      imbench::median({r.top_k_us.begin() + first_poll, r.top_k_us.end()}));
  for (std::size_t i = 0; i < tracked.size(); ++i) {
    if (first_visible[i] == 0) {
      ++r.invisible;
      continue;
    }
    const auto due = source.due_ns(tracked[i].second);
    r.visible_ms.push_back(
        (static_cast<double>(first_visible[i]) - static_cast<double>(due)) /
        1e6);
  }
  // Every injected attacker must be detected in the live run too.
  std::unordered_map<FlowKey, bool, im::netio::FlowKeyHash> detected;
  for (unsigned wk = 0; wk < engine.workers(); ++wk) {
    for (const auto& d : engine.engine(wk).detections()) detected[d.key] = true;
  }
  std::size_t missed = 0;
  for (const auto& k : w.attackers) missed += detected.count(k) ? 0 : 1;
  gate.check(missed == 0, "attackers_detected",
             "live pass missed " + std::to_string(missed) + " of " +
                 std::to_string(w.attackers.size()) + " attackers");
}

// ------------------------------------------------------- accuracy pass

struct Accuracy {
  double are_elephant = 0;
  double topk_recall = 0;
  std::vector<double> detect_ms;
  std::size_t undetected = 0;
  double lookup_ns = 0;
  double fill_view_ms = 0;
};

/// Engine hash seeds the accuracy is averaged over. Per-flow error is
/// mostly sketch noise that depends on which flows share sketch words, so
/// scoring the same input under several hash seeds steadies the figures
/// without changing what they measure. The timed passes use seed 0's
/// configuration (the engine defaults).
constexpr unsigned kAccuracySeeds = 4;

im::runtime::MultiCoreConfig seeded(im::runtime::MultiCoreConfig mc,
                                    unsigned k) {
  mc.engine.seed += 0x9e3779b97f4a7c15ULL * k;
  mc.engine.regulator.seed += 0xc2b2ae3d27d4eb4fULL * k;
  return mc;
}

/// Untimed 2-worker runs over the whole trace, one per accuracy seed, each
/// stopped at every checkpoint to score the interval's flows; then
/// detection delays, the attackers and the audit == offline invariant.
Accuracy run_accuracy(const imbench::Workload& w, const Truth& truth,
                      imbench::SpanLog& spans, imbench::Gate& gate,
                      std::uint32_t pass) {
  Accuracy a;
  double are_sum = 0;
  double recall_sum = 0;
  std::uint64_t query_ns = 0;
  std::unordered_map<FlowKey, double, im::netio::FlowKeyHash> est;
  est.reserve(truth.flows);
  std::vector<FlowKey> keys;
  std::vector<im::core::InstaMeasure::FlowEstimate> found;
  for (unsigned k = 0; k < kAccuracySeeds; ++k) {
    im::runtime::MultiCoreEngine mc{seeded(w.closed, k)};
    im::netio::ReplaySource replay{std::span{w.trace.packets}};
    std::size_t done = 0;
    for (const auto& cp : truth.checkpoints) {
      im::runtime::SourceRunConfig bound;
      bound.max_packets = cp.end - done;
      const auto stats = mc.run_source(replay, bound);
      imbench::check_run_accounting(gate, "accuracy pass", stats,
                                    stats.packets, bound.max_packets);
      done = cp.end;

      keys.clear();
      for (const auto& [key, ft] : cp.flows.flows()) keys.push_back(key);
      found.resize(keys.size());
      {
        // Per-flow estimates, timed: WSAF lookup plus regulator residual.
        imbench::SpanScope s{spans, "core.engine.query", pass};
        const auto q0 = now_ns();
        for (std::size_t i = 0; i < keys.size(); ++i) found[i] = mc.query(keys[i]);
        query_ns += now_ns() - q0;
        s.set_calls(keys.size());
      }
      for (std::size_t i = 0; i < keys.size(); ++i) {
        imbench::check_estimate(gate, "query", found[i].packets, found[i].bytes);
        est[keys[i]] = found[i].packets;
      }
      for (const auto& key : cp.elephants) {
        const double t = static_cast<double>(cp.flows.find(key)->packets);
        are_sum += std::abs(est.at(key) - t) / t;
      }
      std::vector<FlowKey> top_keys;
      for (const auto& item : mc.top_k_packets(w.top_k)) {
        imbench::check_estimate(gate, "top_k", item.packets, item.bytes);
        top_keys.push_back(item.key);
      }
      recall_sum += im::analysis::top_k_recall(cp.top_k, top_keys, w.top_k);
    }
    gate.check(replay.stats().received == w.trace.packets.size(),
               "source_received",
               "accuracy pass received " +
                   std::to_string(replay.stats().received) + " of " +
                   std::to_string(w.trace.packets.size()));

    std::unordered_map<FlowKey, std::uint64_t, im::netio::FlowKeyHash> detected;
    for (unsigned wk = 0; wk < mc.workers(); ++wk) {
      for (const auto& d : mc.engine(wk).detections()) {
        if (d.metric == im::core::TopKMetric::kPackets) {
          detected.emplace(d.key, d.detected_at_ns);
        }
      }
    }
    for (const auto& [key, cross_ns] : truth.crossings) {
      const auto it = detected.find(key);
      if (it == detected.end()) {
        ++a.undetected;
        continue;
      }
      a.detect_ms.push_back(
          (static_cast<double>(it->second) - static_cast<double>(cross_ns)) /
          1e6);
    }
    std::size_t missed = 0;
    for (const auto& key : w.attackers) missed += detected.count(key) ? 0 : 1;
    gate.check(missed == 0, "attackers_detected",
               "accuracy pass missed " + std::to_string(missed) + " of " +
                   std::to_string(w.attackers.size()) + " attackers");

    // audit == offline: after every worker's final sweep the merged live
    // ARE equals analysis::banded_errors over the audited slice.
    if (const auto* q = mc.queries(); q != nullptr && q->auditors() > 0) {
      const auto live = q->audit();
      const auto* sampler = mc.engine(0).auditor();
      im::analysis::GroundTruth slice;
      for (const auto& rec : w.trace.packets) {
        if (sampler->sampled(rec.key)) slice.add(rec);
      }
      const auto bands = im::analysis::banded_errors(
          slice, [&](const FlowKey& key) { return est.at(key); }, {1}, false);
      const double offline = bands.empty() ? 0 : bands[0].mean_abs_rel_error;
      const std::uint64_t flows = bands.empty() ? 0 : bands[0].flows;
      gate.check(live.comparisons == flows && imbench::same_value(live.are, offline),
                 "audit_equals_offline",
                 "live ARE " + std::to_string(live.are) + " over " +
                     std::to_string(live.comparisons) + " flows vs offline " +
                     std::to_string(offline) + " over " + std::to_string(flows));
    }

    if (spans.enabled() && k + 1 == kAccuracySeeds) {
      // fill_view on a final shard, repeated; the median is reported.
      std::vector<double> fv;
      im::core::WsafView view;
      for (int rep = 0; rep < 5; ++rep) {
        imbench::SpanScope s{spans, "core.query.fill_view", pass};
        const auto f0 = now_ns();
        mc.engine(0).wsaf().fill_view(view);
        fv.push_back(static_cast<double>(now_ns() - f0) / 1e6);
        s.set_calls(view.entries.size());
      }
      a.fill_view_ms = imbench::median(fv);
    }
  }
  gate.check(truth.elephants >= 10, "elephants",
             std::to_string(truth.elephants) + " flows >= " +
                 std::to_string(imbench::kElephantPackets) + " packets");
  gate.check(truth.crossings.size() >= 100, "heavy_hitters",
             std::to_string(truth.crossings.size()) +
                 " true heavy hitters (need >= 100)");
  a.are_elephant =
      are_sum / static_cast<double>(std::max<std::size_t>(1, truth.elephants) *
                                    kAccuracySeeds);
  a.topk_recall = recall_sum / static_cast<double>(truth.checkpoints.size() *
                                                   kAccuracySeeds);
  a.lookup_ns = static_cast<double>(query_ns) /
                static_cast<double>(std::max<std::size_t>(1, truth.flows) *
                                    kAccuracySeeds);
  return a;
}
// ------------------------------------------------------ isolated layers

struct LayerLoops {
  double regulator_ns_per_pkt = 0;
  double ips_pps = 0;
  double l1_sat_per_pkt = 0;
  double wsaf_ns_per_event = 0;
  im::core::WsafStats wsaf_stats;
  double load_factor = 0;
};

/// FlowKey::hash + FlowRegulator::offer over every record, recording the
/// emitted events; then the events replayed into a fresh WsafTable.
LayerLoops run_layer_loops(const im::trace::Trace& trace,
                           const im::core::EngineConfig& engine_config,
                           imbench::SpanLog& spans, std::uint32_t pass) {
  struct Event {
    std::uint32_t index;
    std::uint64_t hash;
    im::core::SaturationEvent ev;
  };
  LayerLoops r;
  im::telemetry::Registry registry;
  auto rc = engine_config.regulator;
  rc.registry = &registry;
  im::core::FlowRegulator regulator{rc};
  const auto seed = engine_config.seed;
  std::vector<Event> events;
  events.reserve(trace.packets.size() / 32);
  const auto n = trace.packets.size();
  {
    imbench::SpanScope s{spans, "core.regulator.offer_loop", pass};
    const auto t0 = now_ns();
    for (std::size_t i = 0; i < n; ++i) {
      const auto& rec = trace.packets[i];
      const auto h = rec.key.hash(seed);
      if (const auto ev = regulator.offer(h, rec.wire_len)) {
        events.push_back({static_cast<std::uint32_t>(i), h, *ev});
      }
    }
    r.regulator_ns_per_pkt =
        static_cast<double>(now_ns() - t0) / static_cast<double>(n);
    s.set_calls(n);
  }
  r.ips_pps = static_cast<double>(events.size()) / static_cast<double>(n);
  r.l1_sat_per_pkt = static_cast<double>(regulator.l1_saturations()) /
                     static_cast<double>(n);

  auto wc = engine_config.wsaf;
  wc.seed = seed;  // as EngineConfig propagation does
  wc.registry = &registry;
  im::core::WsafTable table{wc};
  {
    imbench::SpanScope s{spans, "core.wsaf.accumulate_loop", pass};
    const auto t0 = now_ns();
    for (const auto& e : events) {
      const auto& rec = trace.packets[e.index];
      (void)table.accumulate(rec.key, e.hash, e.ev.est_packets, e.ev.est_bytes,
                             rec.timestamp_ns);
    }
    r.wsaf_ns_per_event =
        static_cast<double>(now_ns() - t0) /
        static_cast<double>(std::max<std::size_t>(1, events.size()));
    s.set_calls(events.size());
  }
  r.wsaf_stats = table.stats();
  r.load_factor = table.load_factor();
  return r;
}

void write_spans(const std::string& path, const std::vector<imbench::Span>& spans) {
  std::ofstream out{path};
  if (!out) {
    std::fprintf(stderr, "imbench: cannot write spans to %s\n", path.c_str());
    return;
  }
  out << "id\tparent\tpass\tname\tstart_ns\tend_ns\tcalls\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    out << i << '\t' << s.parent << '\t' << s.pass << '\t' << s.name << '\t'
        << s.start_ns << '\t' << s.end_ns << '\t' << s.calls << '\n';
  }
}

double ratio(double num, double den) { return den != 0 ? num / den : 0; }

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  const bool traced = args.trace == 1;
  const std::string stamp = stamp_json(args);
  std::printf("stamp %s\n", stamp.c_str());
  if (std::string{IMBENCH_BUILD_TYPE} != "Release") {
    std::fprintf(stderr,
                 "imbench: %s build; numbers from a non-Release build are not "
                 "reported\n",
                 IMBENCH_BUILD_TYPE);
    return 3;
  }
  const unsigned nproc = std::thread::hardware_concurrency();
  if (nproc != 0 && nproc < imbench::kWorkers + 2) {
    std::fprintf(stderr, "imbench: needs at least %u CPUs, found %u\n",
                 imbench::kWorkers + 2, nproc);
    return 3;
  }

  imbench::SpanLog spans{traced};
  imbench::Gate gate;
  Report report;
  std::uint32_t pass = 0;

  // ---- set-up, three times; the median is setup_s. Each set-up is timed
  // from its start to a constructed engine: the previous set-up's data is
  // freed before the clock starts, and the engine is destroyed after it
  // stops.
  constexpr int kSetups = 3;
  std::vector<double> setup_s;
  std::vector<double> gen_s;
  std::vector<double> truth_s;
  std::optional<imbench::Workload> workload;
  std::optional<Truth> truth;
  double data_rss_mb = 0;
  for (int rep = 0; rep < kSetups; ++rep) {
    truth.reset();
    workload.reset();
    std::optional<im::core::InstaMeasure> first;
    imbench::SpanScope s{spans, "setup", ++pass};
    const auto t0 = now_ns();
    {
      imbench::SpanScope g{spans, "trace.generate", pass};
      workload.emplace(imbench::make_workload(args.workload, args.seed));
    }
    const auto t1 = now_ns();
    {
      imbench::SpanScope g{spans, "analysis.ground_truth", pass};
      truth.emplace(make_truth(*workload));
    }
    const auto t2 = now_ns();
    // The peak the benchmark's own data (trace, truth) reaches by itself.
    if (rep == 0) data_rss_mb = peak_rss_mb();
    {
      // The first timed packet goes to a freshly constructed engine.
      imbench::SpanScope g{spans, "core.engine.construct", pass};
      first.emplace(imbench::single_engine_config(workload->closed));
    }
    const auto t3 = now_ns();
    setup_s.push_back(static_cast<double>(t3 - t0) / 1e9);
    gen_s.push_back(static_cast<double>(t1 - t0) / 1e9);
    truth_s.push_back(static_cast<double>(t2 - t1) / 1e9);
  }
  const auto& w = *workload;
  const auto& tr = *truth;
  if (w.trace.packets.empty()) {
    std::fprintf(stderr, "imbench: empty trace\n");
    return 1;
  }
  if (!tr.crossings.empty()) {
    const auto& [key, at] = tr.crossings.front();
    const auto ref = im::analysis::GroundTruth::crossing_time_ns(
        w.trace, key, w.hh_threshold, false);
    gate.check(ref && *ref == at, "crossing_time",
               "one-pass crossing time disagrees with GroundTruth");
  }
  std::printf("workload %s: %zu records over %.3f s of trace time (%.0f pps), "
              "%zu flows, %zu elephants, %zu tracked heavy hitters at %.0f "
              "packets, live speed %.3f\n",
              w.name.c_str(), w.trace.packets.size(), w.trace.duration_s(),
              w.trace.average_pps(), tr.flows, tr.elephants,
              tr.crossings.size(), w.hh_threshold, w.live_speed);

  const auto engine_1t = imbench::single_engine_config(w.closed);
  // Accuracy first: untimed, and it warms the host before the timed passes.
  ++pass;
  const Accuracy acc = run_accuracy(w, tr, spans, gate, pass);

  // Live passes fill about kLiveWindowS of the run, at least two: one
  // before the closed-loop passes, one after, and any others between
  // stretches of them, so the live samples span the run like the
  // throughput passes do.
  const double live_s = static_cast<double>(w.trace.packets.size()) /
                        (w.trace.average_pps() * w.live_speed);
  const unsigned live_passes =
      std::max(2u, static_cast<unsigned>(imbench::kLiveWindowS / live_s));
  // The traced run spends extra time on isolated loops and audit pairs.
  const double closed_budget_s =
      std::max(1.0, args.seconds - live_passes * live_s - (traced ? 2.0 : 0.0));
  constexpr unsigned kMinClosedPairs = 4;
  LiveSamples live;
  run_live(w, tr.crossings, spans, gate, ++pass, live);

  // ---- closed loop: interleaved 1t / 2w passes, fresh engine each.
  std::vector<double> mpps_1t;
  std::vector<double> mpps_1t_untraced;
  std::vector<double> mpps_2w;
  std::vector<double> construct_s;
  std::vector<double> busy_min;
  std::vector<double> stalls_per_kpkt;
  std::vector<double> pull_ns_per_pkt;
  std::vector<double> pkts_per_burst;
  double imbalance = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double closed_s = 0;
  unsigned i = 0;
  const unsigned stretches = live_passes - 1;
  for (unsigned stretch = 1; stretch <= stretches; ++stretch) {
    const double until_s = closed_budget_s * stretch / stretches;
    const unsigned min_pairs =
        (kMinClosedPairs * stretch + stretches - 1) / stretches;
    while (i < min_pairs || closed_s < until_s) {
      ++pass;
      const auto c0 = now_ns();
      const auto one = [&] {
        // In the traced run every other 1t pass records no spans: the pair
        // gives the tracing overhead.
        const bool span_this = traced && (i % 2 == 0);
        imbench::SpanLog off{false};
        const auto r = run_1t(w.trace, engine_1t, engine_1t.enable_audit,
                              span_this ? spans : off, pass);
        (traced && !span_this ? mpps_1t_untraced : mpps_1t).push_back(r.mpps);
        construct_s.push_back(r.construct_s);
      };
      const auto two = [&] {
        const auto r = run_2w(w.trace, w.closed, spans, pass, gate);
        mpps_2w.push_back(r.stats.mpps);
        attempted += r.stats.packets;
        failed += r.stats.dropped + r.stats.shed + r.stats.io_kernel_dropped;
        double lo = 1;
        for (const double b : r.stats.worker_busy_fraction) lo = std::min(lo, b);
        busy_min.push_back(lo);
        stalls_per_kpkt.push_back(
            ratio(static_cast<double>(r.stats.producer_stalls),
                  static_cast<double>(r.stats.packets) / 1e3));
        pull_ns_per_pkt.push_back(ratio(static_cast<double>(r.pull_ns),
                                        static_cast<double>(r.pulled)));
        pkts_per_burst.push_back(ratio(static_cast<double>(r.pulled),
                                       static_cast<double>(r.pulls)));
        double mx = 0;
        double sum = 0;
        for (const auto p : r.stats.per_worker_packets) {
          mx = std::max(mx, static_cast<double>(p));
          sum += static_cast<double>(p);
        }
        imbalance = ratio(mx, sum / static_cast<double>(
                                        r.stats.per_worker_packets.size()));
      };
      if (i % 2 == 0) {
        one();
        two();
      } else {
        two();
        one();
      }
      closed_s += static_cast<double>(now_ns() - c0) / 1e9;
      ++i;
    }
    run_live(w, tr.crossings, spans, gate, ++pass, live);
  }
  attempted += live.packets + live.polls;
  failed += live.lost + live.failed_polls;
  if (!w.attackers.empty()) {
    gate.check(live.invisible == 0, "attackers_visible",
               std::to_string(live.invisible) +
                   " attackers never returned by heavy_hitters");
  }

  // ---- traced extras: isolated layers and the audit on/off pair.
  std::optional<LayerLoops> loops;
  std::vector<double> audit_on_ns;
  std::vector<double> audit_off_ns;
  std::uint64_t audit_comparisons = 0;
  if (traced) {
    ++pass;
    loops = run_layer_loops(w.trace, engine_1t, spans, pass);
    if constexpr (im::audit::kEnabled) {
      imbench::SpanLog off{false};
      for (int k = 0; k < 2; ++k) {
        ++pass;
        const auto on = run_1t(w.trace, engine_1t, true, off, pass);
        const auto no = run_1t(w.trace, engine_1t, false, off, pass);
        audit_on_ns.push_back(1e3 / on.mpps);
        audit_off_ns.push_back(1e3 / no.mpps);
        audit_comparisons = on.audit_comparisons;
      }
    }
  }

  if (!gate.passed()) {
    std::fprintf(stderr, "imbench: correctness gate FAILED (%zu of %llu checks)\n",
                 gate.failures().size(),
                 static_cast<unsigned long long>(gate.checks()));
    for (const auto& f : gate.failures()) std::fprintf(stderr, "  %s\n", f.c_str());
    return 1;
  }

  // ---- report.
  const auto& a = acc;
  const double m1 = imbench::median(mpps_1t);
  const double m2 = imbench::median(mpps_2w);
  std::printf("passes: %zu x 1t, %zu x 2w; %u live (%.2f s, %llu polls)\n",
              mpps_1t.size() + mpps_1t_untraced.size(), mpps_2w.size(),
              live.passes, live.wall_s,
              static_cast<unsigned long long>(live.polls));
  const auto print_passes = [](const char* what, const std::vector<double>& v) {
    std::printf("  %s Mpps:", what);
    for (const double x : v) std::printf(" %.3f", x);
    std::printf("\n");
  };
  std::printf("set-ups: %.3f %.3f %.3f s (generation %.3f, ground truth %.3f "
              "s in the median)\n",
              setup_s[0], setup_s[1], setup_s[2], imbench::median(gen_s),
              imbench::median(truth_s));
  print_passes("1t", mpps_1t);
  print_passes("2w", mpps_2w);
  std::printf("  live top_k p50 us:");
  for (const double x : live.top_k_p50_by_pass) std::printf(" %.3f", x);
  std::printf("\n");
  std::printf("samples: detect %zu (undetected %zu), visible %zu of %zu "
              "(never visible %zu), lateness %zu bursts\n",
              a.detect_ms.size(), a.undetected, live.visible_ms.size(),
              live.tracked, live.invisible, live.late_ns.size());
  const double rss_mb = peak_rss_mb();
  std::printf("rss: peak %.1f MB, of which %.1f MB (%.0f %%) is the "
              "benchmark's own trace and ground truth, held before the first "
              "engine\n",
              rss_mb, data_rss_mb, 100.0 * ratio(data_rss_mb, rss_mb));
  if (!traced) {
    report.set("setup_s", imbench::median(setup_s), "s");
    report.set("mpps_1t", m1, "Mpps");
    report.set("mpps_2w", m2, "Mpps");
    report.set("are_elephant", a.are_elephant, "ratio");
    report.set("topk_recall", a.topk_recall, "ratio");
    report.set("detect_ms_p50", imbench::percentile(a.detect_ms, 0.5), "ms",
               a.detect_ms.size());
    report.set("detect_ms_p90", imbench::percentile(a.detect_ms, 0.9), "ms",
               a.detect_ms.size());
    report.set("visible_ms_p50", imbench::percentile(live.visible_ms, 0.5),
               "ms", live.visible_ms.size());
    report.set("visible_ms_p90", imbench::percentile(live.visible_ms, 0.9),
               "ms", live.visible_ms.size());
    report.set("query_us_p50", imbench::percentile(live.top_k_us, 0.5), "us",
               live.top_k_us.size());
    report.set("rss_mb", rss_mb, "MB");
  } else {
    const auto& L = *loops;
    // Engine cost from the 1t passes that recorded no spans.
    const double untraced = imbench::median(mpps_1t_untraced);
    const double engine_ns = 1e3 / untraced;
    const double wsaf_ns_per_pkt = L.wsaf_ns_per_event * L.ips_pps;
    const auto& ws = L.wsaf_stats;
    const double acc_n = static_cast<double>(std::max<std::uint64_t>(1, ws.accumulates));
    std::vector<double> late_us;
    late_us.reserve(live.late_ns.size());
    for (const double ns : live.late_ns) late_us.push_back(ns / 1e3);

    report.set("netio.pull_ns_per_pkt", imbench::median(pull_ns_per_pkt), "ns");
    report.set("netio.pkts_per_burst", imbench::median(pkts_per_burst), "count");
    report.set("netio.late_us_p50", imbench::percentile(late_us, 0.5), "us", late_us.size());
    report.set("netio.late_us_p99", imbench::percentile(late_us, 0.99), "us", late_us.size());
    report.set("runtime.worker_busy_min", imbench::median(busy_min), "ratio");
    report.set("runtime.stalls_per_kpkt", imbench::median(stalls_per_kpkt), "count");
    report.set("runtime.queue_depth_max", static_cast<double>(live.queue_depth_max), "count");
    report.set("runtime.imbalance", imbalance, "ratio");
    report.set("runtime.scaling", m2 / (2 * untraced), "ratio");
    report.set("runtime.failed", static_cast<double>(failed), "count");
    report.set("core.engine.ns_per_pkt", engine_ns, "ns");
    report.set("core.engine.residual_ns_per_pkt",
               imbench::layer_residual(engine_ns, L.regulator_ns_per_pkt, wsaf_ns_per_pkt),
               "ns");
    report.set("core.engine.construct_s", imbench::median(construct_s), "s");
    {
      im::core::InstaMeasure probe{engine_1t};
      report.set("core.engine.memory_mb", static_cast<double>(probe.memory_bytes()) / 1e6, "MB");
    }
    report.set("core.regulator.ns_per_pkt", L.regulator_ns_per_pkt, "ns");
    report.set("core.regulator.ips_pps", L.ips_pps, "ratio");
    report.set("core.regulator.l1_sat_per_pkt", L.l1_sat_per_pkt, "ratio");
    report.set("core.wsaf.ns_per_event", L.wsaf_ns_per_event, "ns");
    report.set("core.wsaf.ns_per_pkt", wsaf_ns_per_pkt, "ns");
    report.set("core.wsaf.insert_share", static_cast<double>(ws.inserts) / acc_n, "ratio");
    report.set("core.wsaf.evict_share", static_cast<double>(ws.evictions) / acc_n, "ratio");
    report.set("core.wsaf.gc_share",
               static_cast<double>(ws.gc_reclaims + ws.gc_swept) / acc_n, "ratio");
    report.set("core.wsaf.probes_per_op", static_cast<double>(ws.probes) / acc_n, "count");
    report.set("core.wsaf.load_factor", L.load_factor, "ratio");
    report.set("core.wsaf.lookup_ns", a.lookup_ns, "ns");
    report.set("core.query.fill_view_ms", a.fill_view_ms, "ms");
    report.set("core.query.views_published", static_cast<double>(live.views_published), "count");
    report.set("core.query.publish_skipped", static_cast<double>(live.publish_skipped), "count");
    report.set("core.query.view_age_ms_p50", imbench::percentile(live.age_ms, 0.5), "ms", live.age_ms.size());
    report.set("core.query.top_k_us_p99", imbench::percentile(live.top_k_us, 0.99), "us", live.top_k_us.size());
    report.set("core.query.hh_us_p50", imbench::percentile(live.hh_us, 0.5), "us", live.hh_us.size());
    report.set("audit.ns_per_pkt",
               imbench::median(audit_on_ns) - imbench::median(audit_off_ns), "ns");
    report.set("audit.comparisons", static_cast<double>(audit_comparisons), "count");
    report.set("trace.gen_s", imbench::median(gen_s), "s");
    report.set("analysis.truth_s", imbench::median(truth_s), "s");
    report.set("tracing.overhead", 1.0 - m1 / untraced, "ratio");
    for (const auto& row : imbench::self_time_by_name(spans.spans())) {
      // The manager's dispatch and queue wait: run_source minus next_burst.
      if (row.name == "runtime.run_source") {
        report.set("runtime.manager_self_ns_per_pkt",
                   row.self_ms * 1e6 / static_cast<double>(row.calls), "ns");
      }
    }

    // Human-readable: self times, layer sum, overhead.
    std::printf("\nspan self times (%zu spans)\n", spans.spans().size());
    std::printf("  %-30s %8s %12s %12s %12s\n", "span", "count", "calls",
                "total_ms", "self_ms");
    for (const auto& row : imbench::self_time_by_name(spans.spans())) {
      std::printf("  %-30s %8llu %12llu %12.3f %12.3f\n", row.name.c_str(),
                  static_cast<unsigned long long>(row.spans),
                  static_cast<unsigned long long>(row.calls), row.total_ms,
                  row.self_ms);
    }
    std::printf("\nlayer sum (ns/packet, 1t): engine %.3f = regulator %.3f + "
                "wsaf %.3f (%.3f ns/event x %.5f events/packet) + residual "
                "%.3f\n",
                engine_ns, L.regulator_ns_per_pkt, wsaf_ns_per_pkt,
                L.wsaf_ns_per_event, L.ips_pps,
                imbench::layer_residual(engine_ns, L.regulator_ns_per_pkt,
                                        wsaf_ns_per_pkt));
    std::printf("tracing overhead: traced 1t %.3f Mpps vs untraced %.3f Mpps "
                "(%.2f%%)\n\n",
                m1, untraced, 100.0 * (1.0 - m1 / untraced));
    if (!args.spans_out.empty()) write_spans(args.spans_out, spans.spans());
  }
  if (!report.missing().empty()) {
    std::fprintf(stderr, "imbench: metrics without enough samples:\n");
    for (const auto& m : report.missing()) std::fprintf(stderr, "  %s\n", m.c_str());
    return 1;
  }
  std::printf("{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), report.json().c_str());
  return 0;
}
