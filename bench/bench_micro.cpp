// Micro-benchmarks (google-benchmark) for the fast-path primitives.
//
// These quantify the per-packet budget behind Fig 9(a): one FlowKey hash,
// one or two sketch word accesses, and a rare WSAF accumulate. The paper's
// 18.9 Mpps on a 2.4 GHz Atom is ~127 cycles/packet; the per-op costs here
// show where those cycles go on the build host.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "core/flow_regulator.h"
#include "core/instameasure.h"
#include "core/wsaf_table.h"
#include "core/wsaf_view.h"
#include "runtime/spsc_queue.h"
#include "netio/codec.h"
#include "sketch/counter_tree.h"
#include "sketch/countmin.h"
#include "sketch/csm.h"
#include "sketch/rcc.h"
#include "telemetry/trace.h"
#include "util/rng.h"

using namespace instameasure;

namespace {

netio::FlowKey key_from(std::uint64_t v) {
  return netio::FlowKey{static_cast<std::uint32_t>(v),
                        static_cast<std::uint32_t>(v >> 32),
                        static_cast<std::uint16_t>(v >> 16),
                        static_cast<std::uint16_t>(v >> 48), 6};
}

void BM_FlowKeyHash(benchmark::State& state) {
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(key_from(++i).hash());
  }
}
BENCHMARK(BM_FlowKeyHash);

void BM_VvLayout(benchmark::State& state) {
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sketch::make_layout(++i, 1 << 14, 8));
  }
}
BENCHMARK(BM_VvLayout);

void BM_RccEncode(benchmark::State& state) {
  sketch::RccConfig config;
  config.memory_bytes = 128 * 1024;
  sketch::RccSketch rcc{config};
  util::SplitMix64 hashes{1};
  // 64 recurring flows: realistic word reuse.
  std::array<sketch::VvLayout, 64> layouts;
  for (auto& l : layouts) l = rcc.layout_of(hashes());
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rcc.encode(layouts[++i & 63]));
  }
}
BENCHMARK(BM_RccEncode);

void BM_FlowRegulatorOffer(benchmark::State& state) {
  core::FlowRegulatorConfig config;
  config.l1_memory_bytes = 32 * 1024;
  core::FlowRegulator fr{config};
  util::SplitMix64 hashes{2};
  std::array<std::uint64_t, 64> flows;
  for (auto& f : flows) f = hashes();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fr.offer(flows[++i & 63], 500));
  }
  state.counters["Mpps"] = benchmark::Counter(
      static_cast<double>(state.iterations()) / 1e6,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FlowRegulatorOffer);

core::WsafLayout bench_layout(const benchmark::State& state) {
  return state.range(0) == 0 ? core::WsafLayout::kScalarProbe
                             : core::WsafLayout::kBucketed;
}

// Hot-update path: 256 recurring flows in a 2^20 table — slot lines stay
// cached, so this row isolates the per-accumulate instruction cost of each
// layout (tag compare + mask walk vs. sequential slot probing).
void BM_WsafAccumulate(benchmark::State& state) {
  core::WsafConfig config;
  config.log2_entries = 20;
  config.layout = bench_layout(state);
  core::WsafTable table{config};
  util::SplitMix64 seeds{3};
  std::array<netio::FlowKey, 256> keys;
  std::array<std::uint64_t, 256> hashes;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    keys[i] = key_from(seeds());
    hashes[i] = keys[i].hash(config.seed);
  }
  std::size_t i = 0;
  std::uint64_t now = 0;
  for (auto _ : state) {
    const auto j = ++i & 255;
    benchmark::DoNotOptimize(
        table.accumulate(keys[j], hashes[j], 100.0, 50'000.0, ++now));
  }
  state.counters["Mpps"] = benchmark::Counter(
      static_cast<double>(state.iterations()) / 1e6,
      benchmark::Counter::kIsRate);
  state.SetLabel(to_string(config.layout));
}
BENCHMARK(BM_WsafAccumulate)->Arg(0)->Arg(1);

// DRAM-scale lookup/insert workload: a ~512 MB table (2^23 slots) filled to
// ~90% with distinct flows, then probed for those same flows in insertion
// order. Slot placement is hash-random, so every probe step in the scalar
// layout is a fresh cache-line miss, while the bucketed layout resolves the
// candidate set from one 64-byte metadata line — the ≥1.2× ratio
// scripts/check_wsaf_lookup.sh gates on. Built once per layout and reused
// across benchmark repetitions (the fill alone touches ~7.5M slots).
struct WsafLookupWorkload {
  std::unique_ptr<core::WsafTable> table;
  std::vector<netio::FlowKey> keys;
  std::vector<std::uint64_t> hashes;
  core::WsafLayout layout{};
};

WsafLookupWorkload& wsaf_lookup_workload(core::WsafLayout layout) {
  static WsafLookupWorkload w;
  if (w.table == nullptr || w.layout != layout) {
    w.table.reset();  // release the previous layout's 512 MB first
    core::WsafConfig config;
    config.log2_entries = 23;
    config.layout = layout;
    w.layout = layout;
    w.table = std::make_unique<core::WsafTable>(config);
    const std::size_t n = (std::size_t{1} << 23) / 10 * 9;
    w.keys.resize(n);
    w.hashes.resize(n);
    util::SplitMix64 seeds{7};
    std::uint64_t now = 0;
    for (std::size_t i = 0; i < n; ++i) {
      w.keys[i] = key_from(seeds());
      w.hashes[i] = w.keys[i].hash(config.seed);
      w.table->accumulate(w.keys[i], w.hashes[i], 1.0, 500.0, ++now);
    }
  }
  return w;
}

void BM_WsafLookup(benchmark::State& state) {
  auto& w = wsaf_lookup_workload(bench_layout(state));
  const std::size_t n = w.keys.size();
  std::size_t i = 0;
  for (auto _ : state) {
    if (++i == n) i = 0;
    benchmark::DoNotOptimize(w.table->lookup(w.keys[i], w.hashes[i]));
  }
  state.counters["Mpps"] = benchmark::Counter(
      static_cast<double>(state.iterations()) / 1e6,
      benchmark::Counter::kIsRate);
  state.SetLabel(to_string(w.table->config().layout));
}
BENCHMARK(BM_WsafLookup)->Arg(0)->Arg(1);

// Insert-heavy churn on the same DRAM-scale table: distinct flows streaming
// into a 2^23-slot table, hitting the free-slot scan (bitmap in kBucketed,
// slot walk in kScalarProbe) rather than the update path.
void BM_WsafInsert(benchmark::State& state) {
  core::WsafConfig config;
  config.log2_entries = 23;
  config.layout = bench_layout(state);
  core::WsafTable table{config};
  util::SplitMix64 seeds{9};
  std::uint64_t now = 0;
  for (auto _ : state) {
    const auto key = key_from(seeds());
    benchmark::DoNotOptimize(
        table.accumulate(key, key.hash(config.seed), 1.0, 500.0, ++now));
  }
  state.counters["Mpps"] = benchmark::Counter(
      static_cast<double>(state.iterations()) / 1e6,
      benchmark::Counter::kIsRate);
  state.SetLabel(to_string(config.layout));
}
BENCHMARK(BM_WsafInsert)->Arg(0)->Arg(1);

// Bounded-pause contract for online resize: a ~512 MB table (2^23 slots,
// ~90% full) mid-migration to 2^24, with every accumulate individually
// timed. Each op may migrate at most kResizeMigrateSlotsPerOp old slots, so
// the worst per-packet pause must stay bounded no matter how large the
// table is. The iteration count is pinned so the migration cursor cannot
// drain the old region (100k ops x 64 slots < 2^23): every sample below is
// taken while the resize is genuinely in flight.
// scripts/check_resize_pause.sh gates on the exported counters:
//   max_op_slots <= budget_slots (hard), p99_pause_ns <= ceiling (env).
void BM_WsafResizePause(benchmark::State& state) {
  core::WsafConfig config;
  config.log2_entries = 23;
  config.layout = bench_layout(state);
  core::WsafTable table{config};
  const std::size_t n = (std::size_t{1} << 23) / 10 * 9;
  std::vector<netio::FlowKey> keys(n);
  std::vector<std::uint64_t> hashes(n);
  util::SplitMix64 seeds{11};
  std::uint64_t now = 0;
  for (std::size_t i = 0; i < n; ++i) {
    keys[i] = key_from(seeds());
    hashes[i] = keys[i].hash(config.seed);
    table.accumulate(keys[i], hashes[i], 1.0, 500.0, ++now);
  }
  if (!table.begin_resize(24)) {
    state.SkipWithError("begin_resize(24) refused");
    return;
  }
  std::vector<std::uint64_t> pause_ns;
  pause_ns.reserve(200'000);
  std::size_t i = 0;
  for (auto _ : state) {
    if (++i == n) i = 0;
    const auto t0 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(
        table.accumulate(keys[i], hashes[i], 1.0, 500.0, ++now));
    const auto t1 = std::chrono::steady_clock::now();
    pause_ns.push_back(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count()));
  }
  if (!table.resizing()) {
    state.SkipWithError("migration drained before sampling finished");
    return;
  }
  std::sort(pause_ns.begin(), pause_ns.end());
  const auto rs = table.resize_stats();
  state.counters["p99_pause_ns"] = static_cast<double>(
      pause_ns[pause_ns.size() - 1 - pause_ns.size() / 100]);
  state.counters["max_pause_ns"] = static_cast<double>(pause_ns.back());
  state.counters["max_op_slots"] = static_cast<double>(rs.max_op_slots);
  state.counters["budget_slots"] =
      static_cast<double>(core::WsafTable::kResizeMigrateSlotsPerOp);
  state.counters["migrated"] = static_cast<double>(rs.entries_migrated);
  state.SetLabel(to_string(config.layout));
}
BENCHMARK(BM_WsafResizePause)->Arg(0)->Arg(1)->Iterations(100'000);

// View publishing on the paper's 2^22-slot WSAF (~256 MB of entries) at two
// loads: sparse (~0.03 %, the ~1,300 live flows of imbench's `attack`
// workload) and dense (~50 %). fill_view() walks the occupancy bitmap
// (512 KiB) and copies only live entries, so the sparse row shows the
// bitmap-walk floor and the dense row the per-entry copy cost. Reports
// time per view (us) and live entries per view. Built once per load and
// reused across repetitions; the dense fill is ~2.1M inserts.
struct WsafFillViewWorkload {
  std::unique_ptr<core::WsafTable> table;
  std::size_t flows = 0;
};

WsafFillViewWorkload& wsaf_fill_view_workload(std::size_t flows) {
  static WsafFillViewWorkload w;
  if (w.table == nullptr || w.flows != flows) {
    w.table.reset();  // release the previous load's table first
    core::WsafConfig config;
    config.log2_entries = 22;
    w.table = std::make_unique<core::WsafTable>(config);
    w.flows = flows;
    util::SplitMix64 seeds{13};
    std::uint64_t now = 0;
    for (std::size_t i = 0; i < flows; ++i) {
      const auto key = key_from(seeds());
      w.table->accumulate(key, key.hash(config.seed), 1.0, 500.0, ++now);
    }
  }
  return w;
}

void BM_WsafFillView(benchmark::State& state) {
  auto& w = wsaf_fill_view_workload(static_cast<std::size_t>(state.range(0)));
  core::WsafView view;
  for (auto _ : state) {
    w.table->fill_view(view);
    benchmark::DoNotOptimize(view.entries.data());
    benchmark::ClobberMemory();
  }
  state.counters["live"] = static_cast<double>(view.entries.size());
  state.counters["load"] = w.table->load_factor();
  state.SetLabel(w.flows * 100 < w.table->slot_count() ? "sparse" : "dense");
}
BENCHMARK(BM_WsafFillView)
    ->Arg(1'300)
    ->Arg(std::int64_t{1} << 21)
    ->Unit(benchmark::kMicrosecond);

// -------------------------------------------------------- engine fast path
//
// The engine benchmarks share one DRAM-resident workload: a 512 MB L1
// sketch hit by 2^23 distinct flows in random order, so each packet's
// sketch word (and its last_len sample) is a likely LLC miss — the regime
// the paper's in-DRAM design targets and the one where the batched
// prefetch pipeline earns its keep. The sketch is deliberately sized far
// past server LLCs (build hosts report up to ~260 MB of L3): a cache-hot
// microloop would hide the entire memory stall the batch path exists to
// overlap. All engine variants use the same workload so their Mpps
// counters stay directly comparable.

constexpr std::size_t kEnginePoolSize = 1 << 23;
constexpr std::size_t kEnginePoolMask = kEnginePoolSize - 1;

core::EngineConfig engine_bench_config() {
  core::EngineConfig config;
  config.regulator.l1_memory_bytes = 512 * 1024 * 1024;
  config.wsaf.log2_entries = 20;
  return config;
}

std::vector<netio::PacketRecord> engine_bench_packets() {
  util::SplitMix64 seeds{4};
  std::vector<netio::PacketRecord> packets(kEnginePoolSize);
  for (auto& p : packets) {
    p.key = key_from(seeds());
    p.wire_len = 500;
  }
  return packets;
}

void BM_EngineProcess(benchmark::State& state) {
  core::InstaMeasure engine{engine_bench_config()};
  auto packets = engine_bench_packets();
  std::size_t i = 0;
  std::uint64_t now = 0;
  for (auto _ : state) {
    auto& p = packets[++i & kEnginePoolMask];
    p.timestamp_ns = ++now;
    engine.process(p);
  }
  state.counters["Mpps"] = benchmark::Counter(
      static_cast<double>(state.iterations()) / 1e6,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EngineProcess);

// The batched pipeline over the same workload: one iteration = one batch
// of Arg(0) packets (hash precompute, distance-K regulator prefetch,
// deferred WSAF drain). Compare the Mpps counter against BM_EngineProcess;
// the acceptance floor for batch=32 is 1.3x (scripts/check_batch_speedup.sh
// gates CI at batch >= 0.95x scalar as a regression tripwire).
void BM_EngineProcessBatch(benchmark::State& state) {
  core::InstaMeasure engine{engine_bench_config()};
  auto packets = engine_bench_packets();
  const auto batch = static_cast<std::size_t>(state.range(0));
  std::size_t off = 0;
  std::uint64_t now = 0;
  for (auto _ : state) {
    const std::span<netio::PacketRecord> slice{&packets[off], batch};
    for (auto& p : slice) p.timestamp_ns = ++now;
    engine.process_batch(slice);
    off = (off + batch) & kEnginePoolMask;
  }
  state.counters["Mpps"] = benchmark::Counter(
      static_cast<double>(state.iterations() * batch) / 1e6,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EngineProcessBatch)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

// The batched pipeline (batch = 32) with the live query plane publishing
// at its default auto cadence — the full data-plane cost of keeping the
// WSAF queryable while it is written. The acceptance budget is <2% below
// BM_EngineProcessBatch/32 (scripts/check_query_overhead.sh gates CI at
// published >= 0.98x unpublished).
void BM_EngineProcessBatchPublished(benchmark::State& state) {
  auto config = engine_bench_config();
  config.publish_views = true;  // cadence: auto = max(2^16, slots * 8)
  core::InstaMeasure engine{config};
  auto packets = engine_bench_packets();
  constexpr std::size_t kBatch = 32;
  std::size_t off = 0;
  std::uint64_t now = 0;
  for (auto _ : state) {
    const std::span<netio::PacketRecord> slice{&packets[off], kBatch};
    for (auto& p : slice) p.timestamp_ns = ++now;
    engine.process_batch(slice);
    off = (off + kBatch) & kEnginePoolMask;
  }
  state.counters["Mpps"] = benchmark::Counter(
      static_cast<double>(state.iterations() * kBatch) / 1e6,
      benchmark::Counter::kIsRate);
  state.counters["views"] = benchmark::Counter(
      static_cast<double>(engine.view_publisher()->publishes()));
}
BENCHMARK(BM_EngineProcessBatchPublished);

// The batched pipeline (batch = 32) with the live accuracy-audit plane on
// at its default 1/256 sampling — per packet that is one extra key hash +
// mask reject, plus shadow accounting on the sampled slice. The acceptance
// budget is <3% below BM_EngineProcessBatch/32
// (scripts/check_audit_overhead.sh gates CI at audited >= 0.97x plain).
void BM_EngineProcessBatchAudited(benchmark::State& state) {
  auto config = engine_bench_config();
  config.enable_audit = true;
  core::InstaMeasure engine{config};
  auto packets = engine_bench_packets();
  constexpr std::size_t kBatch = 32;
  std::size_t off = 0;
  std::uint64_t now = 0;
  for (auto _ : state) {
    const std::span<netio::PacketRecord> slice{&packets[off], kBatch};
    for (auto& p : slice) p.timestamp_ns = ++now;
    engine.process_batch(slice);
    off = (off + kBatch) & kEnginePoolMask;
  }
  state.counters["Mpps"] = benchmark::Counter(
      static_cast<double>(state.iterations() * kBatch) / 1e6,
      benchmark::Counter::kIsRate);
  if (const auto* auditor = engine.auditor()) {
    state.counters["shadow_flows"] = benchmark::Counter(
        static_cast<double>(auditor->shadow_flows()));
  }
}
BENCHMARK(BM_EngineProcessBatchAudited);

// Same fast path with every metric exported to a registry and detection
// enabled — the full observability cost. The delta vs BM_EngineProcess is
// what a scraped deployment pays per packet (<3% is the budget).
void BM_EngineProcessWithRegistry(benchmark::State& state) {
  telemetry::Registry registry;
  auto config = engine_bench_config();
  config.heavy_hitter.packet_threshold = 10'000;
  config.registry = &registry;
  core::InstaMeasure engine{config};
  auto packets = engine_bench_packets();
  std::size_t i = 0;
  std::uint64_t now = 0;
  for (auto _ : state) {
    auto& p = packets[++i & kEnginePoolMask];
    p.timestamp_ns = ++now;
    engine.process(p);
  }
  state.counters["Mpps"] = benchmark::Counter(
      static_cast<double>(state.iterations()) / 1e6,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EngineProcessWithRegistry);

// Fast path with a flight recorder ATTACHED but every kind masked off —
// the hook cost a deployment pays for keeping the recorder armed (one
// branch + one relaxed mask load per instrumented site). The acceptance
// budget is <=3% over BM_EngineProcess; compare the Mpps counters.
void BM_EngineProcessTraced(benchmark::State& state) {
  telemetry::TraceConfig trace_config;
  trace_config.kind_mask = 0;  // armed, sampling nothing
  telemetry::TraceRecorder recorder{trace_config};
  auto config = engine_bench_config();
  config.trace = &recorder;
  core::InstaMeasure engine{config};
  auto packets = engine_bench_packets();
  std::size_t i = 0;
  std::uint64_t now = 0;
  for (auto _ : state) {
    auto& p = packets[++i & kEnginePoolMask];
    p.timestamp_ns = ++now;
    engine.process(p);
  }
  state.counters["Mpps"] = benchmark::Counter(
      static_cast<double>(state.iterations()) / 1e6,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EngineProcessTraced);

void BM_CountMinAdd(benchmark::State& state) {
  sketch::CountMinSketch cm{sketch::CountMinConfig{1 << 16, 4, 1}};
  std::uint64_t i = 0;
  for (auto _ : state) cm.add(util::mix64(++i));
  benchmark::DoNotOptimize(cm.total());
}
BENCHMARK(BM_CountMinAdd);

void BM_CsmAdd(benchmark::State& state) {
  sketch::CsmSketch csm{sketch::CsmConfig{1 << 22, 16, 1}};
  std::uint64_t i = 0;
  for (auto _ : state) csm.add(util::mix64(++i));
  benchmark::DoNotOptimize(csm.total());
}
BENCHMARK(BM_CsmAdd);

void BM_CsmDecode(benchmark::State& state) {
  sketch::CsmSketch csm{sketch::CsmConfig{1 << 22, 16, 1}};
  util::SplitMix64 keys{5};
  for (int i = 0; i < 1'000'000; ++i) csm.add(keys());
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(csm.estimate(util::mix64(++i)));
  }
}
BENCHMARK(BM_CsmDecode);

void BM_CounterTreeAdd(benchmark::State& state) {
  sketch::CounterTree tree{sketch::CounterTreeConfig{1 << 20, 4, 8, 1}};
  std::uint64_t i = 0;
  for (auto _ : state) tree.add(util::mix64(++i));
  benchmark::DoNotOptimize(tree.total());
}
BENCHMARK(BM_CounterTreeAdd);

void BM_SpscBurstRoundTrip(benchmark::State& state) {
  runtime::SpscQueue<std::uint64_t> q{1024};
  std::array<std::uint64_t, 32> burst{};
  for (std::size_t i = 0; i < burst.size(); ++i) burst[i] = i;
  for (auto _ : state) {
    benchmark::DoNotOptimize(q.try_push_burst(std::span{burst}));
    benchmark::DoNotOptimize(q.try_pop_burst(std::span{burst}));
  }
  state.SetItemsProcessed(state.iterations() * 32);
}
BENCHMARK(BM_SpscBurstRoundTrip);

// Producer and consumer on separate threads hammering one queue — the
// configuration whose throughput craters (multi-x) if the head/tail index
// fields ever share a cache line. Pairs with the SpscQueueLayout test:
// that asserts the layout, this measures what the layout buys.
void BM_SpscCrossThread(benchmark::State& state) {
  constexpr std::uint64_t kN = 1 << 20;
  for (auto _ : state) {
    runtime::SpscQueue<std::uint64_t> q{1024};
    std::thread producer([&q] {
      std::array<std::uint64_t, 32> burst{};
      std::uint64_t next = 0;
      while (next < kN) {
        const auto m = std::min<std::uint64_t>(burst.size(), kN - next);
        for (std::uint64_t i = 0; i < m; ++i) burst[i] = next + i;
        std::uint64_t pushed = 0;
        while (pushed < m) {
          pushed += q.try_push_burst(std::span{
              burst.data() + pushed, static_cast<std::size_t>(m - pushed)});
        }
        next += m;
      }
    });
    std::array<std::uint64_t, 32> out{};
    std::uint64_t popped = 0, sum = 0;
    while (popped < kN) {
      const auto n = q.try_pop_burst(std::span{out});
      for (std::size_t i = 0; i < n; ++i) sum += out[i];
      popped += n;
    }
    producer.join();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * kN));
}
BENCHMARK(BM_SpscCrossThread)->Unit(benchmark::kMillisecond);

void BM_FrameEncode(benchmark::State& state) {
  const auto key = key_from(0x1234567890ULL);
  for (auto _ : state) {
    benchmark::DoNotOptimize(netio::encode_frame(key, 500));
  }
}
BENCHMARK(BM_FrameEncode);

void BM_FrameDecode(benchmark::State& state) {
  const auto frame = netio::encode_frame(key_from(0xABCDEF), 500);
  for (auto _ : state) {
    benchmark::DoNotOptimize(netio::decode_frame(frame));
  }
}
BENCHMARK(BM_FrameDecode);

}  // namespace

BENCHMARK_MAIN();
