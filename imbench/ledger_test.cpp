// Tests of the benchmark's own arithmetic: the percentile rule, span self
// times, due-time lateness in the timing source wrapper, the signed layer
// residual, and the correctness gate failing loudly on a broken invariant.
#include "ledger.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

namespace imbench {
namespace {

using instameasure::netio::PacketRecord;

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(Percentile, ReportedOnlyWithTenSamplesBeyond) {
  EXPECT_FALSE(percentile(one_to(99), 0.9).has_value());
  ASSERT_TRUE(percentile(one_to(100), 0.9).has_value());
  EXPECT_DOUBLE_EQ(*percentile(one_to(100), 0.9), 90.0);

  EXPECT_FALSE(percentile(one_to(19), 0.5).has_value());
  ASSERT_TRUE(percentile(one_to(20), 0.5).has_value());
  EXPECT_DOUBLE_EQ(*percentile(one_to(20), 0.5), 11.0);  // rank round(q(n-1))

  EXPECT_FALSE(percentile(one_to(999), 0.99).has_value());
  ASSERT_TRUE(percentile(one_to(1000), 0.99).has_value());
  EXPECT_DOUBLE_EQ(*percentile(one_to(1000), 0.99), 990.0);

  EXPECT_FALSE(percentile({}, 0.5).has_value());
  EXPECT_FALSE(percentile(one_to(1000), 1.0).has_value());
}

TEST(Percentile, MedianOfPasses) {
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(Spans, SelfTimeSubtractsNestedChildrenOnce) {
  std::vector<Span> s;
  s.push_back({"parent", 0, 100, -1, 1, 1});
  s.push_back({"a", 10, 30, 0, 1, 1});
  s.push_back({"b", 25, 50, 0, 1, 1});     // overlaps a: 10..50 covered once
  s.push_back({"leaf", 12, 20, 1, 1, 1});  // nested in a
  s.push_back({"late", 90, 120, 0, 1, 1}); // sticks out: only 90..100 counts
  const auto self = self_times(s);
  EXPECT_EQ(self[0], 100u - 40u - 10u);
  EXPECT_EQ(self[1], 20u - 8u);
  EXPECT_EQ(self[2], 25u);
  EXPECT_EQ(self[3], 8u);
  EXPECT_EQ(self[4], 30u);

  const auto rows = self_time_by_name(s);
  ASSERT_EQ(rows.size(), 5u);
  EXPECT_EQ(rows[0].name, "parent");
  EXPECT_DOUBLE_EQ(rows[0].self_ms, 50e-6);
  EXPECT_DOUBLE_EQ(rows[0].total_ms, 100e-6);
}

TEST(Spans, LogNestsOpensAndMergesOtherThreads) {
  SpanLog log{true};
  const auto outer = log.open("outer", 7);
  const auto inner = log.open("inner", 7);
  log.add(Span{"leaf", 1, 2, -1, 7, 64});
  log.close(inner, 3);
  log.close(outer);
  ASSERT_EQ(log.spans().size(), 3u);
  EXPECT_EQ(log.spans()[1].parent, outer);
  EXPECT_EQ(log.spans()[2].parent, inner);
  EXPECT_EQ(log.spans()[1].calls, 3u);
  EXPECT_EQ(log.spans()[2].calls, 64u);

  SpanLog other{true};
  other.add(Span{"poll", 5, 6, -1, 7, 1});
  other.add(Span{"child", 5, 6, 0, 7, 1});
  log.merge(other, outer);
  ASSERT_EQ(log.spans().size(), 5u);
  EXPECT_EQ(log.spans()[3].parent, outer);
  EXPECT_EQ(log.spans()[4].parent, 3);

  SpanLog off{false};
  EXPECT_EQ(off.open("x", 1), -1);
  off.close(-1);
  EXPECT_TRUE(off.spans().empty());
}

// A scripted clock and source for the wrapper.
std::vector<std::uint64_t> g_clock;
std::size_t g_tick = 0;
std::uint64_t scripted_clock() { return g_clock.at(g_tick++); }

class ScriptedSource final : public instameasure::netio::PacketSource {
 public:
  ScriptedSource(std::vector<PacketRecord> recs, std::vector<std::size_t> bursts)
      : recs_(std::move(recs)), bursts_(std::move(bursts)) {}
  std::size_t next_burst(std::span<PacketRecord> out) override {
    const auto n = bursts_.at(call_++);
    for (std::size_t i = 0; i < n; ++i) out[i] = recs_[next_++];
    return n;
  }
  bool exhausted() const noexcept override { return next_ >= recs_.size(); }
  instameasure::netio::SourceStats stats() const noexcept override { return {}; }
  const char* kind() const noexcept override { return "scripted"; }

 private:
  std::vector<PacketRecord> recs_;
  std::vector<std::size_t> bursts_;
  std::size_t call_ = 0;
  std::size_t next_ = 0;
};

TEST(TimedSource, LatenessIsDeliveryMinusDueTimeOfFirstRecord) {
  std::vector<PacketRecord> recs(4);
  for (int i = 0; i < 4; ++i) recs[i].timestamp_ns = 5'000 + 1'000u * i;
  // Bursts: {rec0}, nothing, {rec1, rec2}, {rec3}.
  ScriptedSource inner{recs, {1, 0, 2, 1}};
  // (before, after) clock reads per pull. The first pull anchors start=100.
  g_clock = {100, 110, 300, 305, 700, 760, 1'000, 2'000};
  g_tick = 0;
  SpanLog spans{true};
  TimedSource src{inner, 5'000, /*paced=*/true, /*speed=*/2.0, &spans, 3,
                  &scripted_clock};
  std::vector<PacketRecord> out(8);
  EXPECT_EQ(src.next_burst(out), 1u);
  EXPECT_EQ(src.next_burst(out), 0u);
  EXPECT_EQ(src.next_burst(out), 2u);
  EXPECT_EQ(src.next_burst(out), 1u);
  // due = 100 + (ts - 5000) / 2: rec0 100, rec1 600, rec3 1600.
  ASSERT_EQ(src.late_ns().size(), 3u);
  EXPECT_DOUBLE_EQ(src.late_ns()[0], 110.0 - 100.0);
  EXPECT_DOUBLE_EQ(src.late_ns()[1], 760.0 - 600.0);
  EXPECT_DOUBLE_EQ(src.late_ns()[2], 2'000.0 - 1'600.0);
  EXPECT_EQ(src.due_ns(6'000), 600u);
  EXPECT_EQ(src.pulls(), 4u);
  EXPECT_EQ(src.records(), 4u);
  EXPECT_EQ(src.pull_ns(), 10u + 5u + 60u + 1'000u);
  // Paced bursts are accounted by lateness, not one span each.
  EXPECT_TRUE(spans.spans().empty());
}

TEST(TimedSource, UnpacedBurstsGetSpansAndNoLateness) {
  std::vector<PacketRecord> recs(3);
  ScriptedSource inner{recs, {2, 1}};
  g_clock = {10, 20, 30, 45};
  g_tick = 0;
  SpanLog spans{true};
  TimedSource src{inner, 0, /*paced=*/false, 1.0, &spans, 9, &scripted_clock};
  std::vector<PacketRecord> out(4);
  EXPECT_EQ(src.next_burst(out), 2u);
  EXPECT_EQ(src.next_burst(out), 1u);
  EXPECT_TRUE(src.late_ns().empty());
  ASSERT_EQ(spans.spans().size(), 2u);
  EXPECT_EQ(spans.spans()[0].calls, 2u);
  EXPECT_EQ(spans.spans()[1].start_ns, 30u);
  EXPECT_EQ(spans.spans()[1].end_ns, 45u);
  EXPECT_EQ(spans.spans()[1].pass, 9u);
}

TEST(LayerSum, ResidualIsSigned) {
  EXPECT_DOUBLE_EQ(layer_residual(90.0, 73.0, 2.0), 15.0);
  EXPECT_DOUBLE_EQ(layer_residual(50.0, 45.0, 10.0), -5.0);
  static_assert(layer_residual(3.0, 1.0, 1.0) == 1.0);
}

TEST(Gate, AccountingMismatchFailsLoudlyAndNamesTheCheck) {
  instameasure::runtime::RunStats ok;
  ok.packets = 1'000;
  ok.processed = 990;
  ok.dropped = 6;
  ok.shed = 4;
  Gate good;
  check_run_accounting(good, "pass 1", ok, 1'000, 1'000);
  EXPECT_TRUE(good.passed());
  EXPECT_EQ(good.checks(), 2u);

  auto broken = ok;
  broken.processed -= 1;  // one packet vanished
  Gate bad;
  check_run_accounting(bad, "pass 2", broken, 1'000, 1'000);
  ASSERT_FALSE(bad.passed());
  ASSERT_EQ(bad.failures().size(), 1u);
  EXPECT_EQ(bad.failures()[0].rfind("accounting: pass 2", 0), 0u)
      << bad.failures()[0];

  Gate short_source;
  check_run_accounting(short_source, "pass 3", ok, 999, 1'000);
  ASSERT_EQ(short_source.failures().size(), 1u);
  EXPECT_EQ(short_source.failures()[0].rfind("source_received", 0), 0u);
}

TEST(Gate, EstimatesMustBeFiniteAndNonNegative) {
  Gate g;
  check_estimate(g, "q", 10.0, 640.0);
  EXPECT_TRUE(g.passed());
  check_estimate(g, "q", std::numeric_limits<double>::quiet_NaN(), 1.0);
  check_estimate(g, "q", 1.0, std::numeric_limits<double>::infinity());
  check_estimate(g, "q", -0.5, 1.0);
  ASSERT_EQ(g.failures().size(), 3u);
  for (const auto& f : g.failures()) EXPECT_EQ(f.rfind("estimate_finite", 0), 0u);
}

TEST(Gate, SameValueToleratesSummationOrderOnly) {
  EXPECT_TRUE(same_value(0.1 + 0.2 + 0.3, 0.3 + 0.2 + 0.1));
  EXPECT_FALSE(same_value(0.0081, 0.0082));
  EXPECT_FALSE(same_value(std::nan(""), std::nan("")));
}

}  // namespace
}  // namespace imbench
