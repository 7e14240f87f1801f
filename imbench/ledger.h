// The benchmark's own arithmetic: the percentile rule, spans and their
// self times, the timing source wrapper, the layer residual and the
// correctness gate. Everything here is benchmark-side; the engine under
// test is only ever called through its public API.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "netio/source.h"
#include "runtime/multicore.h"

namespace imbench {

[[nodiscard]] std::uint64_t now_ns() noexcept;

/// `util::percentile` of `samples` at `q` (0 < q < 1), reported only when
/// at least ten samples lie beyond it: n * (1 - q) >= 10. So p50 needs 20
/// samples, p90 needs 100 and p99 needs 1000; below that the result is
/// nullopt and the caller reports the metric as unavailable.
[[nodiscard]] std::optional<double> percentile(std::vector<double> samples,
                                               double q);

/// Plain median (no tail rule): the middle of a handful of pass timings.
[[nodiscard]] double median(std::vector<double> samples);

/// The part of the engine's per-packet time the isolated regulator and
/// WSAF loops do not explain. Signed: a negative residual means the
/// isolated loops cost more than the engine's own pipeline.
[[nodiscard]] constexpr double layer_residual(double engine_ns,
                                              double regulator_ns,
                                              double wsaf_ns) noexcept {
  return engine_ns - regulator_ns - wsaf_ns;
}

/// One timed interval at a layer boundary. Times are steady-clock ns.
struct Span {
  const char* name = "";  ///< a string literal: recording never allocates
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int64_t parent = -1;  ///< index of the enclosing span, -1 = root
  std::uint32_t pass = 0;    ///< which measurement pass the span belongs to
  std::uint64_t calls = 1;   ///< operations the span covers (loops > 1)
};

/// In-memory span log. Disabled recorders cost one branch per call, so the
/// untraced run times exactly the same code. Single-threaded except where
/// a caller keeps its own recorder per thread and merges afterwards.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Open a span under the innermost open one; returns its id (-1 when
  /// disabled).
  std::int64_t open(const char* name, std::uint32_t pass);
  void close(std::int64_t id, std::uint64_t calls = 1);
  /// Record a finished span directly (timings taken by the caller).
  std::int64_t add(Span span);
  /// Append another thread's log, re-rooting its roots under `parent`.
  void merge(const SpanLog& other, std::int64_t parent);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::int64_t> stack_;
};

/// RAII guard for SpanLog::open/close.
class SpanScope {
 public:
  SpanScope(SpanLog& log, const char* name, std::uint32_t pass)
      : log_(log), id_(log.open(name, pass)) {}
  ~SpanScope() { log_.close(id_, calls_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  void set_calls(std::uint64_t calls) noexcept { calls_ = calls; }

 private:
  SpanLog& log_;
  std::int64_t id_;
  std::uint64_t calls_ = 1;
};

/// Per-span self time: its duration minus the part of its interval that
/// its children's intervals cover (overlapping children count once).
[[nodiscard]] std::vector<std::uint64_t> self_times(
    const std::vector<Span>& spans);

struct SelfTimeRow {
  std::string name;
  std::uint64_t spans = 0;
  std::uint64_t calls = 0;
  double total_ms = 0;
  double self_ms = 0;
};
/// Self and total time summed per span name, in first-seen order.
[[nodiscard]] std::vector<SelfTimeRow> self_time_by_name(
    const std::vector<Span>& spans);

/// PacketSource wrapper that times every next_burst call of the wrapped
/// source and, when `paced`, measures how late each burst was delivered:
/// wall time at delivery minus the due time of the burst's first record,
/// where due = start + (timestamp - first timestamp) / speed and start is
/// the instant of the first pull (the same instant a paced ReplaySource
/// anchors its schedule to).
class TimedSource final : public instameasure::netio::PacketSource {
 public:
  using Clock = std::uint64_t (*)();

  TimedSource(instameasure::netio::PacketSource& inner,
              std::uint64_t first_timestamp_ns, bool paced, double speed,
              SpanLog* spans = nullptr, std::uint32_t pass = 0,
              Clock clock = &now_ns);

  [[nodiscard]] std::size_t next_burst(
      std::span<instameasure::netio::PacketRecord> out) override;
  [[nodiscard]] bool exhausted() const noexcept override {
    return inner_.exhausted();
  }
  [[nodiscard]] instameasure::netio::SourceStats stats() const noexcept override {
    return inner_.stats();
  }
  [[nodiscard]] const char* kind() const noexcept override {
    return inner_.kind();
  }

  [[nodiscard]] std::uint64_t pulls() const noexcept { return pulls_; }
  [[nodiscard]] std::uint64_t records() const noexcept { return records_; }
  [[nodiscard]] std::uint64_t pull_ns() const noexcept { return pull_ns_; }
  /// Lateness of every delivered burst, in ns (paced sources only).
  [[nodiscard]] const std::vector<double>& late_ns() const noexcept {
    return late_ns_;
  }
  /// Wall-clock instant a record with trace time `ts` was due (paced).
  [[nodiscard]] std::uint64_t due_ns(std::uint64_t ts) const noexcept;

 private:
  instameasure::netio::PacketSource& inner_;
  std::uint64_t first_ts_;
  bool paced_;
  double speed_;
  SpanLog* spans_;
  std::uint32_t pass_;
  Clock clock_;
  std::uint64_t start_ns_ = 0;
  std::uint64_t pulls_ = 0;
  std::uint64_t records_ = 0;
  std::uint64_t pull_ns_ = 0;
  std::vector<double> late_ns_;
};

/// The correctness gate: every check is named; a failed one makes the run
/// exit non-zero and print no metrics.
class Gate {
 public:
  /// Record one check; `name` identifies it in the failure report.
  void check(bool ok, const std::string& name, const std::string& detail);
  [[nodiscard]] bool passed() const noexcept { return failures_.empty(); }
  [[nodiscard]] const std::vector<std::string>& failures() const noexcept {
    return failures_;
  }
  [[nodiscard]] std::uint64_t checks() const noexcept { return checks_; }

 private:
  std::vector<std::string> failures_;
  std::uint64_t checks_ = 0;
};

/// offered == processed + dropped + shed for one run_source run, and the
/// source delivered exactly `expected_records` (the trace size).
void check_run_accounting(Gate& gate, const std::string& where,
                          const instameasure::runtime::RunStats& stats,
                          std::uint64_t source_received,
                          std::uint64_t expected_records);

/// Every estimate finite and >= 0.
void check_estimate(Gate& gate, const std::string& where, double packets,
                    double bytes);

/// Relative equality used for the audit-equals-offline invariant: the two
/// sides sum the same terms in different orders.
[[nodiscard]] bool same_value(double a, double b,
                              double rel_tol = 1e-9) noexcept;

}  // namespace imbench
