#include "ledger.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <unordered_map>
#include <utility>

#include "util/stats.h"

namespace imbench {

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::optional<double> percentile(std::vector<double> samples, double q) {
  const auto n = static_cast<double>(samples.size());
  if (samples.empty() || q <= 0 || q >= 1 || n * (1.0 - q) < 10.0 - 1e-9) {
    return std::nullopt;
  }
  return instameasure::util::percentile(std::move(samples), q);
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const auto n = samples.size();
  return n % 2 ? samples[n / 2] : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

std::int64_t SpanLog::open(const char* name, std::uint32_t pass) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.pass = pass;
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.start_ns = now_ns();
  spans_.push_back(std::move(s));
  const auto id = static_cast<std::int64_t>(spans_.size() - 1);
  stack_.push_back(id);
  return id;
}

void SpanLog::close(std::int64_t id, std::uint64_t calls) {
  if (id < 0) return;
  auto& s = spans_[static_cast<std::size_t>(id)];
  s.end_ns = now_ns();
  s.calls = calls;
  // Spans close innermost-first; tolerate an out-of-order close by
  // unwinding to it.
  while (!stack_.empty()) {
    const auto top = stack_.back();
    stack_.pop_back();
    if (top == id) break;
  }
}

std::int64_t SpanLog::add(Span span) {
  if (!enabled_) return -1;
  if (span.parent < 0 && !stack_.empty()) span.parent = stack_.back();
  spans_.push_back(std::move(span));
  return static_cast<std::int64_t>(spans_.size() - 1);
}

void SpanLog::merge(const SpanLog& other, std::int64_t parent) {
  if (!enabled_) return;
  const auto base = static_cast<std::int64_t>(spans_.size());
  for (auto s : other.spans_) {
    s.parent = s.parent < 0 ? parent : s.parent + base;
    spans_.push_back(std::move(s));
  }
}

std::vector<std::uint64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto p = spans[i].parent;
    if (p >= 0 && static_cast<std::size_t>(p) < spans.size()) {
      children[static_cast<std::size_t>(p)].push_back(i);
    }
  }
  std::vector<std::uint64_t> out(spans.size(), 0);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> iv;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    const auto dur = s.end_ns > s.start_ns ? s.end_ns - s.start_ns : 0;
    iv.clear();
    for (const auto c : children[i]) {
      // Only the part of a child inside the parent's interval counts.
      const auto lo = std::max(spans[c].start_ns, s.start_ns);
      const auto hi = std::min(spans[c].end_ns, s.end_ns);
      if (hi > lo) iv.emplace_back(lo, hi);
    }
    std::sort(iv.begin(), iv.end());
    std::uint64_t covered = 0;
    std::uint64_t cur_lo = 0;
    std::uint64_t cur_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    out[i] = dur - std::min(dur, covered);
  }
  return out;
}

std::vector<SelfTimeRow> self_time_by_name(const std::vector<Span>& spans) {
  const auto self = self_times(spans);
  std::vector<SelfTimeRow> rows;
  std::unordered_map<std::string, std::size_t> index;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    auto [it, fresh] = index.try_emplace(s.name, rows.size());
    if (fresh) rows.push_back(SelfTimeRow{s.name});
    auto& row = rows[it->second];
    ++row.spans;
    row.calls += s.calls;
    row.total_ms +=
        static_cast<double>(s.end_ns > s.start_ns ? s.end_ns - s.start_ns : 0) /
        1e6;
    row.self_ms += static_cast<double>(self[i]) / 1e6;
  }
  return rows;
}

TimedSource::TimedSource(instameasure::netio::PacketSource& inner,
                         std::uint64_t first_timestamp_ns, bool paced,
                         double speed, SpanLog* spans, std::uint32_t pass,
                         Clock clock)
    : inner_(inner),
      first_ts_(first_timestamp_ns),
      paced_(paced),
      speed_(speed > 0 ? speed : 1.0),
      spans_(spans),
      pass_(pass),
      clock_(clock) {}

std::uint64_t TimedSource::due_ns(std::uint64_t ts) const noexcept {
  const auto offset = ts > first_ts_ ? ts - first_ts_ : 0;
  return start_ns_ + static_cast<std::uint64_t>(
                         static_cast<double>(offset) / speed_);
}

std::size_t TimedSource::next_burst(
    std::span<instameasure::netio::PacketRecord> out) {
  const auto t0 = clock_();
  if (pulls_ == 0) start_ns_ = t0;
  const auto got = inner_.next_burst(out);
  const auto t1 = clock_();
  ++pulls_;
  records_ += got;
  pull_ns_ += t1 - t0;
  if (got > 0) {
    if (paced_) {
      const auto due = due_ns(out[0].timestamp_ns);
      late_ns_.push_back(static_cast<double>(t1) - static_cast<double>(due));
    }
    // A paced source delivers a record or two per pull; its bursts are
    // accounted by lateness instead of one span each.
    if (!paced_ && spans_ != nullptr && spans_->enabled()) {
      Span s;
      s.name = "netio.next_burst";
      s.start_ns = t0;
      s.end_ns = t1;
      s.pass = pass_;
      s.calls = got;
      spans_->add(std::move(s));
    }
  }
  return got;
}

void Gate::check(bool ok, const std::string& name, const std::string& detail) {
  ++checks_;
  if (!ok) failures_.push_back(name + ": " + detail);
}

void check_run_accounting(Gate& gate, const std::string& where,
                          const instameasure::runtime::RunStats& stats,
                          std::uint64_t source_received,
                          std::uint64_t expected_records) {
  gate.check(stats.packets == stats.processed + stats.dropped + stats.shed,
             "accounting", where + " offered " + std::to_string(stats.packets) +
                               " != processed " +
                               std::to_string(stats.processed) + " + dropped " +
                               std::to_string(stats.dropped) + " + shed " +
                               std::to_string(stats.shed));
  gate.check(source_received == expected_records, "source_received",
             where + " ReplaySource received " +
                 std::to_string(source_received) + " of " +
                 std::to_string(expected_records) + " trace records");
}

void check_estimate(Gate& gate, const std::string& where, double packets,
                    double bytes) {
  const bool ok = std::isfinite(packets) && std::isfinite(bytes) &&
                  packets >= 0 && bytes >= 0;
  // Called per flow: the message is built only for a failure.
  gate.check(ok, "estimate_finite",
             ok ? std::string{}
                : where + " estimate packets=" + std::to_string(packets) +
                      " bytes=" + std::to_string(bytes));
}

bool same_value(double a, double b, double rel_tol) noexcept {
  if (!std::isfinite(a) || !std::isfinite(b)) return false;
  return std::abs(a - b) <= rel_tol * std::max({1e-300, std::abs(a), std::abs(b)});
}

}  // namespace imbench
