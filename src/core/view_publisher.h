// ViewPublisher: the data-plane side of the live query plane.
//
// Owned by whoever owns a WsafTable shard (a MultiCoreEngine worker, or a
// single-threaded caller driving the scalar engine). Between packets it
// decides — by packet count and/or trace time — when a fresh WsafView is
// due, fills one of its SnapshotChannel's spare buffers straight from the
// table, and commits it for readers. All of that happens on the writer
// thread: the table itself is never touched by readers, and the publisher
// never blocks on them (a fully reader-pinned channel skips the publish).
//
// Cadence: publishing walks the table's occupancy bitmap (slots/64 words,
// cache-resident) and copies the live entries — O(slots/64 + live), one
// entry-line miss per live flow; under 0.2 ms for 1,300 flows in a
// 2^22-slot table (BM_WsafFillView). The default (publish_every_packets =
// 0 → auto) spaces publishes at least max(2^16, slots * 8) accumulated
// packets apart. That bound was sized for a scan that read every slot; it
// is deliberately left as it is, because a dense table still copies up to
// `slots` entries per view, so the bound keeps the copy under ~2% of
// packet-processing time at any load. Dashboards that want wall-clock
// freshness on sparse traffic add publish_every_ns (trace time), checked
// on the same per-packet tick.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>

#include "core/snapshot_channel.h"
#include "core/wsaf_table.h"
#include "core/wsaf_view.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace instameasure::core {

struct ViewPublishConfig {
  /// Publish after this many offered packets. 0 = auto: max(2^16,
  /// table slots * 8), sized so a full table's copy stays <2% of throughput.
  std::uint64_t publish_every_packets = 0;
  /// Additionally publish when this much trace time (ns) has elapsed since
  /// the last publish. 0 disables the time trigger.
  std::uint64_t publish_every_ns = 0;
  unsigned shard = 0;
  telemetry::Registry* registry = nullptr;
  telemetry::Labels labels{};
  telemetry::TraceRecorder* trace = nullptr;
  unsigned trace_track = 0;
};

class ViewPublisher {
 public:
  ViewPublisher() : ViewPublisher(ViewPublishConfig{}) {}
  explicit ViewPublisher(const ViewPublishConfig& config) : config_(config) {
    if (config.registry != nullptr) {
      auto& reg = *config.registry;
      tel_publishes_ = reg.counter("im_query_publishes_total",
                                   "WSAF views published to the query plane",
                                   config.labels);
      tel_skipped_ = reg.counter(
          "im_query_publish_skipped_total",
          "Publishes skipped because readers pinned every spare buffer",
          config.labels);
    }
  }

  ViewPublisher(const ViewPublisher&) = delete;
  ViewPublisher& operator=(const ViewPublisher&) = delete;

  /// Reader endpoint to hand to a QueryEngine. Stable for the publisher's
  /// lifetime.
  [[nodiscard]] const SnapshotChannel& channel() const noexcept {
    return channel_;
  }

  /// Writer-thread tick: note `packets` more packets offered (trace time
  /// `now_ns`) and publish if a cadence trigger fired. Returns true when a
  /// view was committed. `Table` is anything with fill_view(view, now_ns)
  /// and slot_count() — a WsafTable shard or a SharedWsaf.
  template <typename Table>
  bool maybe_publish(Table& table, std::uint64_t now_ns,
                     std::uint64_t packets = 1) {
    packets_since_ += packets;
    const std::uint64_t every = effective_every_packets(table);
    const bool packet_due = packets_since_ >= every;
    const bool time_due = config_.publish_every_ns != 0 && published_once_ &&
                          now_ns >= last_publish_ns_ + config_.publish_every_ns;
    const bool first_due = config_.publish_every_ns != 0 && !published_once_;
    if (!packet_due && !time_due && !first_due) return false;
    return publish_now(table, now_ns);
  }

  /// Writer-thread: publish unconditionally (end-of-run drain, dashboard
  /// refresh). Returns false only when every spare buffer was reader-pinned
  /// (the skip is counted; the data plane moves on).
  template <typename Table>
  bool publish_now(Table& table, std::uint64_t now_ns) {
    packets_since_ = 0;
    last_publish_ns_ = now_ns;
    published_once_ = true;
    WsafView* view = channel_.begin_publish();
    if (view == nullptr) {
      tel_skipped_.inc();
      return false;
    }
    table.fill_view(*view, now_ns);
    view->shard = config_.shard;
    view->publish_wall_ns = steady_now_ns();
    channel_.commit();
    tel_publishes_.inc();
    if constexpr (telemetry::kEnabled) {
      if (config_.trace != nullptr) {
        config_.trace->emit(config_.trace_track,
                            telemetry::TraceEventKind::kViewPublish,
                            /*flow_hash=*/0,
                            static_cast<double>(view->entries.size()),
                            config_.shard);
      }
    }
    return true;
  }

  [[nodiscard]] std::uint64_t publishes() const noexcept {
    return channel_.version();
  }
  [[nodiscard]] std::uint64_t skipped_publishes() const noexcept {
    return channel_.skipped_publishes();
  }
  [[nodiscard]] const ViewPublishConfig& config() const noexcept {
    return config_;
  }

  /// The packet cadence actually in force against `table` (resolves auto).
  /// Uses the CURRENT physical slot count, so the cadence tracks an online
  /// resize instead of the construction-time geometry.
  template <typename Table>
  [[nodiscard]] std::uint64_t effective_every_packets(
      const Table& table) const noexcept {
    if (config_.publish_every_packets != 0) {
      return config_.publish_every_packets;
    }
    return std::max<std::uint64_t>(std::uint64_t{1} << 16,
                                   std::uint64_t{table.slot_count()} * 8);
  }

  [[nodiscard]] static std::uint64_t steady_now_ns() noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

 private:
  ViewPublishConfig config_;
  SnapshotChannel channel_;
  std::uint64_t packets_since_ = 0;
  std::uint64_t last_publish_ns_ = 0;
  bool published_once_ = false;
  telemetry::Counter tel_publishes_;
  telemetry::Counter tel_skipped_;
};

}  // namespace instameasure::core
