// Property/invariant tests for the bucketed WSAF layout's metadata
// (core/wsaf_bucket.h) and its wiring inside WsafTable.
//
// The bucketed layout is an acceleration structure over the same entry
// array the scalar walk uses; its correctness reduces to a small set of
// invariants that must hold after ANY operation sequence:
//   I1. bitmap <-> liveness: bit i of a bucket's occupied_bits is set
//       exactly when the corresponding WsafEntry is occupied;
//   I2. tag == hash-derived byte: every occupied slot's tag equals
//       WsafBucketMeta::tag_of(key.hash(seed)) (== low byte of flow_id);
//   I3. candidate masks only name tag-matching occupied slots — a lookup
//       can never dereference a tag-mismatched slot;
//   I4. SIMD and scalar-fallback mask paths agree bit-for-bit;
//   I5. (both layouts) the table-wide occupancy bitmap has bit s set
//       exactly when slots[s].occupied, in the new region and, mid-resize,
//       in the old one.
// A seeded randomized op-sequence fuzzer (insert/update/lookup/expire/
// sweep/evict-pressure/resize/save-load/reset) checks I1-I3 and I5 after
// every step; on failure it greedily shrinks the sequence and prints the
// minimal reproducer. A differential suite replays the same op mix and
// compares fill_view(), live_entries() and save() with a plain slot scan.
#include "core/wsaf_bucket.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/wsaf_table.h"
#include "core/wsaf_view.h"
#include "util/rng.h"

namespace instameasure::core {

// Declared a friend by WsafTable: exposes the raw storage to the invariant
// checker (tests only; no production code path uses this).
struct WsafTableTestPeer {
  static const std::vector<WsafEntry>& slots(const WsafTable& t) {
    return t.slots_;
  }
  static const std::vector<WsafBucketMeta>& buckets(const WsafTable& t) {
    return t.buckets_;
  }
  static const std::vector<std::uint64_t>& bits(const WsafTable& t) {
    return t.occupied_bits_;
  }
  // Old-region storage of an in-flight resize (callers check resizing()).
  static const std::vector<WsafEntry>& old_slots(const WsafTable& t) {
    return t.resize_->old_slots;
  }
  static const std::vector<WsafBucketMeta>& old_buckets(const WsafTable& t) {
    return t.resize_->old_buckets;
  }
  static const std::vector<std::uint64_t>& old_bits(const WsafTable& t) {
    return t.resize_->old_occupied_bits;
  }
  static void migrate_tick(WsafTable& t, std::uint64_t now_ns) {
    t.migrate_tick(now_ns);
  }
};

namespace {

netio::FlowKey key_n(std::uint32_t n) {
  return netio::FlowKey{n, ~n, static_cast<std::uint16_t>(n & 0xffff),
                        static_cast<std::uint16_t>((n >> 8) & 0xffff), 6};
}

WsafConfig bucketed_config(unsigned log2_entries, unsigned probe_limit,
                           std::uint64_t idle_timeout_ns) {
  WsafConfig config;
  config.log2_entries = log2_entries;
  config.probe_limit = probe_limit;
  config.layout = WsafLayout::kBucketed;
  config.idle_timeout_ns = idle_timeout_ns;
  return config;
}

// ---------------------------------------------------------------------------
// Mask-path equivalence (I4) and mask soundness (I3) on raw metadata.

TEST(WsafBucketMeta, SimdAndScalarMasksAgreeOnRandomMetadata) {
#if !defined(__SSE2__)
  GTEST_SKIP() << "no SSE2 on this target; only the scalar path exists";
#else
  util::SplitMix64 rng{0x5eed};
  for (int iter = 0; iter < 20'000; ++iter) {
    WsafBucketMeta meta{};
    for (auto& t : meta.tags) t = static_cast<std::uint8_t>(rng());
    meta.occupied_bits = static_cast<std::uint16_t>(rng());
    // Probe with a present tag half the time, a random byte otherwise.
    const auto tag = (iter & 1) != 0
                         ? meta.tags[rng() % WsafBucketMeta::kSlots]
                         : static_cast<std::uint8_t>(rng());
    ASSERT_EQ(meta.match_mask_simd(tag), meta.match_mask_scalar(tag))
        << "iter " << iter << " tag " << static_cast<int>(tag)
        << " occupied_bits " << meta.occupied_bits;
  }
#endif
}

TEST(WsafBucketMeta, MatchMaskNamesOnlyOccupiedTagMatches) {
  util::SplitMix64 rng{0xfee1};
  for (int iter = 0; iter < 20'000; ++iter) {
    WsafBucketMeta meta{};
    for (auto& t : meta.tags) t = static_cast<std::uint8_t>(rng());
    meta.occupied_bits = static_cast<std::uint16_t>(rng());
    const auto tag = static_cast<std::uint8_t>(rng());
    const auto mask = meta.match_mask(tag);
    for (std::size_t i = 0; i < WsafBucketMeta::kSlots; ++i) {
      const bool named = ((mask >> i) & 1u) != 0;
      const bool expected =
          meta.tags[i] == tag && ((meta.occupied_bits >> i) & 1u) != 0;
      ASSERT_EQ(named, expected) << "slot " << i;
    }
  }
}

TEST(WsafBucketMeta, SetClearRoundTrip) {
  WsafBucketMeta meta{};
  meta.set(3, 0xab);
  meta.set(15, 0xab);
  EXPECT_EQ(meta.match_mask(0xab), (1u << 3) | (1u << 15));
  EXPECT_EQ(meta.free_mask() & ((1u << 3) | (1u << 15)), 0u);
  meta.clear(3);
  EXPECT_EQ(meta.match_mask(0xab), 1u << 15);
  EXPECT_NE(meta.free_mask() & (1u << 3), 0u);
}

// ---------------------------------------------------------------------------
// Op-sequence fuzzer over a live table (I1-I3 bucketed, I5 both layouts),
// shrinkable. The op mix includes online resize (begin, migrate ticks,
// finish), a save/load round trip and reset, so the occupancy bitmap is
// checked across every transition that moves, rebuilds or clears it.

struct FuzzOp {
  enum Kind : int {
    kAccumulate,    // flow-keyed accumulate at the current clock
    kHotUpdate,     // re-accumulate a recently used flow (drives updates)
    kLookup,        // read-only probe (must not disturb invariants)
    kAdvanceTime,   // jump the clock so entries expire
    kSweepSome,     // incremental sweep_expired with a small budget
    kSweepAll,      // full-table sweep_expired
    kBeginResize,   // begin_resize(log2 + 1), up to kFuzzMaxLog2
    kMigrateTick,   // one bounded migration step (no-op unless resizing)
    kFinishResize,  // drain an in-flight migration
    kSaveLoad,      // replace the table with save() -> load() of itself
    kReset,         // reset() (keeps the capacity), or a fresh 2^6 table
    kCheckViews,    // differential view/snapshot check (see check_views)
    kKinds
  };
  Kind kind = kAccumulate;
  std::uint32_t arg = 0;
};

/// Resize ceiling of the fuzz: 2^6 -> 2^9 slots, so a region's bitmap is
/// one to eight words long.
constexpr unsigned kFuzzMaxLog2 = 9;

std::string describe(const std::vector<FuzzOp>& ops) {
  std::string out;
  for (const auto& op : ops) {
    char buf[48];
    std::snprintf(buf, sizeof buf, "{%d,%u},", static_cast<int>(op.kind),
                  op.arg);
    out += buf;
  }
  return out;
}

std::vector<FuzzOp> random_ops(std::uint64_t seed, std::size_t count) {
  util::SplitMix64 rng{seed};
  std::vector<FuzzOp> ops;
  ops.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    FuzzOp op;
    // Bias toward accumulates so the table actually fills and churns;
    // resets and round trips are rare enough that state builds up between
    // them.
    const auto roll = rng() % 40;
    if (roll < 20) {
      op.kind = FuzzOp::kAccumulate;
    } else if (roll < 30) {
      op.kind = static_cast<FuzzOp::Kind>(1 + (roll - 20) % 5);
    } else if (roll < 32) {
      op.kind = FuzzOp::kBeginResize;
    } else if (roll < 35) {
      op.kind = FuzzOp::kMigrateTick;
    } else if (roll < 36) {
      op.kind = FuzzOp::kFinishResize;
    } else if (roll < 37) {
      op.kind = rng() % 4 == 0 ? FuzzOp::kReset : FuzzOp::kSaveLoad;
    } else {
      op.kind = FuzzOp::kCheckViews;
    }
    op.arg = static_cast<std::uint32_t>(rng() % 192);
    ops.push_back(op);
  }
  return ops;
}

std::string at_step(std::size_t step) {
  return " after step " + std::to_string(step);
}

/// I5 for one region: bit(s) == slots[s].occupied for every slot, and no
/// bit is set past the region's last slot. Returns the region's occupied
/// count through `live`.
std::string check_bitmap(const std::vector<WsafEntry>& slots,
                         const std::vector<std::uint64_t>& bits,
                         const char* region, std::size_t& live) {
  if (bits.size() != (slots.size() + 63) / 64) {
    return std::string{"I5 "} + region + " bitmap has " +
           std::to_string(bits.size()) + " words for " +
           std::to_string(slots.size()) + " slots";
  }
  std::size_t set = 0;
  for (const auto word : bits) {
    set += static_cast<std::size_t>(std::popcount(word));
  }
  live = 0;
  for (std::size_t s = 0; s < slots.size(); ++s) {
    const bool bit = ((bits[s >> 6] >> (s & 63)) & 1u) != 0;
    if (bit != slots[s].occupied) {
      return std::string{"I5 "} + region + " bit " + std::to_string(s) +
             (bit ? " set on an empty slot" : " clear on an occupied slot");
    }
    live += bit ? 1 : 0;
  }
  if (set != live) {
    return std::string{"I5 "} + region + " bitmap has bits past its last slot";
  }
  return "";
}

/// I1-I3 for one bucketed region.
std::string check_buckets(const std::vector<WsafEntry>& slots,
                          const std::vector<WsafBucketMeta>& buckets,
                          std::uint64_t seed) {
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    for (std::size_t i = 0; i < WsafBucketMeta::kSlots; ++i) {
      const auto s = b * WsafBucketMeta::kSlots + i;
      const bool bit = ((buckets[b].occupied_bits >> i) & 1u) != 0;
      if (bit != slots[s].occupied) {
        return "I1 bitmap/liveness mismatch at slot " + std::to_string(s);
      }
      if (!bit) continue;
      const auto expected_tag =
          WsafBucketMeta::tag_of(slots[s].key.hash(seed));
      if (buckets[b].tags[i] != expected_tag) {
        return "I2 tag != hash-derived byte at slot " + std::to_string(s);
      }
      if (buckets[b].tags[i] != static_cast<std::uint8_t>(slots[s].flow_id)) {
        return "I2 tag != low byte of flow_id at slot " + std::to_string(s);
      }
      // I3: the candidate mask for this slot's own tag must name it, and
      // every slot any mask names must carry exactly that tag.
      const auto mask = buckets[b].match_mask(buckets[b].tags[i]);
      if (((mask >> i) & 1u) == 0) {
        return "I3 mask misses its own occupied slot " + std::to_string(s);
      }
      for (std::size_t k = 0; k < WsafBucketMeta::kSlots; ++k) {
        if (((mask >> k) & 1u) != 0 &&
            buckets[b].tags[k] != buckets[b].tags[i]) {
          return "I3 mask names tag-mismatched slot " +
                 std::to_string(b * WsafBucketMeta::kSlots + k);
        }
      }
    }
  }
  return "";
}

std::string check_invariants(const WsafTable& table) {
  const auto seed = table.config().seed;
  const bool bucketed = table.config().layout == WsafLayout::kBucketed;
  std::size_t live_new = 0;
  auto v = check_bitmap(WsafTableTestPeer::slots(table),
                        WsafTableTestPeer::bits(table), "new-region",
                        live_new);
  if (v.empty() && bucketed) {
    v = check_buckets(WsafTableTestPeer::slots(table),
                      WsafTableTestPeer::buckets(table), seed);
  }
  if (!v.empty()) return v;
  std::size_t live_old = 0;
  if (table.resizing()) {
    v = check_bitmap(WsafTableTestPeer::old_slots(table),
                     WsafTableTestPeer::old_bits(table), "old-region",
                     live_old);
    if (v.empty() && bucketed) {
      v = check_buckets(WsafTableTestPeer::old_slots(table),
                        WsafTableTestPeer::old_buckets(table), seed);
    }
    if (!v.empty()) return v;
  }
  // Occupancy counts occupied-but-expired entries until they are swept or
  // reclaimed; the bitmaps mirror `occupied` exactly, so the censuses agree.
  if (live_new + live_old != table.occupancy()) {
    return "I1 occupancy census mismatch: bitmaps " +
           std::to_string(live_new + live_old) + ", occupancy() " +
           std::to_string(table.occupancy());
  }
  return "";
}

// ---------------------------------------------------------------------------
// Differential reference: a plain front-to-back scan over every slot of
// the new region, then of the old one — what fill_view(), live_entries()
// and save() did before they walked the occupancy bitmap.

bool reference_expired(const WsafTable& table, const WsafEntry& e,
                       std::uint64_t now) {
  const auto idle = table.config().idle_timeout_ns;
  return idle != 0 && e.last_update_ns + idle < now;
}

std::vector<const WsafEntry*> reference_live(const WsafTable& table,
                                             std::uint64_t now) {
  std::vector<const WsafEntry*> out;
  for (const auto& e : WsafTableTestPeer::slots(table)) {
    if (e.occupied && !reference_expired(table, e, now)) out.push_back(&e);
  }
  if (table.resizing()) {
    for (const auto& e : WsafTableTestPeer::old_slots(table)) {
      if (e.occupied && !reference_expired(table, e, now)) out.push_back(&e);
    }
  }
  return out;
}

std::string read_file(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  return std::string{std::istreambuf_iterator<char>{in},
                     std::istreambuf_iterator<char>{}};
}

// Mirror of the "IMWSAF02" layout WsafTable::save() writes: 48-byte
// header, then one 64-byte record per occupied slot, new region first,
// old-region records flagged with bit 63 of the slot field.
struct RefHeader {
  char magic[8];
  std::uint32_t log2_entries, probe_limit, layout, old_log2;
  std::uint64_t idle_timeout_ns, seed, occupied;
};
struct RefRecord {
  std::uint64_t slot;
  std::uint32_t src_ip, dst_ip;
  std::uint16_t src_port, dst_port;
  std::uint8_t proto, referenced;
  std::uint32_t flow_id;
  double packets, bytes;
  std::uint64_t first_seen_ns, last_update_ns;
};
static_assert(sizeof(RefHeader) == 48 && sizeof(RefRecord) == 64);

std::string reference_snapshot(const WsafTable& table) {
  std::string out;
  RefHeader h;
  std::memset(&h, 0, sizeof h);
  std::memcpy(h.magic, "IMWSAF02", 8);
  h.log2_entries = table.config().log2_entries;
  h.probe_limit = table.config().probe_limit;
  h.layout = static_cast<std::uint32_t>(table.config().layout);
  h.old_log2 = table.resize_source_log2();
  h.idle_timeout_ns = table.config().idle_timeout_ns;
  h.seed = table.config().seed;
  h.occupied = table.occupancy();
  out.append(reinterpret_cast<const char*>(&h), sizeof h);
  const auto region = [&](const std::vector<WsafEntry>& slots,
                          std::uint64_t flag) {
    for (std::size_t s = 0; s < slots.size(); ++s) {
      const auto& e = slots[s];
      if (!e.occupied) continue;
      RefRecord r;
      std::memset(&r, 0, sizeof r);
      r.slot = s | flag;
      r.src_ip = e.key.src_ip;
      r.dst_ip = e.key.dst_ip;
      r.src_port = e.key.src_port;
      r.dst_port = e.key.dst_port;
      r.proto = e.key.proto;
      r.referenced = e.referenced ? 1 : 0;
      r.flow_id = e.flow_id;
      r.packets = e.packets;
      r.bytes = e.bytes;
      r.first_seen_ns = e.first_seen_ns;
      r.last_update_ns = e.last_update_ns;
      out.append(reinterpret_cast<const char*>(&r), sizeof r);
    }
  };
  region(WsafTableTestPeer::slots(table), 0);
  if (table.resizing()) {
    region(WsafTableTestPeer::old_slots(table), std::uint64_t{1} << 63);
  }
  return out;
}

/// fill_view(), live_entries() and save() against the reference scan:
/// same entries, same order, same snapshot bytes.
std::string check_views(const WsafTable& table, std::uint64_t now,
                        const std::string& scratch) {
  const auto expected = reference_live(table, now);
  const auto live = table.live_entries(now);
  if (live != expected) {
    return "live_entries differs from the reference scan (" +
           std::to_string(live.size()) + " vs " +
           std::to_string(expected.size()) + " entries)";
  }
  WsafView view;
  view.entries.push_back({});  // a recycled view must be cleared first
  table.fill_view(view, now);
  if (view.as_of_ns != now || view.entries.size() != expected.size()) {
    return "fill_view size differs from the reference scan";
  }
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const auto& got = view.entries[i];
    const auto& e = *expected[i];
    if (!(got.key == e.key) ||
        got.flow_hash != e.key.hash(table.config().seed) ||
        got.packets != e.packets || got.bytes != e.bytes ||
        got.first_seen_ns != e.first_seen_ns ||
        got.last_update_ns != e.last_update_ns) {
      return "fill_view entry " + std::to_string(i) +
             " differs from the reference scan";
    }
  }
  table.save(scratch);
  if (read_file(scratch) != reference_snapshot(table)) {
    return "save() bytes differ from the reference-ordered snapshot";
  }
  return "";
}

/// What a replay saw, so a test can assert its op mix reached the regimes
/// it claims to cover.
struct ReplayCoverage {
  std::size_t resizes = 0;           ///< begin_resize() calls that committed
  std::size_t round_trips = 0;       ///< successful save/load replacements
  std::size_t view_checks = 0;       ///< check_views() runs
  std::size_t mid_resize_views = 0;  ///< ... of which mid-migration
  std::size_t expiry_views = 0;      ///< ... hiding an expired entry
};

/// Replay `ops` on a fresh table; return a description of the first
/// violated invariant ("" if none). The invariant checker runs after every
/// op, so the failing op is the last one of a shrunken sequence. The
/// differential view/snapshot check runs at kCheckViews ops, or after every
/// op when `views_every_step` is set.
std::string replay(const WsafConfig& config, const std::vector<FuzzOp>& ops,
                   const std::string& scratch, bool views_every_step = false,
                   ReplayCoverage* coverage = nullptr) {
  ReplayCoverage local;
  ReplayCoverage& cov = coverage != nullptr ? *coverage : local;
  WsafTable table{config};
  std::uint64_t now = 1;
  std::uint32_t hot = 0;
  for (std::size_t step = 0; step < ops.size(); ++step) {
    const auto& op = ops[step];
    switch (op.kind) {
      case FuzzOp::kAccumulate: {
        const auto key = key_n(op.arg);
        table.accumulate(key, key.hash(config.seed), 1.0, 64.0, now++);
        hot = op.arg;
        break;
      }
      case FuzzOp::kHotUpdate: {
        const auto key = key_n(hot);
        table.accumulate(key, key.hash(config.seed), 2.0, 128.0, now++);
        break;
      }
      case FuzzOp::kLookup: {
        const auto key = key_n(op.arg);
        (void)table.lookup(key, key.hash(config.seed), now);
        break;
      }
      case FuzzOp::kAdvanceTime:
        now += config.idle_timeout_ns + 1 + op.arg % 1'000;
        break;
      case FuzzOp::kSweepSome:
        (void)table.sweep_expired(now, 1 + op.arg % 8);
        break;
      case FuzzOp::kSweepAll:
        (void)table.sweep_expired(now);
        break;
      case FuzzOp::kBeginResize:
        if (table.config().log2_entries < kFuzzMaxLog2 &&
            table.begin_resize(table.config().log2_entries + 1)) {
          ++cov.resizes;
        }
        break;
      case FuzzOp::kMigrateTick:
        if (table.resizing()) WsafTableTestPeer::migrate_tick(table, now);
        break;
      case FuzzOp::kFinishResize:
        table.finish_resize();
        break;
      case FuzzOp::kSaveLoad:
        table.save(scratch);
        try {
          table = WsafTable::load(scratch);
          ++cov.round_trips;
        } catch (const std::runtime_error&) {
          // load() completes an in-flight migration in place and refuses
          // (never evicts) when a key's new-region window is already full;
          // the saved table stays in service, as a failed restore would.
        }
        break;
      case FuzzOp::kReset:
        // Half the time start over instead, so that resizes (capped at
        // kFuzzMaxLog2) keep recurring through a long sequence.
        if (op.arg % 2 == 0) {
          table.reset();
        } else {
          table = WsafTable{config};
        }
        break;
      default:
        break;
    }
    if (op.kind == FuzzOp::kCheckViews || views_every_step) {
      ++cov.view_checks;
      if (table.resizing()) ++cov.mid_resize_views;
      if (reference_live(table, now).size() != table.occupancy()) {
        ++cov.expiry_views;
      }
      const auto v = check_views(table, now, scratch);
      if (!v.empty()) return v + at_step(step);
    }
    const auto v = check_invariants(table);
    if (!v.empty()) return v + at_step(step);
  }
  return "";
}

/// Greedy delta-debugging: repeatedly try dropping chunks (halving the
/// chunk size down to 1) while the failure reproduces.
std::vector<FuzzOp> shrink(const WsafConfig& config, std::vector<FuzzOp> ops,
                           const std::string& scratch,
                           bool views_every_step = false) {
  for (std::size_t chunk = ops.size() / 2; chunk >= 1; chunk /= 2) {
    bool progressed = true;
    while (progressed && ops.size() > 1) {
      progressed = false;
      for (std::size_t start = 0; start + chunk <= ops.size();
           start += chunk) {
        std::vector<FuzzOp> candidate;
        candidate.reserve(ops.size() - chunk);
        candidate.insert(candidate.end(), ops.begin(),
                         ops.begin() + static_cast<std::ptrdiff_t>(start));
        candidate.insert(
            candidate.end(),
            ops.begin() + static_cast<std::ptrdiff_t>(start + chunk),
            ops.end());
        if (!replay(config, candidate, scratch, views_every_step).empty()) {
          ops = std::move(candidate);
          progressed = true;
          break;
        }
      }
    }
    if (chunk == 1) break;
  }
  return ops;
}

/// Small table (2^6 slots, 4 buckets), small key space, real idle timeout:
/// every regime — collisions, tag collisions, eviction pressure, expiry,
/// partial and full sweeps, resize, round trips — is reachable within a
/// few hundred ops.
WsafConfig fuzz_config(WsafLayout layout) {
  WsafConfig config = bucketed_config(6, 16, /*idle_timeout_ns=*/50);
  config.layout = layout;
  return config;
}

std::string scratch_path(const char* test, WsafLayout layout,
                         std::uint64_t seed) {
  return testing::TempDir() + "wsaf-" + test + "-" + to_string(layout) +
         "-" + std::to_string(seed) + ".bin";
}

constexpr WsafLayout kLayouts[] = {WsafLayout::kScalarProbe,
                                   WsafLayout::kBucketed};

class WsafBucketFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WsafBucketFuzz, InvariantsHoldUnderRandomOpSequences) {
  const auto seed = GetParam();
  const auto ops = random_ops(seed, 600);
  for (const auto layout : kLayouts) {
    SCOPED_TRACE(to_string(layout));
    const auto config = fuzz_config(layout);
    const auto scratch = scratch_path("fuzz", layout, seed);
    const auto violation = replay(config, ops, scratch);
    if (!violation.empty()) {
      const auto minimal = shrink(config, ops, scratch);
      ADD_FAILURE() << violation << "\nseed: " << seed
                    << "\nminimal reproducer (" << minimal.size()
                    << " ops, {kind,arg}): " << describe(minimal);
    }
    std::remove(scratch.c_str());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WsafBucketFuzz,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u));

// The bitmap walk behind fill_view()/live_entries()/save() must reproduce
// the plain slot scan exactly — entries, order and snapshot bytes — after
// every op of a fuzzed sequence, on both layouts, with expired entries
// present and mid-resize. (The invariant fuzz above runs the same check
// at the random kCheckViews points of its own sequences.)
class WsafOccupancyDifferential
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WsafOccupancyDifferential, ViewsAndSnapshotsMatchReferenceScan) {
  const auto seed = GetParam();
  const auto ops = random_ops(seed ^ 0xd1ffu, 1'500);
  for (const auto layout : kLayouts) {
    SCOPED_TRACE(to_string(layout));
    const auto config = fuzz_config(layout);
    const auto scratch = scratch_path("diff", layout, seed);
    ReplayCoverage cov;
    const auto violation = replay(config, ops, scratch,
                                  /*views_every_step=*/true, &cov);
    if (!violation.empty()) {
      const auto minimal = shrink(config, ops, scratch, true);
      ADD_FAILURE() << violation << "\nseed: " << seed
                    << "\nminimal reproducer (" << minimal.size()
                    << " ops, {kind,arg}): " << describe(minimal);
    }
    std::remove(scratch.c_str());
    // The sequence must actually have reached the regimes it covers.
    EXPECT_GT(cov.resizes, 0u);
    EXPECT_GT(cov.round_trips, 0u);
    EXPECT_GT(cov.mid_resize_views, 0u);
    EXPECT_GT(cov.expiry_views, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WsafOccupancyDifferential,
                         ::testing::Values(1u, 2u, 3u, 4u));

// ---------------------------------------------------------------------------
// Targeted bucketed regressions.

TEST(WsafBucketed, NoReclaimCountedWhenKeyMatchFollowsNotedExpiredSlot) {
  // Bucketed twin of the scalar regression in test_wsaf.cpp: an expired
  // same-tag neighbour noted as first_free must not count as a reclaim
  // when the probe then finds the flow's own live entry.
  WsafConfig config = bucketed_config(4, 16, /*idle_timeout_ns=*/1'000);
  WsafTable table{config};

  // One bucket (log2=4): any two keys share it. Find a pair with equal
  // tags but distinct flow_ids, so B's candidate mask includes expired A.
  netio::FlowKey ka{}, kb{};
  bool found = false;
  for (std::uint32_t a = 1; a < 400 && !found; ++a) {
    for (std::uint32_t b = a + 1; b < 400 && !found; ++b) {
      const auto key_a = key_n(a), key_b = key_n(b);
      const auto ha = key_a.hash(config.seed), hb = key_b.hash(config.seed);
      if (WsafBucketMeta::tag_of(ha) == WsafBucketMeta::tag_of(hb) &&
          static_cast<std::uint32_t>(ha >> 32) !=
              static_cast<std::uint32_t>(hb >> 32)) {
        ka = key_a;
        kb = key_b;
        found = true;
      }
    }
  }
  ASSERT_TRUE(found) << "no same-tag key pair in the search range";

  table.accumulate(ka, ka.hash(config.seed), 1.0, 0.0, /*now=*/0);
  table.accumulate(kb, kb.hash(config.seed), 1.0, 0.0, /*now=*/1);
  ASSERT_EQ(table.occupancy(), 2u);
  // A tag collision was recorded when B probed past expired-free A's
  // live predecessor? Not necessarily — but B's insert probed A's bucket.

  // t=1001: A expired, B fresh. B's update walks the candidate mask, notes
  // A's slot as reclaimable, then matches its own key. No overwrite: no
  // reclaim. (A sits in slot 0; only 3 accumulates have run, so the
  // 2-slot incremental sweep has visited slots 0-3 before A expired and
  // cannot have swept it.)
  table.accumulate(kb, kb.hash(config.seed), 1.0, 0.0, /*now=*/1'001);
  EXPECT_EQ(table.stats().gc_reclaims, 0u);
  EXPECT_EQ(table.stats().updates, 1u);
  EXPECT_TRUE(table.lookup(kb, kb.hash(config.seed)).has_value());
}

TEST(WsafBucketed, TagCollisionsAreCountedAndHarmless) {
  WsafConfig config = bucketed_config(4, 16, 0);
  WsafTable table{config};
  // Same-tag, different-key pair in the single bucket.
  netio::FlowKey ka{}, kb{};
  bool found = false;
  for (std::uint32_t a = 1; a < 400 && !found; ++a) {
    for (std::uint32_t b = a + 1; b < 400 && !found; ++b) {
      const auto ha = key_n(a).hash(config.seed);
      const auto hb = key_n(b).hash(config.seed);
      if (WsafBucketMeta::tag_of(ha) == WsafBucketMeta::tag_of(hb) &&
          static_cast<std::uint32_t>(ha >> 32) !=
              static_cast<std::uint32_t>(hb >> 32)) {
        ka = key_n(a);
        kb = key_n(b);
        found = true;
      }
    }
  }
  ASSERT_TRUE(found);
  table.accumulate(ka, ka.hash(config.seed), 1.0, 0.0, 1);
  ASSERT_EQ(table.stats().tag_collisions, 0u);
  table.accumulate(kb, kb.hash(config.seed), 2.0, 0.0, 2);
  // B's probe dereferenced A (tag matched, key did not) exactly once.
  EXPECT_EQ(table.stats().tag_collisions, 1u);
  // Both flows are live with their own counters.
  EXPECT_DOUBLE_EQ(table.lookup(ka, ka.hash(config.seed))->packets, 1.0);
  EXPECT_DOUBLE_EQ(table.lookup(kb, kb.hash(config.seed))->packets, 2.0);
}

TEST(WsafBucketed, EvictionPrefersTagHiddenExpiredOverLiveVictim) {
  // Every bitmap in the window is full, but one entry is expired under a
  // tag the newcomer doesn't share. The slow-path scan must reclaim it
  // instead of evicting a live flow.
  WsafConfig config = bucketed_config(4, 16, /*idle_timeout_ns=*/100);
  WsafTable table{config};
  for (std::uint32_t n = 0; n < 16; ++n) {
    const auto key = key_n(n);
    table.accumulate(key, key.hash(config.seed), 1.0, 0.0, /*now=*/1'000 + n);
  }
  ASSERT_EQ(table.occupancy(), 16u);
  // Entry 0 (t=1000) expires by t=1101; the other 15 stay fresh. Refresh
  // them so the incremental sweep's clock stays just past entry 0's
  // horizon but short of theirs.
  for (std::uint32_t n = 1; n < 16; ++n) {
    const auto key = key_n(n);
    table.accumulate(key, key.hash(config.seed), 1.0, 0.0, /*now=*/1'090);
  }
  const auto newcomer = key_n(777);
  table.accumulate(newcomer, newcomer.hash(config.seed), 1.0, 0.0,
                   /*now=*/1'101 + 1);
  EXPECT_EQ(table.stats().evictions, 0u);
  EXPECT_GE(table.stats().gc_reclaims + table.stats().gc_swept, 1u);
  EXPECT_TRUE(table.lookup(newcomer, newcomer.hash(config.seed)).has_value());
  // All 15 refreshed flows survived.
  for (std::uint32_t n = 1; n < 16; ++n) {
    const auto key = key_n(n);
    EXPECT_TRUE(table.lookup(key, key.hash(config.seed)).has_value()) << n;
  }
}

}  // namespace
}  // namespace instameasure::core
