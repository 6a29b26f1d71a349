// Ahead-of-time layer planner with a memoizing plan cache.
//
// The Scheduler maps a layer onto the hardware exactly as configured; the
// Planner goes one step further and *searches* the per-layer strategy space
// — WDM channel budget (how wide each segmented bank pass is) crossed with
// the ring-allocation scheme (full-kernel vs per-channel) — scoring every
// feasible candidate with the TimingModel and keeping the fastest. The
// search result is memoized in a PlanCache keyed by (configuration hash,
// layer geometry), so a serving fleet that registers many models over the
// same PCU configuration prices each distinct layer shape exactly once.
//
// Cached strategies also carry a calibration artifact: the empirically
// measured usable weight range of a bank sized for the winning strategy
// (core::measured_usable_range), so serving paths can consult it without
// re-probing. Because that measurement goes stale when the device is
// recalibrated (thermal drift, re-trimmed heaters), every cache entry
// records the cache's recalibration epoch at insert time; bumping the epoch
// lazily invalidates exactly the entries inserted before the bump.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <tuple>
#include <vector>

#include "core/config.hpp"
#include "core/scheduler.hpp"
#include "core/timing_model.hpp"
#include "nn/conv_params.hpp"

namespace pcnna::core {

/// FNV-1a (64-bit) digest of every field of the configuration that any
/// planned or priced quantity depends on, nested device configs included.
/// `engine_threads` is deliberately excluded: it is a host-simulation
/// parallelism knob that no modeled hardware quantity depends on (see its
/// doc in PcnnaConfig), so hashing it would only split cache entries
/// between runs that plan identically.
std::uint64_t config_hash(const PcnnaConfig& config);

/// Cache-key digest of (configuration, timing fidelity): config_hash with
/// the fidelity folded in — exactly the digest Planner::key() stamps into
/// PlanKey::config. Exposed so integrations that hold only a config (e.g.
/// the serving runtime bumping a recalibration epoch after a PCU repair)
/// can address the cache entries of that configuration without a Planner.
std::uint64_t plan_config_key(const PcnnaConfig& config,
                              TimingFidelity fidelity);

/// The winning strategy for one layer: the candidate configuration knobs,
/// the mapping and timing they produce, and the calibration artifact.
struct LayerStrategy {
  nn::ConvLayerParams layer;

  /// WDM channel budget the winning candidate ran under (<= the configured
  /// max_wavelengths; the search never exceeds the hardware budget).
  std::size_t wavelengths = 0;
  RingAllocation allocation = RingAllocation::kFullKernel;

  /// Mapping and per-layer timing under the winning candidate.
  LayerPlan plan;
  LayerTiming timing;
  /// Objective the search minimized: timing.full_system_time.
  double latency = 0.0;

  /// Calibration artifact: measured usable symmetric weight range of one
  /// plan.group_size-ring bank under the winning candidate, probed on the
  /// chip's probe bank (core::measured_usable_range(cfg, channels); the
  /// engine scales layers by the same probe), so a cached strategy is
  /// bit-identical to a freshly searched one.
  double usable_range = 0.0;

  /// Feasible candidates the search evaluated (infeasible mappings that
  /// the Scheduler rejects are skipped, not counted).
  std::size_t candidates_searched = 0;

  friend bool operator==(const LayerStrategy&,
                         const LayerStrategy&) = default;
};

/// Cache key: configuration digest (fidelity folded in) + layer geometry.
/// The layer name is excluded — two layers with the same shape plan
/// identically.
struct PlanKey {
  std::uint64_t config = 0; ///< config_hash with TimingFidelity mixed in
  std::uint64_t n = 0, m = 0, p = 0, s = 1, nc = 0, K = 0;

  friend bool operator==(const PlanKey&, const PlanKey&) = default;
  friend bool operator<(const PlanKey& a, const PlanKey& b) {
    return std::tie(a.config, a.n, a.m, a.p, a.s, a.nc, a.K) <
           std::tie(b.config, b.n, b.m, b.p, b.s, b.nc, b.K);
  }
};

struct PlanCacheStats {
  std::size_t hits = 0;
  std::size_t misses = 0;
  /// Stale entries evicted on lookup after an epoch bump. Every
  /// invalidation is also counted as a miss (the caller re-plans).
  std::size_t invalidations = 0;

  friend bool operator==(const PlanCacheStats&,
                         const PlanCacheStats&) = default;
};

/// Memoized layer strategies with lazy epoch-based invalidation.
///
/// Not thread-safe; serving integrations populate it ahead of time (AOT)
/// from the registration path, which is single-threaded.
class PlanCache {
 public:
  /// Current global recalibration epoch. Entries remember the effective
  /// epoch (global + per-config) they were inserted under and are only
  /// served while it matches.
  std::uint64_t epoch() const { return epoch_; }

  /// Effective recalibration epoch for one configuration digest
  /// (PlanKey::config / plan_config_key): the global epoch plus that
  /// configuration's own bump count.
  std::uint64_t epoch(std::uint64_t config_key) const;

  /// Declare every previously inserted strategy's calibration artifact
  /// stale (e.g. after the device is re-trimmed). Entries are invalidated
  /// lazily, on their next lookup; entries inserted after the bump are
  /// unaffected.
  void bump_epoch() { epoch_ += 1; }

  /// Per-configuration variant: declare stale only the entries whose key
  /// carries `config_key` (a repair recalibrates *one* PCU configuration;
  /// strategies planned for other device models stay fresh). Same lazy
  /// invalidation semantics as the global bump.
  void bump_epoch(std::uint64_t config_key);

  /// Returns the cached strategy, or nullptr on miss. A stale entry
  /// (inserted under an older epoch) is erased and counted as one
  /// invalidation plus one miss. The pointer is valid until the next
  /// non-const call on this cache.
  const LayerStrategy* lookup(const PlanKey& key);

  /// Insert (or overwrite) the strategy for `key` under the current epoch.
  void insert(const PlanKey& key, LayerStrategy strategy);

  const PlanCacheStats& stats() const { return stats_; }
  std::size_t size() const { return entries_.size(); }

  /// Drop all entries and reset the statistics; the epoch is kept (it
  /// tracks the physical device, not the cache's contents).
  void clear();

 private:
  struct Entry {
    /// Effective epoch (global + per-config) at insert time.
    std::uint64_t epoch = 0;
    LayerStrategy strategy;
  };

  std::map<PlanKey, Entry> entries_;
  std::uint64_t epoch_ = 0;
  /// Per-configuration bump counts (only digests that were ever bumped).
  std::map<std::uint64_t, std::uint64_t> config_epochs_;
  PlanCacheStats stats_;
};

/// plan_network() output: one winning strategy per conv layer plus the
/// network-level before/after of the search.
struct NetworkPlan {
  std::vector<LayerStrategy> layers;
  /// Sum of the winning per-layer latencies.
  double total_latency = 0.0;
  /// Sum of per-layer full-system times under the configuration exactly as
  /// given (no search) — what the fleet would pay without the planner.
  double baseline_latency = 0.0;
};

/// AOT strategy search over (wavelength budget, ring allocation), memoized
/// in a PlanCache. Deterministic: candidate enumeration order and the
/// tie-break are fixed, and the calibration probe reseeds from the
/// configuration seed on every search.
class Planner {
 public:
  /// `cache == nullptr` gives the planner a private cache; pass a shared
  /// one to memoize across planners that serve the same fleet.
  explicit Planner(PcnnaConfig config,
                   TimingFidelity fidelity = TimingFidelity::kFull,
                   PlanCache* cache = nullptr);

  const PcnnaConfig& config() const { return config_; }
  TimingFidelity fidelity() const { return fidelity_; }
  PlanCache& cache() { return *cache_; }
  const PlanCache& cache() const { return *cache_; }

  /// Cache key this planner uses for `layer`.
  PlanKey key(const nn::ConvLayerParams& layer) const;

  /// Cached strategy if fresh, otherwise a full search (then cached).
  LayerStrategy plan_layer(const nn::ConvLayerParams& layer);

  NetworkPlan plan_network(const std::vector<nn::ConvLayerParams>& layers);

 private:
  LayerStrategy search(const nn::ConvLayerParams& layer) const;

  PcnnaConfig config_;
  TimingFidelity fidelity_;
  std::uint64_t config_key_ = 0;
  PlanCache owned_; ///< used when no shared cache was supplied
  PlanCache* cache_ = nullptr;
};

} // namespace pcnna::core
