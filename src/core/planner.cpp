#include "core/planner.hpp"

#include <cstring>

#include "common/error.hpp"
#include "core/optical_conv_engine.hpp"

namespace pcnna::core {

namespace {

/// 64-bit FNV-1a accumulator with typed field helpers. Doubles are hashed
/// by bit pattern (memcpy, no float compare), so two configs hash equal iff
/// every field is bit-identical.
struct Fnv1a {
  std::uint64_t state = 0xcbf29ce484222325ull;

  void bytes(const void* data, std::size_t len) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < len; ++i) {
      state ^= p[i];
      state *= 0x100000001b3ull;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void i32(int v) { u64(static_cast<std::uint64_t>(static_cast<std::int64_t>(v))); }
  void flag(bool v) { u64(v ? 1u : 0u); }
  void sz(std::size_t v) { u64(static_cast<std::uint64_t>(v)); }

  void add(const elec::DacConfig& c) {
    i32(c.bits);
    f64(c.sample_rate);
    f64(c.area);
    f64(c.power);
    f64(c.full_scale);
  }
  void add(const elec::AdcConfig& c) {
    i32(c.bits);
    f64(c.sample_rate);
    f64(c.area);
    f64(c.power);
    f64(c.full_scale);
  }
  void add(const elec::SramConfig& c) {
    f64(c.capacity_bits);
    i32(c.word_bits);
    f64(c.access_time);
    f64(c.area);
    f64(c.access_energy);
    f64(c.retention_power);
  }
  void add(const elec::DramConfig& c) {
    f64(c.bandwidth);
    f64(c.first_access_latency);
    f64(c.energy_per_byte);
  }
  void add(const phot::MicroringConfig& c) {
    f64(c.design_wavelength);
    f64(c.q_factor);
    f64(c.max_drop);
    f64(c.insertion_loss_db);
    f64(c.max_detuning);
    i32(c.tuning_bits);
    f64(c.thermal_efficiency);
    f64(c.fab_sigma);
    f64(c.footprint_side);
  }
  void add(const phot::PhotodiodeConfig& c) {
    f64(c.responsivity);
    f64(c.dark_current);
    f64(c.temperature);
    f64(c.load_resistance);
    flag(c.enable_shot_noise);
    flag(c.enable_thermal_noise);
  }
  void add(const phot::WeightBankConfig& c) {
    add(c.ring);
    add(c.photodiode);
    flag(c.model_crosstalk);
    i32(c.calibration_iterations);
  }
  void add(const phot::MzmConfig& c) {
    f64(c.v_pi);
    f64(c.insertion_loss_db);
    f64(c.extinction_ratio_db);
    flag(c.predistort);
    f64(c.bandwidth);
  }
  void add(const phot::LaserConfig& c) {
    f64(c.power);
    f64(c.rin_db_per_hz);
    f64(c.wall_plug_efficiency);
  }
  void add(const phot::WaveguideConfig& c) {
    f64(c.propagation_loss_db_per_cm);
    f64(c.splitter_excess_loss_db);
  }
};

} // namespace

std::uint64_t config_hash(const PcnnaConfig& config) {
  Fnv1a h;
  h.f64(config.fast_clock);
  h.sz(config.num_input_dacs);
  h.add(config.input_dac);
  h.add(config.weight_dac);
  h.sz(config.num_adcs);
  h.add(config.adc);
  h.add(config.sram);
  h.add(config.dram);
  h.i32(config.word_bits);
  h.sz(config.sram_port_words);
  h.add(config.bank);
  h.add(config.mzm);
  h.add(config.laser);
  h.add(config.waveguide);
  h.sz(config.max_wavelengths);
  h.u64(static_cast<std::uint64_t>(config.allocation));
  h.f64(config.ring_settle_time);
  h.flag(config.enable_noise);
  h.flag(config.enable_quantization);
  h.flag(config.accelerate_fc);
  h.f64(config.stuck_ring_rate);
  h.flag(config.dual_rail_inputs);
  h.f64(config.adc_headroom);
  h.u64(config.seed);
  // engine_threads deliberately omitted — see the declaration comment.
  return h.state;
}

std::uint64_t PlanCache::epoch(std::uint64_t config_key) const {
  const auto it = config_epochs_.find(config_key);
  return epoch_ + (it == config_epochs_.end() ? 0 : it->second);
}

void PlanCache::bump_epoch(std::uint64_t config_key) {
  config_epochs_[config_key] += 1;
}

const LayerStrategy* PlanCache::lookup(const PlanKey& key) {
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    stats_.misses += 1;
    return nullptr;
  }
  if (it->second.epoch != epoch(key.config)) {
    // Calibration artifact predates the last recalibration: evict, and
    // report a miss so the caller re-plans under the current epoch.
    entries_.erase(it);
    stats_.invalidations += 1;
    stats_.misses += 1;
    return nullptr;
  }
  stats_.hits += 1;
  return &it->second.strategy;
}

void PlanCache::insert(const PlanKey& key, LayerStrategy strategy) {
  entries_[key] = Entry{epoch(key.config), std::move(strategy)};
}

void PlanCache::clear() {
  entries_.clear();
  stats_ = PlanCacheStats{};
}

std::uint64_t plan_config_key(const PcnnaConfig& config,
                              TimingFidelity fidelity) {
  // Fold the timing fidelity into the configuration digest: the same
  // hardware priced under kPaper vs kFull yields different strategies, so
  // the two must never share cache entries.
  std::uint64_t key = config_hash(config);
  key ^= static_cast<std::uint64_t>(fidelity) + 0x9e3779b97f4a7c15ull;
  key *= 0x100000001b3ull;
  return key;
}

Planner::Planner(PcnnaConfig config, TimingFidelity fidelity, PlanCache* cache)
    : config_(std::move(config)),
      fidelity_(fidelity),
      cache_(cache != nullptr ? cache : &owned_) {
  config_.validate();
  config_key_ = plan_config_key(config_, fidelity_);
}

PlanKey Planner::key(const nn::ConvLayerParams& layer) const {
  PlanKey k;
  k.config = config_key_;
  k.n = layer.n;
  k.m = layer.m;
  k.p = layer.p;
  k.s = layer.s;
  k.nc = layer.nc;
  k.K = layer.K;
  return k;
}

LayerStrategy Planner::plan_layer(const nn::ConvLayerParams& layer) {
  const PlanKey k = key(layer);
  if (const LayerStrategy* hit = cache_->lookup(k)) {
    return *hit;
  }
  LayerStrategy strategy = search(layer);
  cache_->insert(k, strategy);
  return strategy;
}

NetworkPlan Planner::plan_network(
    const std::vector<nn::ConvLayerParams>& layers) {
  NetworkPlan result;
  const TimingModel baseline(config_, fidelity_);
  for (const nn::ConvLayerParams& layer : layers) {
    result.layers.push_back(plan_layer(layer));
    result.total_latency += result.layers.back().latency;
    result.baseline_latency += baseline.layer_time(layer).full_system_time;
  }
  return result;
}

LayerStrategy Planner::search(const nn::ConvLayerParams& layer) const {
  layer.validate();

  // Candidate WDM budgets: the configured budget, then halvings of it.
  // The hardware budget is a ceiling, so no candidate exceeds it; going
  // narrower trades more segmented passes for smaller banks, which can win
  // when the wide bank's mapping is infeasible (SRAM working set) — and
  // documents, via candidates_searched, that the full budget was compared
  // against the alternatives rather than assumed.
  std::vector<std::size_t> budgets;
  for (std::size_t w = config_.max_wavelengths; w >= 1; w /= 2) {
    budgets.push_back(w);
    if (w == 1) break;
  }
  constexpr RingAllocation kAllocations[] = {RingAllocation::kFullKernel,
                                             RingAllocation::kPerChannel};

  bool found = false;
  LayerStrategy best;
  for (const RingAllocation allocation : kAllocations) {
    for (const std::size_t wavelengths : budgets) {
      PcnnaConfig candidate = config_;
      candidate.allocation = allocation;
      candidate.max_wavelengths = wavelengths;

      LayerStrategy s;
      s.layer = layer;
      s.wavelengths = wavelengths;
      s.allocation = allocation;
      try {
        s.plan = Scheduler(candidate).plan(layer);
      } catch (const Error&) {
        continue; // infeasible mapping (e.g. working set exceeds SRAM)
      }
      s.timing = TimingModel(candidate, fidelity_).layer_time(layer);
      s.latency = s.timing.full_system_time;

      best.candidates_searched += 1;
      // Deterministic order: lower latency, then fewer rings, then fewer
      // sequential passes per location; first-seen (enumeration order
      // above) breaks exact ties.
      const bool better =
          !found ||
          std::tie(s.latency, s.plan.rings_total, s.plan.cycles_per_location) <
              std::tie(best.latency, best.plan.rings_total,
                       best.plan.cycles_per_location);
      if (better) {
        const std::size_t searched = best.candidates_searched;
        best = s;
        best.candidates_searched = searched;
      }
      found = true;
    }
  }
  PCNNA_CHECK_MSG(found, "planner: no feasible mapping for layer '"
                             << layer.name << "'");

  // Calibration artifact for the winning bank width: the chip's own probe
  // bank, fabricated from the configuration seed, so repeated searches
  // (and therefore cached vs fresh strategies) are bit-identical.
  PcnnaConfig winner = config_;
  winner.allocation = best.allocation;
  winner.max_wavelengths = best.wavelengths;
  best.usable_range = measured_usable_range(
      winner, static_cast<std::size_t>(best.plan.group_size));
  return best;
}

} // namespace pcnna::core
