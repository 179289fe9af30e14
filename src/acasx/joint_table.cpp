#include "acasx/joint_table.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "serving/kernel.h"
#include "serving/table_codec.h"
#include "serving/table_image.h"
#include "util/expect.h"
#include "util/units.h"

namespace cav::acasx {
namespace {

using serving::TableIoError;

// meta_f64 layout: 4 axes x (lo, hi), secondary x 3, dynamics x 4, costs x 8.
constexpr std::size_t kMetaF64Count = 4 * 2 + 3 + 4 + 8;
// meta_u64 layout: 4 axis counts, tau_max, num_delta_bins.
constexpr std::size_t kMetaU64Count = 4 + 2;

void encode_meta(const JointConfig& c, double* f64, std::uint64_t* u64) {
  const UniformAxis* axes[4] = {&c.space.h_ft, &c.space.dh_own_fps, &c.space.dh_int_fps,
                                &c.secondary.h2_ft};
  for (std::size_t i = 0; i < 4; ++i) {
    f64[2 * i] = axes[i]->lo();
    f64[2 * i + 1] = axes[i]->hi();
    u64[i] = axes[i]->count();
  }
  u64[4] = c.space.tau_max;
  u64[5] = c.secondary.num_delta_bins;
  double* s = f64 + 8;
  s[0] = c.secondary.delta_step_s;
  s[1] = c.secondary.sense_rate_fps;
  s[2] = c.secondary.sense_level_threshold_fps;
  double* d = f64 + 11;
  d[0] = c.dynamics.dt_s;
  d[1] = c.dynamics.accel_initial_fps2;
  d[2] = c.dynamics.accel_strength_fps2;
  d[3] = c.dynamics.accel_noise_sigma_fps2;
  double* k = f64 + 15;
  k[0] = c.costs.nmac_cost;
  k[1] = c.costs.nmac_h_ft;
  k[2] = c.costs.maneuver_cost;
  k[3] = c.costs.strengthened_maneuver_cost;
  k[4] = c.costs.level_reward;
  k[5] = c.costs.strengthen_cost;
  k[6] = c.costs.reversal_cost;
  k[7] = c.costs.termination_cost;
}

JointConfig decode_meta(const serving::TableImage& image) {
  const auto f64 = image.slab_as<double>(serving::kSlabMetaF64);
  const auto u64 = image.slab_as<std::uint64_t>(serving::kSlabMetaU64);
  if (f64.size() != kMetaF64Count || u64.size() != kMetaU64Count) {
    throw TableIoError("JointLogicTable::load", "bad meta slab", image.path());
  }
  JointConfig c;
  c.space.h_ft = UniformAxis(f64[0], f64[1], static_cast<std::size_t>(u64[0]));
  c.space.dh_own_fps = UniformAxis(f64[2], f64[3], static_cast<std::size_t>(u64[1]));
  c.space.dh_int_fps = UniformAxis(f64[4], f64[5], static_cast<std::size_t>(u64[2]));
  c.secondary.h2_ft = UniformAxis(f64[6], f64[7], static_cast<std::size_t>(u64[3]));
  c.space.tau_max = static_cast<std::size_t>(u64[4]);
  c.secondary.num_delta_bins = static_cast<std::size_t>(u64[5]);
  c.secondary.delta_step_s = f64[8];
  c.secondary.sense_rate_fps = f64[9];
  c.secondary.sense_level_threshold_fps = f64[10];
  c.dynamics.dt_s = f64[11];
  c.dynamics.accel_initial_fps2 = f64[12];
  c.dynamics.accel_strength_fps2 = f64[13];
  c.dynamics.accel_noise_sigma_fps2 = f64[14];
  c.costs.nmac_cost = f64[15];
  c.costs.nmac_h_ft = f64[16];
  c.costs.maneuver_cost = f64[17];
  c.costs.strengthened_maneuver_cost = f64[18];
  c.costs.level_reward = f64[19];
  c.costs.strengthen_cost = f64[20];
  c.costs.reversal_cost = f64[21];
  c.costs.termination_cost = f64[22];
  return c;
}

}  // namespace

JointConfig JointLogicTable::decode_config(const serving::TableImage& image) {
  return decode_meta(image);
}

JointConfig JointConfig::coarse() {
  JointConfig c;
  c.space = StateSpaceConfig::coarse();
  c.space.dh_own_fps = UniformAxis(-2500.0 / 60.0, 2500.0 / 60.0, 5);
  c.space.dh_int_fps = UniformAxis(-2500.0 / 60.0, 2500.0 / 60.0, 5);
  return c;
}

JointConfig JointConfig::standard() {
  JointConfig c;
  c.space = StateSpaceConfig::standard();
  c.space.dh_own_fps = UniformAxis(-2500.0 / 60.0, 2500.0 / 60.0, 7);
  c.space.dh_int_fps = UniformAxis(-2500.0 / 60.0, 2500.0 / 60.0, 7);
  return c;
}

JointLogicTable::JointLogicTable(const JointConfig& config)
    : config_(config), grid_(config.grid()) {
  const std::size_t n = config_.secondary.num_slabs() * num_tau_layers() * grid_.size() *
                        kNumAdvisories * kNumAdvisories;
  q_.assign(n, 0.0F);
}

void JointLogicTable::action_costs(double tau1_s, double delta_s, double h1_ft,
                                   double dh_own_fps, double dh_int1_fps, double h2_ft,
                                   SecondarySense sense, Advisory ra,
                                   std::span<double, kNumAdvisories> out) const {
  expect(num_entries() != 0, "joint table is solved/loaded");
  const std::size_t db = config_.secondary.delta_bin(delta_s);
  const std::size_t slab = config_.slab_index(db, sense);

  // The layer axis counts down to the SECONDARY's CPA and advances one
  // dynamics step (dt_s) per layer; with delta snapped to its bin value the
  // primary's CPA sits at layer delta_value/dt, so the query layer
  // preserving the primary's tau is (tau1 + delta_value) / dt.  (At the
  // default dt_s = 1 this is the pairwise LogicTable convention exactly.)
  const serving::TauBracket t = serving::bracket_tau(
      (tau1_s + config_.secondary.delta_value_s(db)) / config_.dynamics.dt_s,
      config_.space.tau_max);
  serving::grid_query<kNumAdvisories>(serving::F32View{values()}, grid_,
                                      {h1_ft, dh_own_fps, dh_int1_fps, h2_ft},
                                      slab * num_tau_layers(), t, static_cast<std::size_t>(ra),
                                      out.data());
}

std::vector<float>& JointLogicTable::raw() {
  expect(view_ == nullptr, "owning table (mapped views are read-only)");
  return q_;
}

const std::vector<float>& JointLogicTable::raw() const {
  expect(view_ == nullptr, "owning table (mapped views have no vector)");
  return q_;
}

void JointLogicTable::save(const std::string& path, serving::Quantization quant) const {
  serving::TableImageWriter writer(path, serving::kKindJoint);
  double meta_f64[kMetaF64Count];
  std::uint64_t meta_u64[kMetaU64Count];
  encode_meta(config_, meta_f64, meta_u64);
  writer.add_slab(serving::kSlabMetaF64, serving::SlabType::kF64, meta_f64, sizeof meta_f64);
  writer.add_slab(serving::kSlabMetaU64, serving::SlabType::kU64, meta_u64, sizeof meta_u64);
  serving::write_value_slabs(writer, {values(), num_entries()}, quant);
  writer.finish();
}

JointLogicTable JointLogicTable::load(const std::string& path) {
  serving::TableImage image = serving::TableImage::open(path);
  if (image.kind_name() != serving::kKindJoint) {
    throw TableIoError("JointLogicTable::load", "wrong table kind", path);
  }
  JointLogicTable table(decode_meta(image));
  const serving::ValueSlabs values = serving::open_value_slabs(image);
  if (values.count != table.q_.size()) {
    throw TableIoError("JointLogicTable::load", "size mismatch", path);
  }
  table.q_ = serving::dequantize_values(values);
  return table;
}

JointLogicTable JointLogicTable::open_mapped(const std::string& path) {
  return open_mapped(
      std::make_shared<const serving::TableImage>(serving::TableImage::open(path)));
}

JointLogicTable JointLogicTable::open_mapped(std::shared_ptr<const serving::TableImage> image) {
  const std::string& path = image->path();
  if (image->kind_name() != serving::kKindJoint) {
    throw TableIoError("JointLogicTable::open_mapped", "wrong table kind", path);
  }
  const serving::ValueSlabs values = serving::open_value_slabs(*image);
  if (values.quant != serving::Quantization::kNone) {
    throw TableIoError("JointLogicTable::open_mapped", "quantized image (use load())", path);
  }

  JointLogicTable table;
  table.config_ = decode_meta(*image);
  table.grid_ = table.config_.grid();
  const std::size_t expected = table.num_slabs() * table.num_tau_layers() * table.grid_.size() *
                               kNumAdvisories * kNumAdvisories;
  if (values.count != expected) {
    throw TableIoError("JointLogicTable::open_mapped", "size mismatch", path);
  }
  table.view_ = values.f32;
  table.view_size_ = values.count;
  table.image_ = std::move(image);
  return table;
}

void joint_action_costs(const JointLogicTable& table, const AircraftTrack& own,
                        const AircraftTrack& a, const AircraftTrack& b, Advisory ra,
                        const OnlineConfig& online, bool* active,
                        std::span<double, kNumAdvisories> out) {
  const TauEstimate tau_a = AcasXuLogic::estimate_tau(own, a, online);
  const TauEstimate tau_b = AcasXuLogic::estimate_tau(own, b, online);
  const bool a_active = tau_a.converging && tau_a.tau_s <= online.tau_alert_max_s;
  const bool b_active = tau_b.converging && tau_b.tau_s <= online.tau_alert_max_s;
  if (!a_active || !b_active) {
    *active = false;
    std::fill(out.begin(), out.end(), 0.0);
    return;
  }
  *active = true;

  // Deterministic primary selection: smaller tau first, ties broken on the
  // relative state (so swapping a and b can never change the result).
  const double ha = units::m_to_ft(a.position_m.z - own.position_m.z);
  const double hb = units::m_to_ft(b.position_m.z - own.position_m.z);
  const double dha = units::m_to_ft(a.velocity_mps.z);
  const double dhb = units::m_to_ft(b.velocity_mps.z);
  bool a_primary = tau_a.tau_s < tau_b.tau_s;
  if (tau_a.tau_s == tau_b.tau_s) {
    a_primary = (ha != hb) ? ha < hb : dha <= dhb;
  }

  const double tau1 = a_primary ? tau_a.tau_s : tau_b.tau_s;
  const double delta = (a_primary ? tau_b.tau_s : tau_a.tau_s) - tau1;
  const double h1 = a_primary ? ha : hb;
  const double dh_int1 = a_primary ? dha : dhb;
  const double h2 = a_primary ? hb : ha;
  const double dh2 = a_primary ? dhb : dha;
  const double dh_own = units::m_to_ft(own.velocity_mps.z);

  table.action_costs(tau1, delta, h1, dh_own, dh_int1, h2,
                     table.config().secondary.sense_of_rate(dh2), ra, out);
}

std::array<double, kNumAdvisories> joint_action_costs(const JointLogicTable& table,
                                                      const AircraftTrack& own,
                                                      const AircraftTrack& a,
                                                      const AircraftTrack& b, Advisory ra,
                                                      const OnlineConfig& online, bool* active) {
  std::array<double, kNumAdvisories> costs{};
  joint_action_costs(table, own, a, b, ra, online, active, costs);
  return costs;
}

}  // namespace cav::acasx
