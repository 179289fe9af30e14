// The joint-threat logic table: expected costs over the joint state of the
// own-ship and TWO simultaneous intruders, produced offline by the joint
// solver (joint_solver.h) and interpolated online.
//
// Why it exists: per-threat tables solved against a single intruder cannot
// represent the symmetric co-altitude squeeze (threats above and below at
// the same CPA time) — each table prices only its own geometry, so any
// fusion of pairwise optima (sim/multi_threat.h, ThreatPolicy::kCostFused)
// votes with costs that ignore the other threat's future.  Solving over
// joint intruder state is the ADP direction of Sunberg et al.
// (arXiv:1602.04762) and the joint-conflict layer of Wang et al.
// (arXiv:2005.14455).
//
// State factorization (kept tractable by abstraction, not truncation):
//   * PRIMARY threat (the one whose CPA comes first): full pairwise
//     fidelity — the (h1, dh_own, dh_int1) grid of StateSpaceConfig.
//   * SECONDARY threat: a compact abstraction — relative altitude h2 on
//     its own (coarser) axis, CPA offset delta = tau2 - tau1 >= 0 snapped
//     to a few bins, and a vertical-sense class {level, climbing,
//     descending} flown at a representative rate.
//   * tau LAYERS count down to the SECONDARY's CPA (the later one), so
//     both conflicts happen inside the recursion: the primary's NMAC cost
//     is charged at interior layer tau == delta, the secondary's at the
//     tau = 0 terminal layer.
//
// Each (delta bin, sense class) pair is one independent SLAB: neither
// changes during an encounter under the model, so the solver runs one
// 4-D tau recursion per slab (see mdp/joint_state.h for the indexing
// convention).  Layout: q[slab][tau][grid4][ra][action], action fastest.
//
// Storage mirrors LogicTable: owning (solved / load()ed) or a zero-copy
// view over an mmap-backed serving::TableImage (open_mapped()) — at
// standard size the ~330 MB payload is the strongest case for sharing
// one physical copy across processes.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "acasx/advisory.h"
#include "acasx/config.h"
#include "acasx/online_logic.h"
#include "mdp/joint_state.h"
#include "serving/quantize.h"
#include "util/grid.h"

namespace cav::serving {
class TableImage;
class TableImageWriter;
}

namespace cav::acasx {

/// Vertical-sense class of the secondary threat (its abstracted dynamics:
/// a constant representative rate instead of a full rate axis).
enum class SecondarySense : std::uint8_t { kLevel = 0, kClimbing, kDescending };
inline constexpr std::size_t kNumSecondarySenses = 3;

/// The compact second-intruder abstraction: what the joint state keeps of
/// the secondary threat, and how continuous observations snap into it.
struct SecondaryAbstraction {
  /// Relative-altitude axis of the secondary (intruder above own-ship,
  /// ft).  The 100 ft step matters: a coarser axis leaks the terminal
  /// NMAC band outward through the multilinear interpolation (measured:
  /// a 200 ft step costs ~4 ring NMACs and makes the logic over-cautious
  /// on statistical traffic).
  UniformAxis h2_ft{-600.0, 600.0, 13};
  /// CPA-offset bins: delta = tau2 - tau1 in seconds, bin i at value
  /// i * delta_step_s.  Queries snap to the NEAREST bin (clamped), so
  /// num_delta_bins * delta_step_s is the largest offset told apart from
  /// "delta_max".  delta_step_s must be a multiple of the dynamics step
  /// (the primary's NMAC charge lands on an integer tau layer).
  std::size_t num_delta_bins = 2;
  double delta_step_s = 10.0;
  /// Representative vertical rate (ft/s) flown by the climbing/descending
  /// sense classes (1500 ft/min, the initial-advisory rate).
  double sense_rate_fps = 1500.0 / 60.0;
  /// |vertical rate| below this (ft/s) classifies as kLevel.
  double sense_level_threshold_fps = 400.0 / 60.0;

  /// Nearest delta bin for a continuous offset (negative clamps to 0).
  std::size_t delta_bin(double delta_s) const {
    if (delta_s <= 0.0) return 0;
    const auto b = static_cast<std::size_t>(delta_s / delta_step_s + 0.5);
    return b >= num_delta_bins ? num_delta_bins - 1 : b;
  }
  /// CPA offset represented by bin b, seconds.
  double delta_value_s(std::size_t b) const { return static_cast<double>(b) * delta_step_s; }

  /// Sense class of a continuous vertical rate (ft/s).
  SecondarySense sense_of_rate(double dh_fps) const {
    if (dh_fps > sense_level_threshold_fps) return SecondarySense::kClimbing;
    if (dh_fps < -sense_level_threshold_fps) return SecondarySense::kDescending;
    return SecondarySense::kLevel;
  }
  /// Representative rate (ft/s) the abstraction flies for a sense class.
  double representative_rate_fps(SecondarySense s) const {
    switch (s) {
      case SecondarySense::kClimbing: return sense_rate_fps;
      case SecondarySense::kDescending: return -sense_rate_fps;
      case SecondarySense::kLevel: return 0.0;
    }
    return 0.0;
  }

  std::size_t num_slabs() const { return num_delta_bins * kNumSecondarySenses; }
};

/// Full configuration of the joint-threat MDP.  `space` describes the
/// primary threat exactly as in the pairwise AcasXuConfig (its tau_max is
/// the joint horizon: layers count down to the secondary's CPA); dynamics
/// and costs are shared with the pairwise model so joint Q values are in
/// the same cost units as pairwise Q values — the resolver sums both.
struct JointConfig {
  StateSpaceConfig space;
  SecondaryAbstraction secondary;
  DynamicsConfig dynamics;
  CostModel costs;

  /// THE joint solver grid over (h1, dh_own, dh_int1, h2).
  GridN<4> grid() const {
    return GridN<4>({space.h_ft, space.dh_own_fps, space.dh_int_fps, secondary.h2_ft});
  }

  /// Slab index convention: (delta bin, sense class), delta slowest.
  mdp::JointStateIndexer slabs() const {
    return mdp::JointStateIndexer({secondary.num_delta_bins, kNumSecondarySenses});
  }
  std::size_t slab_index(std::size_t delta_bin, SecondarySense sense) const {
    return slabs().flat({delta_bin, static_cast<std::size_t>(sense)});
  }

  /// Test-size preset (fast to solve, same code paths as standard;
  /// ~100 MB of Q, sub-second solve in Release).
  static JointConfig coarse();
  /// The laptop-scale default: the standard h axis with reduced rate
  /// axes.  ~330 MB of Q — size it down via `secondary`/`space` before
  /// solving on small machines.
  static JointConfig standard();
};

/// The solved joint-threat table.  Values are float (like LogicTable) to
/// keep the joint state space affordable.
class JointLogicTable {
 public:
  JointLogicTable() = default;
  explicit JointLogicTable(const JointConfig& config);

  const JointConfig& config() const { return config_; }
  const GridN<4>& grid() const { return grid_; }  ///< (h1, dh_own, dh_int1, h2)

  std::size_t num_slabs() const { return config_.secondary.num_slabs(); }
  std::size_t num_tau_layers() const { return config_.space.tau_max + 1; }
  std::size_t num_grid_points() const { return grid_.size(); }
  /// Total stored Q entries (slabs x tau layers x grid x ra x action).
  std::size_t num_entries() const { return view_ != nullptr ? view_size_ : q_.size(); }

  /// Flat index of (slab, tau, grid point, ra, action), action fastest.
  std::size_t index(std::size_t slab, std::size_t tau, std::size_t grid_flat, Advisory ra,
                    Advisory action) const {
    return (((slab * num_tau_layers() + tau) * grid_.size() + grid_flat) * kNumAdvisories +
            static_cast<std::size_t>(ra)) * kNumAdvisories +
           static_cast<std::size_t>(action);
  }

  float at(std::size_t slab, std::size_t tau, std::size_t grid_flat, Advisory ra,
           Advisory action) const {
    return values()[index(slab, tau, grid_flat, ra, action)];
  }
  /// Mutable access — owning tables only (the solver's write path).
  float& at(std::size_t slab, std::size_t tau, std::size_t grid_flat, Advisory ra,
            Advisory action) {
    return q_[index(slab, tau, grid_flat, ra, action)];
  }

  /// Interpolated per-action costs at a continuous joint state.  `tau1_s`
  /// is the PRIMARY's time to CPA and `delta_s = tau2 - tau1 >= 0` the
  /// secondary's offset; delta and the sense class snap to their bins
  /// (nearest), then the layer (tau1 + delta_bin_value) / dynamics.dt_s is
  /// interpolated linearly and (h1, dh_own, dh_int1, h2) multilinearly,
  /// exactly like LogicTable::action_costs.  The span overload is the real
  /// entry point (the shared serving kernel); the array form wraps it.
  void action_costs(double tau1_s, double delta_s, double h1_ft, double dh_own_fps,
                    double dh_int1_fps, double h2_ft, SecondarySense sense, Advisory ra,
                    std::span<double, kNumAdvisories> out) const;
  std::array<double, kNumAdvisories> action_costs(double tau1_s, double delta_s, double h1_ft,
                                                  double dh_own_fps, double dh_int1_fps,
                                                  double h2_ft, SecondarySense sense,
                                                  Advisory ra) const {
    std::array<double, kNumAdvisories> costs{};
    action_costs(tau1_s, delta_s, h1_ft, dh_own_fps, dh_int1_fps, h2_ft, sense, ra, costs);
    return costs;
  }

  /// Serialize to a versioned serving::TableImage container (the joint
  /// solve is minutes-scale at standard size; cache it like LogicTable).
  /// `quant` selects the stored value precision; int8 cuts the standard
  /// image to ~1/3 of the f32 bytes.
  void save(const std::string& path, serving::Quantization quant) const;
  void save(const std::string& path) const { save(path, serving::Quantization::kNone); }

  /// Load into an OWNING table (copies / dequantizes the payload).  Throws
  /// serving::TableIoError (a std::runtime_error) on any file that is not
  /// a "JNT2" image.
  static JointLogicTable load(const std::string& path);

  /// Zero-copy load over an unquantized (f32) image: values alias the
  /// shared mmap, so N processes pay one physical copy of the payload.
  /// The shared_ptr overload adopts an already-opened image
  /// (PolicyServer maps each file exactly once).
  static JointLogicTable open_mapped(const std::string& path);
  static JointLogicTable open_mapped(std::shared_ptr<const serving::TableImage> image);

  /// True when this table is an mmap view (no owned payload).
  bool is_mapped() const { return view_ != nullptr; }

  /// Decode the config metadata of a "JNT2" image without touching its
  /// value payload — how PolicyServer serves quantized images directly.
  static JointConfig decode_config(const serving::TableImage& image);

  /// The value payload, owning or mapped — the serving kernel's view.
  const float* values() const { return view_ != nullptr ? view_ : q_.data(); }

  /// Direct access for the solver (owning tables only; throws on a
  /// mapped view).
  std::vector<float>& raw();
  const std::vector<float>& raw() const;

 private:
  JointConfig config_;
  GridN<4> grid_;
  std::vector<float> q_;
  // Set only on mapped tables: the view pointer targets image_'s mapping,
  // so default copy/move keep it valid (the image is shared).
  const float* view_ = nullptr;
  std::size_t view_size_ = 0;
  std::shared_ptr<const serving::TableImage> image_;
};

/// Online joint query from surveillance tracks — the joint analogue of
/// AcasXuLogic::peek_costs, shared by every table-backed CAS adapter
/// (sim/acasx_cas.h and friends).  Estimates each threat's horizontal tau
/// under `online`, orders the pair deterministically by (tau, then
/// relative state) so the result is invariant under swapping `a` and `b`,
/// and queries the table with the primary at full fidelity.  `*active` is
/// false — and the costs are all zero, carrying no preference — unless
/// BOTH threats are converging within the alerting horizon
/// (`online.tau_alert_max_s`); the caller then falls back to pairwise
/// fusion.  The span overload writes into caller storage; the array form
/// wraps it.
void joint_action_costs(const JointLogicTable& table, const AircraftTrack& own,
                        const AircraftTrack& a, const AircraftTrack& b, Advisory ra,
                        const OnlineConfig& online, bool* active,
                        std::span<double, kNumAdvisories> out);
std::array<double, kNumAdvisories> joint_action_costs(const JointLogicTable& table,
                                                      const AircraftTrack& own,
                                                      const AircraftTrack& a,
                                                      const AircraftTrack& b, Advisory ra,
                                                      const OnlineConfig& online, bool* active);

}  // namespace cav::acasx
