// The generated "logic table" — the paper's central artifact: a look-up
// table of expected costs over the discretized encounter state space,
// produced offline by dynamic programming and interpolated online.
//
// Layout: q[tau][h][dh_own][dh_int][ra][action], row-major with action
// fastest.  Values are float to keep the standard table ~38 MB.
//
// Storage: a table either OWNS its values (solved in memory, or load()ed
// with a copy/dequantization) or is a zero-copy VIEW over an mmap-backed
// serving::TableImage (open_mapped()), in which case N processes opening
// the same image share one physical copy of the payload.  Every query
// goes through values(); the two modes are indistinguishable to callers.
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
#include "serving/quantize.h"
#include "util/grid.h"

namespace cav::serving {
class TableImage;
class TableImageWriter;
}

namespace cav::acasx {

class LogicTable {
 public:
  LogicTable() = default;
  explicit LogicTable(const AcasXuConfig& config);

  const AcasXuConfig& config() const { return config_; }
  const GridN<3>& grid() const { return grid_; }  ///< (h, dh_own, dh_int)

  std::size_t num_tau_layers() const { return config_.space.tau_max + 1; }
  std::size_t num_grid_points() const { return grid_.size(); }
  /// Total stored Q entries (tau layers x grid x ra x action).
  std::size_t num_entries() const { return view_ != nullptr ? view_size_ : q_.size(); }

  /// Flat index of (tau, grid point, ra, action).
  std::size_t index(std::size_t tau, std::size_t grid_flat, Advisory ra, Advisory action) const {
    return ((tau * grid_.size() + grid_flat) * kNumAdvisories +
            static_cast<std::size_t>(ra)) * kNumAdvisories +
           static_cast<std::size_t>(action);
  }

  float at(std::size_t tau, std::size_t grid_flat, Advisory ra, Advisory action) const {
    return values()[index(tau, grid_flat, ra, action)];
  }
  /// Mutable access — owning tables only (the solver's write path).
  float& at(std::size_t tau, std::size_t grid_flat, Advisory ra, Advisory action) {
    return q_[index(tau, grid_flat, ra, action)];
  }

  /// Interpolated per-action costs at a continuous state.  tau_s is clamped
  /// to [0, tau_max] and interpolated linearly between integer layers; the
  /// (h, dh_own, dh_int) point is interpolated multilinearly (clamped at
  /// the grid boundary).  The span overload is the real entry point — the
  /// same serving kernel the batched PolicyServer runs (batch-of-one is
  /// bit-identical by construction); the array form is a thin wrapper.
  void action_costs(double tau_s, double h_ft, double dh_own_fps, double dh_int_fps, Advisory ra,
                    std::span<double, kNumAdvisories> out) const;
  std::array<double, kNumAdvisories> action_costs(double tau_s, double h_ft, double dh_own_fps,
                                                  double dh_int_fps, Advisory ra) const {
    std::array<double, kNumAdvisories> costs{};
    action_costs(tau_s, h_ft, dh_own_fps, dh_int_fps, ra, costs);
    return costs;
  }

  /// Serialize to a versioned serving::TableImage container, so the
  /// minutes-scale offline solve can be cached across runs and mmap-shared
  /// across processes.  `quant` selects the stored value precision
  /// (serving/quantize.h); kNone round-trips bit-identically.
  void save(const std::string& path, serving::Quantization quant) const;
  void save(const std::string& path) const { save(path, serving::Quantization::kNone); }

  /// Load into an OWNING table: TableImage payloads are copied (and
  /// dequantized when the image is f16/int8 — lossy, by design).  Throws
  /// serving::TableIoError (a std::runtime_error) on any file that is not
  /// a "PAIR" image.
  static LogicTable load(const std::string& path);

  /// Zero-copy load: the returned table's values alias the mmap'd image
  /// (shared physical pages across processes).  Requires an unquantized
  /// (f32) image; use load() to dequantize a compressed one.  The
  /// shared_ptr overload adopts an image something else already opened
  /// (PolicyServer maps each file exactly once).
  static LogicTable open_mapped(const std::string& path);
  static LogicTable open_mapped(std::shared_ptr<const serving::TableImage> image);

  /// True when this table is an mmap view (no owned payload).
  bool is_mapped() const { return view_ != nullptr; }

  /// Decode the config metadata of a "PAIR" image without touching its
  /// value payload — how PolicyServer serves quantized images directly.
  static AcasXuConfig decode_config(const serving::TableImage& image);

  /// The value payload, owning or mapped — the serving kernel's view.
  const float* values() const { return view_ != nullptr ? view_ : q_.data(); }

  /// Direct access for the solver (owning tables only; throws on a
  /// mapped view).
  std::vector<float>& raw();
  const std::vector<float>& raw() const;

 private:
  AcasXuConfig config_;
  GridN<3> grid_;
  std::vector<float> q_;
  // Set only on mapped tables: the view pointer targets image_'s mapping,
  // so default copy/move keep it valid (the image is shared).
  const float* view_ = nullptr;
  std::size_t view_size_ = 0;
  std::shared_ptr<const serving::TableImage> image_;
};

}  // namespace cav::acasx
