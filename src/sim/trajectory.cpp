#include "sim/trajectory.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <sstream>

#include "util/csv.h"

namespace cav::sim {
namespace {

struct Bounds {
  double x_lo = std::numeric_limits<double>::infinity();
  double x_hi = -std::numeric_limits<double>::infinity();
  double y_lo = std::numeric_limits<double>::infinity();
  double y_hi = -std::numeric_limits<double>::infinity();

  void include(double x, double y) {
    x_lo = std::min(x_lo, x);
    x_hi = std::max(x_hi, x);
    y_lo = std::min(y_lo, y);
    y_hi = std::max(y_hi, y);
  }
  void pad() {
    if (x_hi - x_lo < 1e-9) { x_lo -= 1.0; x_hi += 1.0; }
    if (y_hi - y_lo < 1e-9) { y_lo -= 1.0; y_hi += 1.0; }
  }
};

void plot_point(std::vector<std::string>& canvas, const Bounds& b, double x, double y, char glyph) {
  const int w = static_cast<int>(canvas.front().size());
  const int h = static_cast<int>(canvas.size());
  const int col = static_cast<int>(std::lround((x - b.x_lo) / (b.x_hi - b.x_lo) * (w - 1)));
  const int row = static_cast<int>(std::lround((y - b.y_lo) / (b.y_hi - b.y_lo) * (h - 1)));
  const int r = h - 1 - std::clamp(row, 0, h - 1);
  const int c = std::clamp(col, 0, w - 1);
  canvas[static_cast<std::size_t>(r)][static_cast<std::size_t>(c)] = glyph;
}

/// Glyph-plotted aircraft: 0 as 'o'/'O', 1 as 'i'/'I' (upper case while an
/// advisory is active).
constexpr std::array<char, 2> kFreeGlyph{'o', 'i'};
constexpr std::array<char, 2> kAdvisoryGlyph{'O', 'I'};

std::string render(const Trajectory& traj, int width, int height, bool top_view) {
  if (traj.empty()) return "(empty trajectory)\n";
  Bounds b;
  for (const auto& s : traj) {
    for (std::size_t i = 0; i < kFreeGlyph.size(); ++i) {
      const Vec3& p = s.position_m[i];
      if (top_view) {
        b.include(p.x, p.y);
      } else {
        b.include(s.t_s, p.z);
      }
    }
  }
  b.pad();

  std::vector<std::string> canvas(static_cast<std::size_t>(height),
                                  std::string(static_cast<std::size_t>(width), ' '));
  for (const auto& s : traj) {
    for (std::size_t i = 0; i < kFreeGlyph.size(); ++i) {
      const Vec3& p = s.position_m[i];
      const char glyph = (s.advisory[i] != "COC") ? kAdvisoryGlyph[i] : kFreeGlyph[i];
      if (top_view) {
        plot_point(canvas, b, p.x, p.y, glyph);
      } else {
        plot_point(canvas, b, s.t_s, p.z, glyph);
      }
    }
  }

  std::ostringstream out;
  out << (top_view ? "top view (x: east [m], y: north [m])"
                   : "side view (x: time [s], y: altitude [m])")
      << "  —  'o'/'i' free flight, 'O'/'I' advisory active\n";
  out << "  y: [" << b.y_lo << ", " << b.y_hi << "]\n";
  for (const auto& line : canvas) out << "  |" << line << '\n';
  out << "  +" << std::string(static_cast<std::size_t>(width), '-') << "  x: [" << b.x_lo << ", "
      << b.x_hi << "]\n";
  return out.str();
}

}  // namespace

void write_trajectory_csv(const Trajectory& trajectory, const std::string& path) {
  CsvWriter csv(path);
  csv.header({"t_s", "aircraft", "x", "y", "z", "vs", "advisory"});
  for (const auto& s : trajectory) {
    for (std::size_t i = 0; i < s.position_m.size(); ++i) {
      csv.cell(s.t_s)
          .cell(i)
          .cell(s.position_m[i].x)
          .cell(s.position_m[i].y)
          .cell(s.position_m[i].z)
          .cell(s.vs_mps[i])
          .cell(s.advisory[i]);
      csv.end_row();
    }
  }
}

std::string render_top_view(const Trajectory& trajectory, int width, int height) {
  return render(trajectory, width, height, /*top_view=*/true);
}

std::string render_side_view(const Trajectory& trajectory, int width, int height) {
  return render(trajectory, width, height, /*top_view=*/false);
}

}  // namespace cav::sim
