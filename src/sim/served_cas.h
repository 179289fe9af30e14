// Wiring simulator CAS agents onto a PolicyServer's shared storage.
//
// A PolicyServer opened over f32 images exposes its mmap-backed tables
// (serving/policy_server.h); this factory hands exactly those
// shared_ptrs to the table-backed CAS adapter, so every agent in every
// simulation — and every simulating process on the machine — reads the
// one physical copy of the table pages.  Quantized serving mode has no
// float tables, so the factory rejects it (dequantize via
// LogicTable::load to simulate against a compressed image).
#pragma once

#include "acasx/online_logic.h"
#include "serving/policy_server.h"
#include "sim/cas.h"
#include "sim/tracker.h"
#include "sim/uav.h"

namespace cav::sim {

/// AcasXuCas agents over the server's tables (joint query enabled when the
/// server has a joint table; `online.belief` selects the belief-aware
/// variant).
CasFactory served_acasx_factory(const serving::PolicyServer& server,
                                acasx::OnlineConfig online = {}, UavPerformance perf = {},
                                TrackerConfig tracker = {});

}  // namespace cav::sim
