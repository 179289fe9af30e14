#include "sim/served_cas.h"

#include "sim/acasx_cas.h"
#include "util/expect.h"

namespace cav::sim {

CasFactory served_acasx_factory(const serving::PolicyServer& server,
                                acasx::OnlineConfig online, UavPerformance perf,
                                TrackerConfig tracker) {
  expect(server.pairwise_table() != nullptr,
         "server exposes float tables (not quantized serving mode)");
  return AcasXuCas::factory(server.pairwise_table(), online, perf, tracker,
                            server.joint_table());
}

}  // namespace cav::sim
