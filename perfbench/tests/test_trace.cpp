#include <gtest/gtest.h>

#include <vector>

#include "trace.h"

namespace perfbench {
namespace {

TEST(SelfTime, ParentMinusItsChildren) {
  // root [0, 100) with children [10, 30) and [50, 90); the second child has
  // a grandchild [60, 70).
  const std::vector<Span> spans = {
      {"root", 0, 100, -1, -1},
      {"sim.run", 10, 30, 0, 0},
      {"sim.run", 50, 90, 0, 1},
      {"sim.inner", 60, 70, 2, -1},
  };
  const auto self = self_times_ns(spans, {});
  EXPECT_EQ(self[0], 40);
  EXPECT_EQ(self[1], 20);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 10);
}

TEST(SelfTime, OverlappingChildrenCountOnceAndAreClippedToTheParent) {
  const std::vector<Span> spans = {
      {"root", 0, 100, -1, -1},
      {"a.x", 10, 40, 0, -1},
      {"a.y", 30, 60, 0, -1},   // overlaps the first child by 10
      {"a.z", 90, 120, 0, -1},  // runs past the parent's end
  };
  EXPECT_EQ(self_times_ns(spans, {})[0], 100 - 50 - 10);
}

TEST(SelfTime, AggregatesAreSubtractedFromTheirParent) {
  const std::vector<Span> spans = {{"root", 0, 100, -1, -1}, {"sim.run", 0, 80, 0, 0}};
  const std::vector<Aggregate> aggs = {{"sim.cas", 1, 500, 30}};
  const auto self = self_times_ns(spans, aggs);
  EXPECT_EQ(self[0], 20);
  EXPECT_EQ(self[1], 50);

  const auto layers = layer_self_seconds(spans, aggs);
  EXPECT_EQ(layers.count("root"), 0u);  // phase roots belong to no layer
  EXPECT_DOUBLE_EQ(layers.at("sim"), 80e-9);  // 50 self + 30 aggregated
}

TEST(Tracer, NestsSpansRecordsRequestsAndCoverage) {
  Tracer t;
  EXPECT_EQ(t.begin("off"), -1);  // disabled: records nothing
  t.enable(true);
  const int root = t.begin("measure");
  const int child = t.begin("serving.pair_batch", 7);
  t.aggregate("serving.single_query", 3, 0);
  t.end(child);
  t.end(root);
  ASSERT_EQ(t.spans().size(), 2u);
  EXPECT_EQ(t.spans()[1].parent, root);
  EXPECT_EQ(t.spans()[1].request, 7);
  ASSERT_EQ(t.aggregates().size(), 1u);
  EXPECT_EQ(t.aggregates()[0].parent, child);
  const std::int64_t wall = t.spans()[0].end_ns - t.spans()[0].start_ns;
  EXPECT_DOUBLE_EQ(t.root_coverage(wall), 1.0);
  EXPECT_DOUBLE_EQ(t.root_coverage(2 * wall), 0.5);
}

}  // namespace
}  // namespace perfbench
