#include <gtest/gtest.h>

#include <vector>

#include "core/histogram.hpp"

namespace zh {
namespace {

TEST(HistogramSet, ShapeAndAccess) {
  HistogramSet h(3, 10);
  EXPECT_EQ(h.groups(), 3u);
  EXPECT_EQ(h.bins(), 10u);
  EXPECT_EQ(h.flat().size(), 30u);
  h.row(1)[4] = 7;
  EXPECT_EQ(h.flat()[14], 7u);
  EXPECT_EQ(h.group_total(1), 7u);
  EXPECT_EQ(h.group_total(0), 0u);
  EXPECT_EQ(h.total(), 7u);
  EXPECT_THROW((void)h.of(3), InvalidArgument);
}

TEST(HistogramSet, AddAccumulatesElementwise) {
  HistogramSet a(2, 4);
  HistogramSet b(2, 4);
  a.row(0)[1] = 3;
  b.row(0)[1] = 4;
  b.row(1)[2] = 5;
  a.add(b);
  EXPECT_EQ(a.of(0)[1], 7u);
  EXPECT_EQ(a.of(1)[2], 5u);
  HistogramSet c(2, 5);
  EXPECT_THROW(a.add(c), InvalidArgument);
}

TEST(HistogramSet, EqualityAndZeroInit) {
  HistogramSet a(2, 3);
  HistogramSet b(2, 3);
  EXPECT_EQ(a, b);
  for (const BinCount v : a.flat()) EXPECT_EQ(v, 0u);
  a.row(0)[0] = 1;
  EXPECT_NE(a, b);
}

TEST(HistogramSet, RejectsZeroBins) {
  EXPECT_THROW(HistogramSet(1, 0), InvalidArgument);
  EXPECT_THROW(HistogramSet(1, 0, {0}), InvalidArgument);
}

TEST(HistogramSet, HeldRowsInGroupOrder) {
  HistogramSet h(6, 4, {1, 4});
  EXPECT_EQ(h.groups(), 6u);
  EXPECT_EQ(std::vector<PolygonId>(h.held().begin(), h.held().end()),
            (std::vector<PolygonId>{1, 4}));
  EXPECT_EQ(h.flat().size(), 8u);  // two rows, held groups only
  h.row(4)[3] = 9;
  h.row(1)[0] = 2;
  EXPECT_EQ(h.flat()[0], 2u);
  EXPECT_EQ(h.flat()[7], 9u);
  EXPECT_EQ(h.total(), 11u);
  EXPECT_EQ(h.group_total(4), 9u);
  // An unheld group reads zeros and cannot be written.
  EXPECT_EQ(h.of(3).size(), 4u);
  EXPECT_EQ(h.group_total(3), 0u);
  EXPECT_THROW((void)h.row(3), InvalidArgument);
  EXPECT_THROW((void)h.of(6), InvalidArgument);
  EXPECT_THROW((void)h.row(6), InvalidArgument);
}

TEST(HistogramSet, RejectsHeldGroupsOutOfOrderOrRange) {
  EXPECT_THROW(HistogramSet(4, 2, {2, 1}), InvalidArgument);
  EXPECT_THROW(HistogramSet(4, 2, {1, 1}), InvalidArgument);
  EXPECT_THROW(HistogramSet(4, 2, {4}), InvalidArgument);
  EXPECT_NO_THROW(HistogramSet(4, 2, {}));
}

TEST(HistogramSet, EqualityReadsUnheldGroupsAsZeros) {
  HistogramSet dense(5, 3);
  HistogramSet held(5, 3, {1, 3});
  EXPECT_EQ(dense, held);
  EXPECT_EQ(held, HistogramSet(5, 3, {}));
  dense.row(3)[2] = 4;
  EXPECT_NE(dense, held);
  held.row(3)[2] = 4;
  EXPECT_EQ(dense, held);
  EXPECT_EQ(held, dense);
  // A held row of zeros equals an unheld group; a count in a group the
  // other set does not hold does not.
  dense.row(0)[0] = 1;
  EXPECT_NE(dense, held);
  EXPECT_NE(held, dense);
  EXPECT_NE(HistogramSet(5, 3, {1}), HistogramSet(6, 3, {1}));
}

TEST(HistogramSet, AddMergesByGroup) {
  HistogramSet a(6, 2, {1, 4});
  a.row(1)[0] = 1;
  a.row(4)[1] = 2;
  HistogramSet b(6, 2, {0, 4, 5});
  b.row(0)[1] = 3;
  b.row(4)[1] = 4;
  b.row(5)[0] = 5;

  // Into a dense set: in place.
  HistogramSet dense(6, 2);
  dense.add(a);
  dense.add(b);
  EXPECT_EQ(dense.held().size(), 6u);
  EXPECT_EQ(dense.of(4)[1], 6u);
  EXPECT_EQ(dense.total(), 15u);

  // Into a held set: the sum holds the union of the groups.
  HistogramSet sum(6, 2, {});
  sum.add(a);
  sum.add(b);
  EXPECT_EQ(std::vector<PolygonId>(sum.held().begin(), sum.held().end()),
            (std::vector<PolygonId>{0, 1, 4, 5}));
  EXPECT_EQ(sum, dense);
  EXPECT_EQ(sum.of(0)[1], 3u);
  EXPECT_EQ(sum.of(1)[0], 1u);
  EXPECT_EQ(sum.of(5)[0], 5u);
  EXPECT_EQ(sum.total(), dense.total());
  EXPECT_THROW(sum.add(HistogramSet(7, 2, {})), InvalidArgument);
}

TEST(ZonalStats, BasicMoments) {
  HistogramSet h(1, 10);
  // Values: 2 x3, 5 x1 -> count 4, mean (6+5)/4 = 2.75.
  h.row(0)[2] = 3;
  h.row(0)[5] = 1;
  const ZonalStats s = stats_from_histogram(h.of(0));
  EXPECT_EQ(s.count, 4u);
  EXPECT_EQ(s.min, 2u);
  EXPECT_EQ(s.max, 5u);
  EXPECT_DOUBLE_EQ(s.mean, 2.75);
  // Population variance: (3*(2-2.75)^2 + (5-2.75)^2)/4 = 1.6875.
  EXPECT_NEAR(s.stddev * s.stddev, 1.6875, 1e-12);
}

TEST(ZonalStats, EmptyHistogram) {
  HistogramSet h(1, 5);
  const ZonalStats s = stats_from_histogram(h.of(0));
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.min, 0u);
  EXPECT_EQ(s.max, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
}

TEST(ZonalStats, SingleBin) {
  HistogramSet h(1, 5);
  h.row(0)[3] = 100;
  const ZonalStats s = stats_from_histogram(h.of(0));
  EXPECT_EQ(s.min, 3u);
  EXPECT_EQ(s.max, 3u);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
}

TEST(HistogramDistance, L1) {
  HistogramSet a(1, 4);
  HistogramSet b(1, 4);
  a.row(0)[0] = 5;
  a.row(0)[2] = 1;
  b.row(0)[0] = 2;
  b.row(0)[3] = 7;
  EXPECT_EQ(histogram_l1_distance(a.of(0), b.of(0)), 3u + 1u + 7u);
  EXPECT_EQ(histogram_l1_distance(a.of(0), a.of(0)), 0u);
  HistogramSet c(1, 5);
  EXPECT_THROW((void)histogram_l1_distance(a.of(0), c.of(0)), InvalidArgument);
}

}  // namespace
}  // namespace zh
