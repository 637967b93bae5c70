#include <gtest/gtest.h>

#include <thread>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "common/types.hpp"

namespace zh {
namespace {

TEST(Types, DivUp) {
  EXPECT_EQ(div_up(0, 4), 0u);
  EXPECT_EQ(div_up(1, 4), 1u);
  EXPECT_EQ(div_up(4, 4), 1u);
  EXPECT_EQ(div_up(5, 4), 2u);
  EXPECT_EQ(div_up(8, 4), 2u);
  EXPECT_EQ(div_up(9, 4), 3u);
}

TEST(Types, TileRelationValuesMatchPaperEncoding) {
  // The paper encodes outside=0, inside=1, intersect=2.
  EXPECT_EQ(static_cast<int>(TileRelation::kOutside), 0);
  EXPECT_EQ(static_cast<int>(TileRelation::kInside), 1);
  EXPECT_EQ(static_cast<int>(TileRelation::kIntersect), 2);
}

TEST(Error, RequireThrowsWithMessage) {
  // A refused input is reported by its message alone: no condition text,
  // source file or line.
  try {
    ZH_REQUIRE(1 == 2, "custom context ", 42);
    FAIL() << "should have thrown";
  } catch (const InvalidArgument& e) {
    EXPECT_STREQ(e.what(), "custom context 42");
  }
  try {
    ZH_REQUIRE_IO(1 == 2, "cannot read ", "f.bq");
    FAIL() << "should have thrown";
  } catch (const IoError& e) {
    EXPECT_STREQ(e.what(), "cannot read f.bq");
  }
}

TEST(Error, RequirePassesSilently) {
  EXPECT_NO_THROW(ZH_REQUIRE(true, "never"));
}

TEST(Error, IoErrorIsError) {
  EXPECT_THROW(throw IoError("x"), Error);
  EXPECT_THROW(throw InvalidArgument("x"), Error);
}

TEST(Timer, Monotonic) {
  Timer t;
  const double a = t.seconds();
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  const double b = t.seconds();
  EXPECT_GE(a, 0.0);
  EXPECT_GT(b, a);
  t.reset();
  EXPECT_LT(t.seconds(), b);
}

TEST(Timer, MillisConsistentWithSeconds) {
  Timer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  const double s = t.seconds();
  const double ms = t.millis();
  EXPECT_GE(ms, s * 1e3);  // millis read later, so at least as large
}

TEST(StepTimes, TotalsAndAccumulate) {
  StepTimes a;
  a.seconds = {1.0, 2.0, 0.5, 0.25, 4.0};
  a.overhead.transfer = 0.1;
  a.overhead.merge = 0.05;
  a.overhead.output = 0.1;
  EXPECT_DOUBLE_EQ(a.step_total(), 7.75);
  EXPECT_DOUBLE_EQ(a.overhead.total(), 0.25);
  EXPECT_DOUBLE_EQ(a.end_to_end(), 8.0);

  StepTimes b;
  b.seconds = {0.5, 0.5, 0.5, 0.5, 0.5};
  b.overhead.transfer = 0.25;
  b.overhead.output = 0.25;
  a += b;
  EXPECT_DOUBLE_EQ(a.seconds[0], 1.5);
  EXPECT_DOUBLE_EQ(a.seconds[4], 4.5);
  EXPECT_DOUBLE_EQ(a.overhead.transfer, 0.35);
  EXPECT_DOUBLE_EQ(a.overhead.merge, 0.05);
  EXPECT_DOUBLE_EQ(a.overhead.output, 0.35);
  EXPECT_DOUBLE_EQ(a.overhead.total(), 0.75);
}

TEST(StepTimes, MaxWithIsElementwise) {
  StepTimes a;
  a.seconds = {1, 5, 1, 5, 1};
  a.overhead.transfer = 2;
  a.overhead.merge = 1;
  StepTimes b;
  b.seconds = {2, 4, 2, 4, 2};
  b.overhead.transfer = 1;
  b.overhead.merge = 3;
  b.overhead.output = 0.5;
  const StepTimes m = a.max_with(b);
  EXPECT_DOUBLE_EQ(m.seconds[0], 2);
  EXPECT_DOUBLE_EQ(m.seconds[1], 5);
  EXPECT_DOUBLE_EQ(m.seconds[2], 2);
  EXPECT_DOUBLE_EQ(m.seconds[3], 5);
  EXPECT_DOUBLE_EQ(m.seconds[4], 2);
  // Overhead buckets reduce element-wise too, not as a lump.
  EXPECT_DOUBLE_EQ(m.overhead.transfer, 2);
  EXPECT_DOUBLE_EQ(m.overhead.merge, 3);
  EXPECT_DOUBLE_EQ(m.overhead.output, 0.5);
}

TEST(StepTimes, StepNamesMatchTable2Rows) {
  EXPECT_NE(StepTimes::step_name(0).find("decompression"),
            std::string::npos);
  EXPECT_NE(StepTimes::step_name(1).find("Per-tile"), std::string::npos);
  EXPECT_NE(StepTimes::step_name(4).find("Cell-in-polygon"),
            std::string::npos);
  EXPECT_EQ(StepTimes::step_name(99), "unknown step");
}

}  // namespace
}  // namespace zh
