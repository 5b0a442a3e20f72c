// Tests for rl/q_table and rl/schedules.

#include <gtest/gtest.h>

#include <string>

#include "rl/q_table.hpp"
#include "rl/schedules.hpp"

namespace axdse::rl {
namespace {

TEST(QTable, DefaultsToInitialValue) {
  const QTable table(4, 0.5);
  EXPECT_DOUBLE_EQ(table.Get(123, 0), 0.5);
  EXPECT_DOUBLE_EQ(table.MaxValue(123), 0.5);
  EXPECT_EQ(table.NumStates(), 0u);
}

TEST(QTable, SetAndGet) {
  QTable table(3);
  table.Set(7, 1, 2.5);
  EXPECT_DOUBLE_EQ(table.Get(7, 1), 2.5);
  EXPECT_DOUBLE_EQ(table.Get(7, 0), 0.0);
  EXPECT_EQ(table.NumStates(), 1u);
}

TEST(QTable, MaxValueOverRow) {
  QTable table(3);
  table.Set(1, 0, -1.0);
  table.Set(1, 1, 4.0);
  table.Set(1, 2, 2.0);
  EXPECT_DOUBLE_EQ(table.MaxValue(1), 4.0);
}

TEST(QTable, GreedyActionDeterministicWithoutRng) {
  QTable table(3);
  table.Set(1, 2, 9.0);
  EXPECT_EQ(table.GreedyAction(1), 2u);
  // Unvisited rows: lowest index.
  EXPECT_EQ(table.GreedyAction(99), 0u);
}

TEST(QTable, GreedyActionBreaksTiesUniformly) {
  QTable table(4);
  table.Set(5, 1, 3.0);
  table.Set(5, 3, 3.0);
  util::Rng rng(1);
  int count1 = 0;
  int count3 = 0;
  for (int i = 0; i < 2000; ++i) {
    const std::size_t a = table.GreedyAction(5, &rng);
    ASSERT_TRUE(a == 1 || a == 3);
    (a == 1 ? count1 : count3)++;
  }
  EXPECT_GT(count1, 800);
  EXPECT_GT(count3, 800);
}

TEST(QTable, ExpectedValueInterpolatesGreedyAndMean) {
  QTable table(2);
  table.Set(1, 0, 0.0);
  table.Set(1, 1, 10.0);
  EXPECT_DOUBLE_EQ(table.ExpectedValue(1, 0.0), 10.0);   // pure greedy
  EXPECT_DOUBLE_EQ(table.ExpectedValue(1, 1.0), 5.0);    // pure random
  EXPECT_DOUBLE_EQ(table.ExpectedValue(1, 0.5), 7.5);
  EXPECT_DOUBLE_EQ(table.ExpectedValue(42, 0.3), 0.0);   // unvisited
}

TEST(QTable, RejectsInvalidConstructionAndActions) {
  EXPECT_THROW(QTable(0), std::invalid_argument);
  QTable table(2);
  EXPECT_THROW(table.Get(0, 2), std::out_of_range);
  EXPECT_THROW(table.Set(0, 5, 1.0), std::out_of_range);
}

TEST(QTable, RowsAcrossBlocksKeepTheirValues) {
  QTable table(3, 0.25);
  // Rows in three blocks, one of them (block 1) never allocated.
  for (const StateId state : {StateId{2}, StateId{63}, StateId{130}})
    for (std::size_t a = 0; a < 3; ++a)
      table.Set(state, a, 0.1 * static_cast<double>(state) + a);
  EXPECT_EQ(table.NumStates(), 3u);
  EXPECT_DOUBLE_EQ(table.Get(130, 2), 15.0);
  EXPECT_DOUBLE_EQ(table.Get(63, 1), 7.3);
  EXPECT_DOUBLE_EQ(table.Get(64, 0), 0.25);  // unallocated block
}

TEST(QTable, ReadsPastTheMaterializedRangeDoNotMaterialize) {
  QTable table(3, 1.5);
  table.Set(2, 0, 9.0);
  util::Rng rng(3);
  for (const StateId state : {StateId{5}, StateId{64}, StateId{1000000}}) {
    EXPECT_DOUBLE_EQ(table.Get(state, 1), 1.5);
    EXPECT_DOUBLE_EQ(table.MaxValue(state), 1.5);
    EXPECT_DOUBLE_EQ(table.ExpectedValue(state, 0.3), 1.5);
    EXPECT_EQ(table.GreedyAction(state), 0u);
    EXPECT_LT(table.GreedyAction(state, &rng), 3u);
  }
  EXPECT_EQ(table.NumStates(), 1u);
  EXPECT_DOUBLE_EQ(table.Get(2, 0), 9.0);
  EXPECT_DOUBLE_EQ(table.Get(2, 1), 1.5);
}

TEST(Schedules, ConstantIsFlat) {
  const EpsilonSchedule s = EpsilonSchedule::Constant(0.2);
  EXPECT_DOUBLE_EQ(s.Value(0), 0.2);
  EXPECT_DOUBLE_EQ(s.Value(1000000), 0.2);
}

TEST(Schedules, LinearInterpolatesAndClamps) {
  const EpsilonSchedule s = EpsilonSchedule::Linear(1.0, 0.0, 100);
  EXPECT_DOUBLE_EQ(s.Value(0), 1.0);
  EXPECT_DOUBLE_EQ(s.Value(50), 0.5);
  EXPECT_DOUBLE_EQ(s.Value(100), 0.0);
  EXPECT_DOUBLE_EQ(s.Value(10000), 0.0);
}

TEST(Schedules, LinearCanIncrease) {
  const EpsilonSchedule s = EpsilonSchedule::Linear(0.1, 0.9, 80);
  EXPECT_DOUBLE_EQ(s.Value(40), 0.5);
}

TEST(Schedules, ExponentialDecaysTowardsEnd) {
  const EpsilonSchedule s = EpsilonSchedule::Exponential(1.0, 0.1, 0.99);
  EXPECT_DOUBLE_EQ(s.Value(0), 1.0);
  EXPECT_GT(s.Value(100), 0.1);
  EXPECT_NEAR(s.Value(100000), 0.1, 1e-6);
  // Monotone non-increasing.
  double prev = 2.0;
  for (std::size_t step = 0; step < 1000; step += 50) {
    EXPECT_LE(s.Value(step), prev);
    prev = s.Value(step);
  }
}

TEST(Schedules, ValidateParameters) {
  EXPECT_THROW(EpsilonSchedule::Constant(1.5), std::invalid_argument);
  EXPECT_THROW(EpsilonSchedule::Constant(-0.1), std::invalid_argument);
  EXPECT_THROW(EpsilonSchedule::Linear(0.5, 0.1, 0), std::invalid_argument);
  EXPECT_THROW(EpsilonSchedule::Linear(2.0, 0.1, 10), std::invalid_argument);
  EXPECT_THROW(EpsilonSchedule::Exponential(1.0, 0.1, 0.0),
               std::invalid_argument);
  EXPECT_THROW(EpsilonSchedule::Exponential(1.0, 0.1, 1.5),
               std::invalid_argument);
}

}  // namespace
}  // namespace axdse::rl
