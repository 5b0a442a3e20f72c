// First use of the process-wide 8-bit product tables from many threads at
// once: every requester of one (family, parameter) must get the same table,
// and the table must hold the family math for the whole 256x256 domain.
// This binary touches no table before the race, so every request below hits
// an unbuilt slot; the TSan CI job runs it.

#include <gtest/gtest.h>

#include <cstdint>
#include <latch>
#include <thread>
#include <vector>

#include "axc/catalog.hpp"
#include "axc/execution_plan.hpp"

namespace axdse::axc {
namespace {

TEST(ProductTable8, ConcurrentFirstUseBuildsOneExactTable) {
  const std::vector<MultiplierSpec>& specs =
      EvoApproxCatalog::Instance().Multipliers8();
  constexpr std::size_t kThreads = 8;
  // seen[t][m] = the table thread t got for multiplier m.
  std::vector<std::vector<const std::uint32_t*>> seen(
      kThreads, std::vector<const std::uint32_t*>(specs.size()));
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      // Threads walk the list from different offsets, so every slot sees
      // concurrent first requests.
      for (std::size_t i = 0; i < specs.size(); ++i) {
        const std::size_t m = (t + i) % specs.size();
        seen[t][m] = ProductTable8(specs[m].op);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (std::size_t m = 0; m < specs.size(); ++m) {
    const MulOpDescriptor& op = specs[m].op;
    const std::uint32_t* table = seen[0][m];
    for (std::size_t t = 1; t < kThreads; ++t)
      EXPECT_EQ(seen[t][m], table) << specs[m].name << " thread " << t;
    if (op.code == MulOpCode::kExact) {
      EXPECT_EQ(table, nullptr) << specs[m].name;
      continue;
    }
    ASSERT_NE(table, nullptr) << specs[m].name;
    EXPECT_EQ(ProductTable8(op), table) << specs[m].name;
    std::size_t mismatches = 0;
    for (std::uint64_t a = 0; a < 256; ++a)
      for (std::uint64_t b = 0; b < 256; ++b)
        if (table[(a << 8) | b] != DispatchMul(op, a, b)) ++mismatches;
    EXPECT_EQ(mismatches, 0u) << specs[m].name;
  }
}

}  // namespace
}  // namespace axdse::axc
