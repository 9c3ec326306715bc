//===- tests/VarTableRssTest.cpp - The symbol table's resident cost ------===//
//
// The symbol table must cost memory only for the names it holds.  This
// binary holds this one test, so the internVar below is the first symbol
// lookup of its process and the VmRSS delta around it is the table's
// start-up cost.
//
//===----------------------------------------------------------------------===//

#include "presburger/VarTable.h"

#include <gtest/gtest.h>

#include <fstream>
#include <optional>
#include <string>

namespace {

/// This process's resident set in KiB, or nullopt where /proc is absent.
std::optional<long> residentKiB() {
  std::ifstream Status("/proc/self/status");
  std::string Line;
  while (std::getline(Status, Line))
    if (Line.rfind("VmRSS:", 0) == 0)
      return std::stol(Line.substr(6));
  return std::nullopt;
}

TEST(VarTableRss, FirstInternIsCheap) {
  std::optional<long> Before = residentKiB();
  if (!Before)
    GTEST_SKIP() << "/proc/self/status has no VmRSS here";
  omega::internVar("first_name");
  std::optional<long> After = residentKiB();
  ASSERT_TRUE(After.has_value());
  EXPECT_LT(*After - *Before, 2 * 1024)
      << "VmRSS grew from " << *Before << " KiB to " << *After << " KiB";
  EXPECT_EQ(omega::varTableSize(), 1u);
}

} // namespace
