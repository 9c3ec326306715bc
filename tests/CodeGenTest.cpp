//===- tests/CodeGenTest.cpp - Polyhedron-scanning loop generation -------===//

#include "apps/CodeGen.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>

using namespace omega;

namespace {

AffineExpr var(const char *N) { return AffineExpr::variable(N); }

/// Visited points as (sorted) tuples over \p Order.
std::set<std::vector<int64_t>> visited(const GeneratedScan &Scan,
                                       const std::vector<std::string> &Order,
                                       const Assignment &Params) {
  std::set<std::vector<int64_t>> Out;
  for (const Assignment &P : runScan(Scan, Params)) {
    std::vector<int64_t> T;
    for (const std::string &V : Order)
      T.push_back(P.at(internVar(V)).toInt64());
    Out.insert(std::move(T));
  }
  return Out;
}

/// Ground truth by box enumeration of the clause.
std::set<std::vector<int64_t>>
enumerated(const Conjunct &C, const std::vector<std::string> &Order,
           const Assignment &Params, int64_t Lo, int64_t Hi) {
  std::set<std::vector<int64_t>> Out;
  std::vector<int64_t> Vals(Order.size(), Lo);
  while (true) {
    Assignment A = Params;
    for (size_t I = 0; I < Order.size(); ++I)
      A[Order[I]] = BigInt(Vals[I]);
    if (C.contains(A))
      Out.insert(Vals);
    size_t I = 0;
    while (I < Vals.size() && ++Vals[I] > Hi)
      Vals[I++] = Lo;
    if (I == Vals.size())
      break;
  }
  return Out;
}

TEST(CodeGenTest, TriangleExactBounds) {
  // 1 <= i <= j <= n: unit bounds, exact scan with no guard.
  Conjunct C;
  C.add(Constraint::ge(var("i") - AffineExpr(1)));
  C.add(Constraint::ge(var("j") - var("i")));
  C.add(Constraint::ge(var("n") - var("j")));
  std::vector<std::string> Order{"i", "j"};
  GeneratedScan Scan = generateScan(C, Order);
  EXPECT_TRUE(Scan.Exact);
  EXPECT_TRUE(Scan.Guard.empty());
  for (int64_t N : {0, 1, 5}) {
    Assignment P{{"n", BigInt(N)}};
    EXPECT_EQ(visited(Scan, Order, P), enumerated(C, Order, P, -2, 8))
        << "n=" << N;
  }
}

TEST(CodeGenTest, EmittedTextShape) {
  Conjunct C;
  C.add(Constraint::ge(var("i") - AffineExpr(1)));
  C.add(Constraint::ge(var("n") - var("i")));
  C.add(Constraint::ge(var("m") - var("i")));
  GeneratedScan Scan = generateScan(C, {"i"});
  std::string Text = Scan.emit();
  EXPECT_NE(Text.find("for (i = "), std::string::npos);
  EXPECT_NE(Text.find("min("), std::string::npos);
  EXPECT_NE(Text.find("visit(i);"), std::string::npos);
}

TEST(CodeGenTest, RationalBoundsGetGuard) {
  // 1 <= 3i <= n needs ceil/floor bounds; scan stays correct.
  Conjunct C;
  C.add(Constraint::ge(BigInt(3) * var("i") - AffineExpr(1)));
  C.add(Constraint::ge(var("n") - BigInt(3) * var("i")));
  std::vector<std::string> Order{"i"};
  GeneratedScan Scan = generateScan(C, Order);
  for (int64_t N : {0, 2, 3, 10}) {
    Assignment P{{"n", BigInt(N)}};
    EXPECT_EQ(visited(Scan, Order, P), enumerated(C, Order, P, -3, 6))
        << "n=" << N;
  }
  // Normalization tightens the constant lower bound 3i >= 1 to the unit
  // form i >= 1; the symbolic upper bound keeps its divisor.
  std::string Text = Scan.emit();
  EXPECT_NE(Text.find("floord("), std::string::npos);
}

TEST(CodeGenTest, StrideClauseGuarded) {
  // Even numbers in [0, n]: stride makes the shadow inexact; the guard
  // filters the odd points.
  Conjunct C;
  C.add(Constraint::ge(var("i")));
  C.add(Constraint::ge(var("n") - var("i")));
  C.add(Constraint::stride(BigInt(2), var("i")));
  std::vector<std::string> Order{"i"};
  GeneratedScan Scan = generateScan(C, Order);
  EXPECT_FALSE(Scan.Exact);
  EXPECT_FALSE(Scan.Guard.empty());
  for (int64_t N : {0, 1, 7}) {
    Assignment P{{"n", BigInt(N)}};
    EXPECT_EQ(visited(Scan, Order, P), enumerated(C, Order, P, -2, 9))
        << "n=" << N;
  }
}

TEST(CodeGenTest, EqualityPinsLevel) {
  // j = 2i inside a box: the j loop collapses to a single iteration.
  Conjunct C;
  C.add(Constraint::ge(var("i") - AffineExpr(1)));
  C.add(Constraint::ge(AffineExpr(4) - var("i")));
  C.add(Constraint::eq(var("j") - BigInt(2) * var("i")));
  std::vector<std::string> Order{"i", "j"};
  GeneratedScan Scan = generateScan(C, Order);
  Assignment P;
  EXPECT_EQ(visited(Scan, Order, P), enumerated(C, Order, P, -1, 10));
}

TEST(CodeGenTest, CoupledBoundsBothOrders) {
  // i + j <= n diagonal region, generated in both orders.
  Conjunct C;
  C.add(Constraint::ge(var("i") - AffineExpr(1)));
  C.add(Constraint::ge(var("j") - AffineExpr(1)));
  C.add(Constraint::ge(var("n") - var("i") - var("j")));
  for (std::vector<std::string> Order :
       {std::vector<std::string>{"i", "j"},
        std::vector<std::string>{"j", "i"}}) {
    GeneratedScan Scan = generateScan(C, Order);
    Assignment P{{"n", BigInt(6)}};
    EXPECT_EQ(visited(Scan, Order, P), enumerated(C, Order, P, -1, 8));
  }
}

TEST(CodeGenTest, RandomClausesScanExactly) {
  std::mt19937_64 Rng(606);
  int Done = 0;
  for (int Trial = 0; Trial < 80 && Done < 25; ++Trial) {
    Conjunct C;
    auto RC = [&] { return BigInt(int64_t(Rng() % 7) - 3); };
    unsigned NumCons = 1 + Rng() % 3;
    for (unsigned I = 0; I < NumCons; ++I)
      C.add(Constraint::ge(RC() * var("i") + RC() * var("j") +
                           AffineExpr(RC())));
    for (const char *V : {"i", "j"}) {
      C.add(Constraint::ge(var(V) + AffineExpr(4)));
      C.add(Constraint::ge(AffineExpr(4) - var(V)));
    }
    if (Rng() % 3 == 0)
      C.add(Constraint::stride(BigInt(2 + Rng() % 2), var("i") + var("j")));
    if (!feasible(C))
      continue;
    ++Done;
    std::vector<std::string> Order{"i", "j"};
    GeneratedScan Scan = generateScan(C, Order);
    Assignment P;
    EXPECT_EQ(visited(Scan, Order, P), enumerated(C, Order, P, -5, 5))
        << "trial " << Trial;
  }
  EXPECT_GE(Done, 15);
}

} // namespace
