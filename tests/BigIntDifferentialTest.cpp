//===- tests/BigIntDifferentialTest.cpp - Fast path vs limb path ---------===//
//
// Cross-checks the inline-int64 fast path against the limb slow path
// (DESIGN.md §10).  Every operation is evaluated three ways on the same
// values: canonical small operands (fast path), force-spilled operands
// (slow path — the shape every op took before the small-value
// optimization), and, for + - *, an __int128 reference model.
//
// Contract notes exercised here:
//  * results of arithmetic re-canonicalize, so small-path and
//    spilled-path results compare equal with == and hash identically;
//  * a force-spilled operand itself is out of contract for direct ==
//    / compare / hash against a small value — only *results* are compared;
//  * a representative small-coefficient countSolutions query runs without
//    a single spill (the allocation-free claim, observed via counters).
//
//===----------------------------------------------------------------------===//

#include "counting/Summation.h"
#include "presburger/Parser.h"
#include "support/BigInt.h"
#include "support/Rational.h"

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

using omega::BigInt;
using omega::Rational;

namespace {

std::string int128ToString(__int128 V) {
  if (V == 0)
    return "0";
  bool Neg = V < 0;
  unsigned __int128 Mag =
      Neg ? ~static_cast<unsigned __int128>(V) + 1
          : static_cast<unsigned __int128>(V);
  std::string S;
  while (Mag != 0) {
    S.insert(S.begin(), static_cast<char>('0' + int(Mag % 10)));
    Mag /= 10;
  }
  return Neg ? "-" + S : S;
}

/// Operand pool straddling every representation boundary: zero, machine
/// words, the 2^31/2^32 limb edges, and both sides of the 2^62 small/large
/// edge, each in both signs, plus fixed-seed random values of every width.
std::vector<int64_t> boundaryValues() {
  const int64_t SmallMax = (int64_t(1) << 62) - 1;
  std::vector<int64_t> Mags = {0,
                               1,
                               2,
                               3,
                               5,
                               7,
                               1000003,
                               (int64_t(1) << 31) - 1,
                               int64_t(1) << 31,
                               (int64_t(1) << 32) - 1,
                               int64_t(1) << 32,
                               (int64_t(1) << 32) + 1,
                               SmallMax - 1,
                               SmallMax,
                               SmallMax + 1, // First canonical-large value.
                               SmallMax + 2,
                               INT64_MAX - 1,
                               INT64_MAX};
  std::mt19937_64 Rng(0xace1u);
  for (int Width = 4; Width <= 62; Width += 7)
    Mags.push_back(static_cast<int64_t>(Rng() >> (64 - Width)));
  std::vector<int64_t> Out;
  for (int64_t M : Mags) {
    Out.push_back(M);
    if (M != 0)
      Out.push_back(-M);
  }
  return Out;
}

/// A copy of V with the inline representation forced out to limbs when
/// possible (canonical-large values are unaffected).
BigInt spilled(const BigInt &V) {
  BigInt S = V;
  S.forceSpillForTesting();
  return S;
}

TEST(BigIntDifferentialTest, AddSubMulAgainstInt128) {
  for (int64_t A : boundaryValues())
    for (int64_t B : boundaryValues()) {
      BigInt FA(A), FB(B);
      BigInt SA = spilled(FA), SB = spilled(FB);

      BigInt Sum = FA + FB, SpSum = SA + SB;
      BigInt Dif = FA - FB, SpDif = SA - SB;
      BigInt Prd = FA * FB, SpPrd = SA * SB;

      // Results re-canonicalize: == and hash must agree across paths.
      EXPECT_EQ(Sum, SpSum);
      EXPECT_EQ(Dif, SpDif);
      EXPECT_EQ(Prd, SpPrd);
      EXPECT_EQ(Sum.hash(), SpSum.hash());
      EXPECT_EQ(Prd.hash(), SpPrd.hash());

      // Reference model.
      EXPECT_EQ(Sum.toString(), int128ToString(__int128(A) + B));
      EXPECT_EQ(Dif.toString(), int128ToString(__int128(A) - B));
      EXPECT_EQ(Prd.toString(), int128ToString(__int128(A) * B));
    }
}

TEST(BigIntDifferentialTest, DivisionFamilyAcrossPaths) {
  for (int64_t A : boundaryValues())
    for (int64_t B : boundaryValues()) {
      if (B == 0)
        continue;
      BigInt FA(A), FB(B);
      BigInt SA = spilled(FA), SB = spilled(FB);

      EXPECT_EQ(FA / FB, SA / SB);
      EXPECT_EQ(FA % FB, SA % SB);
      EXPECT_EQ(BigInt::floorDiv(FA, FB), BigInt::floorDiv(SA, SB));
      EXPECT_EQ(BigInt::ceilDiv(FA, FB), BigInt::ceilDiv(SA, SB));
      EXPECT_EQ(BigInt::floorMod(FA, FB), BigInt::floorMod(SA, SB));

      // Truncated division identity ties quotient and remainder together.
      EXPECT_EQ((FA / FB) * FB + FA % FB, FA);
    }
}

TEST(BigIntDifferentialTest, GcdDividesDivExactAcrossPaths) {
  for (int64_t A : boundaryValues())
    for (int64_t B : boundaryValues()) {
      BigInt FA(A), FB(B);
      BigInt SA = spilled(FA), SB = spilled(FB);

      BigInt G = BigInt::gcd(FA, FB);
      // gcd may return a copy of a (spilled) operand, so compare by value,
      // not representation.
      EXPECT_EQ(G.toString(), BigInt::gcd(SA, SB).toString());
      EXPECT_EQ(FB.divides(FA), SB.divides(SA));
      if (!G.isZero()) {
        EXPECT_EQ(BigInt::divExact(FA, G).toString(),
                  BigInt::divExact(SA, BigInt::gcd(SA, SB)).toString());
        // divExact after gcd is the Constraint::normalize shape; the
        // round-trip must reconstruct the operand.
        EXPECT_EQ(BigInt::divExact(FA, G) * G, FA);
      }
    }
}

TEST(BigIntDifferentialTest, ResultsRecanonicalize) {
  // Arithmetic on spilled operands lands back in the inline form whenever
  // the value fits — the unspill path.
  BigInt A = spilled(BigInt(1000));
  BigInt B = spilled(BigInt(-7));
  EXPECT_FALSE(A.isSmallRep());
  EXPECT_TRUE((A + B).isSmallRep());
  EXPECT_TRUE((A - B).isSmallRep());
  EXPECT_TRUE((A * B).isSmallRep());
  EXPECT_TRUE((A / B).isSmallRep());
  EXPECT_TRUE((A % B).isSmallRep());

  // And a genuinely large result stays large.
  BigInt Huge = BigInt::pow(BigInt(2), 100);
  EXPECT_FALSE(Huge.isSmallRep());
  EXPECT_FALSE((Huge + A).isSmallRep());
  // Shrinking back under the 2^62 edge unspills.
  EXPECT_TRUE((Huge - Huge + A).isSmallRep());
}

TEST(BigIntDifferentialTest, RationalNormalizeAcrossPaths) {
  for (int64_t A : boundaryValues())
    for (int64_t B : boundaryValues()) {
      if (B == 0)
        continue;
      Rational Fast{BigInt(A), BigInt(B)};
      Rational Slow{spilled(BigInt(A)), spilled(BigInt(B))};
      EXPECT_EQ(Fast.numerator().toString(), Slow.numerator().toString())
          << A << "/" << B;
      EXPECT_EQ(Fast.denominator().toString(), Slow.denominator().toString())
          << A << "/" << B;
    }
}

TEST(BigIntDifferentialTest, CountSolutionsSmallCoefficientsNeverSpills) {
  using namespace omega;
  // Representative of the paper's workloads: small coefficients, strides,
  // a coupling constraint, and a symbolic bound.  The whole pipeline must
  // stay on the inline fast path.
  ParseResult R = parseFormula(
      "(1 <= i <= n && 1 <= j <= n && i + 2*j <= 3*n && 2 | i + j)");
  ASSERT_TRUE(static_cast<bool>(R)) << R.Error;

  arithCounters().Spills.store(0);
  PiecewiseValue V = countSolutions(*R.Value, VarSet{"i", "j"}).Value;
  EXPECT_EQ(arithCounters().Spills.load(), 0u)
      << "small-coefficient counting query spilled to the limb path";
  // Sanity: the query actually did arithmetic.
  EXPECT_FALSE(V.toString().empty());
}

} // namespace
