//===- bench/bench_arith.cpp - Exact-arithmetic fast-path gate -----------===//
//
// Measures the BigInt small-value optimization (DESIGN.md §10): every
// section runs the same deterministic operand stream twice, once with
// canonical inline-int64 operands ("small") and once with operands
// force-spilled to the limb representation ("spilled" — the code shape the
// pre-PR always-limb BigInt executed for every operation), and records
// ns/op for both plus the speedup.
//
// Three properties are enforced, not just reported (any violation exits 1):
//
//   * differential: each section's small and spilled checksums agree;
//   * golden: checksums match the values hardcoded below, so a future
//     arithmetic regression cannot hide behind self-consistency;
//   * allocation-free: a global operator new/delete interposer counts heap
//     allocations during the small runs — the total must be zero, and the
//     arithmetic spill counter must also read zero.
//
//   bench_arith [--quick] [--reps N] [--ops N] [--out FILE]
//
// One JSON object is printed to stdout (and written to FILE with --out);
// ci.sh runs `--quick` as a smoke gate and the full form refreshes
// BENCH_arith.json at the repo root.
//
//===----------------------------------------------------------------------===//

#include "support/BigInt.h"
#include "support/Rational.h"

#include "AllocCounter.h"

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

using namespace omega;

namespace {

//===----------------------------------------------------------------------===//
// Deterministic operand streams
//===----------------------------------------------------------------------===//

/// Fixed-seed LCG so every run (and every platform) times the identical
/// operand stream.
struct Lcg {
  uint64_t X = 0x243f6a8885a308d3ull;
  uint64_t next() {
    X = X * 6364136223846793005ull + 1442695040888963407ull;
    return X;
  }
  /// Uniform-ish in [Lo, Hi].
  int64_t range(int64_t Lo, int64_t Hi) {
    return Lo + static_cast<int64_t>(next() %
                                     static_cast<uint64_t>(Hi - Lo + 1));
  }
};

struct Operands {
  std::vector<BigInt> A, B;         ///< Canonical small representations.
  std::vector<BigInt> SpA, SpB;     ///< The same values, force-spilled.
};

/// Typical Omega-test magnitudes: coefficients a few digits wide,
/// denominators/divisors nonzero.
Operands makeOperands(size_t N) {
  Operands O;
  Lcg R;
  O.A.reserve(N);
  O.B.reserve(N);
  for (size_t I = 0; I < N; ++I) {
    int64_t A = R.range(-9999, 9999);
    int64_t B = R.range(1, 9999) * (R.next() & 1 ? 1 : -1);
    O.A.emplace_back(A);
    O.B.emplace_back(B);
  }
  O.SpA = O.A;
  O.SpB = O.B;
  for (BigInt &V : O.SpA)
    V.forceSpillForTesting();
  for (BigInt &V : O.SpB)
    V.forceSpillForTesting();
  return O;
}

using Clock = std::chrono::steady_clock;

struct SectionResult {
  std::string Name;
  double SmallNsPerOp = 0, SpilledNsPerOp = 0;
  uint64_t OpsTimed = 0;
  uint64_t SmallAllocs = 0;
  uint64_t SmallChecksum = 0, SpilledChecksum = 0;
  uint64_t GoldenChecksum = 0; ///< 0 = no golden known for this --ops size.
  double speedup() const { return SpilledNsPerOp / SmallNsPerOp; }
  bool ok() const {
    return SmallChecksum == SpilledChecksum &&
           (GoldenChecksum == 0 || SmallChecksum == GoldenChecksum);
  }
};

/// Runs \p Body over both operand sets, timing each and counting
/// allocations during the small run.  \p OpsPerPair is the number of
/// BigInt operations Body performs per index (for ns/op).
template <typename BodyFn>
SectionResult runSection(const std::string &Name, const Operands &O, int Reps,
                         unsigned OpsPerPair, uint64_t Golden, BodyFn Body) {
  SectionResult R;
  R.Name = Name;
  R.OpsTimed = O.A.size() * OpsPerPair;
  R.GoldenChecksum = Golden;

  auto Time = [&](const std::vector<BigInt> &A, const std::vector<BigInt> &B,
                  uint64_t &Checksum, uint64_t *Allocs) {
    double BestNs = -1;
    for (int Rep = 0; Rep < Reps; ++Rep) {
      AllocWindow W; // Counting is cheap; open it for both variants.
      auto T0 = Clock::now();
      uint64_t C = Body(A, B);
      auto T1 = Clock::now();
      uint64_t Delta = W.close();
      double Ns = static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(T1 - T0)
              .count());
      if (BestNs < 0 || Ns < BestNs)
        BestNs = Ns;
      Checksum = C;
      if (Allocs)
        *Allocs = Delta;
    }
    return BestNs / static_cast<double>(R.OpsTimed);
  };

  R.SmallNsPerOp = Time(O.A, O.B, R.SmallChecksum, &R.SmallAllocs);
  R.SpilledNsPerOp = Time(O.SpA, O.SpB, R.SpilledChecksum, nullptr);
  return R;
}

/// Folds a BigInt into a checksum without allocating (small values only).
uint64_t fold(uint64_t H, const BigInt &V) {
  return H * 1000003ull + static_cast<uint64_t>(V.toInt64());
}

std::string jsonEscape(const std::string &S) {
  std::string Out;
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    Out += C;
  }
  return Out;
}

} // namespace

int main(int Argc, char **Argv) {
  size_t Ops = 200000;
  int Reps = 3;
  std::string OutPath;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto Next = [&]() -> const char * {
      if (++I >= Argc) {
        std::cerr << "bench_arith: missing value after " << Arg << "\n";
        std::exit(1);
      }
      return Argv[I];
    };
    if (Arg == "--quick") {
      Ops = 20000;
      Reps = 1;
    } else if (Arg == "--ops")
      Ops = static_cast<size_t>(std::atoll(Next()));
    else if (Arg == "--reps")
      Reps = std::atoi(Next());
    else if (Arg == "--out")
      OutPath = Next();
    else {
      std::cerr
          << "usage: bench_arith [--quick] [--ops N] [--reps N] [--out F]\n";
      return 1;
    }
  }

  Operands O = makeOperands(Ops);
  arithCounters().Spills.store(0);

  // Golden checksums for the two standard workload sizes (0 = unknown size,
  // golden check skipped; the small-vs-spilled differential still applies).
  struct Goldens {
    uint64_t AddSub, MulGcdDiv, FloorCeilMod, RationalNorm;
  };
  Goldens G{};
  if (Ops == 20000)
    G = {0xfffffffffffd6cc7ull, 0x963965bdad501d81ull, 0xa8dc8d15abd6e36bull,
         0x853889e9b4436c3dull};
  else if (Ops == 200000)
    G = {0x3144c2ull, 0x716336d25c2586cull, 0x2c42b15c60f55e99ull,
         0x1ee99598a6a2be82ull};

  std::vector<SectionResult> Sections;

  // Chained accumulate: the Fourier-Motzkin / summation inner loop shape.
  Sections.push_back(runSection(
      "add_sub", O, Reps, 2, G.AddSub,
      [](const std::vector<BigInt> &A, const std::vector<BigInt> &B) {
        BigInt Acc(0);
        for (size_t I = 0; I < A.size(); ++I) {
          Acc += A[I];
          Acc -= B[I];
        }
        return fold(0, Acc);
      }));

  // Multiply / gcd / exact divide: the coefficient-normalization shape.
  Sections.push_back(runSection(
      "mul_gcd_divexact", O, Reps, 3, G.MulGcdDiv,
      [](const std::vector<BigInt> &A, const std::vector<BigInt> &B) {
        uint64_t H = 0;
        for (size_t I = 0; I < A.size(); ++I) {
          BigInt P = A[I] * B[I];
          BigInt G = BigInt::gcd(P, B[I]);
          H = fold(H, BigInt::divExact(P, B[I]));
          H = fold(H, G);
        }
        return H;
      }));

  // Floor/ceil division and mathematical modulus: the bound-splitting and
  // stride-normalization shape.
  Sections.push_back(runSection(
      "floor_ceil_mod", O, Reps, 3, G.FloorCeilMod,
      [](const std::vector<BigInt> &A, const std::vector<BigInt> &B) {
        uint64_t H = 0;
        for (size_t I = 0; I < A.size(); ++I) {
          H = fold(H, BigInt::floorDiv(A[I], B[I]));
          H = fold(H, BigInt::ceilDiv(A[I], B[I]));
          H = fold(H, BigInt::floorMod(A[I], B[I]));
        }
        return H;
      }));

  // Rational construction + normalization: the quasi-polynomial
  // coefficient shape (counts as ~3 BigInt ops: gcd + two exact divides).
  Sections.push_back(runSection(
      "rational_normalize", O, Reps, 3, G.RationalNorm,
      [](const std::vector<BigInt> &A, const std::vector<BigInt> &B) {
        uint64_t H = 0;
        for (size_t I = 0; I < A.size(); ++I) {
          Rational R(A[I], B[I]);
          H = fold(H, R.numerator());
          H = fold(H, R.denominator());
        }
        return H;
      }));

  uint64_t SpillsAfterSmall = arithCounters().Spills.load();
  bool Failed = false;
  uint64_t TotalSmallAllocs = 0;
  double MinSpeedup = -1, GeoProduct = 1;
  for (const SectionResult &S : Sections) {
    TotalSmallAllocs += S.SmallAllocs;
    if (MinSpeedup < 0 || S.speedup() < MinSpeedup)
      MinSpeedup = S.speedup();
    GeoProduct *= S.speedup();
    if (S.SmallChecksum != S.SpilledChecksum) {
      std::cerr << "bench_arith: DIFFERENTIAL MISMATCH in " << S.Name
                << ": small=" << S.SmallChecksum
                << " spilled=" << S.SpilledChecksum << "\n";
      Failed = true;
    }
    if (S.GoldenChecksum != 0 && S.SmallChecksum != S.GoldenChecksum) {
      std::cerr << "bench_arith: GOLDEN MISMATCH in " << S.Name
                << ": got=" << S.SmallChecksum
                << " want=" << S.GoldenChecksum << "\n";
      Failed = true;
    }
    if (S.SmallAllocs != 0) {
      std::cerr << "bench_arith: ALLOCATION on the small path in " << S.Name
                << ": " << S.SmallAllocs << " allocations\n";
      Failed = true;
    }
  }
  if (SpillsAfterSmall != 0) {
    std::cerr << "bench_arith: SPILLS on the small path: " << SpillsAfterSmall
              << "\n";
    Failed = true;
  }
  double GeoMean =
      Sections.empty()
          ? 0
          : std::pow(GeoProduct, 1.0 / static_cast<double>(Sections.size()));

  std::ostringstream JS;
  JS << "{\"bench\":\"arith\",\"ops\":" << Ops << ",\"reps\":" << Reps
     << ",\"sections\":[";
  for (size_t I = 0; I < Sections.size(); ++I) {
    const SectionResult &S = Sections[I];
    if (I)
      JS << ",";
    JS << "{\"name\":\"" << jsonEscape(S.Name) << "\",\"small_ns_per_op\":"
       << S.SmallNsPerOp << ",\"spilled_ns_per_op\":" << S.SpilledNsPerOp
       << ",\"speedup\":" << S.speedup() << ",\"small_allocations\":"
       << S.SmallAllocs << ",\"checksum\":\"" << std::hex << S.SmallChecksum
       << std::dec << "\",\"checksum_ok\":" << (S.ok() ? "true" : "false")
       << "}";
  }
  JS << "],\"speedup_min\":" << MinSpeedup << ",\"speedup_geomean\":"
     << GeoMean << ",\"small_allocations_total\":" << TotalSmallAllocs
     << ",\"small_spills_total\":" << SpillsAfterSmall
     << ",\"checks_passed\":" << (Failed ? "false" : "true") << "}";
  std::cout << JS.str() << "\n";
  if (!OutPath.empty()) {
    std::ofstream Out(OutPath);
    if (!Out) {
      std::cerr << "bench_arith: cannot write " << OutPath << "\n";
      return 1;
    }
    Out << JS.str() << "\n";
  }

  std::cerr << "bench_arith: small path x" << MinSpeedup << ".."
            << "geomean x" << GeoMean << " vs spilled, "
            << TotalSmallAllocs << " allocations, " << SpillsAfterSmall
            << " spills on the small path\n";
  if (Failed)
    return 1;
  std::cout << "bench_arith: ok\n";
  return 0;
}
