//===- bench/bench_ir.cpp - Flat-term AffineExpr IR gate -----------------===//
//
// Measures the interned-variable, flat-term AffineExpr (DESIGN.md §16)
// against the representation it replaced: a BigInt constant plus a
// std::map<std::string, BigInt> keyed on variable names.  The reference
// model lives in this file so the comparison survives the old code's
// deletion, and both implementations run the identical deterministic
// workload streams over a four-variable roster (every intermediate stays
// within InlineCapacity, which is the shape the Omega test produces).
//
// Sections cover the clause hot paths: copy + gcd-normalize, the
// Fourier-combine accumulate (+=/-=), equality-elimination substitution,
// and the canonical-key three-way comparison that feeds
// canonicalConjunct's sort.
//
// Three properties are enforced, not just reported (any violation exits 1):
//
//   * differential: each section's flat and map checksums agree;
//   * golden: checksums match the values hardcoded below for the standard
//     workload sizes, so an IR regression cannot hide behind
//     self-consistency;
//   * allocation-free: a global operator new/delete interposer counts heap
//     allocations during the flat runs — the total must be zero, and the
//     AffineExpr spill counter must also read zero (everything stays in
//     the inline term buffer).
//
//   bench_ir [--quick] [--reps N] [--ops N] [--out FILE]
//
// One JSON object is printed to stdout (and written to FILE with --out);
// ci.sh runs `--quick` as a smoke gate (aggregate speedup >= 3x) and the
// full form refreshes BENCH_ir.json at the repo root.
//
//===----------------------------------------------------------------------===//

#include "presburger/AffineExpr.h"
#include "presburger/Var.h"
#include "presburger/VarTable.h"
#include "support/BigInt.h"

#include "AllocCounter.h"

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

using namespace omega;

namespace {

//===----------------------------------------------------------------------===//
// The reference model: the pre-interning expression representation
//===----------------------------------------------------------------------===//

/// `c0 + Σ ci * vi` with coefficients keyed on variable *names* — the
/// per-term node allocations, string copies, and string compares the flat
/// representation eliminated.  Only the operations the sections time are
/// modeled, with the same zero-elision invariant.
struct MapExpr {
  BigInt Const;
  std::map<std::string, BigInt> Terms;

  void setCoeff(const std::string &Name, BigInt C) {
    if (C.isZero())
      Terms.erase(Name);
    else
      Terms[Name] = std::move(C);
  }

  /// this += Scale * RHS (the Fourier-combine / substitution inner loop).
  void addScaled(const MapExpr &RHS, const BigInt *Scale, bool Negate) {
    for (const auto &[Name, Coef] : RHS.Terms) {
      BigInt C = Scale ? Coef * *Scale : Coef;
      if (Negate)
        C = -C;
      auto It = Terms.find(Name);
      if (It == Terms.end()) {
        Terms.emplace(Name, std::move(C));
        continue;
      }
      It->second += C;
      if (It->second.isZero())
        Terms.erase(It);
    }
  }

  MapExpr &operator+=(const MapExpr &RHS) {
    Const += RHS.Const;
    addScaled(RHS, nullptr, false);
    return *this;
  }
  MapExpr &operator-=(const MapExpr &RHS) {
    Const -= RHS.Const;
    addScaled(RHS, nullptr, true);
    return *this;
  }
  MapExpr &operator*=(const BigInt &Factor) {
    Const *= Factor;
    for (auto &KV : Terms)
      KV.second *= Factor;
    return *this;
  }

  BigInt coeffGcd() const {
    BigInt G(0);
    for (const auto &KV : Terms) {
      G = BigInt::gcd(G, KV.second);
      if (G.isOne())
        break;
    }
    return G;
  }

  void divCoeffsExact(const BigInt &G) {
    if (G.isOne())
      return;
    for (auto &KV : Terms)
      KV.second = BigInt::divExact(KV.second, G);
  }

  void substitute(const std::string &Name, const MapExpr &Replacement) {
    auto It = Terms.find(Name);
    if (It == Terms.end())
      return;
    BigInt C = std::move(It->second);
    Terms.erase(It);
    Const += C * Replacement.Const;
    addScaled(Replacement, &C, false);
  }

  /// The container-order compare the flat operator< replicates.
  friend bool operator<(const MapExpr &L, const MapExpr &R) {
    if (L.Const != R.Const)
      return L.Const < R.Const;
    return L.Terms < R.Terms;
  }
};

//===----------------------------------------------------------------------===//
// Deterministic workloads over a four-variable roster
//===----------------------------------------------------------------------===//

/// Forces the serialized key bytes to materialize (the buffers are never
/// read back, and a dead-store elimination would time nothing).
volatile uint64_t BenchSink = 0;

/// Fixed-seed LCG so every run (and every platform) times the identical
/// workload stream.
struct Lcg {
  uint64_t X = 0x9e3779b97f4a7c15ull;
  uint64_t next() {
    X = X * 6364136223846793005ull + 1442695040888963407ull;
    return X;
  }
  int64_t range(int64_t Lo, int64_t Hi) {
    return Lo + static_cast<int64_t>(next() %
                                     static_cast<uint64_t>(Hi - Lo + 1));
  }
};

/// Exactly InlineCapacity variables: every merge result stays inline, so
/// the flat runs must be allocation- and spill-free end to end.
const char *RosterNames[] = {"i", "j", "k", "n"};
constexpr size_t RosterSize = 4;
static_assert(RosterSize == AffineExpr::InlineCapacity,
              "roster sized to pin the inline-path gate");

struct ExprPair {
  AffineExpr Flat;
  MapExpr Map;
};

/// One expression over a random subset of the roster, mirrored into both
/// representations.  MentionAll forces every roster variable in (for the
/// substitution targets).
ExprPair makeExpr(Lcg &R, const std::vector<VarId> &Ids, unsigned MaxTerms,
                  bool MentionAll) {
  ExprPair P;
  int64_t K = R.range(-9999, 9999);
  P.Flat.setConstant(BigInt(K));
  P.Map.Const = BigInt(K);
  unsigned NTerms = MentionAll
                        ? static_cast<unsigned>(RosterSize)
                        : static_cast<unsigned>(R.range(1, MaxTerms));
  // Distinct variables: walk the roster, keeping each with probability
  // proportional to the quota left.
  unsigned Kept = 0;
  for (size_t V = 0; V < RosterSize && Kept < NTerms; ++V) {
    if (!MentionAll &&
        static_cast<uint64_t>(R.range(0, RosterSize - V - 1)) >=
            static_cast<uint64_t>(NTerms - Kept))
      continue;
    int64_t C = R.range(1, 9999) * (R.next() & 1 ? 1 : -1);
    P.Flat.setCoeff(Ids[V], BigInt(C));
    P.Map.setCoeff(RosterNames[V], BigInt(C));
    ++Kept;
  }
  return P;
}

using Clock = std::chrono::steady_clock;

/// Order-insensitive checksum fold: Const plus Σ Coef * weight(var).  Both
/// representations iterate in their own storage order, so the fold must
/// not depend on it.
uint64_t foldFlat(uint64_t H, const AffineExpr &E,
                  const std::vector<int64_t> &WeightById) {
  int64_t Sum = E.constant().toInt64();
  for (const auto &[V, Coef] : E.terms())
    Sum += Coef.toInt64() * WeightById[V.index()];
  return H * 1000003ull + static_cast<uint64_t>(Sum);
}

uint64_t foldMap(uint64_t H, const MapExpr &E,
                 const std::map<std::string, int64_t> &WeightByName) {
  int64_t Sum = E.Const.toInt64();
  for (const auto &[Name, Coef] : E.Terms)
    Sum += Coef.toInt64() * WeightByName.at(Name);
  return H * 1000003ull + static_cast<uint64_t>(Sum);
}

struct SectionResult {
  std::string Name;
  double FlatNsPerOp = 0, MapNsPerOp = 0;
  double FlatBestNs = 0, MapBestNs = 0;
  uint64_t OpsTimed = 0;
  uint64_t FlatAllocs = 0;
  uint64_t FlatChecksum = 0, MapChecksum = 0;
  uint64_t GoldenChecksum = 0; ///< 0 = no golden known for this --ops size.
  double speedup() const { return MapNsPerOp / FlatNsPerOp; }
  bool ok() const {
    return FlatChecksum == MapChecksum &&
           (GoldenChecksum == 0 || FlatChecksum == GoldenChecksum);
  }
};

/// Times FlatBody and MapBody (each a callable returning the checksum),
/// best-of-reps, counting allocations during the flat run.
template <typename FlatFn, typename MapFn>
SectionResult runSection(const std::string &Name, uint64_t Ops, int Reps,
                         uint64_t Golden, FlatFn FlatBody, MapFn MapBody) {
  SectionResult R;
  R.Name = Name;
  R.OpsTimed = Ops;
  R.GoldenChecksum = Golden;
  for (int Rep = 0; Rep < Reps; ++Rep) {
    AllocWindow W;
    auto T0 = Clock::now();
    R.FlatChecksum = FlatBody();
    auto T1 = Clock::now();
    R.FlatAllocs = W.close();
    double Ns = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(T1 - T0)
            .count());
    if (Rep == 0 || Ns < R.FlatBestNs)
      R.FlatBestNs = Ns;
  }
  for (int Rep = 0; Rep < Reps; ++Rep) {
    auto T0 = Clock::now();
    R.MapChecksum = MapBody();
    auto T1 = Clock::now();
    double Ns = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(T1 - T0)
            .count());
    if (Rep == 0 || Ns < R.MapBestNs)
      R.MapBestNs = Ns;
  }
  R.FlatNsPerOp = R.FlatBestNs / static_cast<double>(Ops);
  R.MapNsPerOp = R.MapBestNs / static_cast<double>(Ops);
  return R;
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
        std::cerr << "bench_ir: missing value after " << Arg << "\n";
        std::exit(1);
      }
      return Argv[I];
    };
    if (Arg == "--quick") {
      // Best-of-3 even in quick mode: the aggregate gates CI at 3x, and a
      // single rep on a busy single-core host swings far wider than that.
      Ops = 20000;
      Reps = 3;
    } else if (Arg == "--ops")
      Ops = static_cast<size_t>(std::atoll(Next()));
    else if (Arg == "--reps")
      Reps = std::atoi(Next());
    else if (Arg == "--out")
      OutPath = Next();
    else {
      std::cerr
          << "usage: bench_ir [--quick] [--ops N] [--reps N] [--out F]\n";
      return 1;
    }
  }

  // Intern the roster before any timed window; ids never mint strings on
  // the hot paths after this point.
  std::vector<VarId> Ids;
  for (const char *Name : RosterNames)
    Ids.push_back(internVar(Name));
  std::vector<int64_t> WeightById(varTableSize(), 0);
  std::map<std::string, int64_t> WeightByName;
  for (size_t V = 0; V < RosterSize; ++V) {
    WeightById[Ids[V].index()] = static_cast<int64_t>(V) + 3;
    WeightByName[RosterNames[V]] = static_cast<int64_t>(V) + 3;
  }

  // Workload pools (outside every timed window).
  Lcg R;
  std::vector<ExprPair> Pool, Addends, SubTargets, SubReplacements;
  const size_t PoolSize = 512;
  for (size_t I = 0; I < PoolSize; ++I) {
    Pool.push_back(makeExpr(R, Ids, 4, false));
    Addends.push_back(makeExpr(R, Ids, 2, false));
    SubTargets.push_back(makeExpr(R, Ids, 4, true));
    SubReplacements.push_back(makeExpr(R, Ids, 2, false));
  }
  // Substitution replaces roster variable (I % RosterSize); the
  // replacement must not mention it.
  for (size_t I = 0; I < PoolSize; ++I) {
    size_t V = I % RosterSize;
    SubReplacements[I].Flat.setCoeff(Ids[V], BigInt(0));
    SubReplacements[I].Map.setCoeff(RosterNames[V], BigInt(0));
  }
  std::vector<int64_t> Scales;
  for (size_t I = 0; I < PoolSize; ++I)
    Scales.push_back(R.range(2, 9));

  exprCounters().Spills.store(0);
  uint64_t ArithSpillsBefore = arithCounters().Spills.load();

  // Golden checksums for the two standard workload sizes (0 = unknown
  // size, golden check skipped; the flat-vs-map differential still
  // applies).
  struct Goldens {
    uint64_t CopyNormalize, Accumulate, Substitute, CoeffProbe, ClauseKey,
        CanonicalKey;
  };
  Goldens G{};
  if (Ops == 20000)
    G = {0x6d20db8a7b90c6daULL, 0x24a0bb27b8ca2724ULL, 0x73ff8b8ea61d622bULL,
         0x88393bb806a88ea2ULL, 0x8efb652fd2823549ULL, 0x9478bb249f284528ULL};
  else if (Ops == 200000)
    G = {0xa509d4e6a9e37f4aULL, 0x0ee81073fe9cc5c7ULL, 0x277428d42a56a52dULL,
         0x0c842a9399c3e457ULL, 0x36632dd8c99254a3ULL, 0x91d73c8d11c6a1b2ULL};

  std::vector<SectionResult> Sections;

  // Clause copy + gcd-normalize: the canonicalization shape — every
  // constraint entering a Conjunct is copied, scaled, and gcd-reduced.
  Sections.push_back(runSection(
      "copy_normalize", Ops, Reps, G.CopyNormalize,
      [&] {
        uint64_t H = 0;
        for (size_t I = 0; I < Ops; ++I) {
          const ExprPair &P = Pool[I % PoolSize];
          AffineExpr E = P.Flat;
          E *= BigInt(Scales[I % PoolSize]);
          BigInt Gcd = E.coeffGcd();
          if (!Gcd.isZero())
            E.divCoeffsExact(Gcd);
          H = foldFlat(H, E, WeightById);
        }
        return H;
      },
      [&] {
        uint64_t H = 0;
        for (size_t I = 0; I < Ops; ++I) {
          const ExprPair &P = Pool[I % PoolSize];
          MapExpr E = P.Map;
          E *= BigInt(Scales[I % PoolSize]);
          BigInt Gcd = E.coeffGcd();
          if (!Gcd.isZero())
            E.divCoeffsExact(Gcd);
          H = foldMap(H, E, WeightByName);
        }
        return H;
      }));

  // Accumulate: the Fourier-combine inner loop — copy a bound, add one
  // scaled row, subtract another.
  Sections.push_back(runSection(
      "accumulate", Ops, Reps, G.Accumulate,
      [&] {
        uint64_t H = 0;
        for (size_t I = 0; I < Ops; ++I) {
          AffineExpr E = Pool[I % PoolSize].Flat;
          E += Addends[I % PoolSize].Flat;
          E -= Addends[(I + 7) % PoolSize].Flat;
          H = foldFlat(H, E, WeightById);
        }
        return H;
      },
      [&] {
        uint64_t H = 0;
        for (size_t I = 0; I < Ops; ++I) {
          MapExpr E = Pool[I % PoolSize].Map;
          E += Addends[I % PoolSize].Map;
          E -= Addends[(I + 7) % PoolSize].Map;
          H = foldMap(H, E, WeightByName);
        }
        return H;
      }));

  // Substitution: the equality-elimination shape — replace one variable
  // with an affine combination of the others.
  Sections.push_back(runSection(
      "substitute", Ops, Reps, G.Substitute,
      [&] {
        uint64_t H = 0;
        for (size_t I = 0; I < Ops; ++I) {
          size_t P = I % PoolSize;
          AffineExpr E = SubTargets[P].Flat;
          E.substitute(Ids[P % RosterSize], SubReplacements[P].Flat);
          H = foldFlat(H, E, WeightById);
        }
        return H;
      },
      [&] {
        uint64_t H = 0;
        for (size_t I = 0; I < Ops; ++I) {
          size_t P = I % PoolSize;
          MapExpr E = SubTargets[P].Map;
          E.substitute(RosterNames[P % RosterSize], SubReplacements[P].Map);
          H = foldMap(H, E, WeightByName);
        }
        return H;
      }));

  // Coefficient probe: the bound-collection / support-test shape — every
  // constraint is asked for the coefficient of every candidate variable
  // (Project's collectBounds, Simplify's violatesAt).  A contiguous scan
  // of at most four ids against a string-keyed tree find.
  Sections.push_back(runSection(
      "coeff_probe", Ops, Reps, G.CoeffProbe,
      [&] {
        uint64_t H = 0;
        for (size_t I = 0; I < Ops; ++I) {
          const AffineExpr &E = Pool[I % PoolSize].Flat;
          int64_t Sum = 0;
          for (size_t V = 0; V < RosterSize; ++V)
            Sum += E.coeff(Ids[V]).toInt64() * WeightById[Ids[V].index()];
          H = H * 1000003ull + static_cast<uint64_t>(Sum);
        }
        return H;
      },
      [&] {
        uint64_t H = 0;
        for (size_t I = 0; I < Ops; ++I) {
          const MapExpr &E = Pool[I % PoolSize].Map;
          int64_t Sum = 0;
          for (size_t V = 0; V < RosterSize; ++V) {
            auto It = E.Terms.find(RosterNames[V]);
            if (It != E.Terms.end())
              Sum += It->second.toInt64() * WeightByName.at(RosterNames[V]);
          }
          H = H * 1000003ull + static_cast<uint64_t>(Sum);
        }
        return H;
      }));

  // Clause key: the cache / coalesce-index key-building shape — serialize
  // each constraint into a flat byte key.  Ids and int64 coefficients
  // write straight into a stack buffer; names force digit formatting and
  // string growth.  The checksum folds the order-insensitive coefficient
  // digest plus the entry count, which both serializations share.
  Sections.push_back(runSection(
      "clause_key", Ops, Reps, G.ClauseKey,
      [&] {
        uint64_t H = 0;
        unsigned char Buf[RosterSize * 12 + 8];
        for (size_t I = 0; I < Ops; ++I) {
          const AffineExpr &E = Pool[I % PoolSize].Flat;
          size_t N = 0;
          auto put64 = [&](uint64_t V) {
            for (int B = 0; B < 8; ++B)
              Buf[N++] = static_cast<unsigned char>(V >> (8 * B));
          };
          put64(static_cast<uint64_t>(E.constant().toInt64()));
          for (const auto &[V, Coef] : E.terms()) {
            uint32_t Raw = V.index();
            for (int B = 0; B < 4; ++B)
              Buf[N++] = static_cast<unsigned char>(Raw >> (8 * B));
            put64(static_cast<uint64_t>(Coef.toInt64()));
          }
          BenchSink = BenchSink + Buf[N - 1];
          H = foldFlat(H * 31 + N, E, WeightById);
        }
        return H;
      },
      [&] {
        uint64_t H = 0;
        std::string Key;
        for (size_t I = 0; I < Ops; ++I) {
          const MapExpr &E = Pool[I % PoolSize].Map;
          Key.clear();
          Key += E.Const.toString();
          for (const auto &[Name, Coef] : E.Terms) {
            Key += ';';
            Key += Name;
            Key += '*';
            Key += Coef.toString();
          }
          BenchSink = BenchSink + Key.size();
          size_t N = 8 + E.Terms.size() * 12;
          H = foldMap(H * 31 + N, E, WeightByName);
        }
        return H;
      }));

  // Canonical key: the three-way compare canonicalConjunct's constraint
  // sort runs — name order on the flat side, container order on the map.
  Sections.push_back(runSection(
      "canonical_key", Ops, Reps, G.CanonicalKey,
      [&] {
        uint64_t H = 0;
        for (size_t I = 0; I < Ops; ++I) {
          const AffineExpr &L = Pool[I % PoolSize].Flat;
          const AffineExpr &Rr = Pool[(I + 13) % PoolSize].Flat;
          H = H * 1000003ull + (L < Rr ? 1 : 2);
        }
        return H;
      },
      [&] {
        uint64_t H = 0;
        for (size_t I = 0; I < Ops; ++I) {
          const MapExpr &L = Pool[I % PoolSize].Map;
          const MapExpr &Rr = Pool[(I + 13) % PoolSize].Map;
          H = H * 1000003ull + (L < Rr ? 1 : 2);
        }
        return H;
      }));

  uint64_t ExprSpills = exprCounters().Spills.load();
  uint64_t ArithSpills = arithCounters().Spills.load() - ArithSpillsBefore;
  bool Failed = false;
  uint64_t TotalFlatAllocs = 0;
  double FlatTotalNs = 0, MapTotalNs = 0;
  for (const SectionResult &S : Sections) {
    TotalFlatAllocs += S.FlatAllocs;
    FlatTotalNs += S.FlatBestNs;
    MapTotalNs += S.MapBestNs;
    if (S.FlatChecksum != S.MapChecksum) {
      std::cerr << "bench_ir: DIFFERENTIAL MISMATCH in " << S.Name
                << ": flat=" << std::hex << S.FlatChecksum
                << " map=" << S.MapChecksum << std::dec << "\n";
      Failed = true;
    }
    if (S.GoldenChecksum != 0 && S.FlatChecksum != S.GoldenChecksum) {
      std::cerr << "bench_ir: GOLDEN MISMATCH in " << S.Name << ": got="
                << std::hex << S.FlatChecksum << " want=" << S.GoldenChecksum
                << std::dec << "\n";
      Failed = true;
    }
    if (S.FlatAllocs != 0) {
      std::cerr << "bench_ir: ALLOCATION on the inline-term path in "
                << S.Name << ": " << S.FlatAllocs << " allocations\n";
      Failed = true;
    }
  }
  if (ExprSpills != 0) {
    std::cerr << "bench_ir: TERM SPILLS on the inline path: " << ExprSpills
              << "\n";
    Failed = true;
  }
  if (ArithSpills != 0) {
    std::cerr << "bench_ir: BIGINT SPILLS on the inline path: " << ArithSpills
              << "\n";
    Failed = true;
  }
  // The headline gate: total time over the four clause-shaped sections,
  // flat vs the map reference (ci.sh asserts >= 3x).
  double Aggregate = MapTotalNs / FlatTotalNs;

  std::ostringstream JS;
  JS << "{\"bench\":\"ir\",\"schema\":1,\"ops\":" << Ops
     << ",\"reps\":" << Reps << ",\"inline_capacity\":"
     << AffineExpr::InlineCapacity << ",\"sections\":[";
  for (size_t I = 0; I < Sections.size(); ++I) {
    const SectionResult &S = Sections[I];
    if (I)
      JS << ",";
    JS << "{\"name\":\"" << jsonEscape(S.Name) << "\",\"flat_ns_per_op\":"
       << S.FlatNsPerOp << ",\"map_ns_per_op\":" << S.MapNsPerOp
       << ",\"speedup\":" << S.speedup() << ",\"flat_allocations\":"
       << S.FlatAllocs << ",\"checksum\":\"" << std::hex << S.FlatChecksum
       << std::dec << "\",\"checksum_ok\":" << (S.ok() ? "true" : "false")
       << "}";
  }
  JS << "],\"aggregate_speedup\":" << Aggregate
     << ",\"flat_allocations_total\":" << TotalFlatAllocs
     << ",\"flat_term_spills\":" << ExprSpills
     << ",\"flat_bigint_spills\":" << ArithSpills
     << ",\"checks_passed\":" << (Failed ? "false" : "true") << "}";
  std::cout << JS.str() << "\n";
  if (!OutPath.empty()) {
    std::ofstream Out(OutPath);
    if (!Out) {
      std::cerr << "bench_ir: cannot write " << OutPath << "\n";
      return 1;
    }
    Out << JS.str() << "\n";
  }

  std::cerr << "bench_ir: flat terms x" << Aggregate
            << " vs string-keyed map aggregate, " << TotalFlatAllocs
            << " allocations, " << ExprSpills
            << " term spills on the inline path\n";
  if (Failed)
    return 1;
  std::cout << "bench_ir: ok\n";
  return 0;
}
