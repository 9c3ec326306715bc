//===- perfbench/harness/Gen.cpp - Seeded query generators ----------------===//

#include "Gen.h"

#include <algorithm>
#include <cmath>
#include <sstream>

using namespace perfbench;

double Rng::exponential(double Mean) {
  double U = static_cast<double>(next() >> 11) * 0x1.0p-53;
  return -Mean * std::log1p(-U);
}

const std::vector<std::pair<int64_t, int64_t>> &perfbench::checkBindings() {
  // Both orders of n and m, a negative n (every guard must reject it) and
  // the largest values the boxes are sized for.
  static const std::vector<std::pair<int64_t, int64_t>> B = {
      {6, 8}, {8, 3}, {-1, 5}};
  return B;
}

namespace {

constexpr int64_t B = kMaxBinding;

Query make(std::string Shape, std::string Text,
           std::vector<std::string> Vars, int64_t Lo, int64_t Hi) {
  Query Q;
  Q.Shape = std::move(Shape);
  Q.Text = std::move(Text);
  Q.Vars = std::move(Vars);
  Q.Symbolic = true;
  Q.Lo = Lo;
  Q.Hi = Hi;
  return Q;
}

/// The shape table: one round of draws visits each entry once, so the mix
/// is the same for every seed and only the coefficients vary.
enum Shape { Tri, Ex6, Coupled, Strided, Deep3, Exists, Union, Flop };
constexpr Shape kShapeTable[] = {Tri,    Ex6,   Coupled, Strided,
                                 Deep3,  Exists, Union,  Flop,
                                 Ex6,    Coupled, Deep3, Exists};
constexpr size_t kTableSize = sizeof(kShapeTable) / sizeof(kShapeTable[0]);

/// How many draws of the same shape came before draw \p Index.  The
/// structural choices (coefficient pairs, strides, nest variants), which
/// set most of a query's cost, cycle with it, so every 12 rounds hold each
/// choice equally often and only the additive constants are random.
uint64_t occurrence(uint64_t Index) {
  Shape S = kShapeTable[Index % kTableSize];
  uint64_t PerRound = 0, Before = 0;
  for (size_t I = 0; I < kTableSize; ++I) {
    PerRound += kShapeTable[I] == S;
    Before += I < Index % kTableSize && kShapeTable[I] == S;
  }
  return Index / kTableSize * PerRound + Before;
}

} // namespace

Query perfbench::loopNestQuery(Rng &R, uint64_t Index, bool AllowFlopSums) {
  Shape S = kShapeTable[Index % kTableSize];
  uint64_t Occ = occurrence(Index);
  if (S == Flop && !AllowFlopSums)
    S = Tri;
  std::ostringstream OS;
  switch (S) {
  case Tri: {
    int64_t L = R.range(0, 3), A = R.range(-2, 3), C = R.range(0, 3),
            D = R.range(0, 5);
    OS << L << " <= i <= n + " << A << " && i + " << C << " <= j <= m + "
       << D;
    return make("triangular", OS.str(), {"i", "j"}, -1, B + 6);
  }
  case Ex6: {
    static const int64_t PQ[][2] = {{2, 3}, {3, 5}, {1, 2}, {5, 7}};
    const int64_t *P = PQ[Occ % 4];
    int64_t L = R.range(0, 3), A = R.range(-2, 3), D = R.range(0, 4),
            E = R.range(0, 3);
    OS << L << " <= i <= n + " << A << " && 1 <= j <= m + " << D << " && "
       << P[0] << "*i <= " << P[1] << "*j + " << E;
    return make("example6", OS.str(), {"i", "j"}, -1, B + 5);
  }
  case Coupled: {
    int64_t A = R.range(-2, 3), L = R.range(0, 3), K = 1 + int64_t(Occ % 2),
            C = R.range(0, 6);
    OS << "1 <= i <= n + " << A << " && " << L << " <= j <= m && i + " << K
       << "*j <= n + " << C;
    return make("coupled", OS.str(), {"i", "j"}, -1, B + 4);
  }
  case Strided: {
    int64_t Step = 2 + int64_t(Occ % 3), Off = R.range(0, Step - 1);
    int64_t L = R.range(0, 2), A = R.range(-2, 3), D = R.range(0, 4);
    OS << L << " <= i <= n + " << A << " && i <= j <= m + " << D << " && "
       << Step << " | i + j + " << Off;
    return make("strided", OS.str(), {"i", "j"}, -1, B + 5);
  }
  case Deep3: {
    int64_t L = R.range(0, 2), A = R.range(-2, 2), C = R.range(0, 3),
            D = R.range(0, 3);
    if (Occ % 2)
      OS << L << " <= i <= n + " << A << " && i <= j <= m + " << D
         << " && j <= k <= n + " << C;
    else
      OS << L << " <= i <= n + " << A << " && 1 <= j <= i + " << D
         << " && j <= k <= m + " << C;
    return make("deep3", OS.str(), {"i", "j", "k"}, -1, B + 5);
  }
  case Exists: {
    // The distinct subscripts a*j + c touched by a loop over j (a
    // footprint, §5.3), cut off at a symbolic bound.
    int64_t A = 2 + int64_t(Occ % 2), C = R.range(0, 5), D = R.range(0, 6),
            L = R.range(0, 2);
    OS << "exists(j: " << L << " <= j <= m && x = " << A << "*j + " << C
       << ") && x <= 2*n + " << D;
    return make("exists", OS.str(), {"x"}, -1, A * B + C + 1);
  }
  case Union: {
    int64_t A = R.range(-2, 3), C = R.range(0, 5), L = R.range(0, 3);
    if (Occ % 2) {
      OS << "(" << L << " <= i <= n) || (2*n + " << A << " <= i <= 3*n + "
         << C << ")";
      return make("union", OS.str(), {"i"}, -3 * B - 4, 3 * B + 6);
    }
    OS << "(1 <= i <= n + " << A << " && " << L
       << " <= j <= m) || (n <= i <= n + m && i - n <= j <= 2*m + " << C
       << ")";
    return make("union", OS.str(), {"i", "j"}, -2 * B - 6, 2 * B + 6);
  }
  case Flop: {
    int64_t L = R.range(0, 2), A = R.range(-2, 3), E = R.range(0, 2);
    OS << L << " <= i <= n + " << A << " && i + " << E << " <= j <= m";
    Query Q = make("flopsum", OS.str(), {"i", "j"}, -1, B + 4);
    Q.FlopSum = true;
    Q.SumConst = R.range(0, 5);
    return Q;
  }
  }
  return {};
}

Query perfbench::unionQuery(Rng &R, uint64_t Index) {
  // What sets a query's cost -- scale, stride, gap, width and where the cut
  // falls relative to the intervals -- cycles with the index, so every seed
  // draws the same mix in the same order.  The three cycles have coprime
  // lengths 8, 9 and 11: any window of a hundred draws is close to the
  // whole mix, and 792 draws hold every combination once.  The offsets and
  // the stride's remainder are random: they move every interval, the cut
  // and the lattice together.
  int64_t Scale = 3 + int64_t(Index % 4), Step = 2 + int64_t(Index / 4 % 2),
          Gap = 11 + int64_t(Index % 9 % 3), Width = 8 + int64_t(Index % 9 / 3),
          CutShift = -4 + int64_t(Index % 11);
  int64_t OffI = R.range(0, 6), OffJ = R.range(0, 6);
  int64_t Rem = R.range(0, Step - 1);
  int64_t Cut = Gap * Scale + CutShift + OffI + OffJ;
  auto UnionOf = [&](const char *V, int64_t Off) {
    std::ostringstream OS;
    OS << "(";
    for (int64_t I = 0; I < Scale; ++I) {
      if (I)
        OS << " || ";
      int64_t Lo = 1 + Off + Gap * I;
      OS << Lo << " <= " << V << " <= " << Lo + Width;
    }
    OS << ")";
    return OS.str();
  };
  std::ostringstream OS;
  OS << UnionOf("i", OffI) << " && " << UnionOf("j", OffJ) << " && i + j <= "
     << Cut << " && " << Step << " | i + j + " << Rem;
  Query Q;
  Q.Shape = "union" + std::to_string(Scale);
  Q.Text = OS.str();
  Q.Vars = {"i", "j"};
  Q.Lo = 0;
  Q.Hi = std::max(OffI, OffJ) + 1 + Gap * (Scale - 1) + Width + 1;
  return Q;
}

Query perfbench::denseQuery(Rng &R) {
  int64_t A = R.range(30, 50), Bj = R.range(30, 50);
  int64_t Ci = R.range(1, 3), Cj = R.range(1, 3);
  int64_t Cut = R.range(std::max(A, Bj), Ci * A + Cj * Bj - 10);
  int64_t Step = R.range(2, 4), Rem = R.range(0, Step - 1);
  int64_t T = R.range(3, 5), D = R.range(10, 40);
  std::ostringstream OS;
  OS << "0 <= i <= " << A << " && 0 <= j <= " << Bj << " && " << Ci
     << "*i + " << Cj << "*j <= " << Cut << " && " << Step << " | i + j + "
     << Rem << " && (" << T << " | i - j || 2*j - i >= " << D << ")";
  Query Q;
  Q.Shape = "dense";
  Q.Text = OS.str();
  Q.Vars = {"i", "j"};
  Q.Kind = Backend::Auto;
  Q.Lo = -1;
  Q.Hi = std::max(A, Bj) + 1;
  return Q;
}
