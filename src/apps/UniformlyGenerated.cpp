//===- apps/UniformlyGenerated.cpp - Stencil summarization ---------------===//

#include "apps/UniformlyGenerated.h"

#include "support/Error.h"

#include <algorithm>
#include <set>

using namespace omega;

Formula
omega::offsetsZeroOneFormula(const std::vector<Offset> &Offsets,
                             const std::vector<std::string> &DeltaVars) {
  check(!Offsets.empty(), "empty offset set");
  size_t Dims = DeltaVars.size();
  VarSet Used(DeltaVars.begin(), DeltaVars.end());
  VarSet Zs;
  std::vector<AffineExpr> ZVars;
  for (size_t K = 0; K < Offsets.size(); ++K) {
    VarId Z = freshVar("z" + std::to_string(K) + "_", Used);
    Zs.insert(Z);
    ZVars.push_back(AffineExpr::variable(Z));
  }
  std::vector<Formula> Parts;
  AffineExpr SumZ;
  for (size_t K = 0; K < Offsets.size(); ++K) {
    Parts.push_back(Formula::atom(Constraint::ge(ZVars[K])));
    Parts.push_back(
        Formula::atom(Constraint::ge(AffineExpr(1) - ZVars[K])));
    SumZ += ZVars[K];
  }
  Parts.push_back(Formula::atom(Constraint::eq(SumZ - AffineExpr(1))));
  for (size_t D = 0; D < Dims; ++D) {
    AffineExpr E = AffineExpr::variable(DeltaVars[D]);
    for (size_t K = 0; K < Offsets.size(); ++K) {
      check(Offsets[K].size() == Dims, "ragged offsets");
      E -= Offsets[K][D] * ZVars[K];
    }
    Parts.push_back(Formula::atom(Constraint::eq(std::move(E))));
  }
  return Formula::exists(std::move(Zs), Formula::conj(std::move(Parts)));
}

BigInt omega::countConcrete(const Formula &F, const VarSet &Vars) {
  PiecewiseValue V = countSolutions(F, Vars).Value;
  check(!V.isUnbounded(), "countConcrete on an unbounded set");
  return V.evaluateInt({});
}

namespace {

struct Point {
  BigInt X, Y;
  friend bool operator<(const Point &A, const Point &B) {
    if (A.X != B.X)
      return A.X < B.X;
    return A.Y < B.Y;
  }
  friend bool operator==(const Point &A, const Point &B) {
    return A.X == B.X && A.Y == B.Y;
  }
};

BigInt cross(const Point &O, const Point &A, const Point &B) {
  return (A.X - O.X) * (B.Y - O.Y) - (A.Y - O.Y) * (B.X - O.X);
}

/// Andrew's monotone chain; returns the hull counter-clockwise without
/// repeating the first point.  Collinear inputs yield the two extremes.
std::vector<Point> convexHull(std::vector<Point> Pts) {
  std::sort(Pts.begin(), Pts.end());
  Pts.erase(std::unique(Pts.begin(), Pts.end()), Pts.end());
  if (Pts.size() <= 2)
    return Pts;
  std::vector<Point> H(2 * Pts.size());
  size_t K = 0;
  for (const Point &P : Pts) {
    while (K >= 2 && cross(H[K - 2], H[K - 1], P).sign() <= 0)
      --K;
    H[K++] = P;
  }
  size_t Lower = K + 1;
  for (size_t I = Pts.size() - 1; I-- > 0;) {
    const Point &P = Pts[I];
    while (K >= Lower && cross(H[K - 2], H[K - 1], P).sign() <= 0)
      --K;
    H[K++] = P;
  }
  H.resize(K - 1);
  return H;
}

/// Adds stride constraints for simple linear forms whose value is constant
/// modulo g > 1 across the offsets (the paper's "check for non-unit
/// strides among the points").
void addDetectedStrides(const std::vector<Offset> &Offsets,
                        const std::vector<std::string> &DeltaVars,
                        Conjunct &Out) {
  size_t Dims = DeltaVars.size();
  std::vector<std::vector<BigInt>> Forms;
  for (size_t D = 0; D < Dims; ++D) {
    std::vector<BigInt> F(Dims);
    F[D] = BigInt(1);
    Forms.push_back(F);
  }
  if (Dims == 2) {
    Forms.push_back({BigInt(1), BigInt(1)});
    Forms.push_back({BigInt(1), BigInt(-1)});
  }
  for (const std::vector<BigInt> &F : Forms) {
    auto Apply = [&](const Offset &P) {
      BigInt V(0);
      for (size_t D = 0; D < Dims; ++D)
        V += F[D] * P[D];
      return V;
    };
    BigInt Base = Apply(Offsets[0]);
    BigInt G(0);
    for (const Offset &P : Offsets)
      G = BigInt::gcd(G, Apply(P) - Base);
    if (G > BigInt(1)) {
      AffineExpr E;
      for (size_t D = 0; D < Dims; ++D)
        E += F[D] * AffineExpr::variable(DeltaVars[D]);
      E -= AffineExpr(Base);
      Out.add(Constraint::stride(G, std::move(E)));
    }
  }
}

} // namespace

std::optional<HullSummary>
omega::summarizeOffsetsHull(const std::vector<Offset> &Offsets,
                            const std::vector<std::string> &DeltaVars) {
  check(!Offsets.empty(), "empty offset set");
  size_t Dims = DeltaVars.size();
  if (Dims == 0 || Dims > 2)
    return std::nullopt;

  HullSummary S;
  if (Dims == 1) {
    BigInt Min = Offsets[0][0], Max = Offsets[0][0];
    for (const Offset &P : Offsets) {
      Min = std::min(Min, P[0]);
      Max = std::max(Max, P[0]);
    }
    AffineExpr D = AffineExpr::variable(DeltaVars[0]);
    S.Constraints.add(Constraint::ge(D - AffineExpr(Min)));
    S.Constraints.add(Constraint::ge(AffineExpr(Max) - D));
  } else {
    std::vector<Point> Pts;
    for (const Offset &P : Offsets) {
      check(P.size() == 2, "ragged offsets");
      Pts.push_back({P[0], P[1]});
    }
    std::vector<Point> Hull = convexHull(std::move(Pts));
    AffineExpr X = AffineExpr::variable(DeltaVars[0]);
    AffineExpr Y = AffineExpr::variable(DeltaVars[1]);
    if (Hull.size() == 1) {
      S.Constraints.add(Constraint::eq(X - AffineExpr(Hull[0].X)));
      S.Constraints.add(Constraint::eq(Y - AffineExpr(Hull[0].Y)));
    } else if (Hull.size() == 2) {
      // Segment: on the line, between the endpoints (bounding box).
      const Point &A = Hull[0], &B = Hull[1];
      BigInt Ex = B.X - A.X, Ey = B.Y - A.Y;
      // ex*(y - Ay) - ey*(x - Ax) = 0.
      S.Constraints.add(Constraint::eq(Ex * Y - Ey * X -
                                       AffineExpr(Ex * A.Y - Ey * A.X)));
      S.Constraints.add(
          Constraint::ge(X - AffineExpr(std::min(A.X, B.X))));
      S.Constraints.add(
          Constraint::ge(AffineExpr(std::max(A.X, B.X)) - X));
      S.Constraints.add(
          Constraint::ge(Y - AffineExpr(std::min(A.Y, B.Y))));
      S.Constraints.add(
          Constraint::ge(AffineExpr(std::max(A.Y, B.Y)) - Y));
    } else {
      // CCW polygon: each edge contributes cross(e, p - A) >= 0.
      for (size_t I = 0; I < Hull.size(); ++I) {
        const Point &A = Hull[I];
        const Point &B = Hull[(I + 1) % Hull.size()];
        BigInt Ex = B.X - A.X, Ey = B.Y - A.Y;
        S.Constraints.add(Constraint::ge(
            Ex * Y - Ey * X - AffineExpr(Ex * A.Y - Ey * A.X)));
      }
    }
  }

  addDetectedStrides(Offsets, DeltaVars, S.Constraints);

  // Exactness check by counting (the paper's suggestion).
  std::set<Offset> Distinct(Offsets.begin(), Offsets.end());
  S.PointCount = countConcrete(Formula::fromConjunct(S.Constraints),
                               VarSet(DeltaVars.begin(), DeltaVars.end()));
  S.Exact = S.PointCount == BigInt(Distinct.size());
  return S;
}
