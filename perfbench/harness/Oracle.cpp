//===- perfbench/harness/Oracle.cpp - Brute-force answer check ------------===//

#include "Oracle.h"

#include "baselines/Enumerator.h"
#include "presburger/Parser.h"

#include <sstream>

using namespace omega;
using namespace perfbench;

QuasiPolynomial perfbench::flopSummand(const Query &Q) {
  return QuasiPolynomial::variable("i") * QuasiPolynomial::variable("j") +
         QuasiPolynomial(Rational(BigInt(Q.SumConst)));
}

namespace {

/// Σ over the box points of Q.Vars satisfying F of the summand (1 for a
/// count), with the symbols already bound in \p Point.
Rational bruteForce(const Query &Q, const Formula &F, Assignment Point) {
  QuasiPolynomial X = Q.FlopSum ? flopSummand(Q) : QuasiPolynomial(1);
  std::vector<int64_t> Vals(Q.Vars.size(), Q.Lo);
  Rational Sum(0);
  while (true) {
    for (size_t I = 0; I < Vals.size(); ++I)
      Point[Q.Vars[I]] = BigInt(Vals[I]);
    Assignment Scratch = Point;
    if (evaluateInBox(F, Scratch, Q.Lo, Q.Hi))
      Sum = Sum + X.evaluate(Point);
    size_t I = 0;
    while (I < Vals.size() && ++Vals[I] > Q.Hi)
      Vals[I++] = Q.Lo;
    if (I == Vals.size())
      return Sum;
  }
}

} // namespace

namespace {

std::vector<Assignment> bindingsFor(const Query &Q) {
  std::vector<Assignment> Out;
  for (auto [N, M] : checkBindings()) {
    Assignment At;
    if (Q.Symbolic) {
      At["n"] = BigInt(N);
      At["m"] = BigInt(M);
    }
    Out.push_back(std::move(At));
    if (!Q.Symbolic)
      break;
  }
  return Out;
}

} // namespace

std::vector<Rational>
perfbench::evaluateAtBindings(const Query &Q, const PiecewiseValue &Answer) {
  std::vector<Rational> Out;
  for (const Assignment &At : bindingsFor(Q))
    Out.push_back(Answer.evaluate(At));
  return Out;
}

bool perfbench::checkAnswer(const Query &Q, const std::vector<Rational> &Values,
                            std::string &Why) {
  ParseResult P = parseFormula(Q.Text);
  if (!P) {
    Why = "oracle cannot parse: " + P.Error;
    return false;
  }
  std::vector<Assignment> Bindings = bindingsFor(Q);
  for (size_t I = 0; I < Bindings.size(); ++I) {
    Rational Want = bruteForce(Q, *P.Value, Bindings[I]);
    if (I >= Values.size() || !(Values[I] == Want)) {
      std::ostringstream OS;
      OS << Q.Shape << " '" << Q.Text << "'";
      if (Q.Symbolic)
        OS << " at n=" << checkBindings()[I].first
           << ", m=" << checkBindings()[I].second;
      OS << ": answer "
         << (I < Values.size() ? Values[I].toString() : std::string("none"))
         << ", brute force " << Want.toString();
      Why = OS.str();
      return false;
    }
  }
  return true;
}
