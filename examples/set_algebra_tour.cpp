//===- examples/set_algebra_tour.cpp - Sets, relations, codegen ----------===//
//
// A tour of the higher-level APIs layered on the counting engine:
// PresburgerSet algebra, tuple Relations with quantitative queries, and
// loop generation that scans a set's points ([AI91]).
//
// Run:  ./set_algebra_tour
//
//===----------------------------------------------------------------------===//

#include "apps/CodeGen.h"
#include "counting/Relation.h"
#include "counting/Set.h"
#include "presburger/Parser.h"

#include <iostream>

using namespace omega;

int main() {
  // --- Sets -------------------------------------------------------------
  PresburgerSet Evens({"x"}, parseFormulaOrDie("0 <= x <= n && 2 | x"));
  PresburgerSet Triples({"x"}, parseFormulaOrDie("0 <= x <= n && 3 | x"));
  PresburgerSet Both = Evens.intersect(Triples);
  PresburgerSet Either = Evens.unionWith(Triples);
  PresburgerSet OnlyEven = Evens.subtract(Triples);

  std::cout << "sets over [0, n]:\n";
  std::cout << "  |evens ∩ triples| = " << Both.count() << "\n";
  std::cout << "  |evens ∪ triples| = " << Either.count() << "\n";
  std::cout << "  |evens \\ triples| = " << OnlyEven.count() << "\n";
  Assignment At{{"n", BigInt(30)}};
  std::cout << "  at n=30: " << Both.count().evaluateInt(At) << " / "
            << Either.count().evaluateInt(At) << " / "
            << OnlyEven.count().evaluateInt(At) << "\n";
  if (auto P = Both.sample(At))
    std::cout << "  a common member: x = " << P->at(internVar("x")) << "\n";
  // Tuples align by position, not by name: Steps' first label is y.
  PresburgerSet Below({"x", "y"}, parseFormulaOrDie("0 <= x < y <= n"));
  PresburgerSet Steps({"y", "x"}, parseFormulaOrDie("x = y + 1"));
  std::cout << "  |{[x,y] : x < y} ∩ {[y,x] : x = y + 1}| = "
            << Below.intersect(Steps).count() << "\n";

  // --- Relations ----------------------------------------------------------
  // The "next multiple of 3" relation restricted to [0, n].
  Relation Next({"x"}, {"y"},
                parseFormulaOrDie(
                    "y = x + 3 && 0 <= x <= n && 0 <= y <= n && 3 | x"));
  Relation TwoSteps = Next.compose(Next);
  std::cout << "\nrelation y = x + 3 on multiples of 3:\n";
  std::cout << "  pairs: " << Next.countPairs() << "\n";
  std::cout << "  two-step pairs: " << TwoSteps.countPairs() << "\n";
  std::cout << "  at n=30: " << Next.countPairs().evaluateInt(At) << " and "
            << TwoSteps.countPairs().evaluateInt(At) << "\n";

  // --- Code generation ----------------------------------------------------
  Conjunct Triangle;
  Triangle.add(Constraint::ge(AffineExpr::variable("i") - AffineExpr(1)));
  Triangle.add(Constraint::ge(AffineExpr::variable("j") -
                              AffineExpr::variable("i")));
  Triangle.add(Constraint::ge(AffineExpr::variable("n") -
                              AffineExpr::variable("j")));
  GeneratedScan Scan = generateScan(Triangle, {"i", "j"});
  std::cout << "\ngenerated loops scanning {1 <= i <= j <= n}:\n"
            << Scan.emit();
  std::cout << "visited at n=4: " << runScan(Scan, {{"n", BigInt(4)}}).size()
            << " points (expect 10)\n";
  return 0;
}
