//===- examples/quickstart.cpp - Five-minute tour of OmegaCount ----------===//
//
// Builds a Presburger formula from text, counts its solutions symbolically,
// and evaluates the answer — the core workflow of Pugh, PLDI 1994.
//
// Run:  ./quickstart
//
//===----------------------------------------------------------------------===//

#include "omega/Omega.h"
#include "presburger/Parser.h"

#include <iostream>

using namespace omega;

int main() {
  // The iteration space of:
  //   for i = 1 to n
  //     for j = i to m
  //       body
  Formula Space = parseFormulaOrDie("1 <= i <= n && i <= j <= m");

  // (Σ i,j : Space : 1) — how many times does the body run?  With default
  // options the status is Exact (or Unbounded); a CountOptions budget may
  // instead yield Bounded with certified R.Lower / R.Upper.
  CountResult R = countSolutions(Space, {"i", "j"});
  const PiecewiseValue &Count = R.Value;

  std::cout << "Iteration count of {1<=i<=n, i<=j<=m}:\n  " << Count << "\n\n";

  // The answer is symbolic in n and m; evaluate it anywhere.
  for (int64_t N : {4, 10})
    for (int64_t M : {3, 10}) {
      Assignment At{{"n", BigInt(N)}, {"m", BigInt(M)}};
      std::cout << "  n=" << N << " m=" << M << "  ->  "
                << Count.evaluateInt(At) << " iterations\n";
    }

  // Summing a polynomial over the space: total work if iteration (i, j)
  // costs j flops.
  PiecewiseValue Work =
      sumPolynomial(Space, {"i", "j"}, QuasiPolynomial::variable("j")).Value;
  std::cout << "\nTotal flops when iteration (i,j) costs j:\n  " << Work
            << "\n";
  std::cout << "  at n=10, m=10: "
            << Work.evaluateInt({{"n", BigInt(10)}, {"m", BigInt(10)}})
            << "\n\n";

  // Strides and quantifiers work too: how many even numbers have an odd
  // square-ish partner... count x in [1, n] with x ≡ 2 (mod 3).
  Formula Strided = parseFormulaOrDie("1 <= x <= n && 3 | x - 2");
  PiecewiseValue C2 = countSolutions(Strided, {"x"}).Value;
  std::cout << "Count of x in [1,n] with x = 2 (mod 3):\n  " << C2 << "\n";
  std::cout << "  at n=10: " << C2.evaluateInt({{"n", BigInt(10)}}) << "\n";
  return 0;
}
