//===- perfbench/harness/Oracle.h - Brute-force answer check ----*- C++ -*-===//
//
// The check every answer must pass.  It never calls the Omega test or the
// summation code: it walks the generator's box point by point and decides
// the formula (quantifiers included) with evaluateInBox, which searches
// witnesses in the same box.  Symbolic answers are checked at each of
// checkBindings(); concrete ones once.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_ORACLE_H
#define PERFBENCH_ORACLE_H

#include "Gen.h"

#include "poly/PiecewiseValue.h"

#include <string>

namespace perfbench {

/// The answer's values at the check bindings (one value for a concrete
/// query): all the oracle needs, so runs keep these and not the answers.
std::vector<omega::Rational>
evaluateAtBindings(const Query &Q, const omega::PiecewiseValue &Answer);

/// True iff the values agree with the brute-force count (or flop sum) of
/// \p Q; otherwise \p Why says where they differ.
bool checkAnswer(const Query &Q, const std::vector<omega::Rational> &Values,
                 std::string &Why);

/// The summand of a flop sum, Σ (i*j + SumConst).
omega::QuasiPolynomial flopSummand(const Query &Q);

} // namespace perfbench

#endif // PERFBENCH_ORACLE_H
