//===- perfbench/harness/Gen.h - Seeded query generators --------*- C++ -*-===//
//
// The benchmark's inputs.  Every query is formula *text* plus the counted
// variables (the program under test receives nothing else), together with
// the oracle's facts about it: a box that contains every counted point and
// every quantifier witness at each check binding of the symbols n and m.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_GEN_H
#define PERFBENCH_GEN_H

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// SplitMix64: a small, fully specified generator, so a seed names the same
/// inputs on every compiler and standard library.
class Rng {
public:
  explicit Rng(uint64_t Seed) : State(Seed) {}
  uint64_t next() {
    uint64_t Z = (State += 0x9e3779b97f4a7c15ULL);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
    return Z ^ (Z >> 31);
  }
  /// Uniform in [Lo, Hi].
  int64_t range(int64_t Lo, int64_t Hi) {
    uint64_t Span = static_cast<uint64_t>(Hi - Lo + 1);
    return Lo + static_cast<int64_t>(next() % Span);
  }
  /// Exponential with the given mean (Poisson inter-arrival gaps).
  double exponential(double Mean);

private:
  uint64_t State;
};

/// How a query is sent to the library.
enum class Backend { Pugh, Auto };

struct Query {
  std::string Shape; ///< Generator family, for the notes and failures.
  std::string Text;  ///< Formula text in the parser's syntax.
  std::vector<std::string> Vars;
  /// Summand of a sumPolynomial flop sum: Σ (i*j + SumConst); empty for a
  /// plain count.
  bool FlopSum = false;
  int64_t SumConst = 0;
  Backend Kind = Backend::Pugh;
  bool Symbolic = false; ///< Mentions n and m.
  /// Oracle box: every counted variable and quantifier witness lies in
  /// [Lo, Hi] at every check binding (checkBindings()).
  int64_t Lo = 0, Hi = 0;
};

/// Symbol bindings (n, m) at which symbolic answers are checked.  Every
/// generator sizes its boxes for |n|, |m| <= kMaxBinding.
constexpr int64_t kMaxBinding = 8;
const std::vector<std::pair<int64_t, int64_t>> &checkBindings();

/// loopnest-symbolic: the paper's loop-nest shapes over symbolic n, m,
/// drawn round-robin over the shape table (and over each shape's
/// structural variants) so every seed has the same mix; \p Index is the
/// draw's position in its stream.
Query loopNestQuery(Rng &R, uint64_t Index, bool AllowFlopSums);

/// union-blowup: concrete conjunctions of interval unions with a coupling
/// constraint and a stride (scales 3-6, varied offsets).
Query unionQuery(Rng &R, uint64_t Index);

/// Dense finite sets sent with Backend=Auto (answered by the automaton).
Query denseQuery(Rng &R);

} // namespace perfbench

#endif // PERFBENCH_GEN_H
