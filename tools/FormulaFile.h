//===- tools/FormulaFile.h - .presburger input files -----------*- C++ -*-===//
//
// Part of OmegaCount (reproduction of Pugh, PLDI 1994).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reader for the .presburger file format shared by omegalint, omegacount
/// --file, the determinism tests, and bench_pipeline:
///
///   # comment
///   vars: i, j            counted variables (required)
///   box: -8 24            enumeration box for cross-checks (optional)
///   1 <= i <= n           remaining lines are joined into the formula
///   && i <= j <= n
///
//===----------------------------------------------------------------------===//

#ifndef OMEGA_TOOLS_FORMULAFILE_H
#define OMEGA_TOOLS_FORMULAFILE_H

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace omega {

struct FormulaFile {
  std::string Path;
  std::vector<std::string> Vars;
  int64_t BoxLo = -8;
  int64_t BoxHi = 24;
  std::string FormulaText;
};

namespace formula_file_detail {

inline std::string trim(const std::string &S) {
  size_t B = S.find_first_not_of(" \t\r");
  if (B == std::string::npos)
    return "";
  size_t E = S.find_last_not_of(" \t\r");
  return S.substr(B, E - B + 1);
}

inline std::vector<std::string> splitCommas(const std::string &S) {
  std::vector<std::string> Out;
  std::istringstream IS(S);
  std::string Item;
  while (std::getline(IS, Item, ','))
    if (std::string T = trim(Item); !T.empty())
      Out.push_back(T);
  return Out;
}

} // namespace formula_file_detail

/// Reads \p Path into \p Out.  Returns false (with \p Err set, carrying a
/// 1-based source line number where one applies) on I/O failure or a
/// malformed/missing directive; the formula itself is not parsed here.
inline bool readFormulaFile(const std::string &Path, FormulaFile &Out,
                            std::string &Err) {
  std::ifstream File(Path);
  if (!File) {
    Err = "cannot open file";
    return false;
  }
  Out.Path = Path;
  std::string Line;
  std::string Formula;
  unsigned LineNo = 0;
  while (std::getline(File, Line)) {
    ++LineNo;
    std::string T = formula_file_detail::trim(Line);
    if (T.empty() || T[0] == '#')
      continue;
    if (T.rfind("vars:", 0) == 0) {
      Out.Vars = formula_file_detail::splitCommas(T.substr(5));
      if (Out.Vars.empty()) {
        Err = "line " + std::to_string(LineNo) +
              ": empty \"vars:\" directive";
        return false;
      }
      for (const std::string &V : Out.Vars)
        if (V[0] == '$') {
          // "$<n>" names a clause's own wildcard, never a user variable.
          Err = "line " + std::to_string(LineNo) + ": \"" + V +
                "\" is a reserved wildcard name";
          return false;
        }
      continue;
    }
    if (T.rfind("box:", 0) == 0) {
      std::istringstream IS(T.substr(4));
      int64_t Lo, Hi;
      std::string Rest;
      if (!(IS >> Lo >> Hi) || (IS >> Rest) || Lo > Hi) {
        Err = "line " + std::to_string(LineNo) +
              ": bad box: directive (want \"box: LO HI\")";
        return false;
      }
      Out.BoxLo = Lo;
      Out.BoxHi = Hi;
      continue;
    }
    Formula += (Formula.empty() ? "" : " ") + T;
  }
  if (Out.Vars.empty()) {
    Err = "missing \"vars:\" directive";
    return false;
  }
  if (Formula.empty()) {
    Err = "no formula found";
    return false;
  }
  Out.FormulaText = Formula;
  return true;
}

} // namespace omega

#endif // OMEGA_TOOLS_FORMULAFILE_H
