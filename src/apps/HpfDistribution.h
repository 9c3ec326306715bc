//===- apps/HpfDistribution.h - Block-cyclic distributions ------*- C++ -*-===//
//
// Part of OmegaCount (reproduction of Pugh, PLDI 1994).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// §3.3: HPF block-cyclic distributions.  A template T(0:Extent-1)
/// distributed block-cyclically over P processors with block size B maps
/// template cell t to processor p and local coordinates (c, l) via
///
///   t = l + B*p + B*P*c,   0 <= l < B,   0 <= p < P,  0 <= c
///
/// From this we count elements owned per processor (§3.3) and the array
/// elements that must be communicated for a shifted reference — the
/// paper's "quantify message traffic and allocate space for message
/// buffers" application (§1.1).
///
//===----------------------------------------------------------------------===//

#ifndef OMEGA_APPS_HPFDISTRIBUTION_H
#define OMEGA_APPS_HPFDISTRIBUTION_H

#include "omega/Omega.h"

namespace omega {

/// A one-dimensional block-cyclic distribution.
struct BlockCyclic {
  BigInt Block;     ///< Elements per block (B).
  BigInt Procs;     ///< Number of processors (P).
  BigInt Extent;    ///< Template size; cells are 0 .. Extent-1.
};

/// Formula: template cell \p TVar is owned by processor \p PVar (both free
/// variables; bind either by conjoining an equality).
Formula ownedBy(const BlockCyclic &Dist, const std::string &TVar,
                const std::string &PVar);

/// (Σ t : owned(t, p) : 1): cells owned by each processor, symbolic in the
/// processor number "p".
PiecewiseValue cellsPerProcessor(const BlockCyclic &Dist);

/// Message buffer sizing for the shift communication  A(i) = B(i + Shift)
/// (both arrays aligned to the template): counts template cells i such
/// that i is owned by processor "p" but i + Shift is owned elsewhere —
/// the number of elements p must receive.  Symbolic in "p".
PiecewiseValue shiftCommVolume(const BlockCyclic &Dist, const BigInt &Shift);

} // namespace omega

#endif // OMEGA_APPS_HPFDISTRIBUTION_H
