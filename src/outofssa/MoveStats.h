//===- MoveStats.h - Move instruction counting ------------------*- C++ -*-===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Counting of residual move instructions, plain (Tables 2-4) and
/// weighted by 5^depth (Table 5: "move instructions are given a weight
/// equal to 5^d, d being the nesting level of the loop the move belongs
/// to — a static approximation where each loop would contain 5
/// iterations").
///
//===----------------------------------------------------------------------===//

#ifndef LAO_OUTOFSSA_MOVESTATS_H
#define LAO_OUTOFSSA_MOVESTATS_H

#include "ir/Function.h"

#include <cstdint>

namespace lao {

class AnalysisManager;

/// Number of Mov instructions plus ParCopy entries in \p F.
unsigned countMoves(const Function &F);

/// Sum over moves of 5^depth(block) (Table 5's weighting), with the loop
/// depths of \p AM (bound to \p F).
uint64_t weightedMoveCount(const Function &F, AnalysisManager &AM);

} // namespace lao

#endif // LAO_OUTOFSSA_MOVESTATS_H
