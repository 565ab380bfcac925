//===- IRCore.cpp - Arena-backed instruction storage ----------------------===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Out-of-line pieces of the arena/SoA IR core: operand-slab growth and
/// migration (heap while an instruction is detached, the owning
/// Function's arena once interned), the chunked instruction table, block
/// erasure, and the process-wide callee-name interner that keeps
/// Instruction records fixed-size.
///
//===----------------------------------------------------------------------===//

#include "ir/Function.h"

#include "support/Stats.h"

#include <algorithm>
#include <mutex>
#include <new>
#include <unordered_set>

using namespace lao;

//===----------------------------------------------------------------------===//
// Callee-name interning
//===----------------------------------------------------------------------===//

namespace {

std::mutex CalleeMutex;

/// Interned callee names. Node-based, so the strings never move.
/// Leaked holder: interned names live until process exit.
std::unordered_set<std::string> &calleePool() {
  static auto *Pool = new std::unordered_set<std::string>();
  return *Pool;
}

} // namespace

const std::string &Instruction::callee() const {
  static const std::string Empty;
  return CalleeStr ? *CalleeStr : Empty;
}

void Instruction::setCallee(const std::string &Name) {
  if (Name.empty()) {
    CalleeStr = nullptr;
    return;
  }
  std::lock_guard<std::mutex> G(CalleeMutex);
  CalleeStr = &*calleePool().insert(Name).first;
}

//===----------------------------------------------------------------------===//
// Operand slab growth
//===----------------------------------------------------------------------===//

void Instruction::growSlots(uint32_t NewDefCap, uint32_t NewUseCap) {
  assert(NewDefCap >= NDefs && NewUseCap >= NUses && "shrinking slot run");
  const uint32_t NewSize = runSize(NewDefCap, NewUseCap);
  RegId *NewRun;
  bool OnHeap = false;
  if (Parent) {
    NewRun = Parent->IRArena.allocArray<RegId>(NewSize);
    Parent->SlabBytes += NewSize * sizeof(RegId);
  } else {
    NewRun = new RegId[NewSize];
    OnHeap = true;
  }
  const RegId *Old = slots();
  std::memcpy(NewRun, Old, NDefs * sizeof(RegId));
  std::memcpy(NewRun + NewDefCap, Old + DefCap, NDefs * sizeof(RegId));
  std::memcpy(NewRun + 2 * NewDefCap, Old + 2 * DefCap, NUses * sizeof(RegId));
  std::memcpy(NewRun + 2 * NewDefCap + NewUseCap, Old + 2 * DefCap + UseCap,
              NUses * sizeof(RegId));
  if (Flags & HeapSlots)
    delete[] Ext;
  Ext = NewRun;
  Flags = static_cast<uint8_t>((Flags & ~HeapSlots) | (OnHeap ? HeapSlots : 0));
  DefCap = static_cast<uint16_t>(NewDefCap);
  UseCap = static_cast<uint16_t>(NewUseCap);
}

void Instruction::growIncoming(uint32_t NewCap) {
  assert(NewCap > IncCap && "shrinking incoming array");
  BasicBlock **NewInc;
  bool OnHeap = false;
  if (Parent) {
    NewInc = Parent->IRArena.allocArray<BasicBlock *>(NewCap);
    Parent->SlabBytes += NewCap * sizeof(BasicBlock *);
  } else {
    NewInc = new BasicBlock *[NewCap];
    OnHeap = true;
  }
  for (uint32_t I = 0; I < IncCap; ++I)
    NewInc[I] = Inc[I];
  if (Flags & HeapIncoming)
    delete[] Inc;
  Inc = NewInc;
  Flags = static_cast<uint8_t>((Flags & ~HeapIncoming) |
                               (OnHeap ? HeapIncoming : 0));
  IncCap = static_cast<uint16_t>(NewCap);
}

void Instruction::copyPayload(const Instruction &O) {
  // `this` is freshly constructed: inline caps, no slabs, Flags == 0.
  NDefs = O.NDefs;
  NUses = O.NUses;
  Imm = O.Imm;
  CalleeStr = O.CalleeStr;
  Targets[0] = O.Targets[0];
  Targets[1] = O.Targets[1];
  if (O.NDefs > InlineDefCap || O.NUses > InlineUseCap) {
    DefCap = static_cast<uint16_t>(std::max<uint32_t>(O.NDefs, InlineDefCap));
    UseCap = static_cast<uint16_t>(std::max<uint32_t>(O.NUses, InlineUseCap));
    Ext = new RegId[runSize(DefCap, UseCap)];
    Flags |= HeapSlots;
  }
  RegId *Dst = slots();
  const RegId *Src = O.slots();
  std::memcpy(Dst, Src, NDefs * sizeof(RegId));
  std::memcpy(Dst + DefCap, Src + O.DefCap, NDefs * sizeof(RegId));
  std::memcpy(Dst + 2 * DefCap, Src + 2 * O.DefCap, NUses * sizeof(RegId));
  std::memcpy(Dst + 2 * DefCap + UseCap, Src + 2 * O.DefCap + O.UseCap,
              NUses * sizeof(RegId));
  if (O.Inc && O.IncCap && NUses) {
    IncCap = static_cast<uint16_t>(NUses);
    Inc = new BasicBlock *[IncCap];
    for (uint32_t I = 0; I < NUses; ++I)
      Inc[I] = O.Inc[I];
    Flags |= HeapIncoming;
  }
}

//===----------------------------------------------------------------------===//
// Function instruction table
//===----------------------------------------------------------------------===//

InstrRef Function::allocSlot() {
  if (!FreeRefs.empty()) {
    InstrRef R = FreeRefs.back();
    FreeRefs.pop_back();
    return R;
  }
  if (NumSlots == TableChunks.size() * ChunkSize) {
    TableChunks.push_back(static_cast<Instruction *>(
        IRArena.alloc(ChunkSize * sizeof(Instruction), alignof(Instruction))));
  }
  LAO_STAT(ir, instr_slots) += 1;
  return NumSlots++;
}

InstrRef Function::cloneInstr(const Instruction &Src) {
  InstrRef R = allocSlot();
  Instruction *Rec = new (&instr(R)) Instruction(Src.Op);
  Rec->Parent = this;
  Rec->Self = R;
  Rec->NDefs = Src.NDefs;
  Rec->NUses = Src.NUses;
  Rec->Imm = Src.Imm;
  Rec->CalleeStr = Src.CalleeStr; // Interned process-wide; shared as-is.
  Rec->Targets[0] = Src.Targets[0];
  Rec->Targets[1] = Src.Targets[1];
  if (Src.Ext) {
    const uint32_t Size = Instruction::runSize(Src.DefCap, Src.UseCap);
    Rec->Ext = IRArena.allocArray<RegId>(Size);
    std::memcpy(Rec->Ext, Src.Ext, Size * sizeof(RegId));
    Rec->DefCap = Src.DefCap;
    Rec->UseCap = Src.UseCap;
    SlabBytes += Size * sizeof(RegId);
  } else {
    std::memcpy(Rec->InlineSlots, Src.InlineSlots, sizeof(Rec->InlineSlots));
  }
  if (Src.Inc) {
    Rec->Inc = IRArena.allocArray<BasicBlock *>(Src.IncCap);
    std::memcpy(Rec->Inc, Src.Inc, Src.IncCap * sizeof(BasicBlock *));
    Rec->IncCap = Src.IncCap;
    SlabBytes += Src.IncCap * sizeof(BasicBlock *);
  }
  return R;
}

InstrRef Function::internInstr(Instruction &&I) {
  assert(!I.Parent && "interning an attached instruction");
  InstrRef R = allocSlot();
  // Records in the attached state are trivially destructible (no heap
  // slabs), so recycled slots can be re-constructed in place.
  Instruction *Rec = new (&instr(R)) Instruction(std::move(I));
  Rec->Parent = this;
  Rec->Self = R;
  // Migrate detached heap slabs into the arena so the record needs no
  // destructor while attached.
  if (Rec->Flags & Instruction::HeapSlots) {
    const uint32_t Size = Instruction::runSize(Rec->DefCap, Rec->UseCap);
    RegId *Run = IRArena.allocArray<RegId>(Size);
    std::memcpy(Run, Rec->Ext, Size * sizeof(RegId));
    delete[] Rec->Ext;
    Rec->Ext = Run;
    SlabBytes += Size * sizeof(RegId);
  }
  if (Rec->Flags & Instruction::HeapIncoming) {
    BasicBlock **NewInc = IRArena.allocArray<BasicBlock *>(Rec->IncCap);
    std::memcpy(NewInc, Rec->Inc, Rec->IncCap * sizeof(BasicBlock *));
    delete[] Rec->Inc;
    Rec->Inc = NewInc;
    SlabBytes += Rec->IncCap * sizeof(BasicBlock *);
  }
  Rec->Flags = 0;
  return R;
}

void Function::eraseBlocks(const std::vector<bool> &Dead) {
  assert(Dead.size() == Blocks.size() && "one flag per block");
  assert(!Dead[0] && "the entry block cannot be erased");
  // Phis first, while every block still has its original id.
  for (const auto &BB : Blocks) {
    if (Dead[BB->id()])
      continue;
    for (Instruction &I : BB->instructions()) {
      if (!I.isPhi())
        break;
      for (unsigned K = I.numUses(); K-- > 0;)
        if (Dead[I.incomingBlock(K)->id()])
          I.removeIncoming(K);
    }
    for (const BasicBlock *S : BB->successors()) {
      (void)S;
      assert(!Dead[S->id()] && "a surviving block branches to an erased one");
    }
  }
  unsigned NumLive = 0;
  for (size_t Old = 0; Old < Blocks.size(); ++Old) {
    if (Dead[Old])
      continue;
    Blocks[Old]->Id = NumLive;
    std::swap(Blocks[NumLive++], Blocks[Old]);
  }
  Blocks.resize(NumLive);
}
