//===- LeungGeorge.cpp - Out-of-pinned-SSA translation -------------------------===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//

#include "outofssa/LeungGeorge.h"

#include "analysis/Dominators.h"
#include "support/BitVector.h"
#include "support/Stats.h"

#include <cassert>
#include <span>

using namespace lao;

namespace {

/// "No holder": the resource holds no value the translation can name,
/// because some path from the entry never writes it or two paths bring
/// different values. Meeting it with anything gives it again, so one
/// value stands for both cases and no query or later meet can tell them
/// apart.
constexpr RegId NoHolder = InvalidReg;
/// The optimistic start of a meet node: no operand seen yet. Only the
/// meet-node fixpoint uses it.
constexpr RegId TopHolder = InvalidReg - 1;
/// Walk 1 holds symbolic values: MeetTag | M stands for "whatever meet
/// node M resolves to".
constexpr RegId MeetTag = RegId(1) << 31;
constexpr uint32_t NoSlot = ~0u;

bool isMeetRef(RegId H) { return H >= MeetTag && H != NoHolder; }

RegId meetHolders(RegId A, RegId B) {
  if (A == TopHolder)
    return B;
  if (B == TopHolder)
    return A;
  return A == B ? A : NoHolder;
}

/// The mark and reconstruct phases over one function. The holder
/// analysis is SSA construction applied to resource slots (Cytron et
/// al., TOPLAS 1991): the blocks that write a slot are its definitions,
/// their iterated dominance frontier holds its meet nodes (the slot's
/// "phis"), and a dominator-tree walk with one flat current-holder array
/// and an undo stack gives every other block the holders at the end of
/// its immediate dominator. The meet nodes alone are solved to the
/// optimistic fixpoint, which is the sparse evaluation graph of Choi,
/// Cytron and Ferrante (POPL 1991) for this problem.
class Translator {
public:
  Translator(Function &F, PinningContext &Ctx)
      : F(F), Ctx(Ctx), Cfg(Ctx.cfg()), DT(Ctx.domTree()),
        NumOrigValues(F.numValues()) {}

  /// Translates, then adds this call's tally to the translate.*
  /// counters.
  void run() {
    buildSlotsAndDeltas();
    placeMeetNodes();
    solveMeetNodes();
    RepairNeeded.resize(NumOrigValues);
    replay(/*Rewrite=*/false);
    // Ascending RegId order fixes the repair variables' ids and names.
    RepairVar.assign(NumOrigValues, InvalidReg);
    RepairNeeded.forEach([&](size_t V) {
      RepairVar[V] = F.makeVirtual(F.valueName(static_cast<RegId>(V)) + ".r");
      ++NumRepairs;
    });
    replay(/*Rewrite=*/true);
    LAO_STAT(translate, runs) += 1;
    LAO_STAT(translate, repairs) += NumRepairs;
    LAO_STAT(translate, phi_copies) += NumPhiCopies;
    LAO_STAT(translate, pin_copies) += NumPinCopies;
    LAO_STAT(translate, elided_copies) += NumElidedCopies;
    LAO_STAT(translate, phis_removed) += NumPhisRemoved;
    LAO_STAT(translate, inserts) += NumInserts;
    // The (slot, block) pairs whose entry holder the fixpoint solved.
    LAO_STAT(translate, meet_nodes) += MeetSlot.size();
  }

private:
  Function &F;
  PinningContext &Ctx;
  const CFG &Cfg;
  const DominatorTree &DT;
  size_t NumOrigValues;

  // The call's tally.
  unsigned NumRepairs = 0;      ///< Repair copies inserted.
  unsigned NumPhiCopies = 0;    ///< Parallel-copy entries for phis.
  unsigned NumPinCopies = 0;    ///< Copies satisfying use pins.
  unsigned NumElidedCopies = 0; ///< Copies avoided (value in place).
  unsigned NumPhisRemoved = 0;
  unsigned NumInserts = 0;      ///< Instructions inserted (all kinds).

  /// Compact renumbering of written resource slots: SlotOf[Res] is the
  /// index of resource representative Res, or NoSlot if no instruction
  /// ever writes it. Every query resolves through a definition, a use
  /// pin or a phi, all of which write their slot, so unwritten slots
  /// hold nothing everywhere and need no storage.
  std::vector<uint32_t> SlotOf;
  uint32_t NumSlots = 0;

  /// Per-block transfer effects, flat: the writes of block B are
  /// Deltas[DeltaBegin[B] .. DeltaBegin[B + 1]). They are
  /// state-independent (slot, value) pairs, so the block's transfer is
  /// "apply this list in order".
  std::vector<size_t> DeltaBegin;
  std::vector<std::pair<uint32_t, RegId>> Deltas;

  /// W_s, flat: the blocks that write slot S are
  /// Writers[WriterBegin[S] .. WriterBegin[S + 1]), once per write.
  std::vector<size_t> WriterBegin;
  std::vector<const BasicBlock *> Writers;

  /// Meet nodes, grouped by block: those of block B are the indices
  /// MeetBegin[B] .. MeetBegin[B + 1], meet node M joins slot
  /// MeetSlot[M], and MeetHolder[M] is its solved holder.
  std::vector<size_t> MeetBegin;
  std::vector<uint32_t> MeetSlot;
  std::vector<RegId> MeetHolder;

  /// The one holder array (indexed by slot) and the (slot, old holder)
  /// entries that restore it when the walk leaves a dominator subtree.
  std::vector<RegId> Cur;
  std::vector<std::pair<uint32_t, RegId>> Undo;

  BitVector RepairNeeded;        ///< Indexed by original RegId.
  std::vector<RegId> RepairVar;  ///< Indexed by original RegId.

  // Per-instruction scratch, reused across the replay.
  std::vector<RegId> OrigUses, RepairsAfter, PendingPhiRepairs;

  RegId repOf(RegId V) const {
    assert(V < NumOrigValues && "querying a synthesized variable");
    return Ctx.resourceOf(V);
  }

  uint32_t slotOf(RegId Res) const {
    assert(Res < SlotOf.size() && SlotOf[Res] != NoSlot &&
           "query on a never-written resource slot");
    return SlotOf[Res];
  }

  RegId holderOf(RegId Res) const { return Cur[slotOf(Res)]; }

  void write(uint32_t Slot, RegId H) {
    Undo.push_back({Slot, Cur[Slot]});
    Cur[Slot] = H;
  }

  /// Location of \p V's value under Cur: its resource if the resource
  /// still holds it, otherwise its repair variable. In mark mode a miss
  /// records the repair requirement instead.
  RegId locOf(RegId V, bool Rewrite) {
    if (F.isPhysical(V))
      return V;
    RegId Res = repOf(V);
    if (holderOf(Res) == V)
      return Res;
    if (!Rewrite) {
      RepairNeeded.set(V);
      return Res;
    }
    assert(RepairVar[V] != InvalidReg && "repair variable missing");
    return RepairVar[V];
  }

  /// The parallel-copy state updates performed at the end of \p BB for
  /// the phis of its successors.
  void applyPhiCopyUpdates(const BasicBlock *BB) {
    for (BasicBlock *Succ : Cfg.succs(BB))
      for (const Instruction &I : Succ->instructions()) {
        if (!I.isPhi())
          break;
        write(slotOf(repOf(I.def(0))), I.def(0));
      }
  }

  uint32_t internSlot(RegId Res) {
    if (SlotOf[Res] == NoSlot)
      SlotOf[Res] = NumSlots++;
    return SlotOf[Res];
  }

  /// One pass over the function: assigns compact indices to every
  /// written slot (in first-write order, deterministic), records each
  /// block's delta list, mirroring the replay state updates exactly, and
  /// each slot's writing blocks.
  void buildSlotsAndDeltas() {
    SlotOf.assign(F.numValues(), NoSlot);
    NumSlots = 0;
    DeltaBegin.assign(F.numBlocks() + 1, 0);
    Deltas.clear();
    for (const auto &BBPtr : F.blocks()) {
      DeltaBegin[BBPtr->id()] = Deltas.size();
      auto Push = [&](RegId Res, RegId V) {
        Deltas.push_back({internSlot(Res), V});
      };
      for (const Instruction &I : BBPtr->instructions()) {
        if (I.isPhi()) {
          Push(repOf(I.def(0)), I.def(0));
          continue;
        }
        if (I.isTerminator()) // Phi-related parallel copies at block end.
          for (BasicBlock *Succ : Cfg.succs(BBPtr.get()))
            for (const Instruction &Phi : Succ->instructions()) {
              if (!Phi.isPhi())
                break;
              Push(repOf(Phi.def(0)), Phi.def(0));
            }
        for (unsigned K = 0; K < I.numUses(); ++K)
          if (I.usePin(K) != InvalidReg)
            Push(repOf(I.usePin(K)), I.use(K));
        for (RegId Dv : I.defs())
          Push(F.isPhysical(Dv) ? Ctx.resourceOf(Dv) : repOf(Dv), Dv);
      }
    }
    DeltaBegin[F.numBlocks()] = Deltas.size();

    // Group the (slot, block) write pairs by slot. A block that writes
    // a slot more than once repeats; PhiPlacement takes repeats.
    WriterBegin.assign(NumSlots + 1, 0);
    for (const auto &D : Deltas)
      ++WriterBegin[D.first + 1];
    for (uint32_t S = 0; S < NumSlots; ++S)
      WriterBegin[S + 1] += WriterBegin[S];
    Writers.assign(WriterBegin[NumSlots], nullptr);
    std::vector<size_t> Fill(WriterBegin.begin(), WriterBegin.end() - 1);
    for (const auto &BBPtr : F.blocks()) {
      uint32_t B = BBPtr->id();
      for (size_t K = DeltaBegin[B]; K < DeltaBegin[B + 1]; ++K)
        Writers[Fill[Deltas[K].first]++] = BBPtr.get();
    }
  }

  /// The meet nodes of slot S are the iterated dominance frontier of
  /// W_s (Cytron et al.'s phi placement), minus the entry block: the
  /// entry merges a "function start" path on which nothing is held, so
  /// its holders are always NoHolder.
  void placeMeetNodes() {
    size_t NB = F.numBlocks();
    const BasicBlock *Entry = NB ? &F.entry() : nullptr;
    PhiPlacement Placement(Cfg, DT);
    std::vector<std::pair<uint32_t, uint32_t>> Nodes; // (block, slot)
    for (uint32_t S = 0; S < NumSlots; ++S)
      Placement.place(
          std::span(Writers).subspan(WriterBegin[S],
                                     WriterBegin[S + 1] - WriterBegin[S]),
          [](const BasicBlock *) { return true; },
          [&](const BasicBlock *Y) {
            if (Y != Entry)
              Nodes.push_back({Y->id(), S});
          });
    assert(Nodes.size() < MeetTag - 2 && "too many meet nodes to tag");

    MeetBegin.assign(NB + 1, 0);
    for (const auto &[B, S] : Nodes)
      ++MeetBegin[B + 1];
    for (size_t B = 0; B < NB; ++B)
      MeetBegin[B + 1] += MeetBegin[B];
    MeetSlot.assign(Nodes.size(), 0);
    std::vector<size_t> Fill(MeetBegin.begin(), MeetBegin.end() - 1);
    for (const auto &[B, S] : Nodes)
      MeetSlot[Fill[B]++] = S;
  }

  /// Visits every reachable block in dominator-tree preorder. On entry
  /// to \p Visit, Cur holds the holders at the end of the block's
  /// immediate dominator (NoHolder everywhere for the entry); whatever
  /// the visitor writes is undone once the walk leaves the block's
  /// subtree. Unreachable blocks are empty (a PinningContext
  /// precondition), so there is nothing to visit there.
  template <typename VisitFn> void walk(VisitFn Visit) {
    Cur.assign(NumSlots, NoHolder);
    Undo.clear();
    walkDominatorTree(
        DT,
        [&](BasicBlock *BB) {
          size_t Mark = Undo.size();
          Visit(BB);
          return Mark;
        },
        [&](size_t Mark) {
          for (; Undo.size() > Mark; Undo.pop_back())
            Cur[Undo.back().first] = Undo.back().second;
        });
  }

  /// Walk 1 gives each meet node its operands: the symbolic holder of its
  /// slot at the end of each reachable predecessor. Unreachable
  /// predecessors contribute nothing, which is the dense solver's "ignore
  /// unvisited predecessors". The meet nodes are then solved to the
  /// optimistic fixpoint: start at Top, ignore Top operands, and push a
  /// meet node's changes to the meet nodes that name it. A holder can
  /// only fall Top -> value -> NoHolder, so each node changes at most
  /// twice.
  void solveMeetNodes() {
    size_t NumMeets = MeetSlot.size();
    std::vector<std::pair<uint32_t, RegId>> Operands; // (meet node, holder)
    walk([&](const BasicBlock *BB) {
      uint32_t B = BB->id();
      for (size_t M = MeetBegin[B]; M < MeetBegin[B + 1]; ++M)
        write(MeetSlot[M], MeetTag | static_cast<RegId>(M));
      for (size_t K = DeltaBegin[B]; K < DeltaBegin[B + 1]; ++K)
        write(Deltas[K].first, Deltas[K].second);
      for (const BasicBlock *Succ : Cfg.succs(BB))
        for (size_t M = MeetBegin[Succ->id()]; M < MeetBegin[Succ->id() + 1];
             ++M)
          Operands.push_back({static_cast<uint32_t>(M), Cur[MeetSlot[M]]});
    });

    MeetHolder.assign(NumMeets, TopHolder);
    std::vector<size_t> UserBegin(NumMeets + 1, 0);
    for (const auto &[M, H] : Operands) {
      if (isMeetRef(H))
        ++UserBegin[(H & ~MeetTag) + 1];
      else
        MeetHolder[M] = meetHolders(MeetHolder[M], H);
    }
    for (size_t M = 0; M < NumMeets; ++M)
      UserBegin[M + 1] += UserBegin[M];
    std::vector<uint32_t> Users(UserBegin[NumMeets]);
    std::vector<size_t> Fill(UserBegin.begin(), UserBegin.end() - 1);
    for (const auto &[M, H] : Operands)
      if (isMeetRef(H))
        Users[Fill[H & ~MeetTag]++] = M;

    std::vector<uint32_t> Work;
    for (uint32_t M = 0; M < NumMeets; ++M)
      if (MeetHolder[M] != TopHolder)
        Work.push_back(M);
    while (!Work.empty()) {
      uint32_t Src = Work.back();
      Work.pop_back();
      for (size_t K = UserBegin[Src]; K < UserBegin[Src + 1]; ++K) {
        uint32_t M = Users[K];
        RegId H = meetHolders(MeetHolder[M], MeetHolder[Src]);
        if (H != MeetHolder[M]) {
          MeetHolder[M] = H;
          Work.push_back(M);
        }
      }
    }
  }

  /// Walks every block with the solved holders. In mark mode (Rewrite ==
  /// false) it records which variables need repairs; in rewrite mode it
  /// rebuilds each block's sequence by *relinking* retained instructions
  /// into a staging list (an O(1) splice per instruction — records never
  /// move or copy) and inserting the parallel copies and repairs. Phis
  /// and identity moves stay behind and are freed when the staged list
  /// is installed. Installation happens only after all blocks are
  /// processed: building a predecessor's parallel copy needs the
  /// successor's phis.
  void replay(bool Rewrite) {
    std::vector<BasicBlock::InstList> NewLists;
    if (Rewrite) {
      NewLists.reserve(F.numBlocks());
      for (size_t I = 0; I < F.numBlocks(); ++I)
        NewLists.emplace_back(&F);
    }
    walk([&](BasicBlock *BB) {
      uint32_t B = BB->id();
      for (size_t M = MeetBegin[B]; M < MeetBegin[B + 1]; ++M) {
        assert(MeetHolder[M] != TopHolder && "unsolved meet node");
        write(MeetSlot[M], MeetHolder[M]);
      }
      replayBlock(BB, Rewrite, Rewrite ? &NewLists[B] : nullptr);
    });
    if (Rewrite)
      for (const auto &BBPtr : F.blocks())
        BBPtr->instructions() = std::move(NewLists[BBPtr->id()]);
  }

  /// Emits (in rewrite mode) the repair copy for \p V right after its
  /// definition point.
  void emitRepair(RegId V, BasicBlock::InstList &NewList) {
    Instruction Copy(Opcode::Mov);
    Copy.addDef(RepairVar[V]);
    Copy.addUse(repOf(V));
    NewList.push_back(std::move(Copy));
    ++NumInserts;
  }

  /// Replays \p BB from the holders in Cur, updating Cur as it goes.
  /// \p NewList is the staging list in rewrite mode, null in mark mode.
  void replayBlock(BasicBlock *BB, bool Rewrite,
                   BasicBlock::InstList *NewList) {
    PendingPhiRepairs.clear();
    bool InPhiGroup = true;

    auto &Insts = BB->instructions();
    for (auto It = Insts.begin(); It != Insts.end();) {
      Instruction &I = *It;
      auto Next = std::next(It);
      if (I.isPhi()) {
        assert(InPhiGroup && "phi after non-phi");
        write(slotOf(repOf(I.def(0))), I.def(0));
        if (Rewrite) {
          if (RepairNeeded.test(I.def(0)))
            PendingPhiRepairs.push_back(I.def(0));
          ++NumPhisRemoved;
        }
        It = Next;
        continue;
      }
      if (InPhiGroup) {
        InPhiGroup = false;
        if (Rewrite)
          for (RegId V : PendingPhiRepairs)
            emitRepair(V, *NewList);
      }

      // Phi-related parallel copy at block end (before the terminator).
      if (I.isTerminator()) {
        Instruction ParCopy(Opcode::ParCopy);
        for (BasicBlock *Succ : Cfg.succs(BB)) {
          for (const Instruction &Phi : Succ->instructions()) {
            if (!Phi.isPhi())
              break;
            RegId X = Phi.def(0);
            RegId Dst = repOf(X);
            // Find the argument flowing along this edge.
            RegId Arg = InvalidReg;
            for (unsigned K = 0; K < Phi.numUses(); ++K)
              if (Phi.incomingBlock(K) == BB) {
                Arg = Phi.use(K);
                break;
              }
            assert(Arg != InvalidReg && "phi lacks entry for predecessor");
            if (holderOf(Dst) == Arg) {
              // The destination resource already carries the flowing
              // value: elide the copy (paper Section 2.3, second bullet).
              if (Rewrite)
                ++NumElidedCopies;
              continue;
            }
            RegId Src = locOf(Arg, Rewrite);
            if (Src == Dst) {
              if (Rewrite)
                ++NumElidedCopies;
              continue;
            }
            ParCopy.addDef(Dst);
            ParCopy.addUse(Src);
          }
        }
        applyPhiCopyUpdates(BB);
        if (Rewrite && ParCopy.numDefs() != 0) {
          NumPhiCopies += ParCopy.numDefs();
          NewList->push_back(std::move(ParCopy));
          ++NumInserts;
        }
      }

      // Uses. The pin copies execute (in parallel) immediately before
      // the instruction: build them against the pre-copy state, then
      // apply their effect, then resolve every operand against the
      // post-copy state — an unpinned use whose resource was just
      // clobbered by a sibling's pin copy must read its repair.
      OrigUses.assign(I.uses().begin(), I.uses().end());
      Instruction PinCopy(Opcode::ParCopy);
      for (unsigned K = 0; K < I.numUses(); ++K) {
        RegId V = OrigUses[K];
        RegId Pin = I.usePin(K);
        if (Pin == InvalidReg)
          continue;
        RegId PinRes = repOf(Pin);
        RegId Loc = F.isPhysical(V) ? V : locOf(V, Rewrite);
        if (holderOf(PinRes) == V || Loc == PinRes) {
          if (Rewrite)
            ++NumElidedCopies;
          continue;
        }
        // Copy the value into the pinned resource.
        bool Dup = false;
        for (unsigned D = 0; D < PinCopy.numDefs() && !Dup; ++D)
          Dup = PinCopy.def(D) == PinRes;
        if (!Dup) {
          PinCopy.addDef(PinRes);
          PinCopy.addUse(Loc);
        }
      }
      // Pin-copy state updates (value now also in the pinned resource).
      for (unsigned K = 0; K < I.numUses(); ++K)
        if (I.usePin(K) != InvalidReg)
          write(slotOf(repOf(I.usePin(K))), OrigUses[K]);
      if (Rewrite && PinCopy.numDefs() != 0) {
        NumPinCopies += PinCopy.numDefs();
        NewList->push_back(std::move(PinCopy));
        ++NumInserts;
      }
      // Resolve operands under the post-copy state.
      for (unsigned K = 0; K < I.numUses(); ++K) {
        RegId V = OrigUses[K];
        RegId Pin = I.usePin(K);
        if (Pin != InvalidReg) {
          if (Rewrite)
            I.setUse(K, repOf(Pin));
          continue;
        }
        RegId Loc = F.isPhysical(V) ? V : locOf(V, Rewrite);
        if (Rewrite)
          I.setUse(K, Loc);
      }

      // Defs: rename to the class representative.
      RepairsAfter.clear();
      for (unsigned K = 0; K < I.numDefs(); ++K) {
        RegId D = I.def(K);
        RegId Res = repOf(D);
        write(slotOf(Res), D);
        if (Rewrite) {
          I.setDef(K, Res);
          if (RepairNeeded.test(D))
            RepairsAfter.push_back(D);
        }
      }

      if (Rewrite) {
        // Relink the (renamed-in-place) instruction into the staged
        // list; moves that became identities through renaming stay
        // behind and are freed when the staged list is installed.
        bool Identity = I.isCopy() && I.def(0) == I.use(0);
        if (!Identity)
          NewList->splice(NewList->end(), Insts, It);
        for (RegId V : RepairsAfter)
          emitRepair(V, *NewList);
      }
      It = Next;
    }

    // Clear pins: the output is no longer pinned SSA. The new list is
    // installed by replay() once every block has been processed.
    if (Rewrite) {
      for (Instruction &I : *NewList) {
        for (unsigned K = 0; K < I.numDefs(); ++K)
          I.pinDef(K, InvalidReg);
        for (unsigned K = 0; K < I.numUses(); ++K)
          I.pinUse(K, InvalidReg);
      }
    }
  }
};

} // namespace

void lao::translateOutOfSSA(Function &F, PinningContext &Ctx) {
  Translator(F, Ctx).run();
}

void lao::sequentializeCopyPairs(std::vector<CopyPair> Entries,
                                 const std::function<RegId()> &MakeTemp,
                                 std::vector<CopyPair> &Out) {
  while (!Entries.empty()) {
    // Emit a copy whose destination is not needed as a source.
    bool Progress = false;
    for (size_t K = 0; K < Entries.size(); ++K) {
      RegId Dst = Entries[K].first;
      bool DstIsSource = false;
      for (auto &[D2, S2] : Entries)
        DstIsSource |= S2 == Dst;
      if (DstIsSource)
        continue;
      Out.push_back(Entries[K]);
      Entries.erase(Entries.begin() + K);
      Progress = true;
      break;
    }
    if (Progress)
      continue;
    // Pure cycle: break it with a temporary (the swap problem).
    RegId CycleSrc = Entries.front().second;
    RegId Tmp = MakeTemp();
    Out.push_back({Tmp, CycleSrc});
    for (auto &[D2, S2] : Entries)
      if (S2 == CycleSrc)
        S2 = Tmp;
  }
}

void lao::sequentializeParallelCopies(Function &F) {
  unsigned NumMoves = 0;
  for (const auto &BB : F.blocks()) {
    auto &Insts = BB->instructions();
    for (auto It = Insts.begin(); It != Insts.end();) {
      if (!It->isParCopy()) {
        ++It;
        continue;
      }
      // Gather entries, dropping identities.
      std::vector<CopyPair> Entries; // (dst, src)
      for (unsigned K = 0; K < It->numDefs(); ++K)
        if (It->def(K) != It->use(K))
          Entries.push_back({It->def(K), It->use(K)});

      std::vector<CopyPair> Seq;
      sequentializeCopyPairs(std::move(Entries),
                             [&F] { return F.makeVirtual("swap"); }, Seq);

      NumMoves += Seq.size();
      for (auto &[Dst, Src] : Seq) {
        Instruction Mv(Opcode::Mov);
        Mv.addDef(Dst);
        Mv.addUse(Src);
        Insts.insert(It, std::move(Mv));
      }
      It = Insts.erase(It);
    }
  }
  LAO_STAT(sequentialize, moves_emitted) += NumMoves;
}
