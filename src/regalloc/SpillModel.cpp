//===- SpillModel.cpp - Spill code insertion -----------------------------------===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//
//
// The forwarding path rests on one invariant: inside a block, once a
// temp holds a spilled value (from a reload or from the def feeding a
// store), the rewriter never emits another load of that value in the
// block — so the slot is provably unread between any two same-block
// stores, and a value reloaded nowhere in the whole round has a
// write-only slot.
//
// Forwarding can defeat a spill: when every use of a value sits in its
// def block, the def temp forwards to all of them, the (dead) store is
// dropped, and the value was merely *renamed* — same live range, no
// pressure relief. Two rules keep the round loop convergent anyway:
// such a rename stays spillable (it is not a minimal-range temp), and
// when a temp the rewriter itself created is selected for spilling in a
// later round it takes the classic path, whose fresh temps all have
// single-instruction ranges.
//
//===----------------------------------------------------------------------===//

#include "regalloc/SpillModel.h"

#include "support/Stats.h"

using namespace lao;

void SpillRewriter::insertSpillCode(Function &F,
                                    const std::vector<RegId> &Spilled,
                                    BitVector &NoSpill,
                                    RegAllocResult &Result) {
  // Values below NumValues are the round's input; every value made
  // during the round is one of its temps.
  const size_t NumValues = F.numValues();
  BitVector SpillSet(NumValues);
  for (RegId V : Spilled)
    SpillSet.set(V);

  // New values get slots in ascending RegId order, whatever order the
  // strategy produced them in: the frame layout (and FrameBytes) must
  // not depend on select-stack pops.
  SlotOf.resize(NumValues, 0);
  SpillSet.forEach([&](size_t V) {
    if (SlotOf[V])
      return;
    SlotOf[V] = 0x80000 + 8 * static_cast<int64_t>(NextSlot++);
    ++Result.NumSpilled;
    ++LAO_STAT(regalloc, spilled_values);
  });
  OwnTemps.resize(NumValues);
  auto Classic = [&](RegId V) {
    return Kind == SpillModelKind::SpillEverywhere || OwnTemps.test(V);
  };

  using InstIter = BasicBlock::InstList::iterator;
  /// One emitted store (its address Make and the Store itself), kept so
  /// the post-scan pass can delete it.
  struct StoreSite {
    RegId V;
    RegId Tmp; ///< The .st temp the store reads.
    InstIter Lea, St;
    bool Redundant = false; ///< Overwritten by a later same-block store.
  };
  std::vector<StoreSite> Stores;
  BitVector Reloaded(NumValues); ///< Values this round loaded at least once.
  /// Temp -> uses outside its own lea/load pair (its store and the
  /// forwarded uses); classic temps count none.
  std::vector<unsigned> TempUses(NumValues, 0);
  auto NewTemp = [&](const std::string &Name) {
    TempUses.push_back(0);
    return F.makeVirtual(Name);
  };

  // tmp = make slot; tmp = load tmp, before \p Before. The reload
  // register doubles as the address register to halve the register
  // pressure of spill code.
  auto Reload = [&](RegId V, InstIter Before) {
    RegId Tmp = NewTemp(F.valueName(V) + ".ld");
    Instruction Lea(Opcode::Make);
    Lea.addDef(Tmp);
    Lea.setImm(SlotOf[V]);
    Before.list()->insert(Before, std::move(Lea));
    Instruction Ld(Opcode::Load);
    Ld.addDef(Tmp);
    Ld.addUse(Tmp);
    Before.list()->insert(Before, std::move(Ld));
    ++Result.NumSpillLoads;
    Reloaded.set(V);
    return Tmp;
  };
  // Def \p K of \p I (the value V) writes a fresh temp instead, stored
  // to V's slot by an address make and a store inserted before
  // \p Before.
  auto Store = [&](Instruction &I, unsigned K, InstIter Before) {
    RegId V = I.def(K);
    RegId Tmp = NewTemp(F.valueName(V) + ".st");
    I.setDef(K, Tmp);
    RegId Addr = NewTemp("sl.addr");
    Instruction Lea(Opcode::Make);
    Lea.addDef(Addr);
    Lea.setImm(SlotOf[V]);
    InstIter LeaIt = Before.list()->insert(Before, std::move(Lea));
    Instruction St(Opcode::Store);
    St.addUse(Addr);
    St.addUse(Tmp);
    InstIter StIt = Before.list()->insert(Before, std::move(St));
    ++Result.NumSpillStores;
    return StoreSite{V, Tmp, LeaIt, StIt};
  };

  // Avail[V]: the temp holding V's value — a reload, or the def temp
  // whose store just wrote the slot. A forwarding value keeps it for the
  // rest of the block (spill temps have a single def, so it is never
  // invalidated), a classic one for the rest of the instruction.
  // LastStore[V]: the index into Stores of V's last store in the block.
  constexpr unsigned NoStore = ~0u;
  std::vector<RegId> Avail(NumValues, InvalidReg);
  std::vector<unsigned> LastStore(NumValues, NoStore);
  std::vector<RegId> BlockTouched, InstTouched;
  for (const auto &BB : F.blocks()) {
    auto &List = BB->instructions();
    for (InstIter It = List.begin(); It != List.end(); ++It) {
      Instruction &I = *It;
      for (unsigned K = 0; K < I.numUses(); ++K) {
        RegId V = I.use(K);
        if (!SpillSet.test(V))
          continue;
        bool IsClassic = Classic(V);
        if (Avail[V] == InvalidReg) {
          Avail[V] = Reload(V, It);
          (IsClassic ? InstTouched : BlockTouched).push_back(V);
        } else if (!IsClassic) {
          ++LAO_STAT(regalloc, forwarded_uses);
        }
        I.setUse(K, Avail[V]);
        if (!IsClassic)
          ++TempUses[Avail[V]];
      }
      for (RegId V : InstTouched)
        Avail[V] = InvalidReg;
      InstTouched.clear();

      for (unsigned K = 0; K < I.numDefs(); ++K) {
        RegId V = I.def(K);
        if (!SpillSet.test(V))
          continue;
        // A forwarding store overwrites the block's previous store of V,
        // and no load of V can have been emitted in between (Avail held
        // V for the whole gap) — the earlier one is dead. A classic
        // store stays: the classic reloads read its slot.
        bool IsClassic = Classic(V);
        if (!IsClassic && LastStore[V] != NoStore)
          Stores[LastStore[V]].Redundant = true;
        StoreSite Site = Store(I, K, std::next(It));
        // Skip over the inserted address+store so they are not
        // re-processed as spill sites.
        It = Site.St;
        if (IsClassic)
          continue;
        ++TempUses[Site.Tmp]; // The store's own read of the def temp.
        if (Avail[V] == InvalidReg)
          BlockTouched.push_back(V);
        Avail[V] = Site.Tmp; // Later same-block uses read the def temp.
        LastStore[V] = static_cast<unsigned>(Stores.size());
        Stores.push_back(Site);
      }
    }
    for (RegId V : BlockTouched) {
      Avail[V] = InvalidReg;
      LastStore[V] = NoStore;
    }
    BlockTouched.clear();
  }

  // Delete overwritten stores, then the stores of values this round
  // never reloaded (their slots are write-only; nothing later can read
  // them — the value's old name no longer occurs in F). The iterators
  // stay valid: InstList::erase invalidates only the erased position,
  // and they carry their owning list.
  BitVector Lengthened(F.numValues());
  for (StoreSite &S : Stores) {
    if (!S.Redundant && Reloaded.test(S.V))
      continue;
    S.Lea.list()->erase(S.Lea);
    S.St.list()->erase(S.St);
    --Result.NumSpillStores;
    --TempUses[S.Tmp];
    ++LAO_STAT(regalloc, dead_stores_removed);
    // Without its store, the def temp's range runs to its last
    // forwarded use: the value was renamed, not shortened, and must
    // stay eligible for a real (classic) spill in a later round.
    Lengthened.set(S.Tmp);
  }

  // NoSpill discipline: temps serving exactly one instruction keep the
  // minimal ranges of the classic path and must never re-spill.
  // Forwarded temps (several uses) and store-less renames stay
  // spillable — their ranges are real, and re-spilling one takes the
  // classic path, so the rewrite cannot cycle.
  NoSpill.resize(F.numValues());
  OwnTemps.resize(F.numValues());
  for (RegId T = static_cast<RegId>(NumValues); T < F.numValues(); ++T) {
    if (TempUses[T] <= 1 && !Lengthened.test(T))
      NoSpill.set(T);
    OwnTemps.set(T);
  }
}
