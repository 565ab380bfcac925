//===- Function.h - Mini-LAI functions and basic blocks ---------*- C++ -*-===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// BasicBlock and Function containers for the mini-LAI IR. A Function owns
/// a bump arena holding a chunked, dense table of fixed-size Instruction
/// records (addressed by stable 32-bit InstrRef indices) plus every
/// overflow operand slab, and the table of register values (physical
/// registers first, then virtual registers created on demand).
///
/// Per-block instruction sequences are InstrList chains of table indices
/// (Prev/Next links inside the records) instead of std::list nodes. The
/// InstrList API mirrors the std::list surface the passes were written
/// against — begin/end, insert/erase/splice, push_back/pop_back — so
/// iterator-shaped pass code keeps working, while the records themselves
/// sit densely in arena chunks in allocation (≈ program) order, which is
/// what makes whole-function walks cache-linear. See docs/IR.md for the
/// layout and the InstrRef stability contract.
///
//===----------------------------------------------------------------------===//

#ifndef LAO_IR_FUNCTION_H
#define LAO_IR_FUNCTION_H

#include "ir/Instruction.h"
#include "ir/Target.h"
#include "support/Arena.h"

#include <cassert>
#include <cstddef>
#include <iterator>
#include <memory>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

namespace lao {

class Function;

/// A doubly-linked sequence of instructions threaded through a Function's
/// instruction table. BasicBlock holds one; passes that stage replacement
/// sequences (translate's replay) build detached lists bound to the same
/// function and install them with move-assignment.
class InstrList {
public:
  template <bool IsConst> class IterImpl;
  using iterator = IterImpl<false>;
  using const_iterator = IterImpl<true>;

  InstrList() = default;
  explicit InstrList(Function *F) : F(F) {}

  InstrList(const InstrList &) = delete;
  InstrList &operator=(const InstrList &) = delete;

  InstrList(InstrList &&O) noexcept
      : F(O.F), First(O.First), Last(O.Last), N(O.N) {
    O.First = O.Last = InvalidInstrRef;
    O.N = 0;
  }

  /// Destroys the current chain (slots return to the function's free
  /// list) and takes over \p O's chain. Both lists must belong to the
  /// same function.
  InstrList &operator=(InstrList &&O) noexcept;

  ~InstrList() { clear(); }

  Function *function() const { return F; }

  bool empty() const { return N == 0; }
  size_t size() const { return N; }

  inline iterator begin();
  inline iterator end();
  inline const_iterator begin() const;
  inline const_iterator end() const;

  inline auto rbegin();
  inline auto rend();
  inline auto rbegin() const;
  inline auto rend() const;

  inline Instruction &front();
  inline Instruction &back();
  inline const Instruction &front() const;
  inline const Instruction &back() const;

  /// Interns \p I into the function's table and appends it.
  inline Instruction &push_back(Instruction I);
  inline void pop_back();

  /// Interns \p I and links it before \p Pos; returns an iterator to it.
  inline iterator insert(iterator Pos, Instruction I);

  /// Unlinks and frees the instruction at \p Pos; returns the next
  /// position. Iterators and references to other instructions stay valid.
  inline iterator erase(iterator Pos);

  /// Moves the instruction at \p It (an element of \p Src) before \p Pos
  /// of this list without copying the record: a pure relink, as with
  /// std::list::splice. Both lists must belong to the same function.
  inline void splice(iterator Pos, InstrList &Src, iterator It);

  /// Links an already-interned, unlinked record at the end. The clone
  /// fast path: Function::cloneInstr + appendRef skips the detached
  /// Instruction round-trip of push_back.
  inline void appendRef(InstrRef R);

  /// Frees every instruction of the chain.
  inline void clear();

private:
  friend class BasicBlock;
  friend class Function;
  template <bool IsConst> friend class IterImpl;

  /// Links table slot \p R before \p PosRef (InvalidInstrRef = at end).
  inline void linkBefore(InstrRef R, InstrRef PosRef);
  /// Unlinks \p R from the chain; returns the ref that followed it.
  inline InstrRef unlink(InstrRef R);

  Function *F = nullptr;
  InstrRef First = InvalidInstrRef;
  InstrRef Last = InvalidInstrRef;
  uint32_t N = 0;
};

/// Bidirectional iterator over an InstrList chain. Holds a direct record
/// pointer (records never move), so dereferencing is one load; the list
/// pointer supports end() decrement and erase/splice.
template <bool IsConst> class InstrList::IterImpl {
  using ListT = std::conditional_t<IsConst, const InstrList, InstrList>;
  using InstT = std::conditional_t<IsConst, const Instruction, Instruction>;

public:
  using iterator_category = std::bidirectional_iterator_tag;
  using value_type = Instruction;
  using difference_type = std::ptrdiff_t;
  using pointer = InstT *;
  using reference = InstT &;

  IterImpl() = default;
  IterImpl(ListT *L, InstT *P) : L(L), P(P) {}

  /// iterator -> const_iterator conversion.
  template <bool WasConst, typename = std::enable_if_t<IsConst && !WasConst>>
  IterImpl(const IterImpl<WasConst> &O) : L(O.list()), P(O.ptr()) {}

  reference operator*() const {
    assert(P && "dereferencing end()");
    return *P;
  }
  pointer operator->() const {
    assert(P && "dereferencing end()");
    return P;
  }

  inline IterImpl &operator++();
  IterImpl operator++(int) {
    IterImpl T = *this;
    ++*this;
    return T;
  }
  inline IterImpl &operator--();
  IterImpl operator--(int) {
    IterImpl T = *this;
    --*this;
    return T;
  }

  bool operator==(const IterImpl &O) const { return P == O.P && L == O.L; }
  bool operator!=(const IterImpl &O) const { return !(*this == O); }

  ListT *list() const { return L; }
  InstT *ptr() const { return P; }

private:
  ListT *L = nullptr;
  InstT *P = nullptr; ///< nullptr encodes end().
};

/// A basic block: a straight-line chain of instructions ending in a
/// terminator, with phis (if any) grouped at the front.
class BasicBlock {
public:
  BasicBlock(Function *Parent, unsigned Id, std::string Name)
      : Parent(Parent), Id(Id), Name(std::move(Name)), Insts(Parent) {}

  Function *parent() const { return Parent; }

  /// Dense, stable index of the block within its function.
  unsigned id() const { return Id; }
  const std::string &name() const { return Name; }

  using InstList = InstrList;
  InstList &instructions() { return Insts; }
  const InstList &instructions() const { return Insts; }

  bool empty() const { return Insts.empty(); }

  Instruction &front() {
    assert(!Insts.empty() && "empty block");
    return Insts.front();
  }
  Instruction &back() {
    assert(!Insts.empty() && "empty block");
    return Insts.back();
  }
  const Instruction &back() const {
    assert(!Insts.empty() && "empty block");
    return Insts.back();
  }

  /// Appends \p I; asserts that no instruction follows a terminator.
  Instruction &append(Instruction I) {
    assert((Insts.empty() || !Insts.back().isTerminator()) &&
           "appending past terminator");
    return Insts.push_back(std::move(I));
  }

  /// Inserts \p I before iterator \p Pos and returns an iterator to it.
  InstList::iterator insert(InstList::iterator Pos, Instruction I) {
    return Insts.insert(Pos, std::move(I));
  }

  /// Returns an iterator to the first non-phi instruction.
  InstList::iterator firstNonPhi() {
    auto It = Insts.begin();
    while (It != Insts.end() && It->isPhi())
      ++It;
    return It;
  }

  /// Returns the terminator, which must exist.
  Instruction &terminator() {
    assert(!Insts.empty() && Insts.back().isTerminator() &&
           "block lacks a terminator");
    return Insts.back();
  }
  const Instruction &terminator() const {
    assert(!Insts.empty() && Insts.back().isTerminator() &&
           "block lacks a terminator");
    return Insts.back();
  }

  bool hasTerminator() const {
    return !Insts.empty() && Insts.back().isTerminator();
  }

  /// Returns the successor blocks in terminator order.
  std::vector<BasicBlock *> successors() const {
    std::vector<BasicBlock *> Succs;
    if (!hasTerminator())
      return Succs;
    const Instruction &T = terminator();
    if (T.op() == Opcode::Jump)
      Succs.push_back(T.target(0));
    else if (T.op() == Opcode::Branch) {
      Succs.push_back(T.target(0));
      if (T.target(1) != T.target(0))
        Succs.push_back(T.target(1));
    }
    return Succs;
  }

private:
  friend class Function; // eraseBlocks renumbers Id.

  Function *Parent;
  unsigned Id;
  std::string Name;
  InstList Insts;
};

/// A mini-LAI function: blocks plus the register value table, backed by
/// one bump arena holding the chunked instruction table and all operand
/// overflow slabs.
class Function {
  /// Instruction records per table chunk. 256 records of ~136 bytes fit
  /// a few per 64 KiB arena chunk without oversize allocations.
  static constexpr uint32_t ChunkShift = 8;
  static constexpr uint32_t ChunkSize = 1u << ChunkShift;
  static constexpr uint32_t ChunkMask = ChunkSize - 1;

public:
  explicit Function(std::string Name) : Name(std::move(Name)) {
    Values.reserve(Target::NumPhysRegs + 16);
    for (RegId R = 0; R < Target::NumPhysRegs; ++R) {
      Values.push_back({Target::physRegName(R), /*IsPhysical=*/true});
      NameIndex.emplace(Values.back().Name, R);
    }
  }

  Function(const Function &) = delete;
  Function &operator=(const Function &) = delete;

  const std::string &name() const { return Name; }

  /// Creates and appends a new block. The first created block is the entry.
  BasicBlock *createBlock(std::string BlockName = std::string()) {
    unsigned Id = static_cast<unsigned>(Blocks.size());
    if (BlockName.empty())
      BlockName = "bb" + std::to_string(Id);
    Blocks.push_back(std::make_unique<BasicBlock>(this, Id, BlockName));
    return Blocks.back().get();
  }

  BasicBlock &entry() {
    assert(!Blocks.empty() && "function has no blocks");
    return *Blocks.front();
  }
  const BasicBlock &entry() const {
    assert(!Blocks.empty() && "function has no blocks");
    return *Blocks.front();
  }

  const std::vector<std::unique_ptr<BasicBlock>> &blocks() const {
    return Blocks;
  }
  size_t numBlocks() const { return Blocks.size(); }

  /// Erases every block whose id is set in \p Dead, with its
  /// instructions, drops the survivors' phi incomings from erased blocks,
  /// and renumbers the survivors densely in their current order. The
  /// entry must survive, and no surviving terminator may target an erased
  /// block.
  void eraseBlocks(const std::vector<bool> &Dead);

  BasicBlock *blockByName(const std::string &BlockName) const {
    for (const auto &BB : Blocks)
      if (BB->name() == BlockName)
        return BB.get();
    return nullptr;
  }

  /// Creates a fresh virtual register. \p Hint names the register; a
  /// numeric suffix is appended if the hint is taken or empty.
  RegId makeVirtual(const std::string &Hint = std::string()) {
    RegId Id = static_cast<RegId>(Values.size());
    std::string N = Hint;
    if (N.empty() || findValue(N) != InvalidReg)
      N = (N.empty() ? "v" : N + ".") + std::to_string(Id);
    NameIndex.emplace(N, Id);
    Values.push_back({std::move(N), /*IsPhysical=*/false});
    return Id;
  }

  size_t numValues() const { return Values.size(); }

  bool isPhysical(RegId R) const {
    assert(R < Values.size() && "value id out of range");
    return Values[R].IsPhysical;
  }

  const std::string &valueName(RegId R) const {
    assert(R < Values.size() && "value id out of range");
    return Values[R].Name;
  }

  /// Finds a value by name, or InvalidReg.
  RegId findValue(const std::string &ValueName) const {
    auto It = NameIndex.find(ValueName);
    return It == NameIndex.end() ? InvalidReg : It->second;
  }

  /// Number of parameters, defined by the entry Input instruction (0 if
  /// the function has none).
  unsigned numParams() const {
    if (Blocks.empty() || Blocks.front()->empty())
      return 0;
    const Instruction &First = Blocks.front()->instructions().front();
    return First.op() == Opcode::Input ? First.numDefs() : 0;
  }

  // --- Instruction table ------------------------------------------------

  /// The record for table slot \p R. References are stable for the
  /// lifetime of the slot (chunks never move or shrink).
  Instruction &instr(InstrRef R) {
    assert((R >> ChunkShift) < TableChunks.size() && "bad instruction ref");
    return TableChunks[R >> ChunkShift][R & ChunkMask];
  }
  const Instruction &instr(InstrRef R) const {
    assert((R >> ChunkShift) < TableChunks.size() && "bad instruction ref");
    return TableChunks[R >> ChunkShift][R & ChunkMask];
  }

  Instruction *instrPtr(InstrRef R) {
    return R == InvalidInstrRef ? nullptr : &instr(R);
  }
  const Instruction *instrPtr(InstrRef R) const {
    return R == InvalidInstrRef ? nullptr : &instr(R);
  }

  /// One past the largest InstrRef ever handed out: the size for dense
  /// side tables indexed by ref (DefUseIndex ordinals etc.).
  uint32_t instrRefLimit() const { return NumSlots; }

  /// Moves \p I into a fresh table slot (recycling freed slots) and
  /// migrates any detached heap slabs into the arena. Returns the slot.
  InstrRef internInstr(Instruction &&I);

  /// Copies \p Src (an instruction of any function) into a fresh slot of
  /// this function's table: a record memcpy plus a slab memcpy, no
  /// per-operand rebuild. Block pointers (targets, phi incoming) still
  /// reference \p Src's function; the caller remaps them. The record is
  /// returned unlinked — attach it with InstrList::appendRef.
  InstrRef cloneInstr(const Instruction &Src);

  /// Returns \p R's slot to the free list. The record must already be
  /// unlinked from every chain.
  void freeInstr(InstrRef R) {
    assert(instr(R).Parent == this && "freeing a foreign instruction");
    instr(R).Parent = nullptr;
    FreeRefs.push_back(R);
  }

  // --- Arena and layout statistics --------------------------------------

  Arena &arena() { return IRArena; }
  const Arena &arena() const { return IRArena; }

  /// Bytes of operand/incoming overflow slabs drawn from the arena —
  /// stays 0 while every instruction fits its inline slots.
  size_t operandSlabBytes() const { return SlabBytes; }

  /// Live instruction count (allocated slots minus freed).
  size_t numInstrs() const { return NumSlots - FreeRefs.size(); }

  /// Copies \p O's value table verbatim (ids, names, physical flags).
  /// Clone-only: requires this function's table to still be pristine.
  void copyValueTableFrom(const Function &O) {
    assert(Values.size() == Target::NumPhysRegs && "value table not pristine");
    Values = O.Values;
    NameIndex = O.NameIndex;
  }

private:
  friend class Instruction;
  friend class InstrList;

  struct ValueInfo {
    std::string Name;
    bool IsPhysical;
  };

  /// Allocates a raw table slot (no construction).
  InstrRef allocSlot();

  std::string Name;
  Arena IRArena;
  std::vector<Instruction *> TableChunks; ///< Arena-resident record chunks.
  uint32_t NumSlots = 0;                  ///< Slots handed out (bump).
  std::vector<InstrRef> FreeRefs;         ///< Recyclable slots.
  size_t SlabBytes = 0;                   ///< Operand/incoming slab bytes.
  // Blocks are declared after the table state: block (and InstrList)
  // destructors run first and may touch the free list.
  std::vector<std::unique_ptr<BasicBlock>> Blocks;
  std::vector<ValueInfo> Values;
  std::unordered_map<std::string, RegId> NameIndex;
};

//===----------------------------------------------------------------------===//
// Inline definitions (need the complete Function type)
//===----------------------------------------------------------------------===//

template <bool IsConst>
inline InstrList::IterImpl<IsConst> &InstrList::IterImpl<IsConst>::
operator++() {
  assert(P && "advancing end()");
  P = L->F->instrPtr(P->NextRef);
  return *this;
}

template <bool IsConst>
inline InstrList::IterImpl<IsConst> &InstrList::IterImpl<IsConst>::
operator--() {
  if (!P)
    P = L->F->instrPtr(L->Last);
  else
    P = L->F->instrPtr(P->PrevRef);
  assert(P && "decrementing begin()");
  return *this;
}

inline InstrList::iterator InstrList::begin() {
  return iterator(this, F ? F->instrPtr(First) : nullptr);
}
inline InstrList::iterator InstrList::end() { return iterator(this, nullptr); }
inline InstrList::const_iterator InstrList::begin() const {
  return const_iterator(this, F ? F->instrPtr(First) : nullptr);
}
inline InstrList::const_iterator InstrList::end() const {
  return const_iterator(this, nullptr);
}

inline auto InstrList::rbegin() { return std::reverse_iterator<iterator>(end()); }
inline auto InstrList::rend() { return std::reverse_iterator<iterator>(begin()); }
inline auto InstrList::rbegin() const {
  return std::reverse_iterator<const_iterator>(end());
}
inline auto InstrList::rend() const {
  return std::reverse_iterator<const_iterator>(begin());
}

inline Instruction &InstrList::front() {
  assert(N && "front() on empty list");
  return F->instr(First);
}
inline Instruction &InstrList::back() {
  assert(N && "back() on empty list");
  return F->instr(Last);
}
inline const Instruction &InstrList::front() const {
  assert(N && "front() on empty list");
  return F->instr(First);
}
inline const Instruction &InstrList::back() const {
  assert(N && "back() on empty list");
  return F->instr(Last);
}

inline void InstrList::linkBefore(InstrRef R, InstrRef PosRef) {
  Instruction &I = F->instr(R);
  if (PosRef == InvalidInstrRef) { // Append.
    I.PrevRef = Last;
    I.NextRef = InvalidInstrRef;
    if (Last != InvalidInstrRef)
      F->instr(Last).NextRef = R;
    else
      First = R;
    Last = R;
  } else {
    Instruction &Pos = F->instr(PosRef);
    I.PrevRef = Pos.PrevRef;
    I.NextRef = PosRef;
    if (Pos.PrevRef != InvalidInstrRef)
      F->instr(Pos.PrevRef).NextRef = R;
    else
      First = R;
    Pos.PrevRef = R;
  }
  ++N;
}

inline InstrRef InstrList::unlink(InstrRef R) {
  Instruction &I = F->instr(R);
  InstrRef Next = I.NextRef;
  if (I.PrevRef != InvalidInstrRef)
    F->instr(I.PrevRef).NextRef = I.NextRef;
  else
    First = I.NextRef;
  if (I.NextRef != InvalidInstrRef)
    F->instr(I.NextRef).PrevRef = I.PrevRef;
  else
    Last = I.PrevRef;
  I.PrevRef = I.NextRef = InvalidInstrRef;
  --N;
  return Next;
}

inline Instruction &InstrList::push_back(Instruction I) {
  assert(F && "list not bound to a function");
  InstrRef R = F->internInstr(std::move(I));
  linkBefore(R, InvalidInstrRef);
  return F->instr(R);
}

inline void InstrList::pop_back() {
  assert(N && "pop_back() on empty list");
  InstrRef R = Last;
  unlink(R);
  F->freeInstr(R);
}

inline InstrList::iterator InstrList::insert(iterator Pos, Instruction I) {
  assert(F && "list not bound to a function");
  InstrRef R = F->internInstr(std::move(I));
  linkBefore(R, Pos.ptr() ? Pos.ptr()->Self : InvalidInstrRef);
  return iterator(this, &F->instr(R));
}

inline InstrList::iterator InstrList::erase(iterator Pos) {
  assert(Pos.ptr() && "erasing end()");
  InstrRef R = Pos.ptr()->Self;
  InstrRef Next = unlink(R);
  F->freeInstr(R);
  return iterator(this, F->instrPtr(Next));
}

inline void InstrList::splice(iterator Pos, InstrList &Src, iterator It) {
  assert(F == Src.F && "splice across functions");
  assert(It.ptr() && "splicing end()");
  InstrRef R = It.ptr()->Self;
  Src.unlink(R);
  linkBefore(R, Pos.ptr() ? Pos.ptr()->Self : InvalidInstrRef);
}

inline void InstrList::appendRef(InstrRef R) {
  assert(F && "list not bound to a function");
  assert(F->instr(R).Parent == F && "appending a foreign record");
  assert(F->instr(R).PrevRef == InvalidInstrRef &&
         F->instr(R).NextRef == InvalidInstrRef && "record already linked");
  linkBefore(R, InvalidInstrRef);
}

inline void InstrList::clear() {
  for (InstrRef R = First; R != InvalidInstrRef;) {
    InstrRef Next = F->instr(R).NextRef;
    F->instr(R).PrevRef = F->instr(R).NextRef = InvalidInstrRef;
    F->freeInstr(R);
    R = Next;
  }
  First = Last = InvalidInstrRef;
  N = 0;
}

inline InstrList &InstrList::operator=(InstrList &&O) noexcept {
  if (this == &O)
    return *this;
  assert((!F || !O.F || F == O.F) && "list assignment across functions");
  clear();
  if (!F)
    F = O.F;
  First = O.First;
  Last = O.Last;
  N = O.N;
  O.First = O.Last = InvalidInstrRef;
  O.N = 0;
  return *this;
}

} // namespace lao

#endif // LAO_IR_FUNCTION_H
