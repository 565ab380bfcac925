//===- BitVector.h - Dense bit vector ---------------------------*- C++ -*-===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Dense resizable bit vector used for liveness sets. Minimal interface,
/// 64-bit word storage, with the bulk operations the dataflow solvers need.
///
//===----------------------------------------------------------------------===//

#ifndef LAO_SUPPORT_BITVECTOR_H
#define LAO_SUPPORT_BITVECTOR_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace lao {

/// Dense bit vector over [0, size).
class BitVector {
public:
  BitVector() = default;
  explicit BitVector(size_t N) : NumBits(N), Words((N + 63) / 64, 0) {}

  size_t size() const { return NumBits; }

  void resize(size_t N) {
    NumBits = N;
    Words.resize((N + 63) / 64, 0);
    clearPadding();
  }

  bool test(size_t I) const {
    assert(I < NumBits && "bit index out of range");
    return (Words[I / 64] >> (I % 64)) & 1;
  }

  void set(size_t I) {
    assert(I < NumBits && "bit index out of range");
    Words[I / 64] |= uint64_t(1) << (I % 64);
  }

  void reset(size_t I) {
    assert(I < NumBits && "bit index out of range");
    Words[I / 64] &= ~(uint64_t(1) << (I % 64));
  }

  void clear() {
    for (uint64_t &W : Words)
      W = 0;
  }

  /// this |= Other. Returns true if any bit changed.
  bool orWith(const BitVector &Other) {
    assert(Other.NumBits == NumBits && "size mismatch");
    bool Changed = false;
    for (size_t I = 0; I < Words.size(); ++I) {
      uint64_t New = Words[I] | Other.Words[I];
      Changed |= New != Words[I];
      Words[I] = New;
    }
    return Changed;
  }

  /// this &= ~Other.
  void subtract(const BitVector &Other) {
    assert(Other.NumBits == NumBits && "size mismatch");
    for (size_t I = 0; I < Words.size(); ++I)
      Words[I] &= ~Other.Words[I];
  }

  size_t count() const {
    size_t N = 0;
    for (uint64_t W : Words)
      N += static_cast<size_t>(__builtin_popcountll(W));
    return N;
  }

  bool operator==(const BitVector &Other) const {
    return NumBits == Other.NumBits && Words == Other.Words;
  }

  /// Calls \p Fn for each set bit index, in increasing order.
  template <typename Callable> void forEach(Callable Fn) const {
    for (size_t WI = 0; WI < Words.size(); ++WI) {
      uint64_t W = Words[WI];
      while (W) {
        unsigned Bit = static_cast<unsigned>(__builtin_ctzll(W));
        Fn(WI * 64 + Bit);
        W &= W - 1;
      }
    }
  }

private:
  void clearPadding() {
    if (NumBits % 64 != 0 && !Words.empty())
      Words.back() &= (uint64_t(1) << (NumBits % 64)) - 1;
  }

  size_t NumBits = 0;
  std::vector<uint64_t> Words;
};

} // namespace lao

#endif // LAO_SUPPORT_BITVECTOR_H
