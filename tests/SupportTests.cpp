//===- SupportTests.cpp - UnionFind/BitVector/Rng/String tests --------------===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/Arena.h"
#include "support/BitVector.h"
#include "support/Rng.h"
#include "support/StringUtils.h"
#include "support/ThreadPool.h"
#include "support/UnionFind.h"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>

using namespace lao;

TEST(UnionFind, SingletonsAreTheirOwnRoots) {
  UnionFind UF(5);
  for (uint32_t I = 0; I < 5; ++I)
    EXPECT_EQ(UF.find(I), I);
}

TEST(UnionFind, MergeJoinsSets) {
  UnionFind UF(6);
  UF.merge(0, 1);
  UF.merge(2, 3);
  EXPECT_TRUE(UF.sameSet(0, 1));
  EXPECT_TRUE(UF.sameSet(2, 3));
  EXPECT_FALSE(UF.sameSet(1, 2));
  UF.merge(1, 2);
  EXPECT_TRUE(UF.sameSet(0, 3));
  EXPECT_FALSE(UF.sameSet(0, 4));
}

TEST(UnionFind, PreferAKeepsRepresentative) {
  UnionFind UF(10);
  // Grow set 5 large so size-based union would prefer it.
  for (uint32_t I = 6; I < 10; ++I)
    UF.merge(5, I);
  uint32_t Rep = UF.merge(0, 5, /*PreferA=*/true);
  EXPECT_EQ(Rep, 0u);
  EXPECT_EQ(UF.find(7), 0u);
}

TEST(UnionFind, GrowPreservesExistingSets) {
  UnionFind UF(3);
  UF.merge(0, 2);
  UF.grow(8);
  EXPECT_TRUE(UF.sameSet(0, 2));
  EXPECT_EQ(UF.find(7), 7u);
}

TEST(UnionFind, MergeIsIdempotent) {
  UnionFind UF(4);
  uint32_t R1 = UF.merge(1, 2);
  uint32_t R2 = UF.merge(1, 2);
  EXPECT_EQ(R1, R2);
}

TEST(BitVector, SetTestReset) {
  BitVector BV(130);
  EXPECT_FALSE(BV.test(0));
  BV.set(0);
  BV.set(64);
  BV.set(129);
  EXPECT_TRUE(BV.test(0));
  EXPECT_TRUE(BV.test(64));
  EXPECT_TRUE(BV.test(129));
  EXPECT_FALSE(BV.test(65));
  BV.reset(64);
  EXPECT_FALSE(BV.test(64));
  EXPECT_EQ(BV.count(), 2u);
}

TEST(BitVector, OrWithReportsChange) {
  BitVector A(70), B(70);
  B.set(3);
  B.set(69);
  EXPECT_TRUE(A.orWith(B));
  EXPECT_FALSE(A.orWith(B)); // Second or changes nothing.
  EXPECT_TRUE(A.test(3));
  EXPECT_TRUE(A.test(69));
}

TEST(BitVector, Subtract) {
  BitVector A(64), B(64);
  A.set(1);
  A.set(2);
  B.set(2);
  A.subtract(B);
  EXPECT_TRUE(A.test(1));
  EXPECT_FALSE(A.test(2));
}

TEST(BitVector, ForEachVisitsAscending) {
  BitVector BV(200);
  std::vector<size_t> Expected = {0, 63, 64, 127, 199};
  for (size_t I : Expected)
    BV.set(I);
  std::vector<size_t> Seen;
  BV.forEach([&](size_t I) { Seen.push_back(I); });
  EXPECT_EQ(Seen, Expected);
}

TEST(BitVector, ForEachInRangeVisitsOnlyTheRange) {
  // 200 bits: three full words and a last partial word of 8 bits.
  BitVector BV(200);
  for (size_t I : {0, 5, 6, 63, 64, 100, 127, 128, 191, 192, 199})
    BV.set(I);
  auto InRange = [&](size_t Begin, size_t End) {
    std::vector<size_t> Seen;
    BV.forEachInRange(Begin, End, [&](size_t I) { Seen.push_back(I); });
    return Seen;
  };
  using Bits = std::vector<size_t>;
  // Empty ranges, at a set bit and at the end.
  EXPECT_EQ(InRange(5, 5), Bits{});
  EXPECT_EQ(InRange(200, 200), Bits{});
  // One bit, set or not, and a range within one word.
  EXPECT_EQ(InRange(5, 6), Bits{5});
  EXPECT_EQ(InRange(7, 8), Bits{});
  EXPECT_EQ(InRange(1, 63), (Bits{5, 6}));
  // Ranges spanning words: bounds inside words, on word edges, and the
  // whole vector.
  EXPECT_EQ(InRange(6, 101), (Bits{6, 63, 64, 100}));
  EXPECT_EQ(InRange(64, 128), (Bits{64, 100, 127}));
  EXPECT_EQ(InRange(63, 129), (Bits{63, 64, 100, 127, 128}));
  EXPECT_EQ(InRange(0, 200),
            (Bits{0, 5, 6, 63, 64, 100, 127, 128, 191, 192, 199}));
  // The last, partial word.
  EXPECT_EQ(InRange(192, 200), (Bits{192, 199}));
  EXPECT_EQ(InRange(193, 199), Bits{});
  EXPECT_EQ(InRange(150, 200), (Bits{191, 192, 199}));
}

TEST(BitVector, EqualityIncludesSize) {
  BitVector A(10), B(11);
  EXPECT_FALSE(A == B);
  BitVector C(10);
  EXPECT_TRUE(A == C);
  C.set(3);
  EXPECT_FALSE(A == C);
}

TEST(Rng, Deterministic) {
  Rng A(42), B(42);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng A(1), B(2);
  bool AnyDifferent = false;
  for (int I = 0; I < 10; ++I)
    AnyDifferent |= A.next() != B.next();
  EXPECT_TRUE(AnyDifferent);
}

TEST(Rng, RangeIsInclusive) {
  Rng R(7);
  std::set<int64_t> Seen;
  for (int I = 0; I < 200; ++I) {
    int64_t V = R.range(-2, 2);
    EXPECT_GE(V, -2);
    EXPECT_LE(V, 2);
    Seen.insert(V);
  }
  EXPECT_EQ(Seen.size(), 5u) << "all values of a small range should occur";
}

TEST(StringUtils, FormatStr) {
  EXPECT_EQ(formatStr("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(formatStr("empty"), "empty");
}

TEST(StringUtils, SplitDropsEmptyPieces) {
  auto Parts = splitString("a,,b,c,", ',');
  ASSERT_EQ(Parts.size(), 3u);
  EXPECT_EQ(Parts[0], "a");
  EXPECT_EQ(Parts[2], "c");
}

TEST(StringUtils, Trim) {
  EXPECT_EQ(trimString("  x y \t\n"), "x y");
  EXPECT_EQ(trimString("   "), "");
  EXPECT_EQ(trimString("z"), "z");
}

TEST(ThreadPool, AsyncExceptionRethrownFromWait) {
  ThreadPool Pool(2);
  std::atomic<int> Ran{0};
  Pool.async([] { throw std::runtime_error("task boom"); });
  Pool.async([&] { ++Ran; });
  try {
    Pool.wait();
    FAIL() << "wait() should rethrow the task's exception";
  } catch (const std::runtime_error &E) {
    EXPECT_STREQ(E.what(), "task boom");
  }
  EXPECT_EQ(Ran.load(), 1) << "a throwing task must not kill its sibling";
  // The pool survives the exception: it still runs work, and a wait()
  // with no new failure returns normally.
  Pool.async([&] { ++Ran; });
  EXPECT_NO_THROW(Pool.wait());
  EXPECT_EQ(Ran.load(), 2);
}

TEST(ThreadPool, CapturedExceptionIsConsumedByOneWait) {
  ThreadPool Pool(2);
  Pool.async([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(Pool.wait(), std::runtime_error);
  // The captured pointer was handed out exactly once; an idle wait()
  // afterwards is clean.
  EXPECT_NO_THROW(Pool.wait());
}

TEST(ThreadPool, ParallelForExceptionRethrownAtCallSite) {
  ThreadPool Pool(4);
  std::atomic<size_t> Done{0};
  try {
    Pool.parallelFor(64, [&](size_t K) {
      if (K == 7)
        throw std::logic_error("item boom");
      ++Done;
    });
    FAIL() << "parallelFor should rethrow the item's exception";
  } catch (const std::logic_error &E) {
    EXPECT_STREQ(E.what(), "item boom");
  }
  // The abort flag stops claiming new items, so not all 63 others need
  // to have run; the pool itself stays usable.
  EXPECT_LE(Done.load(), 63u);
  std::atomic<size_t> Count{0};
  Pool.parallelFor(32, [&](size_t) { ++Count; });
  EXPECT_EQ(Count.load(), 32u);
}

TEST(ArenaRecycler, BoundRecyclerCapturesAndReissuesChunks) {
  ArenaRecycler R;
  EXPECT_EQ(ArenaRecycler::active(), nullptr);
  {
    ArenaRecycler::Bind B(R);
    ASSERT_EQ(ArenaRecycler::active(), &R);
    { // Destroying an arena while bound parks its standard chunks.
      Arena A;
      A.alloc(1024, 8);
      EXPECT_EQ(A.stats().NumChunks, 1u);
    }
    EXPECT_EQ(R.numChunks(), 1u);
    EXPECT_EQ(R.reuseBytes(), 0u) << "parking a chunk is not a reuse";
    { // The next arena on this thread draws from the recycler.
      Arena A;
      A.alloc(1024, 8);
      EXPECT_EQ(R.numChunks(), 0u);
      EXPECT_EQ(R.reuseBytes(), Arena::ChunkBytes);
    }
    EXPECT_EQ(R.numChunks(), 1u) << "the reissued chunk parks again";
  }
  EXPECT_EQ(ArenaRecycler::active(), nullptr);
  EXPECT_EQ(R.takeReuseBytes(), Arena::ChunkBytes);
  EXPECT_EQ(R.takeReuseBytes(), 0u) << "takeReuseBytes drains the tally";
}

TEST(ArenaRecycler, BindShadowsAndRestoresLikeAScope) {
  ArenaRecycler Outer, Inner;
  ArenaRecycler::Bind B1(Outer);
  {
    ArenaRecycler::Bind B2(Inner);
    EXPECT_EQ(ArenaRecycler::active(), &Inner);
  }
  EXPECT_EQ(ArenaRecycler::active(), &Outer);
}

TEST(ArenaRecycler, OverflowSpillsToTheGlobalCacheNotTheFloor) {
  ArenaRecycler R(/*MaxChunks=*/1);
  ArenaRecycler::Bind B(R);
  {
    Arena A;
    // Force two standard chunks (oversized requests get dedicated
    // chunks that are never recycled, so stay under ChunkBytes).
    A.alloc(Arena::ChunkBytes / 2, 8);
    A.alloc(Arena::ChunkBytes / 2, 8);
    A.alloc(Arena::ChunkBytes / 2, 8);
    EXPECT_GE(A.stats().NumChunks, 2u);
  }
  // Only one fits in the recycler; the rest went to the global cache
  // (ownership transferred either way — ASan would catch a leak here).
  EXPECT_EQ(R.numChunks(), 1u);
}
