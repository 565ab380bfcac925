//===- Arena.cpp - Bump allocator with chunk recycling -----------------------===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/Arena.h"

#include "support/Stats.h"

#include <mutex>
#include <new>

using namespace lao;

namespace {

/// Process-wide cache of standard-size chunks, bounded in bytes (32 MiB
/// suits the compile service). Oversized chunks are never cached (they
/// are workload-specific).
struct ChunkCache {
  static constexpr size_t Limit = 32u << 20;
  std::mutex M;
  std::vector<char *> Free;

  char *pop() {
    std::lock_guard<std::mutex> G(M);
    if (Free.empty())
      return nullptr;
    char *Mem = Free.back();
    Free.pop_back();
    return Mem;
  }

  /// Takes ownership of \p Mem; frees it if the cache is full.
  void push(char *Mem) {
    {
      std::lock_guard<std::mutex> G(M);
      if (Free.size() * Arena::ChunkBytes < Limit) {
        Free.push_back(Mem);
        return;
      }
    }
    ::operator delete(Mem);
  }
};

ChunkCache &cache() {
  // Leaked holder: arenas with static storage duration (test fixtures,
  // benchmark workload tables) run their destructors during exit and must
  // still find the cache alive.
  static auto *C = new ChunkCache();
  return *C;
}

} // namespace

void *Arena::allocSlow(size_t Size, size_t Align) {
  assert(Align <= alignof(std::max_align_t) && "over-aligned arena request");
  // A new chunk: standard size unless the request is larger.
  // Standard chunks come from the thread's bound recycler first (the
  // worker's own just-released chunks, no lock), then the global cache.
  size_t ChunkSize = Size + Align <= ChunkBytes ? ChunkBytes : Size + Align;
  char *Mem = nullptr;
  if (ChunkSize == ChunkBytes) {
    if (ArenaRecycler *R = ArenaRecycler::active())
      if ((Mem = R->pop()))
        R->ReuseBytes += ChunkBytes;
    if (!Mem)
      Mem = cache().pop();
  }
  if (!Mem)
    Mem = static_cast<char *>(::operator new(ChunkSize));
  Chunks.push_back({Mem, ChunkSize});
  Reserved += ChunkSize;
  LAO_STAT(ir, arena_bytes) += ChunkSize;
  Cur = Mem;
  End = Mem + ChunkSize;
  uintptr_t P = (reinterpret_cast<uintptr_t>(Cur) + Align - 1) & ~(Align - 1);
  assert(P + Size <= reinterpret_cast<uintptr_t>(End) && "chunk sizing bug");
  Cur = reinterpret_cast<char *>(P + Size);
  Allocated += Size;
  return reinterpret_cast<void *>(P);
}

Arena::~Arena() {
  ArenaRecycler *R = ArenaRecycler::active();
  for (const Chunk &C : Chunks) {
    if (C.Size != ChunkBytes) {
      ::operator delete(C.Mem);
      continue;
    }
    if (R && R->push(C.Mem))
      continue;
    cache().push(C.Mem);
  }
}

char *ArenaRecycler::pop() {
  if (Free.empty())
    return nullptr;
  char *Mem = Free.back();
  Free.pop_back();
  return Mem;
}

bool ArenaRecycler::push(char *Mem) {
  if (Free.size() >= MaxChunks)
    return false;
  Free.push_back(Mem);
  return true;
}

ArenaRecycler::~ArenaRecycler() {
  // Parked chunks outlive the worker through the global cache.
  for (char *Mem : Free)
    cache().push(Mem);
}
