//===- Arena.h - Bump allocator with chunk recycling ------------*- C++ -*-===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A bump-pointer arena backing the IR core: Function places its dense
/// instruction table, operand slabs and phi-incoming arrays here, so a
/// whole function's IR is a handful of large chunks instead of one heap
/// node per instruction/operand vector.
///
/// Chunks are recycled at two levels. A process-wide bounded cache is
/// the default: destroying an arena returns its standard-size chunks
/// for the next arena to reuse. On top of that, an ArenaRecycler can be
/// bound to a thread (ArenaRecycler::Bind): while bound, chunks of
/// destroyed arenas park in the recycler and new arenas draw from it
/// before consulting the global cache — no mutex, no sharing. The
/// compile service binds one recycler per WorkerContext around each
/// request, so a worker's next parseFunction bump-allocates into the
/// exact chunks the previous request on that worker just released
/// (request-scoped arena reuse, measured by server.arena_reuse_bytes).
///
/// Allocation statistics are kept per arena (see Arena::stats); the
/// chunk bytes reserved are summed into the ir.arena_bytes counter.
///
//===----------------------------------------------------------------------===//

#ifndef LAO_SUPPORT_ARENA_H
#define LAO_SUPPORT_ARENA_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

namespace lao {

/// Bump allocator over recycled chunks. Memory is never freed piecemeal;
/// destruction releases everything at once.
class Arena {
public:
  /// Standard chunk size. Oversized requests get a dedicated chunk.
  static constexpr size_t ChunkBytes = 1u << 16;

  Arena() = default;
  ~Arena();

  Arena(const Arena &) = delete;
  Arena &operator=(const Arena &) = delete;

  /// Allocates \p Size bytes aligned to \p Align (a power of two).
  void *alloc(size_t Size, size_t Align) {
    assert((Align & (Align - 1)) == 0 && "alignment must be a power of two");
    uintptr_t P = (reinterpret_cast<uintptr_t>(Cur) + Align - 1) & ~(Align - 1);
    if (P + Size > reinterpret_cast<uintptr_t>(End))
      return allocSlow(Size, Align);
    Cur = reinterpret_cast<char *>(P + Size);
    Allocated += Size;
    return reinterpret_cast<void *>(P);
  }

  /// Typed array allocation (uninitialized storage).
  template <typename T> T *allocArray(size_t N) {
    return static_cast<T *>(alloc(N * sizeof(T), alignof(T)));
  }

  /// Per-arena allocation statistics.
  struct StatsInfo {
    size_t BytesAllocated = 0; ///< Bytes handed out since construction.
    size_t BytesReserved = 0;  ///< Sum of live chunk sizes.
    size_t NumChunks = 0;      ///< Live chunks.
  };
  StatsInfo stats() const {
    StatsInfo S;
    S.BytesAllocated = Allocated;
    S.BytesReserved = Reserved;
    S.NumChunks = Chunks.size();
    return S;
  }

  size_t bytesAllocated() const { return Allocated; }

private:
  friend class ArenaRecycler;

  struct Chunk {
    char *Mem;
    size_t Size;
  };

  void *allocSlow(size_t Size, size_t Align);

  std::vector<Chunk> Chunks; ///< The last one is bumped.
  char *Cur = nullptr;
  char *End = nullptr;
  size_t Allocated = 0;
  size_t Reserved = 0;
};

/// A private store of standard-size chunks for one worker. Not
/// thread-safe by design: a recycler is owned by exactly one
/// WorkerContext, and the server's slot discipline guarantees at most
/// one request uses a context at a time. While bound to the current
/// thread (Bind), every Arena on that thread destroys into and
/// allocates out of this recycler before touching the global mutexed
/// cache, which makes the warm path lock-free and keeps a worker's
/// chunks cache-hot on that worker.
class ArenaRecycler {
public:
  /// \p MaxChunks bounds the parked memory (default 64 chunks = 4 MiB
  /// at the standard chunk size); overflow spills to the global cache.
  explicit ArenaRecycler(size_t MaxChunks = 64) : MaxChunks(MaxChunks) {}
  ~ArenaRecycler();

  ArenaRecycler(const ArenaRecycler &) = delete;
  ArenaRecycler &operator=(const ArenaRecycler &) = delete;

  /// Chunks currently parked.
  size_t numChunks() const { return Free.size(); }

  /// Bytes handed to arenas from this recycler since the last call
  /// (the warm-path hit volume). The server flushes this into the
  /// server.arena_reuse_bytes counter *outside* any StatsScope, so
  /// per-request counter deltas stay scheduling-independent.
  uint64_t takeReuseBytes() {
    uint64_t B = ReuseBytes;
    ReuseBytes = 0;
    return B;
  }
  uint64_t reuseBytes() const { return ReuseBytes; }

  /// Binds \p R as the calling thread's active recycler for the scope's
  /// lifetime (nests by shadowing, like StatsScope).
  class Bind {
  public:
    explicit Bind(ArenaRecycler &R) : Prev(activeSlot()) { activeSlot() = &R; }
    ~Bind() { activeSlot() = Prev; }
    Bind(const Bind &) = delete;
    Bind &operator=(const Bind &) = delete;

  private:
    ArenaRecycler *Prev;
  };

  /// The recycler bound to the calling thread, or nullptr.
  static ArenaRecycler *active() { return activeSlot(); }

private:
  friend class Arena;

  /// Takes one parked chunk, or nullptr when empty.
  char *pop();
  /// Parks \p Mem; returns false (caller keeps ownership) when full.
  bool push(char *Mem);

  static ArenaRecycler *&activeSlot() {
    static thread_local ArenaRecycler *Active = nullptr;
    return Active;
  }

  std::vector<char *> Free;
  size_t MaxChunks;
  uint64_t ReuseBytes = 0;
};

} // namespace lao

#endif // LAO_SUPPORT_ARENA_H
