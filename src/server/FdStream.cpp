//===- FdStream.cpp - iostream adapters over POSIX fds -------------------------===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//

#include "server/FdStream.h"

#include <cerrno>
#include <poll.h>
#include <unistd.h>

using namespace lao;

/// Stop-aware reads re-check the flag at this granularity.
static constexpr int PollTickMs = 200;

/// Each direction stages this many bytes per read or write call.
static constexpr size_t BufBytes = 1u << 16;

FdStreamBuf::FdStreamBuf(int Fd, const std::atomic<bool> *Stop)
    : Fd(Fd), Stop(Stop), InBuf(BufBytes), OutBuf(BufBytes) {
  setg(InBuf.data(), InBuf.data(), InBuf.data());
  setp(OutBuf.data(), OutBuf.data() + OutBuf.size());
}

FdStreamBuf::~FdStreamBuf() { flushOut(); }

FdStreamBuf::int_type FdStreamBuf::underflow() {
  if (gptr() < egptr())
    return traits_type::to_int_type(*gptr());
  for (;;) {
    if (Stop) {
      // Short poll ticks instead of a blocking read: a stop request is
      // honored within one tick, but only once the fd goes quiet — data
      // already on the wire (a frame mid-flight) is still consumed.
      pollfd P{Fd, POLLIN, 0};
      int R = ::poll(&P, 1, PollTickMs);
      if (R < 0) {
        if (errno == EINTR)
          continue;
        return traits_type::eof();
      }
      if (R == 0) {
        if (Stop->load(std::memory_order_acquire))
          return traits_type::eof();
        continue;
      }
    }
    ssize_t N = ::read(Fd, InBuf.data(), InBuf.size());
    if (N > 0) {
      setg(InBuf.data(), InBuf.data(), InBuf.data() + N);
      return traits_type::to_int_type(*gptr());
    }
    if (N == 0)
      return traits_type::eof();
    if (errno == EINTR)
      continue;
    return traits_type::eof();
  }
}

bool FdStreamBuf::writeAll(const char *P, size_t N) {
  while (N) {
    ssize_t W = ::write(Fd, P, N);
    if (W < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    P += static_cast<size_t>(W);
    N -= static_cast<size_t>(W);
  }
  return true;
}

bool FdStreamBuf::flushOut() {
  size_t N = static_cast<size_t>(pptr() - pbase());
  if (N && !writeAll(pbase(), N))
    return false;
  setp(OutBuf.data(), OutBuf.data() + OutBuf.size());
  return true;
}

FdStreamBuf::int_type FdStreamBuf::overflow(int_type Ch) {
  if (!flushOut())
    return traits_type::eof();
  if (!traits_type::eq_int_type(Ch, traits_type::eof())) {
    *pptr() = traits_type::to_char_type(Ch);
    pbump(1);
  }
  return traits_type::not_eof(Ch);
}

std::streamsize FdStreamBuf::xsputn(const char *S, std::streamsize N) {
  // Large payloads (response IR) skip the staging buffer entirely.
  if (static_cast<size_t>(N) >= OutBuf.size()) {
    if (!flushOut() || !writeAll(S, static_cast<size_t>(N)))
      return 0;
    return N;
  }
  if (static_cast<size_t>(N) > static_cast<size_t>(epptr() - pptr()) &&
      !flushOut())
    return 0;
  std::char_traits<char>::copy(pptr(), S, static_cast<size_t>(N));
  pbump(static_cast<int>(N));
  return N;
}

int FdStreamBuf::sync() { return flushOut() ? 0 : -1; }
