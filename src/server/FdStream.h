//===- FdStream.h - iostream adapters over POSIX fds ------------*- C++ -*-===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A std::streambuf over a file descriptor, so the LAO1 protocol (which
/// only speaks std::istream/std::ostream) runs unchanged over pipes,
/// stdin/stdout, and sockets. One buffer direction per instance: the
/// server layers an input and an output FdStreamBuf over each
/// connection fd (a streambuf may serve both, but the server's reader
/// and writer run on different threads, so they get separate buffers).
///
/// The input side is stop-aware: given a stop flag, underflow() polls
/// the fd in short ticks and reports EOF once the flag is set *and* no
/// bytes are pending — a signal handler's plain atomic store is enough
/// to make a blocked server drain gracefully (see lao-server's
/// SIGINT/SIGTERM handling), and a frame already in flight is never cut
/// in half. EINTR is always retried, so handled signals without
/// SA_RESTART do not surface as spurious stream errors.
///
//===----------------------------------------------------------------------===//

#ifndef LAO_SERVER_FDSTREAM_H
#define LAO_SERVER_FDSTREAM_H

#include <atomic>
#include <streambuf>
#include <vector>

namespace lao {

class FdStreamBuf : public std::streambuf {
public:
  /// Wraps \p Fd without taking ownership (the creator closes it).
  /// \p Stop, when non-null, makes reads give up — as a clean EOF —
  /// once the flag is set and the fd has nothing buffered or pending.
  explicit FdStreamBuf(int Fd, const std::atomic<bool> *Stop = nullptr);

  FdStreamBuf(const FdStreamBuf &) = delete;
  FdStreamBuf &operator=(const FdStreamBuf &) = delete;
  ~FdStreamBuf() override;

  int fd() const { return Fd; }

protected:
  int_type underflow() override;
  int_type overflow(int_type Ch) override;
  std::streamsize xsputn(const char *S, std::streamsize N) override;
  int sync() override;

private:
  bool flushOut();
  bool writeAll(const char *P, size_t N);

  int Fd;
  const std::atomic<bool> *Stop;
  std::vector<char> InBuf;
  std::vector<char> OutBuf;
};

} // namespace lao

#endif // LAO_SERVER_FDSTREAM_H
