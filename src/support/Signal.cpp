//===- support/Signal.cpp - Graceful-shutdown signal plumbing ------------===//

#include "support/Signal.h"

#include <atomic>
#include <csignal>
#include <fcntl.h>
#include <unistd.h>

using namespace omega;

namespace {

// Everything the handler touches: a pipe fd and an atomic flag, both
// async-signal-safe.  File-scope statics (not function-local) because a
// handler must not run a guarded first-use initialization.
int PipeWriteFd = -1;
int PipeReadFd = -1;
std::atomic<bool> Signalled{false};

void onShutdownSignal(int) {
  Signalled.store(true, std::memory_order_relaxed);
  if (PipeWriteFd >= 0) {
    const char Byte = 1;
    // The pipe is non-blocking; if it is already full a byte is already
    // waiting, so a failed write loses nothing.
    [[maybe_unused]] ssize_t N = ::write(PipeWriteFd, &Byte, 1);
  }
}

} // namespace

int omega::installShutdownSignalPipe() {
  int Fds[2];
  if (::pipe(Fds) != 0)
    return -1;
  PipeReadFd = Fds[0];
  PipeWriteFd = Fds[1];
  ::fcntl(PipeWriteFd, F_SETFL, O_NONBLOCK);

  struct sigaction SA {};
  SA.sa_handler = onShutdownSignal;
  sigemptyset(&SA.sa_mask);
  SA.sa_flags = 0; // No SA_RESTART: blocked syscalls on the main thread
                   // return EINTR promptly.
  if (::sigaction(SIGINT, &SA, nullptr) != 0 ||
      ::sigaction(SIGTERM, &SA, nullptr) != 0) {
    ::close(Fds[0]);
    ::close(Fds[1]);
    PipeReadFd = PipeWriteFd = -1;
    return -1;
  }
  ::signal(SIGPIPE, SIG_IGN);
  return PipeReadFd;
}

bool omega::shutdownSignalled() {
  return Signalled.load(std::memory_order_relaxed);
}
