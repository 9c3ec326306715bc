//===- support/Signal.h - Graceful-shutdown signal plumbing ----*- C++ -*-===//
//
// Part of OmegaCount (reproduction of Pugh, PLDI 1994).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Self-pipe signal delivery for long-running tools.  A signal handler may
/// only touch async-signal-safe primitives, so omegad's handler does the
/// one safe thing — write a byte to a pipe — and the main thread turns
/// that byte into an orderly Server::stop() by polling the pipe's read
/// end.  No handler ever touches the server, the allocator, or a mutex.
///
//===----------------------------------------------------------------------===//

#ifndef OMEGA_SUPPORT_SIGNAL_H
#define OMEGA_SUPPORT_SIGNAL_H

namespace omega {

/// Installs SIGINT/SIGTERM handlers that write one byte to an internal
/// pipe, and returns the pipe's read fd (poll it for POLLIN to observe
/// shutdown requests).  Also ignores SIGPIPE, so a client that vanishes
/// mid-response surfaces as a write error instead of killing the process.
/// Returns -1 on failure.  Call at most once per process.
int installShutdownSignalPipe();

/// True once a shutdown signal has been delivered (handler-set flag; safe
/// to read from any thread).
bool shutdownSignalled();

} // namespace omega

#endif // OMEGA_SUPPORT_SIGNAL_H
