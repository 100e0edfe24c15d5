// WorkerTransport: how the dispatcher starts, watches and kills worker
// processes.  The dispatcher itself never executes a single run in-process
// -- it only writes shard files and supervises workers through this
// interface -- so swapping local fork/exec for ssh or a cluster launcher
// is a transport change, not a scheduler change.
//
// The contract is deliberately minimal (spawn / poll / wait / kill on an
// opaque handle) because that is all work stealing needs: liveness comes
// from the workers' checkpoint heartbeats, not from the transport, so a
// remote transport does not need to stream anything back.  `wait` is the
// dispatcher's idle block between passes: it returns as soon as a live
// worker may have exited (so exits are reaped as they happen) and after
// the timeout at the latest (the heartbeat and steal cadence).  Its
// default is a plain sleep for the whole timeout, which is always correct,
// only slower to notice an exit; a transport that can do better overrides
// it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace ccd::exp {

/// Result of polling a spawned worker.
struct WorkerStatus {
  bool running = true;
  /// Meaningful once !running: the process exit code, or 128+signal when
  /// the worker died to a signal (the shell convention, so a SIGKILLed
  /// worker reads as 137 everywhere).
  int exit_code = 0;
};

class WorkerTransport {
 public:
  virtual ~WorkerTransport() = default;

  /// Launch argv (argv[0] = binary path) with `env` KEY=VALUE pairs added
  /// to the inherited environment.  Returns an opaque handle >= 0, or -1
  /// if the process could not be started.
  virtual int spawn(const std::vector<std::string>& argv,
                    const std::vector<std::string>& env) = 0;

  /// Non-blocking status check.  Once a handle reports !running its status
  /// is latched and poll may be called again freely.
  virtual WorkerStatus poll(int handle) = 0;

  /// Block until some live worker may have exited, or `timeout_ms` passed.
  /// A wake-up is a hint, not a status: the caller polls its handles next.
  /// Returns at once while an exited worker has not been polled yet.  The
  /// default sleeps the whole timeout.
  virtual void wait(std::uint64_t timeout_ms);

  /// Hard-kill the worker (idempotent; no-op once it exited).
  virtual void kill_worker(int handle) = 0;
};

/// Local machine transport: fork/exec, waitpid(WNOHANG), SIGKILL.  Each
/// child gets a pidfd at spawn, and `wait` poll()s the pidfds of the
/// running children, so it wakes the moment one exits; a child whose pidfd
/// could not be opened makes `wait` fall back to the sleep.  The
/// destructor hard-kills and reaps anything still running so a dispatcher
/// that errors out never leaks worker processes.
class LocalProcessTransport : public WorkerTransport {
 public:
  LocalProcessTransport() = default;
  LocalProcessTransport(const LocalProcessTransport&) = delete;
  LocalProcessTransport& operator=(const LocalProcessTransport&) = delete;
  ~LocalProcessTransport() override;

  int spawn(const std::vector<std::string>& argv,
            const std::vector<std::string>& env) override;
  WorkerStatus poll(int handle) override;
  void wait(std::uint64_t timeout_ms) override;
  void kill_worker(int handle) override;

 private:
  struct Child {
    long pid = -1;
    int pidfd = -1;  ///< open while running; -1 if pidfd_open failed
    bool running = false;
    WorkerStatus last;
  };
  /// Mark `child` reaped with `status` and close its pidfd.
  static void retire(Child& child, WorkerStatus status);

  std::vector<Child> children_;
};

}  // namespace ccd::exp
