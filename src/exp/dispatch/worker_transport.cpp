#include "exp/dispatch/worker_transport.hpp"

#include <cerrno>
#include <chrono>
#include <climits>
#include <csignal>
#include <cstdlib>
#include <thread>

#include <poll.h>
#include <sys/syscall.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

extern char** environ;

namespace ccd::exp {

void WorkerTransport::wait(std::uint64_t timeout_ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(timeout_ms));
}

LocalProcessTransport::~LocalProcessTransport() {
  for (std::size_t i = 0; i < children_.size(); ++i) {
    kill_worker(static_cast<int>(i));
  }
}

int LocalProcessTransport::spawn(const std::vector<std::string>& argv,
                                 const std::vector<std::string>& env) {
  if (argv.empty()) return -1;
  std::vector<char*> c_argv;
  c_argv.reserve(argv.size() + 1);
  for (const std::string& a : argv) {
    c_argv.push_back(const_cast<char*>(a.c_str()));
  }
  c_argv.push_back(nullptr);

  // Inherited environment plus the dispatcher's additions.  Built before
  // fork so the child only execs -- no allocation between fork and exec.
  std::vector<std::string> env_storage;
  for (char** e = environ; *e; ++e) env_storage.push_back(*e);
  for (const std::string& kv : env) env_storage.push_back(kv);
  std::vector<char*> c_env;
  c_env.reserve(env_storage.size() + 1);
  for (const std::string& kv : env_storage) {
    c_env.push_back(const_cast<char*>(kv.c_str()));
  }
  c_env.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0) return -1;
  if (pid == 0) {
    ::execve(c_argv[0], c_argv.data(), c_env.data());
    _exit(127);  // exec failed; 127 = "command not found" convention
  }
  Child child;
  child.pid = pid;
  // Raw syscall: glibc 2.36's <sys/pidfd.h> declares pidfd_open without C
  // linkage, so its wrapper does not link from C++.  The kernel sets
  // close-on-exec on pidfds, so later workers do not inherit this one.
  child.pidfd = static_cast<int>(::syscall(SYS_pidfd_open, pid, 0));
  child.running = true;
  children_.push_back(child);
  return static_cast<int>(children_.size() - 1);
}

WorkerStatus LocalProcessTransport::poll(int handle) {
  if (handle < 0 || static_cast<std::size_t>(handle) >= children_.size()) {
    return WorkerStatus{false, 127};
  }
  Child& child = children_[static_cast<std::size_t>(handle)];
  if (!child.running) return child.last;
  int status = 0;
  const pid_t r = ::waitpid(static_cast<pid_t>(child.pid), &status, WNOHANG);
  if (r == 0) return WorkerStatus{true, 0};
  int exit_code = 127;  // r < 0: already reaped?  treat as failure
  if (r > 0 && WIFEXITED(status)) {
    exit_code = WEXITSTATUS(status);
  } else if (r > 0 && WIFSIGNALED(status)) {
    exit_code = 128 + WTERMSIG(status);
  }
  retire(child, WorkerStatus{false, exit_code});
  return child.last;
}

void LocalProcessTransport::wait(std::uint64_t timeout_ms) {
  // A pidfd turns readable when its process exits and stays readable
  // until the exit is reaped, so an exit between the caller's last poll
  // and this call still wakes it at once.
  std::vector<pollfd> fds;
  for (const Child& child : children_) {
    if (!child.running) continue;
    if (child.pidfd < 0) {
      WorkerTransport::wait(timeout_ms);  // an exit we cannot watch
      return;
    }
    fds.push_back(pollfd{child.pidfd, POLLIN, 0});
  }
  const int timeout =
      timeout_ms > static_cast<std::uint64_t>(INT_MAX)
          ? INT_MAX
          : static_cast<int>(timeout_ms);
  // EINTR ends the wait early, which only costs the caller one extra
  // pass; any other failure sleeps instead, so the caller cannot spin.
  if (::poll(fds.data(), static_cast<nfds_t>(fds.size()), timeout) < 0 &&
      errno != EINTR) {
    WorkerTransport::wait(timeout_ms);
  }
}

void LocalProcessTransport::retire(Child& child, WorkerStatus status) {
  if (child.pidfd >= 0) ::close(child.pidfd);
  child.pidfd = -1;
  child.running = false;
  child.last = status;
}

void LocalProcessTransport::kill_worker(int handle) {
  if (handle < 0 || static_cast<std::size_t>(handle) >= children_.size()) {
    return;
  }
  Child& child = children_[static_cast<std::size_t>(handle)];
  if (!child.running) return;
  ::kill(static_cast<pid_t>(child.pid), SIGKILL);
  int status = 0;
  ::waitpid(static_cast<pid_t>(child.pid), &status, 0);  // reap, no zombies
  retire(child, WorkerStatus{false, 128 + SIGKILL});
}

}  // namespace ccd::exp
