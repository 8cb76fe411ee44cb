#ifndef PERFBENCH_PROCS_H_
#define PERFBENCH_PROCS_H_

// Forked dpstore_server processes for the deployment benchmark.
//
// Every server is a child of the load process. Its stdout is read line by
// line on a helper thread (the "listening", "recovered", "drained:" and
// "durability:" lines are what the benchmark parses), its stderr passes
// through. Children are recorded in a process-wide table so that every
// exit path reaps them: Stop/Kill on the normal path, KillAllChildren
// from the signal handler InstallChildReaper installs, and
// PR_SET_PDEATHSIG if the load process itself is killed.

#include <sys/types.h>

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

/// Installs SIGINT/SIGTERM/SIGHUP handlers that SIGKILL and reap every
/// live child, then exit with status 3. Call once from main.
void InstallChildReaper();

/// SIGKILLs and reaps every live child. Async-signal-safe.
void KillAllChildren();

/// One dpstore_server process: `bin --unix <socket> <args...>`, run with
/// the load process's working directory.
class ServerProcess {
 public:
  ServerProcess(std::string bin, std::string socket,
                std::vector<std::string> args);
  /// SIGKILLs and reaps the process if it is still running.
  ~ServerProcess();

  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Forks and execs the server. False if it could not be forked. Must
  /// be called from the main thread: the child's PR_SET_PDEATHSIG is tied
  /// to the forking thread.
  bool Spawn();

  /// Blocks until the spawned server prints its "listening on" line and
  /// returns the seconds from fork to that line, or nullopt if it exited
  /// or did not listen within `timeout_s` (the process is then killed).
  std::optional<double> AwaitListening(double timeout_s = 60.0);

  bool running() const { return pid_ > 0; }

  /// VmHWM of the running process, in KiB (0 if unreadable).
  uint64_t PeakRssKib() const;

  /// SIGTERM, then wait up to `timeout_s` for a clean exit (escalating to
  /// SIGKILL). True when the process exited with status 0.
  bool Stop(double timeout_s = 30.0);

  /// SIGKILL and reap: a crash, no drain.
  void Kill();

  /// The last stdout line of the current lifetime containing `needle`, or
  /// "" when there is none.
  std::string LineWith(const std::string& needle) const;

 private:
  void ReadLoop(int fd);
  void Reap(double timeout_s);

  const std::string bin_;
  const std::string socket_;
  const std::vector<std::string> args_;
  pid_t pid_ = -1;
  std::chrono::steady_clock::time_point spawned_;
  bool last_exit_ok_ = false;
  std::thread reader_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::string> lines_;  // guarded by mu_
  bool eof_ = false;                // guarded by mu_
};

/// Parses the unsigned integer that follows `key` in `line`
/// ("exchanges=" -> 123). 0 when `key` is absent.
uint64_t FieldAfter(const std::string& line, const std::string& key);

}  // namespace perfbench

#endif  // PERFBENCH_PROCS_H_
