#include "procs.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

// Live children, for the signal handler. Slots hold 0 when free.
constexpr int kMaxChildren = 32;
std::atomic<pid_t> g_children[kMaxChildren];

void RegisterChild(pid_t pid) {
  for (auto& slot : g_children) {
    pid_t expected = 0;
    if (slot.compare_exchange_strong(expected, pid)) return;
  }
  std::fprintf(stderr, "perfbench: more than %d live servers\n", kMaxChildren);
  std::abort();
}

void UnregisterChild(pid_t pid) {
  for (auto& slot : g_children) {
    pid_t expected = pid;
    if (slot.compare_exchange_strong(expected, 0)) return;
  }
}

void HandleFatalSignal(int /*signo*/) {
  KillAllChildren();
  _exit(3);
}

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

void KillAllChildren() {
  for (auto& slot : g_children) {
    const pid_t pid = slot.exchange(0);
    if (pid > 0) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, nullptr, 0);
    }
  }
}

void InstallChildReaper() {
  struct sigaction action {};
  action.sa_handler = HandleFatalSignal;
  ::sigaction(SIGINT, &action, nullptr);
  ::sigaction(SIGTERM, &action, nullptr);
  ::sigaction(SIGHUP, &action, nullptr);
  ::signal(SIGPIPE, SIG_IGN);
}

ServerProcess::ServerProcess(std::string bin, std::string socket,
                             std::vector<std::string> args)
    : bin_(std::move(bin)), socket_(std::move(socket)), args_(std::move(args)) {}

ServerProcess::~ServerProcess() {
  if (running()) Kill();
  if (reader_.joinable()) reader_.join();
}

bool ServerProcess::Spawn() {
  if (running()) return false;
  if (reader_.joinable()) reader_.join();
  {
    std::lock_guard<std::mutex> lock(mu_);
    lines_.clear();
    eof_ = false;
  }
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) {
    std::perror("perfbench: pipe2");
    return false;
  }
  std::vector<std::string> argv_strings = {bin_, "--unix", socket_};
  argv_strings.insert(argv_strings.end(), args_.begin(), args_.end());
  std::vector<char*> argv;
  for (std::string& s : argv_strings) argv.push_back(s.data());
  argv.push_back(nullptr);

  const pid_t parent = ::getpid();
  spawned_ = Clock::now();
  const pid_t pid = ::fork();
  if (pid < 0) {
    std::perror("perfbench: fork");
    ::close(fds[0]);
    ::close(fds[1]);
    return false;
  }
  if (pid == 0) {
    // Child: only async-signal-safe calls until exec.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) _exit(1);
    ::dup2(fds[1], STDOUT_FILENO);
    // Client sockets of the load process are not close-on-exec; a server
    // holding a copy would keep other connections from ever closing.
    ::close_range(3, ~0U, 0);
    ::execv(argv[0], argv.data());
    _exit(127);
  }
  RegisterChild(pid);
  pid_ = pid;
  ::close(fds[1]);
  const int read_fd = fds[0];
  reader_ = std::thread([this, read_fd] { ReadLoop(read_fd); });
  return true;
}

std::optional<double> ServerProcess::AwaitListening(double timeout_s) {
  if (!running()) return std::nullopt;
  const auto deadline =
      spawned_ + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(timeout_s));
  std::unique_lock<std::mutex> lock(mu_);
  const bool listening = cv_.wait_until(lock, deadline, [this] {
        if (eof_) return true;
        for (const std::string& line : lines_) {
          if (line.find("listening on") != std::string::npos) return true;
        }
        return false;
      });
  const double seconds = SecondsSince(spawned_);
  const bool ok = listening && !eof_;
  lock.unlock();
  if (!ok) {
    std::fprintf(stderr, "perfbench: %s on %s did not start listening\n",
                 bin_.c_str(), socket_.c_str());
    Kill();
    return std::nullopt;
  }
  return seconds;
}

void ServerProcess::ReadLoop(int fd) {
  std::string partial;
  char buf[4096];
  while (true) {
    const ssize_t got = ::read(fd, buf, sizeof(buf));
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) break;
    partial.append(buf, static_cast<size_t>(got));
    size_t newline;
    while ((newline = partial.find('\n')) != std::string::npos) {
      std::string line = partial.substr(0, newline);
      partial.erase(0, newline + 1);
      std::lock_guard<std::mutex> lock(mu_);
      lines_.push_back(std::move(line));
      cv_.notify_all();
    }
  }
  ::close(fd);
  std::lock_guard<std::mutex> lock(mu_);
  if (!partial.empty()) lines_.push_back(partial);
  eof_ = true;
  cv_.notify_all();
}

uint64_t ServerProcess::PeakRssKib() const {
  if (!running()) return 0;
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return FieldAfter(line, "VmHWM:");
  }
  return 0;
}

void ServerProcess::Reap(double timeout_s) {
  const Clock::time_point start = Clock::now();
  int status = 0;
  pid_t done = 0;
  while ((done = ::waitpid(pid_, &status, WNOHANG)) == 0 &&
         SecondsSince(start) < timeout_s) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (done == 0) {
    std::fprintf(stderr, "perfbench: server %s ignored SIGTERM; killing\n",
                 socket_.c_str());
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, &status, 0);
    status = -1;
  }
  UnregisterChild(pid_);
  pid_ = -1;
  if (reader_.joinable()) reader_.join();
  last_exit_ok_ = done != 0 && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

bool ServerProcess::Stop(double timeout_s) {
  if (!running()) return false;
  ::kill(pid_, SIGTERM);
  Reap(timeout_s);
  return last_exit_ok_;
}

void ServerProcess::Kill() {
  if (!running()) return;
  ::kill(pid_, SIGKILL);
  Reap(60.0);
}

std::string ServerProcess::LineWith(const std::string& needle) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = lines_.rbegin(); it != lines_.rend(); ++it) {
    if (it->find(needle) != std::string::npos) return *it;
  }
  return "";
}

uint64_t FieldAfter(const std::string& line, const std::string& key) {
  const size_t at = line.find(key);
  if (at == std::string::npos) return 0;
  size_t i = at + key.size();
  while (i < line.size() && line[i] == ' ') ++i;
  return std::strtoull(line.c_str() + i, nullptr, 10);
}

}  // namespace perfbench
