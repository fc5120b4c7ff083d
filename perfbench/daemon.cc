#include "daemon.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

namespace perfbench {

Daemon::Daemon(std::string binary, std::vector<std::string> args,
               std::string log_path)
    : binary_(std::move(binary)),
      args_(std::move(args)),
      log_path_(std::move(log_path)) {}

Daemon::~Daemon() {
  if (running()) Stop(SIGKILL);
}

rsse::Status Daemon::Start(double timeout_s) {
  if (running()) return rsse::Status::FailedPrecondition("already running");
  const int log_fd =
      ::open(log_path_.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (log_fd < 0) {
    return rsse::Status::Internal("cannot open " + log_path_);
  }
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(binary_.c_str()));
  for (const std::string& a : args_) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(log_fd);
    return rsse::Status::Internal("fork failed");
  }
  if (pid == 0) {
    // The daemon dies with the generator, however the generator ends.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    ::dup2(log_fd, STDOUT_FILENO);
    ::dup2(log_fd, STDERR_FILENO);
    ::execv(binary_.c_str(), argv.data());
    std::_Exit(127);
  }
  ::close(log_fd);
  pid_ = pid;

  // The banner is the daemon's last line before serving; poll the log for
  // it rather than hold a pipe the daemon could block on.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  const std::string marker = "listening on ";
  while (std::chrono::steady_clock::now() < deadline) {
    std::ifstream log(log_path_);
    std::stringstream text;
    text << log.rdbuf();
    const std::string s = text.str();
    const size_t at = s.find(marker);
    const size_t eol = at == std::string::npos ? at : s.find('\n', at);
    if (eol != std::string::npos) {
      const size_t colon = s.rfind(':', eol);
      port_ = static_cast<uint16_t>(std::strtoul(s.c_str() + colon + 1,
                                                 nullptr, 10));
      return rsse::Status::Ok();
    }
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      return rsse::Status::Internal("rsse_serverd exited at start: " + s);
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  Stop(SIGKILL);
  return rsse::Status::Internal("rsse_serverd did not start listening");
}

void Daemon::Stop(int sig) {
  if (!running()) return;
  ::kill(pid_, sig);
  int status = 0;
  while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
  pid_ = -1;
}

double Daemon::CpuMillis() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
  std::string line;
  std::getline(in, line);
  // Fields after the parenthesised command name; utime and stime are the
  // 14th and 15th fields of the whole line.
  const size_t close = line.rfind(')');
  if (close == std::string::npos) return 0;
  std::istringstream rest(line.substr(close + 2));
  std::string field;
  unsigned long long utime = 0, stime = 0;
  for (int i = 3; i <= 15 && rest >> field; ++i) {
    if (i == 14) utime = std::stoull(field);
    if (i == 15) stime = std::stoull(field);
  }
  return static_cast<double>(utime + stime) * 1000.0 /
         static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double Daemon::PeakRssMiB() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

}  // namespace perfbench
