#include "server_process.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

namespace servebench {

ServerProcess::ServerProcess(const std::string& exe, const std::string& dir,
                             const std::string& tag) {
  const std::string port_file = dir + "/port-" + tag;
  const std::string log = dir + "/server-" + tag + ".log";
  std::vector<std::string> args = {exe, "serve", "--port", "0", "--port-file",
                                   port_file};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  // vfork: the generator holds hundreds of MB of corpus, and fork() would
  // copy its page tables on every start (tens of ms, and noisy). The child only
  // makes syscalls and then execs.
  const pid_t parent = ::getpid();
  pid_ = ::vfork();
  if (pid_ < 0) throw std::runtime_error("vfork failed");
  if (pid_ == 0) {
    // Die with the generator, whatever kills it.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_EXCL, 0644);
    if (fd >= 0) {
      ::dup2(fd, 1);
      ::dup2(fd, 2);
      ::close(fd);
    }
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (std::chrono::steady_clock::now() < deadline) {
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      throw std::runtime_error("server exited during start-up; see " + log);
    }
    // The server writes "<port>\n" once it listens; wait for the newline
    // so a half-written file is never read.
    std::ifstream in(port_file);
    const std::string text((std::istreambuf_iterator<char>(in)), {});
    if (!text.empty() && text.back() == '\n') {
      port_ = static_cast<std::uint16_t>(std::stoi(text));
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  stop();
  throw std::runtime_error("server did not listen within 30 s");
}

ServerProcess::~ServerProcess() { stop(); }

void ServerProcess::stop() {
  if (pid_ < 0) return;
  ::kill(pid_, SIGINT);
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  int status = 0;
  while (::waitpid(pid_, &status, WNOHANG) == 0) {
    if (std::chrono::steady_clock::now() > deadline) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  pid_ = -1;
}

double ServerProcess::cpu_ms() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)), {});
  // Fields after the parenthesized command name; utime and stime are the
  // 14th and 15th fields overall, i.e. the 12th and 13th after ')'.
  std::istringstream rest(text.substr(text.rfind(')') + 2));
  std::string field;
  double utime = 0, stime = 0;
  for (int i = 1; i <= 13 && rest >> field; ++i) {
    if (i == 12) utime = std::stod(field);
    if (i == 13) stime = std::stod(field);
  }
  return (utime + stime) * 1000.0 / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double ServerProcess::peak_rss_mb() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  return 0;
}

}  // namespace servebench
