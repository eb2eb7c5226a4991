#include "daemon.hpp"

#include <csignal>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include <fcntl.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include "serve/socket.hpp"

namespace corpusbench {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// True once a connection to `path` succeeds (the connection is closed).
bool accepts(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) return false;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return false;
  const bool ok =
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) == 0;
  ::close(fd);
  return ok;
}

}  // namespace

daemon_process::daemon_process(const std::string& executable,
                               const std::string& scratch_root, int threads) {
  std::filesystem::create_directories(scratch_root);
  std::string templ = scratch_root + "/serve-XXXXXX";
  if (::mkdtemp(templ.data()) == nullptr)
    throw std::runtime_error("mkdtemp failed under " + scratch_root);
  dir_ = templ;
  socket_ = dir_ + "/serve.sock";
  const std::string threads_arg = std::to_string(threads);
  const std::string log = dir_ + "/daemon.log";
  // The child changes into the directory before exec.
  const std::string program = std::filesystem::absolute(executable).string();

  const pid_t parent = ::getpid();
  pid_ = ::fork();
  if (pid_ < 0) throw std::runtime_error("fork failed");
  if (pid_ == 0) {
    // The daemon must not outlive the benchmark, even when the benchmark
    // is killed before its destructors run.
    ::prctl(PR_SET_PDEATHSIG, SIGTERM);
    if (::getppid() != parent) ::_exit(127);
    if (::chdir(dir_.c_str()) != 0) ::_exit(127);
    const int null_fd = ::open("/dev/null", O_RDONLY);
    const int log_fd = ::open("daemon.log", O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (null_fd >= 0) ::dup2(null_fd, 0);
    if (log_fd >= 0) {
      ::dup2(log_fd, 1);
      ::dup2(log_fd, 2);
    }
    ::execl(program.c_str(), program.c_str(), "--socket", "serve.sock",
            "--threads", threads_arg.c_str(), "--quiet",
            static_cast<char*>(nullptr));
    ::_exit(127);
  }

  for (int attempt = 0; attempt < 12000; ++attempt) {
    if (accepts(socket_)) return;
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      const std::string output = read_file(log);
      std::filesystem::remove_all(dir_);
      throw std::runtime_error("compact-serve exited during start-up: " +
                               output);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop();
  throw std::runtime_error("compact-serve did not accept within 60 s");
}

daemon_process::~daemon_process() { stop(); }

double daemon_process::peak_rss_mb() const {
  if (pid_ <= 0) return 0.0;
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
  return 0.0;
}

bool daemon_process::stop() {
  bool clean = false;
  if (pid_ > 0) {
    ::kill(pid_, SIGTERM);
    int status = 0;
    bool reaped = false;
    for (int i = 0; i < 3000 && !reaped; ++i) {
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        reaped = true;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    if (!reaped) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
    }
    clean = reaped && WIFEXITED(status) && WEXITSTATUS(status) == 0;
    pid_ = -1;
  }
  if (!dir_.empty()) {
    std::error_code ignored;
    std::filesystem::remove_all(dir_, ignored);
    dir_.clear();
  }
  return clean;
}

serve_client::serve_client(const std::string& socket_path)
    : fd_(compact::serve::connect_unix(socket_path)) {}

serve_client::~serve_client() { compact::serve::close_fd(fd_); }

std::string serve_client::round_trip(const std::string& line) {
  if (!compact::serve::write_line(fd_, line))
    throw std::runtime_error("compact-serve connection closed on write");
  std::string reply;
  if (!compact::serve::read_line(fd_, buffer_, reply))
    throw std::runtime_error("compact-serve connection closed on read");
  return reply;
}

}  // namespace corpusbench
