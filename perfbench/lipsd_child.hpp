// A lipsd child process owned by the benchmark: spawned on a private socket
// and snapshot directory, stopped with SIGTERM, reaped with wait4 so its
// CPU time and peak resident set are read from the kernel's accounting.
//
// Thread role: owned by the thread that spawned it; spawn it while that
// thread is the only one running (fork in a threaded process copies locks).
#pragma once

#include <fcntl.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <stdexcept>
#include <string>

namespace perfbench {

class LipsdChild {
 public:
  struct Exit {
    bool clean = false;  ///< exited by itself with status 0
    std::string how;     ///< "exit 0", "exit 3", "signal 9", ...
    double cpu_s = 0.0;  ///< user + system
    double peak_rss_mb = 0.0;
  };

  LipsdChild(const std::string& binary, const std::string& socket,
             const std::string& snapshot_dir, const std::string& log_path) {
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      const int fd = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND,
                            0644);
      if (fd >= 0) {
        ::dup2(fd, STDOUT_FILENO);
        ::dup2(fd, STDERR_FILENO);
        ::close(fd);
      }
      ::execl(binary.c_str(), "lipsd", "--socket", socket.c_str(),
              "--snapshot-dir", snapshot_dir.c_str(),
              static_cast<char*>(nullptr));
      ::_exit(127);
    }
  }

  /// Kills and reaps a child that was never stopped (error paths).
  ~LipsdChild() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
  }

  LipsdChild(const LipsdChild&) = delete;
  LipsdChild& operator=(const LipsdChild&) = delete;
  LipsdChild(LipsdChild&&) = delete;
  LipsdChild& operator=(LipsdChild&&) = delete;

  /// True while the child has not exited (it may still be starting up).
  [[nodiscard]] bool running() {
    int status = 0;
    if (pid_ <= 0) return false;
    if (::waitpid(pid_, &status, WNOHANG) == 0) return true;
    pid_ = -1;  // reaped: nothing left to stop
    return false;
  }

  /// SIGTERM, then wait for the exit and read its accounting.
  [[nodiscard]] Exit stop() {
    Exit out;
    if (pid_ <= 0) {
      out.how = "exited early";
      return out;
    }
    ::kill(pid_, SIGTERM);
    int status = 0;
    rusage ru{};
    pid_t reaped = -1;
    do {
      reaped = ::wait4(pid_, &status, 0, &ru);
    } while (reaped < 0 && errno == EINTR);
    pid_ = -1;
    if (reaped < 0) {
      out.how = "wait4 failed";
      return out;
    }
    if (WIFEXITED(status)) {
      out.how = "exit " + std::to_string(WEXITSTATUS(status));
      out.clean = WEXITSTATUS(status) == 0;
    } else if (WIFSIGNALED(status)) {
      out.how = "signal " + std::to_string(WTERMSIG(status));
    }
    out.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
                static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) /
                    1e6;
    out.peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
    return out;
  }

 private:
  pid_t pid_ = -1;
};

}  // namespace perfbench
