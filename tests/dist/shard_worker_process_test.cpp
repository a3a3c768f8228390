// Process-spawning integration test for the standalone worker binary.
//
// fork/execs real `sfl_shard_worker` processes (the examples/ binary: a
// TcpShardServer behind a main()), parses the advertised ephemeral ports
// off their stdout, connects a TcpTransport coordinator, and runs a
// multi-round market through the synchronous DistributedWdp across the
// process boundary — every round must match the serial in-process engine
// bit for bit, including after one worker process is SIGKILLed mid-market
// (the coordinator re-routes or recomputes). Environments that forbid fork/exec or binding localhost
// sockets skip instead of failing.
//
// The binary is located through $SFL_SHARD_WORKER_BIN, falling back to the
// build-time path baked in by tests/CMakeLists.txt.
#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include <fcntl.h>
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include "auction/sharded_wdp.h"
#include "dist/distributed_wdp.h"
#include "dist/tcp_transport.h"
#include "util/rng.h"

#ifndef SFL_SHARD_WORKER_BIN_PATH
#define SFL_SHARD_WORKER_BIN_PATH ""
#endif

namespace sfl::dist {
namespace {

std::string worker_binary_path() {
  if (const char* env = std::getenv("SFL_SHARD_WORKER_BIN")) return env;
  return SFL_SHARD_WORKER_BIN_PATH;
}

/// One spawned worker process and its advertised port.
struct WorkerProcess {
  pid_t pid = -1;
  int stdout_fd = -1;
  std::uint16_t port = 0;

  ~WorkerProcess() { stop(SIGKILL); }

  void stop(int signal) {
    if (stdout_fd >= 0) {
      ::close(stdout_fd);
      stdout_fd = -1;
    }
    if (pid > 0) {
      ::kill(pid, signal);
      int status = 0;
      ::waitpid(pid, &status, 0);
      pid = -1;
    }
  }
};

/// Spawns the worker binary with --port=0 and parses the startup line.
/// Returns nullptr (with `why` filled) when the environment forbids any
/// step — the caller GTEST_SKIPs.
std::unique_ptr<WorkerProcess> spawn_worker(std::string& why) {
  const std::string path = worker_binary_path();
  if (path.empty() || ::access(path.c_str(), X_OK) != 0) {
    why = "worker binary not found/executable at '" + path + "'";
    return nullptr;
  }
  int pipe_fds[2] = {-1, -1};
  if (::pipe(pipe_fds) != 0) {
    why = "pipe() failed";
    return nullptr;
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    why = "fork() is forbidden here";
    return nullptr;
  }
  if (pid == 0) {
    // Child: stdout -> pipe, then become the worker.
    ::dup2(pipe_fds[1], STDOUT_FILENO);
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    ::execl(path.c_str(), path.c_str(), "--port=0",
            static_cast<char*>(nullptr));
    _exit(127);  // exec failed
  }
  ::close(pipe_fds[1]);

  auto worker = std::make_unique<WorkerProcess>();
  worker->pid = pid;
  worker->stdout_fd = pipe_fds[0];

  // Parse "sfl_shard_worker listening on 127.0.0.1:<port>" with a bounded
  // wait; EOF or timeout means the worker could not serve (sandboxed bind,
  // exec failure) and the test skips.
  std::string banner;
  for (int spins = 0; spins < 200; ++spins) {  // <= 10 s total
    pollfd pfd{.fd = worker->stdout_fd, .events = POLLIN, .revents = 0};
    const int ready = ::poll(&pfd, 1, 50);
    if (ready <= 0) continue;
    char buffer[256];
    const ssize_t got = ::read(worker->stdout_fd, buffer, sizeof(buffer));
    if (got <= 0) break;  // EOF: worker exited
    banner.append(buffer, static_cast<std::size_t>(got));
    const std::size_t mark = banner.find("listening on 127.0.0.1:");
    if (mark == std::string::npos) continue;
    const std::size_t eol = banner.find('\n', mark);
    if (eol == std::string::npos) continue;
    const long port = std::strtol(
        banner.c_str() + mark + std::string("listening on 127.0.0.1:").size(),
        nullptr, 10);
    if (port <= 0 || port > 65535) break;
    worker->port = static_cast<std::uint16_t>(port);
    return worker;
  }
  why = "worker process did not advertise a port (bind/exec forbidden?)";
  return nullptr;
}

TEST(ShardWorkerProcessTest, MarketOverRealWorkerProcessesIsExact) {
  std::string why;
  std::vector<std::unique_ptr<WorkerProcess>> workers;
  std::vector<TcpTransport::Endpoint> endpoints;
  for (std::size_t w = 0; w < 2; ++w) {
    auto worker = spawn_worker(why);
    if (worker == nullptr) GTEST_SKIP() << why;
    endpoints.push_back(TcpTransport::Endpoint{.port = worker->port});
    workers.push_back(std::move(worker));
  }

  // The coordinator over the real process boundary (the mechanism layer
  // builds its own loopback transport; here the sockets ARE the point).
  // Short receive timeout: localhost round trips are sub-millisecond and
  // the post-kill rounds lean on timeouts to reach recovery quickly.
  const DistributedWdp engine{
      DistributedWdpConfig{.receive_timeout = std::chrono::milliseconds(250)},
      std::make_unique<TcpTransport>(endpoints)};
  const auction::ShardedWdp serial_engine{
      auction::ShardedWdpConfig{.shards = 1}};

  constexpr std::size_t kMaxWinners = 6;
  sfl::util::Rng rng(321);
  auction::RoundScratch scratch;
  auction::RoundScratch reference;
  for (std::size_t round = 0; round < 12; ++round) {
    if (round == 6) {
      // Mid-market worker death: a real SIGKILLed process. The coordinator
      // must re-route/recompute and stay bit-identical.
      workers[0]->stop(SIGKILL);
    }
    auction::CandidateBatch batch;
    const std::size_t n = 20 + rng.uniform_index(40);
    for (std::size_t i = 0; i < n; ++i) {
      batch.emplace(static_cast<auction::ClientId>(rng.uniform_index(n)),
                    rng.uniform(0.1, 5.0), rng.uniform(0.05, 3.0),
                    rng.uniform(0.2, 2.0));
    }
    // Weights drift the way a settling budget queue moves them, and every
    // other round carries sustainability penalties across the wire.
    const auction::ScoreWeights weights{
        .value_weight = 10.0, .bid_weight = 10.0 + rng.uniform(0.0, 5.0)};
    auction::Penalties penalties;
    if (round % 2 == 1) {
      for (std::size_t i = 0; i < n; ++i) {
        penalties.push_back(rng.uniform(0.0, 2.0));
      }
    }

    engine.run_round(batch, weights, kMaxWinners, penalties, scratch);
    serial_engine.run_round(batch, weights, kMaxWinners, penalties, reference);
    ASSERT_EQ(scratch.allocation.selected, reference.allocation.selected)
        << "round " << round;
    ASSERT_EQ(scratch.allocation.total_score,
              reference.allocation.total_score)
        << "round " << round;
    ASSERT_EQ(scratch.payments, reference.payments) << "round " << round;
  }

  // Clean shutdown: SIGTERM and reap (the destructor SIGKILLs stragglers).
  for (auto& worker : workers) worker->stop(SIGTERM);
}

}  // namespace
}  // namespace sfl::dist
