#include "campaign/executor.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <mutex>
#include <thread>

#include <errno.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include "campaign/sandbox.hpp"

namespace pfi::campaign {

namespace {

bool stop_requested(const ExecutorOptions& opts) {
  return opts.should_stop && opts.should_stop();
}

int backoff_ms(const ExecutorOptions& opts, int attempt) {
  long ms = std::max(1, opts.retry_backoff_ms);
  for (int k = 1; k < attempt && ms < 2000; ++k) ms *= 2;
  return static_cast<int>(std::min<long>(ms, 2000));
}

/// In-process execution of one cell with the retry policy applied.
RunResult run_one_with_retries(const RunCell& cell,
                               const ExecutorOptions& opts,
                               std::mutex* cb_mutex) {
  const int max_attempts = 1 + std::max(0, opts.retries);
  for (int attempt = 1;; ++attempt) {
    RunResult r = run_cell(cell);
    r.attempts = attempt;
    if (!r.errored() || attempt >= max_attempts) return r;
    if (stop_requested(opts)) return r;  // don't burn backoff on shutdown
    if (opts.on_retry) {
      std::unique_lock<std::mutex> lock;
      if (cb_mutex != nullptr) lock = std::unique_lock<std::mutex>(*cb_mutex);
      opts.on_retry(r, attempt, max_attempts);
    }
    std::this_thread::sleep_for(
        std::chrono::milliseconds(backoff_ms(opts, attempt)));
  }
}

// ---------------------------------------------------------------------------
// Isolated execution: a single-threaded pool of forked children. The parent
// only forks, polls pipes and reaps — all simulation happens in children, so
// fork() never races a sibling thread's heap lock.
// ---------------------------------------------------------------------------

struct Pending {
  std::size_t slot = 0;
  int attempt = 1;
  std::chrono::steady_clock::time_point not_before;  // retry backoff
};

struct Active {
  std::size_t slot = 0;
  int attempt = 1;
  SandboxChild child;
  std::string bytes;
  bool killed = false;
  bool has_deadline = false;
  std::chrono::steady_clock::time_point deadline;
};

/// Grace past the cell's own wall budget before the parent SIGKILLs: the
/// child's cooperative watchdog gets first claim on the timeout record.
constexpr int kKillGraceMs = 2000;

std::vector<RunResult> run_cells_isolated(const std::vector<RunCell>& cells,
                                          const ExecutorOptions& opts) {
  std::vector<RunResult> results(cells.size());
  const int capacity =
      std::max(1, std::min<int>(opts.jobs, static_cast<int>(cells.size())));
  const int max_attempts = 1 + std::max(0, opts.retries);

  std::deque<Pending> queue;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    queue.push_back({i, 1, std::chrono::steady_clock::now()});
  }
  std::vector<Active> active;
  active.reserve(static_cast<std::size_t>(capacity));
  bool stopped = false;

  auto complete = [&](const Active& a, RunResult r) {
    r.attempts = a.attempt;
    if (r.errored() && a.attempt < max_attempts && !stopped) {
      if (opts.on_retry) opts.on_retry(r, a.attempt, max_attempts);
      Pending p;
      p.slot = a.slot;
      p.attempt = a.attempt + 1;
      p.not_before = std::chrono::steady_clock::now() +
                     std::chrono::milliseconds(backoff_ms(opts, a.attempt));
      queue.push_front(p);
      return;
    }
    results[a.slot] = std::move(r);
    if (opts.on_result) opts.on_result(results[a.slot]);
  };

  while (!queue.empty() || !active.empty()) {
    if (!stopped && stop_requested(opts)) {
      stopped = true;
      queue.clear();  // in-flight children drain; nothing new launches
    }
    const auto now = std::chrono::steady_clock::now();

    // Launch while there is capacity and runnable work.
    std::size_t deferred = 0;
    while (static_cast<int>(active.size()) < capacity &&
           deferred < queue.size()) {
      if (queue.front().not_before > now) {  // backoff not elapsed; rotate
        queue.push_back(queue.front());
        queue.pop_front();
        ++deferred;
        continue;
      }
      Pending p = queue.front();
      queue.pop_front();
      const RunCell& cell = cells[p.slot];
      Active a;
      a.slot = p.slot;
      a.attempt = p.attempt;
      std::string err;
      if (!sandbox_spawn(cell, &a.child, &err)) {
        RunResult r;
        r.index = cell.index;
        r.id = cell.id;
        r.oracle = cell.oracle;
        r.seed = cell.seed;
        r.sim_seconds = sim::to_seconds(cell.duration);
        r.error = err;
        complete(a, std::move(r));
        continue;
      }
      if (cell.timeout_ms > 0) {
        a.has_deadline = true;
        a.deadline =
            now + std::chrono::milliseconds(cell.timeout_ms + kKillGraceMs);
      }
      active.push_back(std::move(a));
    }
    if (active.empty()) {
      if (!queue.empty()) {
        // Everything runnable is backing off; nap until the nearest wakeup.
        auto soonest = queue.front().not_before;
        for (const Pending& p : queue) soonest = std::min(soonest, p.not_before);
        const auto nap = std::chrono::duration_cast<std::chrono::milliseconds>(
                             soonest - std::chrono::steady_clock::now())
                             .count();
        if (nap > 0) {
          std::this_thread::sleep_for(std::chrono::milliseconds(
              std::min<long long>(nap, 200)));
        }
      }
      continue;
    }

    // Wait for output, EOF, or the nearest kill deadline.
    int wait_ms = 200;  // bounded: should_stop and backoffs need sampling
    for (const Active& a : active) {
      if (!a.has_deadline || a.killed) continue;
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                            a.deadline - std::chrono::steady_clock::now())
                            .count();
      wait_ms = std::min<long long>(wait_ms, std::max<long long>(left, 0));
    }
    std::vector<struct pollfd> pfds;
    pfds.reserve(active.size());
    for (const Active& a : active) {
      pfds.push_back({a.child.fd, POLLIN, 0});
    }
    const int pr =
        poll(pfds.data(), static_cast<nfds_t>(pfds.size()), wait_ms);
    if (pr < 0 && errno != EINTR) break;  // poll itself broken; bail out

    const auto after = std::chrono::steady_clock::now();
    for (std::size_t k = 0; k < active.size();) {
      Active& a = active[k];
      bool done = false;
      if (pr > 0 && (pfds[k].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        char buf[4096];
        const ssize_t n = read(a.child.fd, buf, sizeof buf);
        if (n > 0) {
          a.bytes.append(buf, static_cast<std::size_t>(n));
        } else if (n == 0) {
          done = true;  // EOF: child exited
        } else if (errno != EINTR && errno != EAGAIN) {
          done = true;
        }
      }
      if (!done && a.has_deadline && !a.killed && after >= a.deadline) {
        kill(a.child.pid, SIGKILL);  // wedged: drain to EOF next rounds
        a.killed = true;
      }
      if (!done) {
        ++k;
        continue;
      }
      close(a.child.fd);
      int status = 0;
      while (waitpid(a.child.pid, &status, 0) < 0 && errno == EINTR) {
      }
      complete(a, sandbox_finish(cells[a.slot], status, a.bytes, a.killed));
      active[k] = std::move(active.back());
      active.pop_back();
      pfds[k] = pfds.back();  // keep revents aligned with active
      pfds.pop_back();
    }
  }
  return results;
}

}  // namespace

std::vector<RunResult> run_cells(const std::vector<RunCell>& cells,
                                 const ExecutorOptions& opts) {
  if (opts.isolate) return run_cells_isolated(cells, opts);

  std::vector<RunResult> results(cells.size());
  const int jobs =
      std::max(1, std::min<int>(opts.jobs, static_cast<int>(cells.size())));

  if (jobs == 1) {
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (stop_requested(opts)) break;
      results[i] = run_one_with_retries(cells[i], opts, nullptr);
      if (opts.on_result) opts.on_result(results[i]);
    }
    return results;
  }

  std::atomic<std::size_t> next{0};
  std::mutex cb_mutex;
  auto worker = [&] {
    for (;;) {
      if (stop_requested(opts)) return;
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= cells.size()) return;
      results[i] = run_one_with_retries(cells[i], opts, &cb_mutex);
      if (opts.on_result) {
        std::lock_guard<std::mutex> lock(cb_mutex);
        opts.on_result(results[i]);
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(jobs));
  for (int t = 0; t < jobs; ++t) pool.emplace_back(worker);
  for (auto& th : pool) th.join();
  return results;
}

}  // namespace pfi::campaign
