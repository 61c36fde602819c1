#include "fabric/worker.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <map>
#include <mutex>
#include <optional>
#include <thread>

#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "campaign/executor.hpp"
#include "fabric/socket.hpp"
#include "fabric/wire.hpp"
#include "obs/metrics.hpp"

namespace pfi::fabric {

namespace {

/// Why read_frame gave up — so the flight recorder can tell an idle
/// timeout from a bounced heartbeat from a plain dead socket.
enum class ReadFail { kNone, kIo, kIdle, kHeartbeat };

/// Blocking read of the next complete frame, with a liveness bound: polls
/// in short slices so a silent partition (coordinator host gone without an
/// RST) surfaces after idle_timeout_ms — or the moment the heartbeat
/// thread reports a failed send — instead of blocking in recv() for TCP's
/// many-minute retransmission timeout. False on EOF/error/corruption/
/// timeout; the caller treats every false the same way (reconnect or die).
bool read_frame(int fd, FrameReader* reader, Frame* out, int idle_timeout_ms,
                const std::atomic<bool>* hb_failed = nullptr,
                ReadFail* why = nullptr) {
  if (why != nullptr) *why = ReadFail::kNone;
  int idle_ms = 0;
  for (;;) {
    if (reader->next(out)) return true;
    if (why != nullptr) *why = ReadFail::kIo;
    if (reader->corrupt()) return false;
    struct pollfd p = {fd, POLLIN, 0};
    const int pr = poll(&p, 1, 250);
    if (pr < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (pr == 0) {
      if (hb_failed != nullptr &&
          hb_failed->load(std::memory_order_relaxed)) {
        if (why != nullptr) *why = ReadFail::kHeartbeat;
        return false;  // our own beats bounce: the link is gone
      }
      idle_ms += 250;
      if (idle_timeout_ms > 0 && idle_ms >= idle_timeout_ms) {
        if (why != nullptr) *why = ReadFail::kIdle;
        return false;
      }
      continue;
    }
    char buf[65536];
    const ssize_t n = recv(fd, buf, sizeof buf, 0);
    if (n == 0) return false;
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN) continue;
      return false;
    }
    idle_ms = 0;
    reader->feed(buf, static_cast<std::size_t>(n));
  }
}

/// Whether a non-blocking pull found a frame, found none yet, or found the
/// link dead (EOF, a socket error, a corrupt stream).
enum class Pull { kFrame, kEmpty, kDead };

/// The next complete frame without blocking: one the reader already holds,
/// else whatever the kernel holds for the socket right now.
Pull pull_frame(int fd, FrameReader* reader, Frame* out) {
  for (;;) {
    if (reader->next(out)) return Pull::kFrame;
    if (reader->corrupt() || fd < 0) return Pull::kDead;
    char buf[65536];
    const ssize_t n = recv(fd, buf, sizeof buf, MSG_DONTWAIT);
    if (n > 0) {
      reader->feed(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return Pull::kEmpty;
    }
    return Pull::kDead;
  }
}

/// One decoded LEASE grant.
struct Grant {
  int job = 0;
  std::vector<int> slots;
  std::vector<std::int64_t> epochs;
  std::vector<campaign::RunCell> cells;
};

/// Capped exponential backoff: 100 ms doubling to a 2 s ceiling.
int backoff_ms(int attempt) {
  int ms = 100;
  for (int i = 1; i < attempt && ms < 2000; ++i) ms *= 2;
  return ms < 2000 ? ms : 2000;
}

/// Heartbeats while the executor computes. The frame is pre-encoded and the
/// loop never allocates: the executor's --isolate path forks while this
/// thread runs, and a child must not inherit a held malloc lock. The fd is
/// read through an atomic under the write lock — during a reconnect the
/// main thread parks it at -1 and the loop just skips beats. A failed send
/// raises *failed so the main thread's read loop (which may otherwise sit
/// in poll() with nothing arriving) starts its reconnect immediately.
class Heartbeat {
 public:
  Heartbeat(std::atomic<int>* fd, std::mutex* write_mu, int interval_ms,
            std::atomic<bool>* failed)
      : fd_(fd),
        write_mu_(write_mu),
        interval_ms_(interval_ms < 50 ? 50 : interval_ms),
        failed_(failed),
        frame_(encode_frame(FrameType::kHeartbeat, "")) {
    thread_ = std::thread([this] { loop(); });
  }
  ~Heartbeat() {
    stop_.store(true, std::memory_order_relaxed);
    thread_.join();
  }

 private:
  void loop() {
    int slept = 0;
    while (!stop_.load(std::memory_order_relaxed)) {
      // Sleep in short slices so shutdown never waits a full interval.
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
      slept += 25;
      if (slept < interval_ms_) continue;
      slept = 0;
      std::lock_guard<std::mutex> lock(*write_mu_);
      const int fd = fd_->load(std::memory_order_relaxed);
      if (fd < 0) continue;  // detached: a reconnect is in progress
      if (!send_all(fd, frame_.data(), frame_.size())) {
        failed_->store(true, std::memory_order_relaxed);
      }
    }
  }

  std::atomic<int>* fd_;
  std::mutex* write_mu_;
  int interval_ms_;
  std::atomic<bool>* failed_;
  std::string frame_;  // pre-encoded: the loop must not allocate
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// Send HELLO, read the reply. 0 = handshaken (and *worker_id holds the
/// coordinator-assigned id), 1 = IO/protocol failure, 2 = version
/// rejected, 3 = auth rejected.
int handshake(int fd, const WorkerOptions& opts, FrameReader* reader,
              std::string* worker_id, int idle_timeout_ms) {
  Hello hello;
  hello.role = "worker";
  hello.name =
      opts.name.empty() ? "pid-" + std::to_string(getpid()) : opts.name;
  hello.token = opts.token;
  hello.id = *worker_id;
  const std::string bytes =
      encode_frame(FrameType::kHello, encode_hello(hello));
  if (!send_all(fd, bytes.data(), bytes.size())) return 1;
  Frame f;
  if (!read_frame(fd, reader, &f, idle_timeout_ms)) return 1;
  if (f.type == FrameType::kBye) {
    const std::string reason = decode_bye(f.payload);
    if (opts.on_log) opts.on_log("rejected: " + reason);
    if (reason.find("version mismatch") != std::string::npos) return 2;
    if (reason.find("auth failed") != std::string::npos) return 3;
    return 1;
  }
  Hello reply;
  if (f.type != FrameType::kHello || !decode_hello(f.payload, &reply)) {
    return 1;
  }
  if (!reply.id.empty()) *worker_id = reply.id;
  return 0;
}

}  // namespace

int run_worker(const WorkerOptions& opts) {
  const int retries = opts.connect_retries < 0 ? 0 : opts.connect_retries;
  const int idle_timeout =
      opts.idle_timeout_ms > 0
          ? opts.idle_timeout_ms
          : std::max(5000, 10 * (opts.heartbeat_ms > 0 ? opts.heartbeat_ms
                                                       : 500));

  // Initial connect, with backoff: a worker started before its coordinator
  // should wait for it, not die.
  int fd = -1;
  for (int attempt = 1;; ++attempt) {
    std::string err;
    fd = dial(opts.connect, &err);
    if (fd >= 0) break;
    if (attempt > retries) {
      if (opts.on_log) opts.on_log(err);
      return 1;
    }
    const int wait = backoff_ms(attempt);
    if (opts.on_log) {
      opts.on_log(err + " (attempt " + std::to_string(attempt) + "/" +
                  std::to_string(retries + 1) + ", retrying in " +
                  std::to_string(wait) + " ms)");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(wait));
  }

  if (opts.flight) opts.flight->record(FlightEvent::kConnect);
  FrameReader reader;
  std::string worker_id;
  {
    const int hs = handshake(fd, opts, &reader, &worker_id, idle_timeout);
    if (hs != 0) {
      close(fd);
      return hs;
    }
  }
  if (opts.flight) opts.flight->record(FlightEvent::kJoin, worker_id);

  // Stage-level profiling: one private registry for this worker process,
  // shipped to the coordinator as cumulative STATS snapshots. Instruments
  // are created here, before any other thread exists; afterwards every
  // update goes through these stable pointers (executor callbacks update
  // under write_mu, the main thread only touches the registry between
  // batches), so the not-thread-safe Registry is never raced.
  obs::Registry reg;
  obs::Histogram* lease_rtt = &reg.histogram("fabric.worker.lease_rtt_us");
  obs::Histogram* execute_us = &reg.histogram("fabric.worker.execute_us");
  obs::Histogram* serialize_us = &reg.histogram("fabric.worker.serialize_us");
  obs::Counter* leases_taken = &reg.counter("fabric.worker.leases");
  obs::Counter* cells_executed = &reg.counter("fabric.worker.cells_executed");
  obs::Counter* reconnects = &reg.counter("fabric.worker.reconnects");
  obs::Counter* results_resent = &reg.counter("fabric.worker.results_resent");
  using SClock = std::chrono::steady_clock;
  const auto us_between = [](SClock::time_point a, SClock::time_point b) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(b - a).count());
  };

  // Two cells per executor slot (at least 2); the coordinator caps a grant
  // at 8. Pipelining, not a bigger grant, hides the lease round trip.
  const int want = std::max(2, 2 * opts.jobs);
  const std::string lease_req =
      encode_frame(FrameType::kLease, encode_lease_request(want));
  std::mutex write_mu;
  std::atomic<int> live_fd{fd};
  /// Encoded RESULT frames the coordinator may not have read yet. A grant
  /// answers the LEASE sent before it, so it acks only the results sent
  /// before that LEASE: the first `acked_by_grant` entries. The rest — the
  /// results of the grant computed while the answer waited — stay, so the
  /// tail is at most two grants' worth. A reconnect re-sends all of them
  /// and the coordinator dedupes.
  std::vector<std::string> unacked;
  std::size_t acked_by_grant = 0;
  bool lease_in_flight = false;  // a LEASE on this link awaits its grant
  std::atomic<bool> hb_failed{false};
  int rc = 1;  // pessimistic: overwritten by a graceful BYE
  {
    Heartbeat heartbeat(&live_fd, &write_mu, opts.heartbeat_ms, &hb_failed);

    /// Ship a cumulative registry snapshot. Main thread only — the encode
    /// allocates, which the (forking) executor and the heartbeat thread
    /// must never do. A failed send is left for the next read to notice
    /// (STATS is a side channel, never worth a reconnect of its own).
    auto stats_sent_at = SClock::now();
    bool stats_dirty = false;  // the registry moved since the last STATS
    auto send_stats = [&] {
      if (!opts.ship_stats) return;
      const std::string bytes =
          encode_frame(FrameType::kStats, encode_stats(reg.snapshot()));
      std::lock_guard<std::mutex> lock(write_mu);
      if (send_all(fd, bytes.data(), bytes.size()) && opts.flight) {
        opts.flight->record(FlightEvent::kStats, worker_id);
      }
      stats_sent_at = SClock::now();
      stats_dirty = false;
    };

    /// Ask for the next grant. Every result sent so far precedes the
    /// request on the stream, so its grant acks them all.
    auto request_lease = [&] {
      std::lock_guard<std::mutex> lock(write_mu);
      acked_by_grant = unacked.size();
      lease_in_flight = true;
      return send_all(fd, lease_req.data(), lease_req.size());
    };

    /// A grant arrived: the coordinator read everything before the LEASE
    /// it answers.
    auto ack_grant = [&] {
      std::lock_guard<std::mutex> lock(write_mu);
      unacked.erase(unacked.begin(),
                    unacked.begin() +
                        static_cast<std::ptrdiff_t>(acked_by_grant));
      acked_by_grant = 0;
      lease_in_flight = false;
    };

    /// Grants read off a dead link: the coordinator sent them before the
    /// link died, so they are finished before the first LEASE on the new
    /// link (which tells the coordinator that anything still held without
    /// a result was lost in flight).
    std::deque<Grant> salvaged;

    /// Drain the dead link + dial + handshake (presenting our stable id) +
    /// re-send unacked. nullopt = back in business (the loop asks for work
    /// once the salvaged grants are done), else the exit code (0 when the
    /// dead link still held the coordinator's BYE).
    auto reconnect = [&]() -> std::optional<int> {
      if (opts.flight) opts.flight->record(FlightEvent::kDetach, worker_id);
      Frame f;
      while (pull_frame(fd, &reader, &f) == Pull::kFrame) {
        if (f.type == FrameType::kBye) {
          if (opts.flight) opts.flight->record(FlightEvent::kBye, worker_id);
          return 0;
        }
        Grant g;
        if (f.type == FrameType::kLease &&
            decode_lease_grant(f.payload, &g.job, &g.slots, &g.epochs,
                               &g.cells)) {
          ack_grant();
          salvaged.push_back(std::move(g));
        }
      }
      {
        std::lock_guard<std::mutex> lock(write_mu);
        live_fd.store(-1, std::memory_order_relaxed);
        if (fd >= 0) close(fd);
        fd = -1;
      }
      for (int attempt = 1; attempt <= retries + 1; ++attempt) {
        const int wait = backoff_ms(attempt);
        if (opts.on_log) {
          opts.on_log("link lost; reconnect attempt " +
                      std::to_string(attempt) + "/" +
                      std::to_string(retries + 1) + " in " +
                      std::to_string(wait) + " ms");
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(wait));
        std::string err;
        const int nfd = dial(opts.connect, &err);
        if (nfd < 0) continue;
        FrameReader fresh;
        std::string id = worker_id;
        const int hs = handshake(nfd, opts, &fresh, &id, idle_timeout);
        if (hs == 2 || hs == 3) {
          close(nfd);
          return hs;  // deliberate rejection: no point retrying
        }
        bool ok = hs == 0;
        for (std::size_t i = 0; ok && i < unacked.size(); ++i) {
          ok = send_all(nfd, unacked[i].data(), unacked[i].size());
        }
        if (!ok) {
          close(nfd);
          continue;
        }
        std::lock_guard<std::mutex> lock(write_mu);
        fd = nfd;
        reader = std::move(fresh);
        worker_id = id;
        lease_in_flight = false;
        acked_by_grant = 0;
        reconnects->inc();
        results_resent->inc(unacked.size());
        stats_dirty = true;
        hb_failed.store(false, std::memory_order_relaxed);
        live_fd.store(fd, std::memory_order_relaxed);
        if (opts.flight) {
          opts.flight->record(FlightEvent::kReattach, worker_id);
        }
        if (opts.on_log) {
          opts.on_log("reconnected as " + worker_id + " (" +
                      std::to_string(unacked.size()) + " result(s) re-sent, " +
                      std::to_string(salvaged.size()) +
                      " grant(s) salvaged)");
        }
        return std::nullopt;
      }
      return 1;
    };

    // When the worker last found no grant queued and began to wait: the
    // lease round trip it could not hide. Unset while grants keep coming.
    std::optional<SClock::time_point> waiting_since;
    for (;;) {
      Grant grant;
      const bool from_salvage = !salvaged.empty();
      if (from_salvage) {
        grant = std::move(salvaged.front());
        salvaged.pop_front();
      } else {
        Frame f;
        bool got = lease_in_flight || request_lease();
        if (got) {
          const Pull pulled = pull_frame(fd, &reader, &f);
          got = pulled == Pull::kFrame;
          if (pulled == Pull::kEmpty) {
            // Idle: no grant queued. Ship the finished work's stats while
            // the coordinator is still listening, then wait.
            if (stats_dirty) send_stats();
            if (!waiting_since) waiting_since = SClock::now();
            ReadFail why = ReadFail::kNone;
            got = read_frame(fd, &reader, &f, idle_timeout, &hb_failed, &why);
            if (opts.flight && why == ReadFail::kIdle) {
              opts.flight->record(FlightEvent::kIdleTimeout, worker_id);
            } else if (opts.flight && why == ReadFail::kHeartbeat) {
              opts.flight->record(FlightEvent::kHeartbeatMiss, worker_id);
            }
          }
        }
        if (!got) {
          if (const auto exit = reconnect()) {
            rc = *exit;
            break;
          }
          continue;
        }
        if (f.type == FrameType::kBye) {
          if (opts.flight) opts.flight->record(FlightEvent::kBye, worker_id);
          rc = 0;
          break;
        }
        if (f.type == FrameType::kHeartbeat) continue;
        if (f.type != FrameType::kLease) {
          if (static_cast<std::uint8_t>(f.type) <= kMaxReservedFrameType) {
            continue;  // a newer coordinator's frame: ignore, keep the link
          }
          break;  // protocol violation
        }
        if (!decode_lease_grant(f.payload, &grant.job, &grant.slots,
                                &grant.epochs, &grant.cells)) {
          break;
        }
        ack_grant();
        if (waiting_since) {
          lease_rtt->observe(us_between(*waiting_since, SClock::now()));
          waiting_since.reset();
        }
      }
      const int job = grant.job;
      const std::vector<int>& slots = grant.slots;
      const std::vector<std::int64_t>& epochs = grant.epochs;
      const std::vector<campaign::RunCell>& cells = grant.cells;
      leases_taken->inc();
      if (opts.flight) {
        opts.flight->record(FlightEvent::kLeaseGrant, worker_id, job,
                            slots.empty() ? -1 : slots.front(),
                            epochs.empty() ? 0 : epochs.front());
      }
      if (opts.on_log) {
        opts.on_log("lease: job " + std::to_string(job) + ", " +
                    std::to_string(cells.size()) + " cell(s)");
      }
      // Pipelining: ask for the next grant before computing this one, so
      // it waits in the socket by the time this one is done. Not for a
      // salvaged grant: the first LEASE on a new link must follow every
      // result of the grants the dead link held.
      std::atomic<bool> link_ok{from_salvage || request_lease()};
      // Busy: a snapshot at most once per heartbeat interval.
      if (link_ok.load(std::memory_order_relaxed) &&
          SClock::now() - stats_sent_at >=
              std::chrono::milliseconds(opts.heartbeat_ms)) {
        send_stats();
      }

      // The executor returns results[i] == cells[i] and r.index keeps the
      // campaign-plan index; map it back to this grant's slot + epoch.
      std::map<int, std::size_t> pos_of_index;
      for (std::size_t i = 0; i < cells.size(); ++i) {
        pos_of_index[cells[i].index] = i;
      }
      // Completion-to-completion execute timing: exact when the executor
      // runs one cell at a time (jobs=1), an arrival-spacing approximation
      // above that. last_done is only touched under write_mu.
      auto last_done = SClock::now();
      campaign::ExecutorOptions eopts;
      eopts.jobs = opts.jobs;
      eopts.isolate = opts.isolate;
      eopts.retries = opts.retries;
      eopts.on_result = [&](const campaign::RunResult& r) {
        const auto it = pos_of_index.find(r.index);
        if (it == pos_of_index.end()) return;
        const std::size_t k = it->second;
        const auto t0 = SClock::now();
        std::string bytes = encode_frame(
            FrameType::kResult, encode_result(job, slots[k], epochs[k], r));
        const auto t1 = SClock::now();
        std::lock_guard<std::mutex> lock(write_mu);
        serialize_us->observe(us_between(t0, t1));
        execute_us->observe(us_between(last_done, t1));
        last_done = t1;
        cells_executed->inc();
        if (opts.flight) {
          opts.flight->record(FlightEvent::kResult, worker_id, job, slots[k],
                              epochs[k]);
        }
        unacked.push_back(std::move(bytes));
        // A failed send is a dropped link, not a reason to stop computing:
        // the batch finishes and re-submits after the reconnect.
        if (link_ok.load(std::memory_order_relaxed) &&
            !send_all(fd, unacked.back().data(), unacked.back().size())) {
          link_ok.store(false, std::memory_order_relaxed);
        }
      };
      campaign::run_cells(cells, eopts);
      stats_dirty = true;

      if (!link_ok.load(std::memory_order_relaxed)) {
        if (const auto exit = reconnect()) {
          rc = *exit;
          break;
        }
      }
    }
  }  // heartbeat joins before the fd closes
  if (fd >= 0) close(fd);
  return rc;
}

bool spawn_local_workers(const WorkerOptions& base, int n, int close_fd,
                         LocalWorkerPool* pool, std::string* err) {
  for (int i = 0; i < n; ++i) {
    const pid_t pid = fork();
    if (pid < 0) {
      *err = std::string("fabric: fork failed: ") + std::strerror(errno);
      return false;
    }
    if (pid == 0) {
      if (close_fd >= 0) close(close_fd);
      WorkerOptions o = base;
      o.name = "local-" + std::to_string(i) + "-" + std::to_string(getpid());
      _exit(run_worker(o));
    }
    pool->pids.push_back(pid);
  }
  return true;
}

int reap_local_workers(LocalWorkerPool* pool, int grace_ms) {
  int killed = 0;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(grace_ms);
  std::vector<pid_t> left = pool->pids;
  pool->pids.clear();
  while (!left.empty()) {
    for (std::size_t i = left.size(); i-- > 0;) {
      int status = 0;
      const pid_t r = waitpid(left[i], &status, WNOHANG);
      if (r == left[i] || (r < 0 && errno == ECHILD)) {
        left.erase(left.begin() + static_cast<std::ptrdiff_t>(i));
      }
    }
    if (left.empty()) break;
    if (std::chrono::steady_clock::now() >= deadline) {
      for (const pid_t pid : left) {
        kill(pid, SIGKILL);
        ++killed;
        while (waitpid(pid, nullptr, 0) < 0 && errno == EINTR) {
        }
      }
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  return killed;
}

}  // namespace pfi::fabric
