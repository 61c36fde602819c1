#include "fabric/coordinator.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <limits>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "campaign/json.hpp"

namespace pfi::fabric {

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kNone = static_cast<std::size_t>(-1);
constexpr int kSlotMin = std::numeric_limits<int>::min();
/// Most cells one LEASE grant carries. `want` is the worker's to choose,
/// so the coordinator bounds it.
constexpr int kMaxGrant = 8;

int ms_since(Clock::time_point then) {
  return static_cast<int>(std::chrono::duration_cast<std::chrono::milliseconds>(
                              Clock::now() - then)
                              .count());
}

}  // namespace

std::string FabricStats::to_json() const {
  campaign::json::Writer w;
  w.begin_object();
  // Keys sorted by name: the object must be byte-stable for a given set of
  // counter values wherever it is embedded.
  w.kv("addr_rejected", addr_rejected);
  w.kv("auth_rejected", auth_rejected);
  w.kv("cells_requeued", cells_requeued);
  w.kv("duplicate_results", duplicate_results);
  w.kv("handshake_timeouts", handshake_timeouts);
  w.kv("leases_granted", leases_granted);
  w.kv("links_dropped", links_dropped);
  w.kv("stale_results", stale_results);
  w.kv("unknown_frames", unknown_frames);
  w.kv("version_rejected", version_rejected);
  w.kv("workers_joined", workers_joined);
  w.kv("workers_lost", workers_lost);
  w.kv("workers_reattached", workers_reattached);
  w.end_object();
  return w.str();
}

Engine::Engine(Listener* listener, Options opts)
    : listener_(listener), opts_(std::move(opts)) {
  if (opts_.reconnect_grace_ms < 0) {
    opts_.reconnect_grace_ms = opts_.dead_after_ms;
  }
  beat_frame_ = encode_frame(FrameType::kHeartbeat, "");
  last_beat_ = Clock::now();
}

Engine::~Engine() { shutdown(""); }

int Engine::add_batch(
    const std::vector<campaign::RunCell>* cells,
    std::function<void(int slot, campaign::RunResult)> on_cell,
    std::function<void()> on_done, int max_workers) {
  const int job = ++job_seq_;
  Batch b;
  b.cells = cells;
  b.filled.assign(cells->size(), 0);
  b.epoch.assign(cells->size(), 0);
  b.enqueued_at.assign(cells->size(), Clock::now());
  b.remaining = cells->size();
  b.max_workers = max_workers;
  b.on_cell = std::move(on_cell);
  b.on_done = std::move(on_done);
  for (std::size_t i = 0; i < cells->size(); ++i) {
    b.queue.push_back(static_cast<int>(i));
  }
  batches_.emplace(job, std::move(b));
  rr_jobs_.push_back(job);
  return job;
}

void Engine::cancel_queued(int job) {
  auto it = batches_.find(job);
  if (it == batches_.end()) return;
  Batch& b = it->second;
  for (const int slot : b.queue) {
    const auto s = static_cast<std::size_t>(slot);
    if (b.filled[s] == 0) {
      b.filled[s] = 1;
      --b.remaining;
    }
  }
  b.queue.clear();
}

int Engine::worker_count() const {
  int n = 0;
  for (const Conn& c : conns_) {
    if (c.role == Conn::Role::kWorker) ++n;
  }
  return n;
}

std::size_t Engine::find_conn(int fd) const {
  for (std::size_t i = 0; i < conns_.size(); ++i) {
    if (conns_[i].fd == fd) return i;
  }
  return kNone;
}

void Engine::accept_pending() {
  std::string peer;
  const int fd = listener_->accept_one(&peer);
  if (fd < 0) return;
  if (!opts_.allow.empty() && peer != "unix" &&
      std::find(opts_.allow.begin(), opts_.allow.end(), peer) ==
          opts_.allow.end()) {
    ++stats.addr_rejected;
    if (opts_.flight) opts_.flight->record(FlightEvent::kAddrReject);
    if (opts_.on_log) opts_.on_log("peer refused by allowlist: " + peer);
    close(fd);
    return;
  }
  if (opts_.flight) opts_.flight->record(FlightEvent::kConnect);
  Conn c;
  c.fd = fd;
  c.last_seen = Clock::now();
  c.accepted_at = c.last_seen;
  // Until HELLO succeeds this peer is nobody: it gets a few KB per frame,
  // not the 64 MB a worker's RESULT may legitimately claim.
  c.reader.set_max_payload(kMaxHelloPayload);
  conns_.push_back(std::move(c));
}

void Engine::requeue_outstanding(const std::string& id, WorkerState* w) {
  // Front of the queue: a lost lease should complete before untouched work
  // so the campaign's tail latency doesn't double on every worker death.
  // Reverse iteration keeps the requeued slots in slot order at the front.
  for (auto ot = w->outstanding.rbegin(); ot != w->outstanding.rend(); ++ot) {
    const int job = ot->first.first;
    const int slot = ot->first.second;
    auto bt = batches_.find(job);
    if (bt == batches_.end()) continue;
    Batch& b = bt->second;
    if (b.filled[static_cast<std::size_t>(slot)] != 0) {
      continue;  // raced: the result arrived before the verdict
    }
    b.queue.push_front(slot);
    b.enqueued_at[static_cast<std::size_t>(slot)] = Clock::now();
    ++stats.cells_requeued;
    if (opts_.flight) {
      opts_.flight->record(FlightEvent::kRequeue, id, job, slot, ot->second);
    }
  }
  w->outstanding.clear();
}

void Engine::forget_worker(const std::string& id) {
  auto it = workers_.find(id);
  if (it == workers_.end()) return;
  requeue_outstanding(id, &it->second);
  ++stats.workers_lost;
  workers_.erase(it);
}

void Engine::drop_conn(std::size_t i, bool may_reattach) {
  Conn& c = conns_[i];
  const bool was_client = c.role == Conn::Role::kClient;
  const int fd = c.fd;
  if (c.role == Conn::Role::kWorker && !c.worker_id.empty()) {
    auto it = workers_.find(c.worker_id);
    if (it != workers_.end() && it->second.fd == fd) {
      if (may_reattach) {
        // Detach, don't forget: the worker keeps computing and may
        // reconnect within the grace window with its results in hand.
        ++stats.links_dropped;
        if (opts_.flight) {
          opts_.flight->record(FlightEvent::kDetach, c.worker_id);
        }
        it->second.fd = -1;
        it->second.detached_at = Clock::now();
        if (opts_.on_log) {
          opts_.on_log("link lost: " + c.worker_id + " (reconnect grace " +
                       std::to_string(opts_.reconnect_grace_ms) + " ms)");
        }
      } else {
        forget_worker(c.worker_id);
      }
    }
  }
  close(fd);
  conns_.erase(conns_.begin() + static_cast<std::ptrdiff_t>(i));
  if (was_client && opts_.on_client_closed) opts_.on_client_closed(fd);
}

bool Engine::handle_hello(std::size_t i, const Hello& h) {
  Conn& c = conns_[i];
  const auto bye = [&](const std::string& reason) {
    const std::string out = encode_frame(FrameType::kBye, encode_bye(reason));
    send_all(c.fd, out.data(), out.size());
  };
  if (h.version != kProtocolVersion) {
    ++stats.version_rejected;
    if (opts_.flight) opts_.flight->record(FlightEvent::kVersionReject);
    bye("version mismatch: peer v" + std::to_string(h.version) +
        ", expected v" + std::to_string(kProtocolVersion));
    return false;
  }
  if (!opts_.token.empty() && !tokens_equal(h.token, opts_.token)) {
    ++stats.auth_rejected;
    if (opts_.flight) opts_.flight->record(FlightEvent::kAuthReject);
    if (opts_.on_log) {
      opts_.on_log("auth failed: " + (h.name.empty() ? "?" : h.name));
    }
    bye("auth failed");
    return false;
  }
  if (h.role == "worker") {
    std::string id = h.id;
    auto it = id.empty() ? workers_.end() : workers_.find(id);
    if (it != workers_.end()) {
      if (it->second.fd >= 0) {
        bye("worker id already connected: " + id);
        return false;
      }
      it->second.fd = c.fd;
      it->second.resumed = true;
      ++it->second.reattaches;
      ++stats.workers_reattached;
      if (opts_.flight) opts_.flight->record(FlightEvent::kReattach, id);
      if (opts_.on_log) opts_.on_log("worker reattached: " + id);
    } else {
      // Fresh worker — or one reconnecting after its grace expired, whose
      // id we no longer know; either way it joins clean and any re-sent
      // results it carries simply dedupe.
      if (id.empty()) {
        do {
          id = "w" + std::to_string(++worker_seq_);
        } while (workers_.count(id) != 0);
      }
      WorkerState w;
      w.name = h.name;
      w.fd = c.fd;
      workers_.emplace(id, std::move(w));
      ++stats.workers_joined;
      if (opts_.flight) opts_.flight->record(FlightEvent::kJoin, id);
      if (opts_.on_log) {
        opts_.on_log("worker joined: " + id +
                     (h.name.empty() ? "" : " (" + h.name + ")"));
      }
    }
    c.role = Conn::Role::kWorker;
    c.name = h.name;
    c.worker_id = id;
  } else if (h.role == "client" && opts_.accept_clients) {
    c.role = Conn::Role::kClient;
    c.name = h.name;
  } else {
    bye("role not accepted here: " + h.role);
    return false;
  }
  // Handshaken: lift the pre-auth frame cap to the real protocol limit.
  c.reader.set_max_payload(kMaxFramePayload);
  Hello reply;
  reply.role = "coordinator";
  reply.id = c.worker_id;
  const std::string out = encode_frame(FrameType::kHello, encode_hello(reply));
  return send_all(c.fd, out.data(), out.size());
}

bool Engine::handle_frame(std::size_t i, const Frame& f) {
  Conn& c = conns_[i];
  if (c.role == Conn::Role::kUnknown) {
    Hello h;
    if (f.type != FrameType::kHello || !decode_hello(f.payload, &h)) {
      return false;  // protocol violation: drop
    }
    return handle_hello(i, h);
  }

  if (c.role == Conn::Role::kClient) {
    if (f.type == FrameType::kBye) return false;
    if (opts_.on_client_frame) opts_.on_client_frame(c.fd, f);
    return true;
  }

  // Worker frames.
  switch (f.type) {
    case FrameType::kLease: {
      int want = 0;
      if (!decode_lease_request(f.payload, &want)) return false;
      auto wt = workers_.find(c.worker_id);
      if (wt != workers_.end() && wt->second.resumed) {
        // The first LEASE after a reattach follows every result the worker
        // re-sent or computed from grants it salvaged off the dead link, so
        // a slot it still holds without a result was lost in flight with
        // that link: nobody will ever answer it unless it goes back.
        wt->second.resumed = false;
        requeue_outstanding(c.worker_id, &wt->second);
      }
      c.pending_want = want;
      if (opts_.flight) {
        opts_.flight->record(FlightEvent::kLeaseRequest, c.worker_id);
      }
      return true;
    }
    case FrameType::kResult: {
      int job = 0;
      int slot = -1;
      std::int64_t epoch = 0;
      campaign::RunResult r;
      if (!decode_result(f.payload, &job, &slot, &epoch, &r)) return false;
      if (opts_.flight) {
        opts_.flight->record(FlightEvent::kResult, c.worker_id, job, slot,
                             epoch);
      }
      auto bt = batches_.find(job);
      const auto s = static_cast<std::size_t>(slot);
      const bool known = bt != batches_.end() && slot >= 0 &&
                         s < bt->second.filled.size();
      if (known && r.index != (*bt->second.cells)[s].index) {
        // A record for another cell than the one this slot leased would
        // overwrite that cell's record downstream. Drop the link like a
        // malformed frame; the worker's leases, this one included, requeue.
        return false;
      }
      auto wt = workers_.find(c.worker_id);
      if (wt != workers_.end()) wt->second.outstanding.erase({job, slot});
      if (!known || bt->second.filled[s] != 0) {
        ++stats.duplicate_results;  // raced, re-sent, or stale: first won
        return true;
      }
      Batch& b = bt->second;
      if (b.epoch[s] != epoch) {
        // A superseded grant's result — still byte-identical (records are
        // pure functions of the cell), so accept it and just count.
        ++stats.stale_results;
      }
      b.filled[s] = 1;
      --b.remaining;
      if (opts_.on_result_worker) opts_.on_result_worker(c.worker_id);
      if (b.on_cell) b.on_cell(slot, std::move(r));
      return true;
    }
    case FrameType::kStats: {
      // Cumulative snapshot: replace, never add. A malformed one is
      // ignored like an unknown frame — metrics are a side channel and
      // must never cost a link.
      std::vector<obs::MetricSample> samples;
      if (!decode_stats(f.payload, &samples)) {
        ++stats.unknown_frames;
        return true;
      }
      worker_stats_[c.worker_id] = std::move(samples);
      ++stats_frames_;
      if (opts_.flight) {
        opts_.flight->record(FlightEvent::kStats, c.worker_id);
      }
      return true;
    }
    case FrameType::kHeartbeat:
      return true;  // last_seen already refreshed by the read itself
    case FrameType::kBye:
      if (opts_.flight) opts_.flight->record(FlightEvent::kBye, c.worker_id);
      return false;  // graceful leave: forget, outstanding requeues now
    default:
      // Well-framed but not ours to handle (a newer peer's frame in the
      // reserved window): count and carry on. The link stays up.
      ++stats.unknown_frames;
      return true;
  }
}

void Engine::service_conn(int fd) {
  std::size_t i = find_conn(fd);
  if (i == kNone) return;
  char buf[65536];
  const ssize_t n = recv(fd, buf, sizeof buf, 0);
  if (n < 0) {
    if (errno != EINTR && errno != EAGAIN) drop_conn(i, /*may_reattach=*/true);
    return;
  }
  if (n == 0) {  // EOF: the link is gone (the worker may reconnect)
    drop_conn(i, /*may_reattach=*/true);
    return;
  }
  conns_[i].last_seen = Clock::now();
  conns_[i].reader.feed(buf, static_cast<std::size_t>(n));
  // Frame handlers (and the daemon callbacks they invoke) may drop other
  // connections, shifting indices — re-locate by fd every iteration.
  Frame f;
  for (;;) {
    i = find_conn(fd);
    if (i == kNone) return;  // dropped by a handler side effect
    if (!conns_[i].reader.next(&f)) {
      if (conns_[i].reader.corrupt()) drop_conn(i, /*may_reattach=*/true);
      return;
    }
    if (!handle_frame(i, f)) {
      i = find_conn(fd);
      // A BYE (or any in-protocol rejection) is deliberate: forget the
      // worker now so its leases requeue immediately instead of riding
      // out the reconnect grace.
      if (i != kNone) drop_conn(i, /*may_reattach=*/false);
      return;
    }
  }
}

void Engine::reap_dead() {
  for (std::size_t i = conns_.size(); i-- > 0;) {
    Conn& c = conns_[i];
    if (c.role == Conn::Role::kUnknown) {
      // The deadline anchors at accept, not last_seen: a hostile peer
      // trickling one byte a second must not hold an fd (and a frame
      // buffer) forever. Authenticated clients are exempt — they idle
      // legitimately while their jobs run.
      if (opts_.handshake_timeout_ms > 0 &&
          ms_since(c.accepted_at) > opts_.handshake_timeout_ms) {
        ++stats.handshake_timeouts;
        if (opts_.flight) {
          opts_.flight->record(FlightEvent::kHandshakeTimeout);
        }
        if (opts_.on_log) {
          opts_.on_log("handshake timeout, dropping pre-auth connection");
        }
        drop_conn(i, /*may_reattach=*/false);
      }
      continue;
    }
    if (c.role != Conn::Role::kWorker) continue;
    if (ms_since(c.last_seen) > opts_.dead_after_ms) {
      if (opts_.flight) {
        opts_.flight->record(FlightEvent::kHeartbeatMiss, c.worker_id);
      }
      if (opts_.on_log) {
        opts_.on_log("worker silent " + std::to_string(opts_.dead_after_ms) +
                     " ms, dropping link: " +
                     (c.worker_id.empty() ? "?" : c.worker_id));
      }
      drop_conn(i, /*may_reattach=*/true);
    }
  }
  std::vector<std::string> expired;
  for (const auto& [id, w] : workers_) {
    if (w.fd < 0 && ms_since(w.detached_at) > opts_.reconnect_grace_ms) {
      expired.push_back(id);
    }
  }
  for (const std::string& id : expired) {
    if (opts_.on_log) {
      opts_.on_log("reconnect grace expired, requeueing leases: " + id);
    }
    forget_worker(id);
  }
}

void Engine::beat_workers() {
  for (std::size_t i = conns_.size(); i-- > 0;) {
    Conn& c = conns_[i];
    if (c.role != Conn::Role::kWorker) continue;
    // Nonblocking: a worker deep in a long batch isn't reading, and its
    // full socket buffer must not stall the whole event loop. A skipped
    // beat is fine — the bytes already in flight keep the worker's idle
    // detector quiet.
    const ssize_t w = send(c.fd, beat_frame_.data(), beat_frame_.size(),
                           MSG_NOSIGNAL | MSG_DONTWAIT);
    if (w < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) continue;
      drop_conn(i, /*may_reattach=*/true);
    } else if (w > 0 && static_cast<std::size_t>(w) < beat_frame_.size()) {
      // A torn frame would desync the stream; finish it (the tail is a
      // handful of bytes, and the buffer just proved it has some room).
      if (!send_all(c.fd, beat_frame_.data() + w, beat_frame_.size() -
                                                      static_cast<std::size_t>(w))) {
        drop_conn(i, /*may_reattach=*/true);
      }
    }
  }
}

int Engine::lease_holders(int job) const {
  int n = 0;
  for (const auto& [id, w] : workers_) {
    const auto it = w.outstanding.lower_bound({job, kSlotMin});
    if (it != w.outstanding.end() && it->first.first == job) ++n;
  }
  return n;
}

int Engine::pick_job_for(const std::string& worker_id, int want) {
  if (rr_jobs_.empty()) return -1;
  const auto wt = workers_.find(worker_id);
  const bool busy = wt != workers_.end() && !wt->second.outstanding.empty();
  const auto holds = [&](int job) {
    if (wt == workers_.end()) return false;
    const auto it = wt->second.outstanding.lower_bound({job, kSlotMin});
    return it != wt->second.outstanding.end() && it->first.first == job;
  };
  const std::size_t others =
      static_cast<std::size_t>(std::max(0, worker_count() - 1));
  for (std::size_t k = 0; k < rr_jobs_.size(); ++k) {
    const std::size_t at = (rr_pos_ + k) % rr_jobs_.size();
    const int job = rr_jobs_[at];
    const auto bt = batches_.find(job);
    if (bt == batches_.end() || bt->second.queue.empty()) continue;
    const Batch& b = bt->second;
    // The quota counts distinct workers holding this job's leases; a
    // worker already on the job can always take more of it.
    if (b.max_workers > 0 && !holds(job) &&
        lease_holders(job) >= b.max_workers) {
      continue;
    }
    // The tail rule: a worker still holding cells asks ahead (pipelining)
    // and gets a grant only while the queue keeps one as large for every
    // other connected worker, so a job's last cells never wait behind one
    // worker's prefetch while another worker sits idle.
    const std::size_t take = std::min(
        static_cast<std::size_t>(std::min(want, kMaxGrant)), b.queue.size());
    if (busy && b.queue.size() < take * (others + 1)) continue;
    rr_pos_ = (at + 1) % rr_jobs_.size();
    return job;
  }
  return -1;
}

void Engine::grant_leases() {
  if (batches_.empty()) return;
  obs::Histogram* queue_wait =
      opts_.obs != nullptr
          ? &opts_.obs->histogram("fabric.coord.queue_wait_us")
          : nullptr;
  for (std::size_t i = conns_.size(); i-- > 0;) {
    Conn& c = conns_[i];
    if (c.role != Conn::Role::kWorker || c.pending_want <= 0) continue;
    // One job per grant: a worker's slot bookkeeping is per-grant, and
    // cells of different jobs may reuse campaign-plan indices.
    const int job = pick_job_for(c.worker_id, c.pending_want);
    if (job < 0) continue;
    Batch& b = batches_[job];
    const int take = std::min<int>(
        {c.pending_want, kMaxGrant, static_cast<int>(b.queue.size())});
    std::vector<int> slots;
    std::vector<std::int64_t> epochs;
    std::vector<campaign::RunCell> cells;
    slots.reserve(static_cast<std::size_t>(take));
    epochs.reserve(static_cast<std::size_t>(take));
    cells.reserve(static_cast<std::size_t>(take));
    const auto now = Clock::now();
    for (int k = 0; k < take; ++k) {
      const int slot = b.queue.front();
      b.queue.pop_front();
      const std::int64_t e = ++epoch_seq_;
      b.epoch[static_cast<std::size_t>(slot)] = e;
      if (queue_wait != nullptr) {
        queue_wait->observe(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                now - b.enqueued_at[static_cast<std::size_t>(slot)])
                .count()));
      }
      slots.push_back(slot);
      epochs.push_back(e);
      cells.push_back((*b.cells)[static_cast<std::size_t>(slot)]);
    }
    const std::string out = encode_frame(
        FrameType::kLease, encode_lease_grant(job, slots, epochs, cells));
    if (!send_all(c.fd, out.data(), out.size())) {
      // Write failed: the link is gone; the would-be lease goes back.
      for (auto it = slots.rbegin(); it != slots.rend(); ++it) {
        b.queue.push_front(*it);
        b.enqueued_at[static_cast<std::size_t>(*it)] = now;
      }
      drop_conn(i, /*may_reattach=*/true);
      continue;
    }
    auto wt = workers_.find(c.worker_id);
    if (wt != workers_.end()) {
      for (std::size_t k = 0; k < slots.size(); ++k) {
        wt->second.outstanding[{job, slots[k]}] = epochs[k];
      }
      ++wt->second.leases;
    }
    c.pending_want = 0;
    ++stats.leases_granted;
    if (opts_.flight && !slots.empty()) {
      opts_.flight->record(FlightEvent::kLeaseGrant, c.worker_id, job,
                           slots.front(), epochs.front());
    }
  }
}

void Engine::step(int timeout_ms) {
  std::vector<struct pollfd> pfds;
  pfds.reserve(conns_.size() + 1);
  pfds.push_back({listener_->fd(), POLLIN, 0});
  for (const Conn& c : conns_) pfds.push_back({c.fd, POLLIN, 0});

  const int pr =
      poll(pfds.data(), static_cast<nfds_t>(pfds.size()), timeout_ms);
  if (pr > 0) {
    if ((pfds[0].revents & POLLIN) != 0) accept_pending();
    for (std::size_t k = 1; k < pfds.size(); ++k) {
      if ((pfds[k].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        service_conn(pfds[k].fd);
      }
    }
  }
  reap_dead();
  grant_leases();
  if (opts_.heartbeat_ms > 0 && ms_since(last_beat_) >= opts_.heartbeat_ms) {
    last_beat_ = Clock::now();
    beat_workers();
  }
  // Completion: collect finished jobs first — an on_done may add batches.
  std::vector<std::pair<int, std::function<void()>>> done;
  for (auto it = batches_.begin(); it != batches_.end();) {
    if (it->second.remaining == 0) {
      done.emplace_back(it->first, std::move(it->second.on_done));
      it = batches_.erase(it);
    } else {
      ++it;
    }
  }
  for (auto& [job, cb] : done) {
    rr_jobs_.erase(std::remove(rr_jobs_.begin(), rr_jobs_.end(), job),
                   rr_jobs_.end());
    if (rr_pos_ >= rr_jobs_.size()) rr_pos_ = 0;
    for (auto& [id, w] : workers_) {
      const auto lo = w.outstanding.lower_bound({job, kSlotMin});
      const auto hi = w.outstanding.lower_bound({job + 1, kSlotMin});
      w.outstanding.erase(lo, hi);
    }
    if (cb) cb();
  }
}

void Engine::shutdown(const std::string& reason) {
  const std::string bye = encode_frame(FrameType::kBye, encode_bye(reason));
  for (Conn& c : conns_) {
    send_all(c.fd, bye.data(), bye.size());
    close(c.fd);
  }
  conns_.clear();
  workers_.clear();
  batches_.clear();
  rr_jobs_.clear();
  rr_pos_ = 0;
}

bool Engine::sever_worker_link() {
  for (std::size_t i = 0; i < conns_.size(); ++i) {
    if (conns_[i].role != Conn::Role::kWorker) continue;
    // Only a worker holding leases has work in flight to resume; severing
    // an idle one may let the job finish before it even reconnects.
    const auto wt = workers_.find(conns_[i].worker_id);
    if (wt == workers_.end() || wt->second.outstanding.empty()) continue;
    if (opts_.on_log) {
      opts_.on_log("chaos: severing link of " + conns_[i].worker_id);
    }
    drop_conn(i, /*may_reattach=*/true);
    return true;
  }
  return false;
}

std::vector<WorkerSnapshot> Engine::worker_snapshots() const {
  std::vector<WorkerSnapshot> out;
  out.reserve(workers_.size());
  for (const auto& [id, w] : workers_) {  // map: already sorted by id
    WorkerSnapshot s;
    s.id = id;
    s.name = w.name;
    s.connected = w.fd >= 0;
    s.outstanding = static_cast<int>(w.outstanding.size());
    s.leases = w.leases;
    s.reattaches = w.reattaches;
    if (s.connected) {
      const std::size_t i = find_conn(w.fd);
      s.last_seen_ms = i == kNone ? 0 : ms_since(conns_[i].last_seen);
    } else {
      s.last_seen_ms = ms_since(w.detached_at);
    }
    out.push_back(std::move(s));
  }
  return out;
}

bool Engine::send_to_client(int fd, const std::string& frame_bytes) {
  const std::size_t i = find_conn(fd);
  if (i == kNone || conns_[i].role != Conn::Role::kClient) return false;
  if (send_all(fd, frame_bytes.data(), frame_bytes.size())) return true;
  drop_conn(i, /*may_reattach=*/false);
  return false;
}

std::vector<campaign::RunResult> run_fabric(
    Listener* listener, const std::vector<campaign::RunCell>& cells,
    const FabricOptions& opts, FabricStats* stats) {
  std::vector<campaign::RunResult> results(cells.size());
  Engine::Options eopts;
  static_cast<FleetOptions&>(eopts) = opts;
  Engine eng(listener, std::move(eopts));

  bool done = cells.empty();
  std::size_t results_seen = 0;
  std::size_t last_flap = 0;
  if (!done) {
    eng.add_batch(
        &cells,
        [&](int slot, campaign::RunResult r) {
          const auto s = static_cast<std::size_t>(slot);
          results[s] = std::move(r);
          ++results_seen;
          if (opts.on_result) opts.on_result(results[s]);
          // Chaos: sever as the result is accepted, while other leases are
          // surely held — after the step that accepted it, every remaining
          // result may already be in, with no holder left to sever.
          if (opts.flap_every > 0 &&
              results_seen - last_flap >=
                  static_cast<std::size_t>(opts.flap_every) &&
              eng.sever_worker_link()) {
            last_flap = results_seen;
          }
        },
        [&] { done = true; });
  }

  auto worker_seen = Clock::now();
  bool interrupted = false;
  while (!done) {
    if (opts.should_stop && opts.should_stop()) {
      interrupted = true;
      break;
    }
    eng.step(200);
    if (eng.worker_count() > 0) {
      worker_seen = Clock::now();
    } else if (opts.no_worker_timeout_ms > 0 &&
               ms_since(worker_seen) > opts.no_worker_timeout_ms) {
      if (opts.on_log) {
        opts.on_log("no workers for " +
                    std::to_string(opts.no_worker_timeout_ms) +
                    " ms; abandoning the remaining cells");
      }
      interrupted = true;
      break;
    }
  }
  if (!interrupted && opts.worker_stats_out != nullptr) {
    // Each worker ships a STATS as it goes idle after its final grant;
    // those frames may still be in flight when the last result lands. Drain
    // until the fleet goes quiet (two steps with no new STATS), bounded —
    // best-effort freshness for a side channel, so a capped wait is the
    // right trade.
    int quiet = 0;
    std::uint64_t seen = eng.stats_frames();
    for (int i = 0; i < 10 && quiet < 2; ++i) {
      eng.step(20);
      quiet = eng.stats_frames() == seen ? quiet + 1 : 0;
      seen = eng.stats_frames();
    }
  }
  if (opts.worker_stats_out != nullptr) {
    *opts.worker_stats_out = eng.worker_stats();
  }
  eng.shutdown(interrupted ? "coordinator interrupted" : "campaign complete");
  if (stats != nullptr) *stats = eng.stats;
  return results;
}

}  // namespace pfi::fabric
