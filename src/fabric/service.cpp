#include "fabric/service.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "campaign/executor.hpp"
#include "campaign/journal.hpp"
#include "campaign/json.hpp"
#include "campaign/report.hpp"
#include "campaign/runner.hpp"
#include "campaign/spec.hpp"
#include "fabric/wire.hpp"
#include "obs/metrics.hpp"
#include "search/search.hpp"

namespace pfi::fabric {

namespace {

/// Handoff between a job thread (which wants batches executed) and the
/// daemon's event loop (which owns the Engine). The job thread blocks in
/// run(); the event loop picks the batch up, dispatches it through the
/// Engine, and posts the slot-ordered results back.
struct Bridge {
  std::mutex mu;
  std::condition_variable cv;
  const std::vector<campaign::RunCell>* batch = nullptr;  // posted, not taken
  /// Parallel content keys (campaign jobs only): lets the event loop
  /// stream each finished record to the client as a journal chunk.
  const std::vector<std::string>* batch_keys = nullptr;
  bool batch_done = false;
  std::vector<campaign::RunResult> batch_results;
  std::vector<std::string> progress;  // job thread -> client, JSON lines
  bool stop = false;                  // daemon shutting down: drain

  std::vector<campaign::RunResult> run(
      const std::vector<campaign::RunCell>& cells,
      const std::vector<std::string>* keys = nullptr) {
    std::unique_lock<std::mutex> lock(mu);
    if (stop || cells.empty()) {
      // Executor contract for "nothing ran": default results, index == -1.
      return std::vector<campaign::RunResult>(cells.size());
    }
    batch = &cells;
    batch_keys = keys;
    batch_done = false;
    cv.wait(lock, [&] { return batch_done; });
    batch = nullptr;
    batch_keys = nullptr;
    return std::move(batch_results);
  }

  void push_progress(const std::string& json) {
    std::lock_guard<std::mutex> lock(mu);
    progress.push_back(json);
  }
};

struct Job {
  std::string id;
  int client_fd = -1;  // -1 once the client went away
  Submit submit;
  campaign::CampaignSpec spec;

  Bridge bridge;
  std::thread thread;
  // Written by the job thread, read by the event loop strictly after
  // `finished` turns true under the bridge mutex.
  std::vector<std::pair<std::string, std::string>> artifacts;
  std::string done_json;
  bool finished = false;
  /// Campaign jobs only: the assembled report, handed to the event loop so
  /// finish_job can write the metrics artifact *with* the engine's fleet
  /// sections (the job thread has no engine).
  std::optional<campaign::CampaignReport> report;

  // Event-loop-side dispatch state for the batch in flight.
  bool dispatching = false;
  int engine_job = -1;  // Engine batch id while dispatching
  const std::vector<std::string>* keys = nullptr;  // journal chunk keys
  std::vector<campaign::RunResult> staged;
  int done_cells = 0, total_cells = 0;
  int pass = 0, fail = 0, error = 0;
};

std::string progress_json(const Job& job, const campaign::RunResult& r) {
  campaign::json::Writer w;
  w.begin_object();
  w.kv("job", job.id);
  w.kv("id", r.id);
  w.kv("verdict", r.errored() ? "error" : (r.pass ? "pass" : "fail"));
  w.kv("done", job.done_cells);
  w.kv("total", job.total_cells);
  w.kv("pass", job.pass);
  w.kv("fail", job.fail);
  w.kv("error", job.error);
  w.end_object();
  return w.str();
}

std::string done_error_json(const std::string& job_id,
                            const std::string& message) {
  campaign::json::Writer w;
  w.begin_object();
  w.kv("job", job_id);
  w.kv("status", "error");
  w.kv("error", message);
  w.end_object();
  return w.str();
}

/// The campaign job body (runs on the job thread). One bridge.run() call
/// executes the whole plan over the fabric; the report is assembled by the
/// same CampaignReport pfi_campaign uses, minus the host fields. Cells
/// whose content key appears in Submit.have are the client's resume set:
/// they are never executed, never re-transferred, and counted as
/// "resumed".
void run_campaign_job(Job* job) {
  const auto cells =
      campaign::filter_cells(campaign::plan(job->spec), job->submit.filter);
  const std::set<std::string> have(job->submit.have.begin(),
                                   job->submit.have.end());
  campaign::CampaignReport report(cells.size());
  std::vector<std::string> keys;  // of the cells to run, in run order
  for (std::size_t i = 0; i < cells.size(); ++i) {
    std::string key = campaign::cell_key(cells[i]);
    if (have.count(key) != 0) {
      report.resume(i);
    } else {
      keys.push_back(std::move(key));
    }
  }
  const std::vector<campaign::RunCell> todo = report.pending(cells);
  const auto results = job->bridge.run(todo, &keys);
  report.splice(results);

  std::map<std::string, std::string> journal;
  for (std::size_t k = 0; k < results.size(); ++k) {
    if (results[k].index >= 0) {
      journal[keys[k]] = campaign::record_json(results[k]);
    }
  }
  const campaign::ReportSummary sum = report.summary();

  campaign::json::Writer dw;
  dw.begin_object();
  dw.kv("job", job->id);
  dw.kv("status", sum.interrupted ? "interrupted" : "ok");
  dw.kv("cells", static_cast<int>(cells.size()));
  dw.kv("pass", sum.pass);
  dw.kv("fail", sum.fail);
  dw.kv("error", sum.error);
  if (sum.skipped > 0) dw.kv("skipped", sum.skipped);
  if (sum.resumed > 0) dw.kv("resumed", sum.resumed);
  dw.end_object();

  std::lock_guard<std::mutex> lock(job->bridge.mu);
  job->artifacts.emplace_back("report", report.report_json(job->spec));
  job->artifacts.emplace_back("journal", campaign::journal_jsonl(journal));
  // The metrics artifact is assembled by the event loop (finish_job): its
  // fleet sections come from the Engine, which this thread must not touch.
  job->report = std::move(report);
  job->done_json = dw.str();
  job->finished = true;
}

/// The search job body: search::explore with its batch execution rerouted
/// over the fabric. Minimizer probes stay in-process inside the daemon (see
/// SearchOptions::run_batch) — they are sequential single cells.
void run_search_job(Job* job) {
  pfi::search::SearchOptions sopts;
  sopts.budget = job->submit.explore;
  if (job->submit.retries >= 0) sopts.retries = job->submit.retries;
  sopts.run_batch = [job](const std::vector<campaign::RunCell>& cells,
                          const campaign::ExecutorOptions&) {
    return job->bridge.run(cells);
  };
  sopts.should_stop = [job] {
    std::lock_guard<std::mutex> lock(job->bridge.mu);
    return job->bridge.stop;
  };
  sopts.on_progress = [job](const std::string& line) {
    campaign::json::Writer w;
    w.begin_object();
    w.kv("job", job->id);
    w.kv("note", line);
    w.end_object();
    job->bridge.push_progress(w.str());
  };

  const pfi::search::SearchResult res =
      pfi::search::explore(job->spec, sopts);

  campaign::json::Writer dw;
  dw.begin_object();
  dw.kv("job", job->id);
  if (!res.error.empty()) {
    dw.kv("status", "error");
    dw.kv("error", res.error);
  } else {
    dw.kv("status", res.interrupted ? "interrupted" : "ok");
  }
  dw.kv("executed", res.executed);
  dw.kv("digests", static_cast<int>(res.corpus.size()));
  dw.kv("violations", static_cast<int>(res.violations.size()));
  dw.end_object();

  std::lock_guard<std::mutex> lock(job->bridge.mu);
  job->artifacts.emplace_back(
      "report", pfi::search::report_json(job->spec, sopts, res) + "\n");
  job->artifacts.emplace_back("corpus", res.corpus.to_jsonl());
  job->done_json = dw.str();
  job->finished = true;
}

class Service {
 public:
  Service(Listener* listener, const ServiceOptions& opts, ServiceStats* stats)
      : opts_(opts), stats_(stats) {
    if (stats_ == nullptr) stats_ = &own_stats_;  // STATUS reads these
    if (opts_.max_active < 1) opts_.max_active = 1;
    Engine::Options eopts;
    static_cast<FleetOptions&>(eopts) = opts;
    eopts.accept_clients = true;
    eopts.on_client_frame = [this](int fd, const Frame& f) {
      on_client_frame(fd, f);
    };
    eopts.on_client_closed = [this](int fd) { on_client_closed(fd); };
    engine_ = std::make_unique<Engine>(listener, std::move(eopts));
  }

  int run() {
    while (!(opts_.should_stop && opts_.should_stop())) {
      engine_->step(200);
      pump();
    }
    drain_all("daemon shutting down");
    engine_->shutdown("daemon shutting down");
    if (stats_ != nullptr) stats_->fabric = engine_->stats;
    return 0;
  }

 private:
  void log(const std::string& msg) {
    if (opts_.on_log) opts_.on_log(msg);
  }

  void send_json(int fd, FrameType type, const std::string& json) {
    if (fd < 0) return;
    engine_->send_to_client(fd, encode_json_line(type, json));
  }

  /// STATUS reply: one JSON document with a fixed key set in a fixed
  /// order, so consumers can parse it without schema negotiation. The
  /// wall-clock field (workers[].last_seen_ms) is inherent to the question
  /// being asked; everything else is counters and queue state.
  [[nodiscard]] std::string status_json() const {
    campaign::json::Writer w;
    w.begin_object();
    w.key("daemon").begin_object();
    w.kv("active", static_cast<int>(active_.size()));
    w.kv("queued", static_cast<int>(queue_.size()));
    w.kv("max_active", opts_.max_active);
    w.kv("jobs_accepted", stats_->jobs_accepted);
    w.kv("jobs_completed", stats_->jobs_completed);
    w.kv("jobs_rejected", stats_->jobs_rejected);
    w.end_object();
    w.key("jobs").begin_array();
    const auto job_obj = [&w](const Job& job, const char* phase) {
      w.begin_object();
      w.kv("job", job.id);
      w.kv("spec", job.spec.name);
      w.kv("kind", job.submit.explore > 0 ? "search" : "campaign");
      w.kv("phase", phase);
      w.kv("done", job.done_cells);
      w.kv("total", job.total_cells);
      w.kv("pass", job.pass);
      w.kv("fail", job.fail);
      w.kv("error", job.error);
      w.end_object();
    };
    for (const auto& jp : active_) job_obj(*jp, "running");
    for (const auto& jp : queue_) job_obj(*jp, "queued");
    w.end_array();
    w.key("workers").begin_array();
    for (const WorkerSnapshot& s : engine_->worker_snapshots()) {
      w.begin_object();
      w.kv("id", s.id);
      w.kv("name", s.name);
      w.kv("connected", s.connected);
      w.kv("outstanding", s.outstanding);
      w.kv("leases", s.leases);
      w.kv("reattaches", s.reattaches);
      w.kv("last_seen_ms", static_cast<std::int64_t>(s.last_seen_ms));
      w.end_object();
    }
    w.end_array();
    w.key("fabric").value_raw(engine_->stats.to_json());
    w.key("fleet_metrics").begin_object();
    for (const auto& [name, m] : fleet().merged()) w.kv(name, m.value);
    w.end_object();
    w.end_object();
    return w.str();
  }

  void on_client_frame(int fd, const Frame& f) {
    if (f.type == FrameType::kStatus) {
      send_json(fd, FrameType::kStatus, status_json());
      return;
    }
    if (f.type != FrameType::kSubmit) return;  // PROGRESS etc. are ours
    Submit s;
    std::string err;
    if (!decode_submit(f.payload, &s)) {
      err = "malformed SUBMIT payload";
    }
    const std::string id = "job-" + std::to_string(++job_seq_);
    std::optional<campaign::CampaignSpec> spec;
    if (err.empty()) {
      spec = campaign::parse_spec(s.spec_text, &err);
    }
    if (!spec) {
      if (stats_ != nullptr) ++stats_->jobs_rejected;
      log(id + " rejected: " + err);
      send_json(fd, FrameType::kDone, done_error_json(id, err));
      return;
    }
    if (s.timeout_ms >= 0) spec->timeout_ms = s.timeout_ms;
    if (s.max_events >= 0) {
      spec->max_sim_events = static_cast<std::uint64_t>(s.max_events);
    }
    auto job = std::make_unique<Job>();
    job->id = id;
    job->client_fd = fd;
    job->submit = std::move(s);
    job->spec = std::move(*spec);
    if (stats_ != nullptr) ++stats_->jobs_accepted;
    log(id + " queued: " + job->spec.name +
        (job->submit.explore > 0 ? " (explore)" : " (campaign)") +
        (job->submit.max_workers > 0
             ? ", max_workers " + std::to_string(job->submit.max_workers)
             : ""));
    queue_.push_back(std::move(job));
    maybe_start();
  }

  void on_client_closed(int fd) {
    // The job's in-flight cells outlive the client, but nobody is waiting
    // for the rest: cancel the still-queued cells (they come back
    // index == -1) and stop a search job at its next generation.
    for (auto& jp : active_) {
      Job* job = jp.get();
      if (job->client_fd != fd) continue;
      job->client_fd = -1;
      {
        std::lock_guard<std::mutex> lock(job->bridge.mu);
        job->bridge.stop = true;
      }
      if (job->dispatching && job->engine_job >= 0) {
        engine_->cancel_queued(job->engine_job);
      }
      log(job->id + " client gone: cancelling queued cells");
    }
    // Queued never-started jobs from that client are dropped outright.
    for (auto it = queue_.begin(); it != queue_.end();) {
      if ((*it)->client_fd == fd) {
        log((*it)->id + " dropped: client gone before start");
        it = queue_.erase(it);
      } else {
        ++it;
      }
    }
  }

  void maybe_start() {
    while (!draining_ &&
           static_cast<int>(active_.size()) < opts_.max_active &&
           !queue_.empty()) {
      active_.push_back(std::move(queue_.front()));
      queue_.pop_front();
      Job* job = active_.back().get();
      if (stats_ != nullptr) {
        stats_->peak_active =
            std::max(stats_->peak_active, static_cast<int>(active_.size()));
      }
      log(job->id + " started (" + std::to_string(active_.size()) +
          " active)");
      job->thread = std::thread(job->submit.explore > 0 ? run_search_job
                                                        : run_campaign_job,
                                job);
    }
  }

  /// One scheduling pass over every active job: relay progress, pick up
  /// posted batches, finish completed jobs, start queued ones.
  void pump() {
    for (auto& jp : active_) {
      Job* job = jp.get();
      std::vector<std::string> progress;
      const std::vector<campaign::RunCell>* batch = nullptr;
      const std::vector<std::string>* keys = nullptr;
      {
        std::lock_guard<std::mutex> lock(job->bridge.mu);
        progress.swap(job->bridge.progress);
        if (job->bridge.batch != nullptr && !job->bridge.batch_done &&
            !job->dispatching) {
          batch = job->bridge.batch;
          keys = job->bridge.batch_keys;
        }
      }
      for (const std::string& line : progress) {
        send_json(job->client_fd, FrameType::kProgress, line);
      }
      if (batch != nullptr) dispatch(job, batch, keys);
    }

    // Finish pass (separate loop: finishing erases from active_).
    for (std::size_t i = active_.size(); i-- > 0;) {
      bool finished = false;
      {
        std::lock_guard<std::mutex> lock(active_[i]->bridge.mu);
        finished = active_[i]->finished;
      }
      if (finished) finish_job(i);
    }
    maybe_start();
  }

  void dispatch(Job* job, const std::vector<campaign::RunCell>* batch,
                const std::vector<std::string>* keys) {
    job->dispatching = true;
    job->keys = keys;
    job->staged.assign(batch->size(), campaign::RunResult{});
    job->done_cells = 0;
    job->total_cells = static_cast<int>(batch->size());
    job->engine_job = engine_->add_batch(
        batch,
        [this, job](int slot, campaign::RunResult r) {
          ++job->done_cells;
          if (r.errored()) {
            ++job->error;
          } else if (r.pass) {
            ++job->pass;
          } else {
            ++job->fail;
          }
          const auto s = static_cast<std::size_t>(slot);
          job->staged[s] = std::move(r);
          send_json(job->client_fd, FrameType::kProgress,
                    progress_json(*job, job->staged[s]));
          // Stream the finished record to the client as one incremental
          // journal chunk, keyed by content hash: a client killed now
          // already holds this record and can resume past it.
          if (job->keys != nullptr && job->client_fd >= 0) {
            const std::string& key = (*job->keys)[s];
            const std::string line = campaign::journal_jsonl(
                {{key, campaign::record_json(job->staged[s])}});
            engine_->send_to_client(
                job->client_fd,
                encode_frame(FrameType::kArtifact,
                             encode_artifact("journal", line, key)));
          }
        },
        [job] {
          std::lock_guard<std::mutex> lock(job->bridge.mu);
          job->bridge.batch_results = std::move(job->staged);
          job->bridge.batch_done = true;
          job->dispatching = false;
          job->engine_job = -1;
          job->keys = nullptr;
          job->bridge.cv.notify_all();
        },
        job->submit.max_workers);
  }

  /// The fleet side channel only the engine knows: FabricStats, every
  /// worker's latest STATS, and the daemon's own registry.
  [[nodiscard]] campaign::FleetMetrics fleet() const {
    campaign::FleetMetrics f;
    f.fabric = engine_->stats.to_json();
    f.workers = engine_->worker_stats();
    if (opts_.obs != nullptr) f.coordinator = opts_.obs->snapshot();
    return f;
  }

  void finish_job(std::size_t i) {
    Job* job = active_[i].get();
    job->thread.join();
    if (job->report) {
      // The job's deterministic per-cell merge plus the fleet sections.
      const campaign::FleetMetrics f = fleet();
      job->artifacts.emplace_back(
          "metrics", job->report->metrics_json(job->spec.name, &f));
    }
    for (const auto& [name, bytes] : job->artifacts) {
      if (job->client_fd >= 0) {
        engine_->send_to_client(
            job->client_fd,
            encode_frame(FrameType::kArtifact, encode_artifact(name, bytes)));
      }
    }
    send_json(job->client_fd, FrameType::kDone, job->done_json);
    log(job->id + " finished");
    if (stats_ != nullptr) ++stats_->jobs_completed;
    active_.erase(active_.begin() + static_cast<std::ptrdiff_t>(i));
  }

  /// Shutdown with jobs in flight: release every job thread with whatever
  /// results exist (unfinished slots keep index == -1), then finish them
  /// so each client at least gets a DONE.
  void drain_all(const std::string& reason) {
    draining_ = true;
    while (!active_.empty()) {
      bool all_finished = true;
      for (auto& jp : active_) {
        Job* job = jp.get();
        std::lock_guard<std::mutex> lock(job->bridge.mu);
        job->bridge.stop = true;
        if (job->bridge.batch != nullptr && !job->bridge.batch_done) {
          job->bridge.batch_results = std::move(job->staged);
          job->bridge.batch_results.resize(job->bridge.batch->size());
          job->bridge.batch_done = true;
          job->dispatching = false;
          job->engine_job = -1;
          job->keys = nullptr;
        }
        job->bridge.cv.notify_all();
        if (!job->finished) all_finished = false;
      }
      if (!all_finished) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        continue;
      }
      log("drained " + std::to_string(active_.size()) + " job(s): " + reason);
      while (!active_.empty()) finish_job(active_.size() - 1);
    }
    // Queued jobs never started; tell their clients.
    while (!queue_.empty()) {
      auto j = std::move(queue_.front());
      queue_.pop_front();
      send_json(j->client_fd, FrameType::kDone,
                done_error_json(j->id, reason));
    }
  }

  ServiceOptions opts_;
  ServiceStats* stats_;
  ServiceStats own_stats_;  // backing store when the caller passed none
  std::unique_ptr<Engine> engine_;
  std::deque<std::unique_ptr<Job>> queue_;
  std::vector<std::unique_ptr<Job>> active_;
  bool draining_ = false;
  int job_seq_ = 0;
};

}  // namespace

int run_service(Listener* listener, const ServiceOptions& opts,
                ServiceStats* stats) {
  Service service(listener, opts, stats);
  return service.run();
}

}  // namespace pfi::fabric
