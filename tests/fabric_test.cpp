// Fabric tests: wire-format framing (any byte split, hex-float payload
// fidelity, corruption/version/auth rejection), coordinator/worker
// distribution (byte-identical records at any worker count, link flaps
// included), lease requeueing when a worker dies mid-lease or loses a grant
// with its link, the tail rule for pipelined leases, reconnect and result
// re-send dedupe, a forged result index dropping the link, journal
// merging, and the campaign-as-a-service daemon end to end — including its
// report matching the in-process document, two jobs running concurrently
// over one worker pool, and the live journal chunk stream — plus the fleet
// flag table the fabric binaries share, the coordinator's grant cap, and
// one 2PC RESULT frame pinned byte for byte.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <map>

#include "campaign/executor.hpp"
#include "campaign/journal.hpp"
#include "campaign/kv.hpp"
#include "campaign/report.hpp"
#include "campaign/runner.hpp"
#include "campaign/sandbox.hpp"
#include "campaign/schedule.hpp"
#include "campaign/spec.hpp"
#include "fabric/coordinator.hpp"
#include "fabric/fleet.hpp"
#include "fabric/flight.hpp"
#include "fabric/service.hpp"
#include "fabric/socket.hpp"
#include "fabric/wire.hpp"
#include "fabric/worker.hpp"
#include "obs/metrics.hpp"

namespace pfi::fabric {
namespace {

namespace kv = campaign::kv;
using campaign::CampaignSpec;
using campaign::RunCell;
using campaign::RunResult;
using core::scriptgen::FaultKind;

CampaignSpec small_gmp_spec() {
  CampaignSpec spec;
  spec.name = "fabric-unit";
  spec.protocol = "gmp";
  spec.oracle = "quiet";
  spec.types = {"gmp-heartbeat", "gmp-commit"};
  spec.faults = {FaultKind::kDrop};
  spec.seeds = {1000, 1001, 1002};
  spec.burst = 2;
  spec.on_send_side = false;
  spec.warmup = 0;
  spec.duration = sim::sec(40);
  return spec;
}

std::vector<std::string> record_strings(const std::vector<RunResult>& rs) {
  std::vector<std::string> out;
  out.reserve(rs.size());
  for (const auto& r : rs) out.push_back(campaign::record_json(r));
  return out;
}

struct Grant {
  int job = -1;
  std::vector<int> slots;
  std::vector<std::int64_t> epochs;
  std::vector<RunCell> cells;
};

/// Step `engine` while reading the scripted worker's (nonblocking) `fd`
/// until a LEASE grant arrives; false after `steps` steps without one. The
/// worker id a HELLO reply assigns lands in `id`.
bool await_grant(Engine* engine, int fd, FrameReader* reader, Grant* grant,
                 int steps, std::string* id = nullptr) {
  Frame f;
  for (int i = 0; i < steps; ++i) {
    engine->step(10);
    char buf[65536];
    for (;;) {
      const ssize_t n = recv(fd, buf, sizeof buf, 0);
      if (n <= 0) break;
      reader->feed(buf, static_cast<std::size_t>(n));
    }
    while (reader->next(&f)) {
      Hello reply;
      if (id != nullptr && f.type == FrameType::kHello &&
          decode_hello(f.payload, &reply)) {
        *id = reply.id;
      }
      if (f.type == FrameType::kLease &&
          decode_lease_grant(f.payload, &grant->job, &grant->slots,
                             &grant->epochs, &grant->cells)) {
        return true;
      }
    }
  }
  return false;
}

/// A scripted worker: HELLO, LEASE {want}, then step `engine` until the
/// grant arrives. Returns the (nonblocking) socket, or -1 when no grant came;
/// `id` receives the worker id the coordinator assigned.
int lease_as_scripted_worker(Engine* engine, const std::string& address,
                             const char* name, Grant* grant, int want = 4,
                             std::string* id = nullptr) {
  std::string err;
  const int fd = dial(address, &err);
  if (fd < 0) return -1;
  fcntl(fd, F_SETFL, O_NONBLOCK);
  Hello hello;
  hello.role = "worker";
  hello.name = name;
  std::string bytes = encode_frame(FrameType::kHello, encode_hello(hello));
  bool ok = send_all(fd, bytes.data(), bytes.size());
  bytes = encode_frame(FrameType::kLease, encode_lease_request(want));
  ok = ok && send_all(fd, bytes.data(), bytes.size());
  FrameReader reader;
  if (ok && await_grant(engine, fd, &reader, grant, 400, id)) return fd;
  close(fd);
  return -1;
}

// --- framing ---------------------------------------------------------------

TEST(FabricWire, FramesSurviveByteAtATimeDelivery) {
  Hello hello;
  hello.version = 7;
  hello.role = "worker";
  hello.name = "w0";
  const std::string stream =
      encode_frame(FrameType::kHello, encode_hello(hello)) +
      encode_frame(FrameType::kHeartbeat, "") +
      encode_frame(FrameType::kBye, encode_bye("so long"));

  FrameReader reader;
  std::vector<Frame> frames;
  Frame f;
  for (char c : stream) {
    reader.feed(&c, 1);  // worst-case recv() fragmentation
    while (reader.next(&f)) frames.push_back(f);
  }
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(frames[0].type, FrameType::kHello);
  Hello h;
  ASSERT_TRUE(decode_hello(frames[0].payload, &h));
  EXPECT_EQ(h.version, 7u);
  EXPECT_EQ(h.role, "worker");
  EXPECT_EQ(h.name, "w0");
  EXPECT_EQ(frames[1].type, FrameType::kHeartbeat);
  EXPECT_TRUE(frames[1].payload.empty());
  EXPECT_EQ(decode_bye(frames[2].payload), "so long");
  EXPECT_FALSE(reader.corrupt());
}

TEST(FabricWire, RejectsCorruptStreams) {
  {
    FrameReader reader;  // impossible length
    const char huge[] = {'\x7f', '\x7f', '\x7f', '\x7f', '\x01'};
    reader.feed(huge, sizeof huge);
    Frame f;
    EXPECT_FALSE(reader.next(&f));
    EXPECT_TRUE(reader.corrupt());
  }
  {
    FrameReader reader;  // unknown frame type 0x63
    const char unknown[] = {'\x00', '\x00', '\x00', '\x01', '\x63'};
    reader.feed(unknown, sizeof unknown);
    Frame f;
    EXPECT_FALSE(reader.next(&f));
    EXPECT_TRUE(reader.corrupt());
  }
}

TEST(FabricWire, CellRoundTripsAllScheduleEventKinds) {
  const auto spec = small_gmp_spec();
  RunCell cell = campaign::plan(spec)[0];
  cell.schedule.events.clear();
  campaign::FaultEvent e;
  e.type = "*";
  for (const FaultKind kind :
       {FaultKind::kDrop, FaultKind::kDelay, FaultKind::kDuplicate,
        FaultKind::kCorrupt, FaultKind::kReorder}) {
    e.kind = kind;
    e.occurrence += 2;
    e.delay = sim::msec(35);
    e.copies = 3;
    e.corrupt_offset = 11;
    cell.schedule.events.push_back(e);
  }
  cell.timeout_ms = 1234;
  cell.max_sim_events = 99999;
  cell.capture_timeline = true;

  RunCell back;
  ASSERT_TRUE(decode_cell(encode_cell(cell), &back));
  EXPECT_EQ(back.index, cell.index);
  EXPECT_EQ(back.id, cell.id);
  EXPECT_EQ(back.protocol, cell.protocol);
  EXPECT_EQ(back.oracle, cell.oracle);
  EXPECT_EQ(back.seed, cell.seed);
  EXPECT_EQ(back.timeout_ms, cell.timeout_ms);
  EXPECT_EQ(back.max_sim_events, cell.max_sim_events);
  EXPECT_EQ(back.capture_timeline, cell.capture_timeline);
  ASSERT_EQ(back.schedule.size(), cell.schedule.size());
  for (std::size_t i = 0; i < cell.schedule.events.size(); ++i) {
    EXPECT_EQ(back.schedule.events[i].kind, cell.schedule.events[i].kind);
    EXPECT_EQ(back.schedule.events[i].occurrence,
              cell.schedule.events[i].occurrence);
    EXPECT_EQ(back.schedule.events[i].delay, cell.schedule.events[i].delay);
    EXPECT_EQ(back.schedule.events[i].copies, cell.schedule.events[i].copies);
  }
  // The compiled scripts — what actually executes — must match exactly.
  EXPECT_EQ(back.schedule.compile().receive, cell.schedule.compile().receive);
}

TEST(FabricWire, ResultRoundTripsExactDoubles) {
  // A fresh execution's record must be byte-identical after crossing the
  // wire: doubles travel as C99 %a hex floats, not decimal approximations.
  const auto cells = campaign::plan(small_gmp_spec());
  const RunResult r = campaign::run_cell(cells[0]);
  std::string payload = encode_result(5, 42, 77, r);
  int job = -1, slot = -1;
  std::int64_t epoch = -1;
  RunResult back;
  ASSERT_TRUE(decode_result(payload, &job, &slot, &epoch, &back));
  EXPECT_EQ(job, 5);
  EXPECT_EQ(slot, 42);
  EXPECT_EQ(epoch, 77);
  EXPECT_EQ(campaign::record_json(back), campaign::record_json(r));
  EXPECT_EQ(back.metrics.size(), r.metrics.size());
}

TEST(FabricWire, HelloCarriesTokenAndWorkerId) {
  Hello h;
  h.role = "worker";
  h.name = "w-lab";
  h.token = "open sesame";
  h.id = "w17";
  Hello back;
  ASSERT_TRUE(decode_hello(encode_hello(h), &back));
  EXPECT_EQ(back.version, kProtocolVersion);
  EXPECT_EQ(back.token, "open sesame");
  EXPECT_EQ(back.id, "w17");
  // A bare HELLO (no token, no id — a fresh unauthenticated worker) leaves
  // both fields empty after the round trip.
  Hello plain;
  plain.role = "worker";
  plain.name = "w0";
  Hello bare;
  ASSERT_TRUE(decode_hello(encode_hello(plain), &bare));
  EXPECT_TRUE(bare.token.empty());
  EXPECT_TRUE(bare.id.empty());
}

TEST(FabricWire, TokenCompareMatchesExactBytesOnly) {
  EXPECT_TRUE(tokens_equal("open sesame", "open sesame"));
  EXPECT_TRUE(tokens_equal("", ""));
  EXPECT_FALSE(tokens_equal("open sesame", "open sesamE"));
  EXPECT_FALSE(tokens_equal("open sesame", "open sesame "));
  EXPECT_FALSE(tokens_equal("open sesame", ""));
}

TEST(FabricWire, LeaseGrantCarriesJobAndEpochs) {
  const auto cells = campaign::plan(small_gmp_spec());
  const std::vector<RunCell> grant(cells.begin(), cells.begin() + 2);
  const std::string payload = encode_lease_grant(3, {4, 9}, {101, 102}, grant);
  int job = -1;
  std::vector<int> slots;
  std::vector<std::int64_t> epochs;
  std::vector<RunCell> back;
  ASSERT_TRUE(decode_lease_grant(payload, &job, &slots, &epochs, &back));
  EXPECT_EQ(job, 3);
  EXPECT_EQ(slots, (std::vector<int>{4, 9}));
  EXPECT_EQ(epochs, (std::vector<std::int64_t>{101, 102}));
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].id, grant[0].id);
  EXPECT_EQ(back[1].id, grant[1].id);
}

TEST(FabricWire, SubmitCarriesResumeKeysAndWorkerQuota) {
  Submit s;
  s.spec_text = "name x\n";
  s.max_workers = 3;
  s.have = {"00000000000000aa", "00000000000000ff"};
  Submit back;
  ASSERT_TRUE(decode_submit(encode_submit(s), &back));
  EXPECT_EQ(back.spec_text, s.spec_text);
  EXPECT_EQ(back.max_workers, 3);
  EXPECT_EQ(back.have, s.have);
}

TEST(FabricWire, ArtifactChunksCarryTheirContentKey) {
  std::string name, bytes, chunk;
  ASSERT_TRUE(decode_artifact(
      encode_artifact("journal", "{\"key\":\"00aa\",\"record\":{}}\n", "00aa"),
      &name, &bytes, &chunk));
  EXPECT_EQ(name, "journal");
  EXPECT_EQ(chunk, "00aa");
  EXPECT_EQ(bytes, "{\"key\":\"00aa\",\"record\":{}}\n");
  // Final (complete) artifacts leave the chunk key empty.
  ASSERT_TRUE(
      decode_artifact(encode_artifact("report", "{}"), &name, &bytes, &chunk));
  EXPECT_EQ(name, "report");
  EXPECT_TRUE(chunk.empty());
}

// --- coordinator + workers -------------------------------------------------

TEST(Fabric, VersionMismatchIsRejectedWithByeReason) {
  Listener listener;
  std::string err;
  ASSERT_TRUE(listener.open("127.0.0.1:0", &err)) << err;

  const auto cells = campaign::plan(small_gmp_spec());
  std::atomic<bool> stop{false};
  FabricStats stats;
  std::thread coordinator([&] {
    FabricOptions opts;
    opts.should_stop = [&] { return stop.load(); };
    run_fabric(&listener, cells, opts, &stats);
  });

  const int fd = dial(listener.address(), &err);
  ASSERT_GE(fd, 0) << err;
  Hello hello;
  hello.version = 999;
  hello.role = "worker";
  const std::string bytes =
      encode_frame(FrameType::kHello, encode_hello(hello));
  ASSERT_TRUE(send_all(fd, bytes.data(), bytes.size()));

  FrameReader reader;
  Frame f;
  bool got = false;
  char buf[4096];
  for (int i = 0; i < 200 && !got; ++i) {
    const ssize_t n = recv(fd, buf, sizeof buf, 0);
    if (n <= 0) break;
    reader.feed(buf, static_cast<std::size_t>(n));
    got = reader.next(&f);
  }
  ASSERT_TRUE(got);
  EXPECT_EQ(f.type, FrameType::kBye);
  const std::string reason = decode_bye(f.payload);
  EXPECT_NE(reason.find("version mismatch"), std::string::npos) << reason;
  // The BYE names the version the coordinator wanted, so a stale binary's
  // operator knows what to rebuild.
  EXPECT_NE(reason.find("expected v3"), std::string::npos) << reason;
  close(fd);

  stop.store(true);
  coordinator.join();
  EXPECT_EQ(stats.version_rejected, 1);
}

TEST(Fabric, WrongTokenIsRejectedBeforeAnyState) {
  Listener listener;
  std::string err;
  ASSERT_TRUE(listener.open("127.0.0.1:0", &err)) << err;

  const auto cells = campaign::plan(small_gmp_spec());
  std::atomic<bool> stop{false};
  FabricStats stats;
  std::thread coordinator([&] {
    FabricOptions opts;
    opts.token = "open sesame";
    opts.should_stop = [&] { return stop.load(); };
    run_fabric(&listener, cells, opts, &stats);
  });

  const int fd = dial(listener.address(), &err);
  ASSERT_GE(fd, 0) << err;
  Hello hello;
  hello.role = "worker";
  hello.name = "intruder";
  hello.token = "guessed wrong";
  const std::string bytes =
      encode_frame(FrameType::kHello, encode_hello(hello));
  ASSERT_TRUE(send_all(fd, bytes.data(), bytes.size()));

  FrameReader reader;
  Frame f;
  bool got = false;
  char buf[4096];
  for (int i = 0; i < 200 && !got; ++i) {
    const ssize_t n = recv(fd, buf, sizeof buf, 0);
    if (n <= 0) break;
    reader.feed(buf, static_cast<std::size_t>(n));
    got = reader.next(&f);
  }
  ASSERT_TRUE(got);
  EXPECT_EQ(f.type, FrameType::kBye);
  EXPECT_NE(decode_bye(f.payload).find("auth failed"), std::string::npos);
  close(fd);

  stop.store(true);
  coordinator.join();
  EXPECT_EQ(stats.auth_rejected, 1);
  EXPECT_EQ(stats.workers_joined, 0);  // rejection created no state at all
}

TEST(Fabric, AllowlistClosesUnlistedTcpPeers) {
  Listener listener;
  std::string err;
  ASSERT_TRUE(listener.open("127.0.0.1:0", &err)) << err;

  Engine::Options eopts;
  eopts.allow = {"10.0.0.1"};  // loopback is not on the list
  Engine engine(&listener, eopts);

  const int fd = dial(listener.address(), &err);
  ASSERT_GE(fd, 0) << err;
  for (int i = 0; i < 50 && engine.stats.addr_rejected == 0; ++i) {
    engine.step(10);
  }
  EXPECT_EQ(engine.stats.addr_rejected, 1);
  // The peer sees a plain close: no BYE, no HELLO, nothing to probe.
  char buf[16];
  EXPECT_EQ(recv(fd, buf, sizeof buf, 0), 0);
  close(fd);
  engine.shutdown("test complete");
}

TEST(Fabric, MatchesInProcessRecordsAtAnyWorkerCount) {
  const auto cells = campaign::plan(small_gmp_spec());
  const auto baseline = record_strings(campaign::run_cells(cells, {}));

  Listener listener;
  std::string err;
  ASSERT_TRUE(listener.open("127.0.0.1:0", &err)) << err;
  // Fork before anything threads: worker children must come from a
  // single-threaded parent.
  WorkerOptions wopts;
  wopts.connect = listener.address();
  LocalWorkerPool pool;
  ASSERT_TRUE(spawn_local_workers(wopts, 3, listener.fd(), &pool, &err))
      << err;

  FabricOptions fopts;
  fopts.no_worker_timeout_ms = 30000;
  FabricStats stats;
  const auto results = run_fabric(&listener, cells, fopts, &stats);
  reap_local_workers(&pool);

  EXPECT_EQ(record_strings(results), baseline);
  EXPECT_GE(stats.workers_joined, 1);
}

TEST(Fabric, DeadWorkerLeasesRequeueToSurvivors) {
  // Deterministic worker-death: a scripted "vampire" connection leases
  // cells and vanishes without producing results; the engine must requeue
  // its slots and a real worker must finish the campaign byte-identically.
  const auto cells = campaign::plan(small_gmp_spec());
  const auto baseline = record_strings(campaign::run_cells(cells, {}));

  Listener listener;
  std::string err;
  ASSERT_TRUE(listener.open("127.0.0.1:0", &err)) << err;

  Engine::Options eopts;
  // Keep the test fast: a vanished worker gets 300 ms to reconnect before
  // its leases requeue (production default rides dead_after_ms).
  eopts.reconnect_grace_ms = 300;
  Engine engine(&listener, eopts);
  std::vector<RunResult> results(cells.size());
  bool done = false;
  engine.add_batch(
      &cells,
      [&](int slot, RunResult r) {
        results[static_cast<std::size_t>(slot)] = std::move(r);
      },
      [&] { done = true; });

  // Vampire: handshake, lease, disappear.
  Grant grant;
  const int fd =
      lease_as_scripted_worker(&engine, listener.address(), "vampire", &grant);
  ASSERT_GE(fd, 0) << "vampire never got a lease";
  EXPECT_FALSE(grant.slots.empty());
  EXPECT_EQ(grant.epochs.size(), grant.slots.size());
  close(fd);  // dies holding its lease

  // Now a real worker (forked; the Engine itself spawns no threads).
  WorkerOptions wopts;
  wopts.connect = listener.address();
  LocalWorkerPool pool;
  ASSERT_TRUE(spawn_local_workers(wopts, 1, listener.fd(), &pool, &err))
      << err;
  for (int i = 0; i < 3000 && !done; ++i) engine.step(20);
  ASSERT_TRUE(done);
  engine.shutdown("test complete");
  reap_local_workers(&pool);

  EXPECT_EQ(record_strings(results), baseline);
  EXPECT_GE(engine.stats.cells_requeued, 1);
  EXPECT_GE(engine.stats.workers_lost, 1);
}

TEST(Fabric, LeaseGrantIsCappedWhateverTheWorkerWants) {
  // `want` is the worker's to choose, so the coordinator bounds it: a raw
  // peer asking for 1000 cells of a 20-cell batch gets 8 in its grant.
  const auto planned = campaign::plan(small_gmp_spec());
  std::vector<RunCell> cells;
  for (int i = 0; i < 20; ++i) {
    cells.push_back(planned[static_cast<std::size_t>(i) % planned.size()]);
    cells.back().index = i;
  }
  Listener listener;
  std::string err;
  ASSERT_TRUE(listener.open("127.0.0.1:0", &err)) << err;
  Engine engine(&listener, Engine::Options{});
  engine.add_batch(&cells, [](int, RunResult) {}, [] {});

  Grant grant;
  const int fd = lease_as_scripted_worker(&engine, listener.address(),
                                          "greedy", &grant, /*want=*/1000);
  ASSERT_GE(fd, 0) << "greedy peer never got a lease";
  EXPECT_EQ(grant.slots.size(), 8u);
  EXPECT_EQ(grant.cells.size(), grant.slots.size());
  close(fd);
  engine.shutdown("test complete");
}

TEST(Fabric, BusyWorkerIsNotGrantedTheLastCellsWhileAnotherHoldsNone) {
  // A pipelining worker asks for its next grant while it still holds
  // cells. The coordinator grants such a request only while the queue keeps
  // a grant as large for every other connected worker; otherwise it parks,
  // and the queue's last grant goes to a worker that holds nothing instead
  // of waiting behind the busy worker's current one.
  const auto planned = campaign::plan(small_gmp_spec());
  std::vector<RunCell> cells;
  for (int i = 0; i < 6; ++i) {
    cells.push_back(planned[static_cast<std::size_t>(i) % planned.size()]);
    cells.back().index = i;
  }
  Listener listener;
  std::string err;
  ASSERT_TRUE(listener.open("127.0.0.1:0", &err)) << err;
  Engine engine(&listener, Engine::Options{});
  engine.add_batch(&cells, [](int, RunResult) {}, [] {});

  Grant grant;
  const int busy = lease_as_scripted_worker(&engine, listener.address(),
                                            "busy", &grant, /*want=*/2);
  ASSERT_GE(busy, 0) << "busy worker never got a lease";
  ASSERT_EQ(grant.slots.size(), 2u);

  // A second worker joins and holds nothing.
  const int idle = dial(listener.address(), &err);
  ASSERT_GE(idle, 0) << err;
  fcntl(idle, F_SETFL, O_NONBLOCK);
  Hello hello;
  hello.role = "worker";
  hello.name = "idle";
  const std::string hi = encode_frame(FrameType::kHello, encode_hello(hello));
  ASSERT_TRUE(send_all(idle, hi.data(), hi.size()));
  for (int i = 0; i < 200 && engine.worker_count() < 2; ++i) engine.step(10);
  ASSERT_EQ(engine.worker_count(), 2);

  const std::string lease =
      encode_frame(FrameType::kLease, encode_lease_request(2));
  FrameReader busy_reader, idle_reader;
  // Holding 2 with 4 queued: a grant of 2 still leaves 2 for the other.
  ASSERT_TRUE(send_all(busy, lease.data(), lease.size()));
  ASSERT_TRUE(await_grant(&engine, busy, &busy_reader, &grant, 200));
  EXPECT_EQ(grant.slots.size(), 2u);
  // Holding 4 with 2 queued: those are the other worker's, so this parks.
  ASSERT_TRUE(send_all(busy, lease.data(), lease.size()));
  EXPECT_FALSE(await_grant(&engine, busy, &busy_reader, &grant, 30));
  // The worker that holds nothing gets the queue's last grant.
  ASSERT_TRUE(send_all(idle, lease.data(), lease.size()));
  ASSERT_TRUE(await_grant(&engine, idle, &idle_reader, &grant, 200));
  EXPECT_EQ(grant.slots.size(), 2u);
  EXPECT_EQ(engine.stats.leases_granted, 3);
  close(busy);
  close(idle);
  engine.shutdown("test complete");
}

TEST(Fabric, ResultForAnotherCellDropsLinkAndRequeues) {
  // A scripted worker answers its lease with a record claiming to be a
  // different cell. The engine must refuse it outright — drop the link,
  // requeue the lease — so the forged record never reaches any slot, and a
  // real worker finishes the campaign byte-identically.
  const auto cells = campaign::plan(small_gmp_spec());
  const auto baseline = record_strings(campaign::run_cells(cells, {}));

  Listener listener;
  std::string err;
  ASSERT_TRUE(listener.open("127.0.0.1:0", &err)) << err;
  Engine::Options eopts;
  Engine engine(&listener, eopts);
  std::vector<RunResult> results(cells.size());
  int delivered = 0;
  bool done = false;
  engine.add_batch(
      &cells,
      [&](int slot, RunResult r) {
        ++delivered;
        results[static_cast<std::size_t>(slot)] = std::move(r);
      },
      [&] { done = true; });

  Grant grant;
  const int fd =
      lease_as_scripted_worker(&engine, listener.address(), "forger", &grant);
  ASSERT_GE(fd, 0) << "forger never got a lease";
  ASSERT_FALSE(grant.slots.empty());
  const RunCell& other =
      cells[(static_cast<std::size_t>(grant.slots[0]) + 1) % cells.size()];
  RunResult forged;
  forged.index = other.index;
  forged.id = other.id;
  forged.oracle = other.oracle;
  forged.pass = true;
  const std::string bytes = encode_frame(
      FrameType::kResult,
      encode_result(grant.job, grant.slots[0], grant.epochs[0], forged));
  ASSERT_TRUE(send_all(fd, bytes.data(), bytes.size()));

  // The engine closes the forger's link.
  bool closed = false;
  for (int i = 0; i < 400 && !closed; ++i) {
    engine.step(10);
    char buf[4096];
    closed = recv(fd, buf, sizeof buf, 0) == 0;
  }
  close(fd);
  ASSERT_TRUE(closed) << "forger's link stayed up";
  EXPECT_EQ(delivered, 0);
  EXPECT_GE(engine.stats.cells_requeued, 1);

  WorkerOptions wopts;
  wopts.connect = listener.address();
  LocalWorkerPool pool;
  ASSERT_TRUE(spawn_local_workers(wopts, 1, listener.fd(), &pool, &err))
      << err;
  for (int i = 0; i < 3000 && !done; ++i) engine.step(20);
  ASSERT_TRUE(done);
  engine.shutdown("test complete");
  reap_local_workers(&pool);

  EXPECT_EQ(delivered, static_cast<int>(cells.size()));
  EXPECT_EQ(record_strings(results), baseline);
}

TEST(Fabric, LinkFlapsKeepRecordsByteIdentical) {
  // Chaos determinism: the coordinator severs a worker's link after every
  // 2nd result (simulated network partition, no BYE). Workers must notice,
  // reconnect under the same stable id, re-send finished results, and the
  // final report must be byte-for-byte what a single process produces —
  // with zero requeues, because reattachment beats the reconnect grace.
  const auto cells = campaign::plan(small_gmp_spec());
  const auto baseline = record_strings(campaign::run_cells(cells, {}));

  Listener listener;
  std::string err;
  ASSERT_TRUE(listener.open("127.0.0.1:0", &err)) << err;
  WorkerOptions wopts;
  wopts.connect = listener.address();
  wopts.token = "open sesame";
  LocalWorkerPool pool;
  ASSERT_TRUE(spawn_local_workers(wopts, 2, listener.fd(), &pool, &err))
      << err;

  FabricOptions fopts;
  fopts.no_worker_timeout_ms = 30000;
  fopts.token = "open sesame";
  fopts.flap_every = 2;
  FabricStats stats;
  const auto results = run_fabric(&listener, cells, fopts, &stats);
  reap_local_workers(&pool);

  EXPECT_EQ(record_strings(results), baseline);
  EXPECT_GE(stats.links_dropped, 1);
  EXPECT_GE(stats.workers_reattached, 1);
  EXPECT_EQ(stats.cells_requeued, 0);  // every flap reattached in time
  EXPECT_EQ(stats.workers_lost, 0);
}

TEST(Fabric, GrantLostWithItsLinkRequeuesAtTheFirstLeaseAfterReattach) {
  // A scripted worker leases cells and loses its link before computing
  // them, as a worker whose reconnect closes a socket with an unread grant
  // queued in it. It reattaches under its id well within the grace window,
  // keeps heartbeating, and asks for work like any worker after a
  // reconnect. That LEASE follows everything the worker still had to say
  // about its old grants, so the coordinator must put the lost slots back;
  // otherwise they stay outstanding and the batch never completes.
  const auto cells = campaign::plan(small_gmp_spec());
  const auto baseline = record_strings(campaign::run_cells(cells, {}));

  Listener listener;
  std::string err;
  ASSERT_TRUE(listener.open("127.0.0.1:0", &err)) << err;
  Engine engine(&listener, Engine::Options{});
  std::vector<RunResult> results(cells.size());
  bool done = false;
  engine.add_batch(
      &cells,
      [&](int slot, RunResult r) {
        results[static_cast<std::size_t>(slot)] = std::move(r);
      },
      [&] { done = true; });

  Grant lost;
  std::string id;
  const int old_fd = lease_as_scripted_worker(&engine, listener.address(),
                                              "lossy", &lost, /*want=*/2, &id);
  ASSERT_GE(old_fd, 0) << "lossy worker never got a lease";
  ASSERT_EQ(lost.slots.size(), 2u);
  ASSERT_FALSE(id.empty());
  close(old_fd);
  for (int i = 0; i < 200 && engine.stats.links_dropped == 0; ++i) {
    engine.step(10);
  }
  ASSERT_EQ(engine.stats.links_dropped, 1);

  const int fd = dial(listener.address(), &err);
  ASSERT_GE(fd, 0) << err;
  fcntl(fd, F_SETFL, O_NONBLOCK);
  Hello hello;
  hello.role = "worker";
  hello.name = "lossy";
  hello.id = id;
  std::string bytes = encode_frame(FrameType::kHello, encode_hello(hello));
  ASSERT_TRUE(send_all(fd, bytes.data(), bytes.size()));
  const std::string lease =
      encode_frame(FrameType::kLease, encode_lease_request(2));
  ASSERT_TRUE(send_all(fd, lease.data(), lease.size()));

  // A real worker finishes the rest.
  WorkerOptions wopts;
  wopts.connect = listener.address();
  LocalWorkerPool pool;
  ASSERT_TRUE(spawn_local_workers(wopts, 1, listener.fd(), &pool, &err))
      << err;

  // The scripted worker heartbeats and computes whatever it is granted
  // from now on, so only the lost grant can keep the batch from finishing.
  const std::string beat = encode_frame(FrameType::kHeartbeat, "");
  FrameReader reader;
  for (int i = 0; i < 500 && !done; ++i) {
    engine.step(20);
    if (i % 10 == 0) {
      ASSERT_TRUE(send_all(fd, beat.data(), beat.size()));
    }
    char buf[65536];
    for (;;) {
      const ssize_t n = recv(fd, buf, sizeof buf, 0);
      if (n <= 0) break;
      reader.feed(buf, static_cast<std::size_t>(n));
    }
    Frame f;
    while (reader.next(&f)) {
      Grant g;
      if (f.type != FrameType::kLease ||
          !decode_lease_grant(f.payload, &g.job, &g.slots, &g.epochs,
                              &g.cells)) {
        continue;
      }
      for (std::size_t k = 0; k < g.cells.size(); ++k) {
        bytes = encode_frame(
            FrameType::kResult,
            encode_result(g.job, g.slots[k], g.epochs[k],
                          campaign::run_cell(g.cells[k])));
        ASSERT_TRUE(send_all(fd, bytes.data(), bytes.size()));
      }
      ASSERT_TRUE(send_all(fd, lease.data(), lease.size()));
    }
  }
  close(fd);
  ASSERT_TRUE(done) << "the lost grant's slots were never requeued";
  engine.shutdown("test complete");
  reap_local_workers(&pool);

  EXPECT_EQ(record_strings(results), baseline);
  EXPECT_EQ(engine.stats.cells_requeued, 2);
  EXPECT_EQ(engine.stats.workers_reattached, 1);
  EXPECT_EQ(engine.stats.workers_lost, 0);
}

// --- hostile input ----------------------------------------------------------

TEST(FabricKv, ScanRejectsHostileLengthTokens) {
  // Payloads are parsed before authentication, so a crafted length token
  // must end the scan instead of wrapping the bounds arithmetic into an
  // out-of-bounds read (or sending the cursor backwards forever).
  const char* hostile[] = {
      "key 18446744073709551615\nx\n",  // ULLONG_MAX: naive bounds wrap
      "key 18446744073709551614\nx\n",  // ULLONG_MAX-1: pos would go back
      "key 99999999999999999999\nx\n",  // > 64 bits: ERANGE saturation
      "key -1\nx\n",                    // strtoull happily wraps "-1"
      "key 12a\nxxxxxxxxxxxx\n",        // trailing garbage in the token
      "key \nx\n",                      // empty token
      "key 4\nab\n",                    // claims more than is present
      "key +1\nx\n",                    // a sign is not a digit
      "key  1\nx\n",                    // leading blank
      "key 1 \nx\n",                    // trailing blank
      "key 0x1\nx\n",                   // not decimal
  };
  for (const char* payload : hostile) {
    kv::Scan scan{payload};
    std::string_view key, value;
    int entries = 0;
    while (scan.next(&key, &value) && entries < 4) ++entries;
    EXPECT_EQ(entries, 0) << payload;
  }
  // And the well-formed shape still parses, including an embedded newline.
  kv::Scan ok{std::string_view("key 3\na\nb\n", 10)};
  std::string_view key, value;
  ASSERT_TRUE(ok.next(&key, &value));
  EXPECT_EQ(key, "key");
  EXPECT_EQ(value, std::string("a\nb", 3));
  EXPECT_FALSE(ok.next(&key, &value));
}

TEST(FabricWire, DecodersRejectOverflowedNumericFields) {
  // A numeric field that strtoll/strtoull would silently saturate must
  // fail the whole decode — a clamped count or version is not a value
  // anyone sent.
  {
    std::string p;
    kv::put(&p, "want", "99999999999999999999999999");
    int want = 0;
    EXPECT_FALSE(decode_lease_request(p, &want));
  }
  {
    std::string p;
    kv::put(&p, "want", "-3");
    int want = 0;
    EXPECT_FALSE(decode_lease_request(p, &want));
  }
  {
    std::string p;
    kv::put(&p, "v", "99999999999999999999999999");
    kv::put(&p, "role", "worker");
    Hello h;
    EXPECT_FALSE(decode_hello(p, &h));
  }
  {
    std::string p;  // unsigned field, negative value
    kv::put(&p, "v", "-2");
    kv::put(&p, "role", "worker");
    Hello h;
    EXPECT_FALSE(decode_hello(p, &h));
  }
  // A number is digits (and, signed, one leading '-') and nothing else: no
  // sign, no blank on either side, no radix prefix, nothing out of range.
  for (const char* bad : {"+5", " 5", "5 ", "0x5"}) {
    std::string p;
    kv::put(&p, "want", bad);
    int want = 0;
    EXPECT_FALSE(decode_lease_request(p, &want)) << bad;
    p.clear();
    kv::put(&p, "v", bad);
    kv::put(&p, "role", "worker");
    Hello h;
    EXPECT_FALSE(decode_hello(p, &h)) << bad;
  }
  {
    std::string p;  // INT64_MAX + 1 on the signed epoch of a RESULT
    kv::put(&p, "job", "1");
    kv::put(&p, "slot", "0");
    kv::put(&p, "epoch", "9223372036854775808");
    kv::put(&p, "res", campaign::wire_encode(RunResult{}));
    int job = 0, slot = 0;
    std::int64_t epoch = 0;
    RunResult r;
    EXPECT_FALSE(decode_result(p, &job, &slot, &epoch, &r));
    p.clear();
    kv::put(&p, "want", "9223372036854775808");
    int want = 0;
    EXPECT_FALSE(decode_lease_request(p, &want));
  }
}

TEST(FabricWire, TpcResultFrameBytesArePinned) {
  // One RESULT of a 2PC cell (tpc-vote-req, drop, seed 1000, 30 s, receive
  // side, oracle atomic) for job 3, slot 5, epoch 42, captured byte for byte
  // from the encoder that built each entry's value as a string first. The
  // in-place encoder and the view decoder must reproduce it exactly.
  const std::string payload =
    "job 1\n3\n"
    "slot 1\n5\n"
    "epoch 2\n42\n"
    "res 2081\n"
    "index 1\n0\n"
    "id 27\ntpc/tpc-vote-req/drop/s1000\n"
    "pass 1\n1\n"
    "reason 0\n\n"
    "oracle 6\natomic\n"
    "seed 4\n1000\n"
    "faults 1\n1\n"
    "msgs 2\n11\n"
    "serr 1\n0\n"
    "trace 2\n22\n"
    "sim 8\n0x1.ep+4\n"
    "error 0\n\n"
    "nviol 1\n0\n"
    "cvd 16\ndb9a29b99146215f\n"
    "cvt 9\n3 tpc-ack\n"
    "cvt 14\n3 tpc-decision\n"
    "cvt 14\n3 tpc-vote-req\n"
    "cvt 14\n2 tpc-vote-yes\n"
    "cva 9\n1 dropped\n"
    "cvx 17\ntpc-1:tpc-applied\n"
    "cvx 15\ntpc-1:tpc-begin\n"
    "cvx 16\ntpc-1:tpc-decide\n"
    "cvx 22\ntpc-1:tpc-vote-timeout\n"
    "cvx 17\ntpc-2:tpc-applied\n"
    "cvx 18\ntpc-2:tpc-prepared\n"
    "cvx 17\ntpc-3:tpc-applied\n"
    "cvx 18\ntpc-3:tpc-prepared\n"
    "met 26\nc 23 net.frame_bytes.count\n"
    "met 26\nc 17 net.frame_bytes.le_32\n"
    "met 25\nc 6 net.frame_bytes.le_64\n"
    "met 25\nc 0 net.frames_blackholed\n"
    "met 25\nc 23 net.frames_delivered\n"
    "met 19\nc 0 net.frames_lost\n"
    "met 20\nc 23 net.frames_sent\n"
    "met 27\nc 0 net.link.1-2.blackholed\n"
    "met 26\nc 6 net.link.1-2.delivered\n"
    "met 21\nc 0 net.link.1-2.lost\n"
    "met 27\nc 0 net.link.1-3.blackholed\n"
    "met 26\nc 6 net.link.1-3.delivered\n"
    "met 21\nc 0 net.link.1-3.lost\n"
    "met 27\nc 0 net.link.2-1.blackholed\n"
    "met 26\nc 5 net.link.2-1.delivered\n"
    "met 21\nc 0 net.link.2-1.lost\n"
    "met 27\nc 0 net.link.3-1.blackholed\n"
    "met 26\nc 6 net.link.3-1.delivered\n"
    "met 21\nc 0 net.link.3-1.lost\n"
    "met 24\nc 0 pfi.action.corrupted\n"
    "met 22\nc 0 pfi.action.delayed\n"
    "met 22\nc 1 pfi.action.dropped\n"
    "met 25\nc 0 pfi.action.duplicated\n"
    "met 19\nc 0 pfi.action.held\n"
    "met 23\nc 0 pfi.action.injected\n"
    "met 23\nc 0 pfi.action.released\n"
    "met 24\nc 11 pfi.msg_bytes.count\n"
    "met 24\nc 11 pfi.msg_bytes.le_32\n"
    "met 24\nc 3 pfi.msg_type.tpc-ack\n"
    "met 29\nc 3 pfi.msg_type.tpc-decision\n"
    "met 29\nc 3 pfi.msg_type.tpc-vote-req\n"
    "met 29\nc 2 pfi.msg_type.tpc-vote-yes\n"
    "met 25\nc 6 pfi.recvs_intercepted\n"
    "met 21\nc 0 pfi.script_errors\n"
    "met 25\nc 5 pfi.sends_intercepted\n"
    "met 25\nc 27 script.recv.commands\n"
    "met 22\nc 17 script.recv.evals\n"
    "met 26\nc 0 script.recv.loop_ticks\n"
    "met 31\nc 0 script.recv.watchdog_probes\n"
    "met 24\nc 1 script.send.commands\n"
    "met 21\nc 1 script.send.evals\n"
    "met 26\nc 0 script.send.loop_ticks\n"
    "met 31\nc 0 script.send.watchdog_probes\n"
    "met 26\nc 27 sim.events_dispatched\n"
    "met 24\ng 5 sim.queue_high_water\n"
    "met 24\nc 7 sim.timers_cancelled\n"
    "met 25\nc 34 sim.timers_scheduled\n"
    "met 17\nc 0 trace.dropped\n"
    "met 18\nc 22 trace.records\n"
    "end 0\n\n"
    "\n";
  int job = 0, slot = 0;
  std::int64_t epoch = 0;
  RunResult r;
  ASSERT_TRUE(decode_result(payload, &job, &slot, &epoch, &r));
  EXPECT_EQ(job, 3);
  EXPECT_EQ(slot, 5);
  EXPECT_EQ(epoch, 42);
  EXPECT_EQ(r.id, "tpc/tpc-vote-req/drop/s1000");
  EXPECT_EQ(r.metrics.size(), 49u);
  EXPECT_EQ(r.coverage.msg_types.size(), 4u);
  EXPECT_EQ(r.sim_seconds, 30.0);
  EXPECT_EQ(encode_result(job, slot, epoch, r), payload);
  std::string frame = {0, 0, 0x08, 0x48, 3};  // length 2120, type RESULT
  frame += payload;
  EXPECT_EQ(encode_frame(FrameType::kResult, encode_result(3, 5, 42, r)),
            frame);
}

TEST(Fabric, SilentPreAuthConnectionIsDropped) {
  // A peer that connects and never completes HELLO must not hold an fd
  // (and a frame buffer) forever: the handshake deadline fires and the
  // connection is closed without a BYE.
  Listener listener;
  std::string err;
  ASSERT_TRUE(listener.open("127.0.0.1:0", &err)) << err;

  Engine::Options eopts;
  eopts.handshake_timeout_ms = 100;
  Engine engine(&listener, eopts);

  const int fd = dial(listener.address(), &err);
  ASSERT_GE(fd, 0) << err;
  for (int i = 0; i < 200 && engine.stats.handshake_timeouts == 0; ++i) {
    engine.step(10);
  }
  EXPECT_EQ(engine.stats.handshake_timeouts, 1);
  char buf[16];
  EXPECT_EQ(recv(fd, buf, sizeof buf, 0), 0);  // plain close, no BYE
  close(fd);
  engine.shutdown("test complete");
}

TEST(Fabric, OversizedPreAuthFrameIsDropped) {
  // Before HELLO a peer gets kMaxHelloPayload per frame, not the 64 MB a
  // handshaken worker's RESULT may claim; a bigger header is corruption
  // and the connection drops before any payload accumulates.
  Listener listener;
  std::string err;
  ASSERT_TRUE(listener.open("127.0.0.1:0", &err)) << err;

  Engine engine(&listener, {});

  const int fd = dial(listener.address(), &err);
  ASSERT_GE(fd, 0) << err;
  const std::uint32_t claim = 1u << 20;  // 1 MB, > kMaxHelloPayload
  const char header[4] = {static_cast<char>(claim >> 24),
                          static_cast<char>((claim >> 16) & 0xff),
                          static_cast<char>((claim >> 8) & 0xff),
                          static_cast<char>(claim & 0xff)};
  ASSERT_TRUE(send_all(fd, header, sizeof header));
  char buf[16];
  ssize_t n = -1;
  for (int i = 0; i < 200; ++i) {
    engine.step(10);
    n = recv(fd, buf, sizeof buf, MSG_DONTWAIT);
    if (n >= 0) break;
  }
  EXPECT_EQ(n, 0);  // dropped, nothing echoed back
  close(fd);
  engine.shutdown("test complete");
}

TEST(Fabric, WorkerIdleTimeoutReconnectsThroughSilentLink) {
  // A coordinator that goes mute (heartbeats off stands in for a silent
  // partition) must not strand a parked worker in recv() for TCP's
  // many-minute retransmission timeout: the worker's idle detector fires
  // and it reconnects under its stable id.
  Listener listener;
  std::string err;
  ASSERT_TRUE(listener.open("127.0.0.1:0", &err)) << err;

  WorkerOptions wopts;
  wopts.connect = listener.address();
  wopts.heartbeat_ms = 100;
  wopts.idle_timeout_ms = 300;
  LocalWorkerPool pool;
  ASSERT_TRUE(spawn_local_workers(wopts, 1, listener.fd(), &pool, &err))
      << err;

  Engine::Options eopts;
  eopts.heartbeat_ms = 0;  // mute: never beat the parked worker
  Engine engine(&listener, eopts);
  for (int i = 0; i < 800 && engine.stats.workers_reattached == 0; ++i) {
    engine.step(10);
  }
  EXPECT_GE(engine.stats.workers_reattached, 1);
  EXPECT_EQ(engine.stats.workers_lost, 0);  // reattach beat the grace clock
  engine.shutdown("test complete");
  reap_local_workers(&pool);
}

// --- journal merging -------------------------------------------------------

// --- the fleet flag table --------------------------------------------------

TEST(FleetFlags, EachSharedFlagSetsOneSettingInEveryBinaryThatAcceptsIt) {
  unsetenv("PFI_FABRIC_TOKEN");
  const Binary all[] = {kCampaignBinary, kFabricdBinary, kWorkerBinary};
  const unsigned coordinators = kCampaignBinary | kFabricdBinary;
  const unsigned everyone = coordinators | kWorkerBinary;
  struct Row {
    std::vector<std::string> args;
    unsigned accepted_by;
    std::function<bool(const FleetSettings&)> holds;
  };
  const Row rows[] = {
      {{"--token", "s3cret"}, everyone,
       [](const FleetSettings& f) {
         return f.coordinator.token == "s3cret" && f.worker.token == "s3cret";
       }},
      {{"--heartbeat-ms", "250"}, everyone,
       [](const FleetSettings& f) {
         return f.coordinator.heartbeat_ms == 250 &&
                f.worker.heartbeat_ms == 250;
       }},
      {{"--dead-after-ms", "1500"}, coordinators,
       [](const FleetSettings& f) {
         return f.coordinator.dead_after_ms == 1500;
       }},
      {{"--reconnect-grace-ms", "700"}, coordinators,
       [](const FleetSettings& f) {
         return f.coordinator.reconnect_grace_ms == 700;
       }},
      {{"--flight-out", "flight.jsonl"}, everyone,
       [](const FleetSettings& f) { return f.flight_out == "flight.jsonl"; }},
      {{"--workers", "3"}, coordinators,
       [](const FleetSettings& f) { return f.workers == 3; }},
      {{"--listen", "unix:/tmp/fleet.sock"}, coordinators,
       [](const FleetSettings& f) {
         return f.listen == "unix:/tmp/fleet.sock";
       }},
  };
  for (const Row& row : rows) {
    for (const Binary b : all) {
      FleetSettings fleet;
      const bool accepts = (row.accepted_by & b) != 0;
      EXPECT_EQ(parse_flags(row.args, b, {}, &fleet),
                accepts ? Parsed::kOk : Parsed::kUsage)
          << row.args[0] << " as binary " << b;
      if (accepts) {
        EXPECT_TRUE(row.holds(fleet)) << row.args[0] << " as binary " << b;
      }
    }
  }
}

TEST(FleetFlags, TokenFallsBackToTheEnvironment) {
  setenv("PFI_FABRIC_TOKEN", "from-env", 1);
  FleetSettings env;
  EXPECT_EQ(parse_flags({}, kWorkerBinary, {}, &env), Parsed::kOk);
  EXPECT_EQ(env.worker.token, "from-env");
  EXPECT_EQ(env.coordinator.token, "from-env");
  FleetSettings flag;
  EXPECT_EQ(parse_flags({"--token", "from-flag"}, kFabricdBinary, {}, &flag),
            Parsed::kOk);
  EXPECT_EQ(flag.coordinator.token, "from-flag");
  EXPECT_EQ(flag.worker.token, "from-flag");
  unsetenv("PFI_FABRIC_TOKEN");
}

TEST(FleetFlags, MalformedNumbersAndForeignFlagsAreUsageErrors) {
  int jobs = 1;
  bool quiet = false;
  const std::vector<Flag> own = {{"--jobs", &jobs}, {"--quiet", &quiet}};
  const std::vector<std::vector<std::string>> bad = {
      {"--dead-after-ms", "0.5"},
      {"--dead-after-ms", "5s"},
      {"--heartbeat-ms"},
      {"--jobs", "abc"},
      {"--workers", "99999999999"},
      {"--no-such-flag"},
  };
  for (const auto& args : bad) {
    FleetSettings fleet;
    EXPECT_EQ(parse_flags(args, kCampaignBinary, own, &fleet),
              Parsed::kUsage)
        << args.front();
  }
  // A coordinator-only flag is not the worker's.
  FleetSettings worker;
  EXPECT_EQ(parse_flags({"--dead-after-ms", "100"}, kWorkerBinary, own,
                        &worker),
            Parsed::kUsage);
  // Without a place for them, positionals are usage errors too.
  EXPECT_EQ(parse_flags({"spec.txt"}, kWorkerBinary, own, &worker),
            Parsed::kUsage);

  FleetSettings fleet;
  std::vector<std::string> positionals;
  EXPECT_EQ(parse_flags({"spec.txt", "--jobs", "4", "--quiet",
                         "--dead-after-ms", "-1"},
                        kCampaignBinary, own, &fleet, &positionals),
            Parsed::kOk);
  EXPECT_EQ(jobs, 4);
  EXPECT_TRUE(quiet);
  EXPECT_EQ(fleet.coordinator.dead_after_ms, -1);
  EXPECT_EQ(positionals, std::vector<std::string>{"spec.txt"});
  EXPECT_EQ(parse_flags({"--jobs", "2", "--help"}, kWorkerBinary, own,
                        &fleet),
            Parsed::kHelp);
}

TEST(FabricJournal, MergeDedupesSortsAndIgnoresInputOrder) {
  const std::string a = "/tmp/pfi_fabric_test_a.jsonl";
  const std::string b = "/tmp/pfi_fabric_test_b.jsonl";
  {
    campaign::Journal ja;
    ASSERT_TRUE(ja.open(a));
    ja.append("00000000000000ff", "{\"index\":2,\"id\":\"z\"}");
    ja.append("0000000000000001", "{\"index\":0,\"id\":\"x\"}");
    campaign::Journal jb;
    ASSERT_TRUE(jb.open(b));
    jb.append("0000000000000001", "{\"index\":0,\"id\":\"x\"}");  // dup
    jb.append("00000000000000aa", "{\"index\":1,\"id\":\"y\"}");
  }
  int conflicts = -1;
  const auto ab = campaign::merge_journals({a, b}, &conflicts);
  EXPECT_EQ(conflicts, 0);  // identical duplicate is not a conflict
  ASSERT_EQ(ab.size(), 3u);
  const auto ba = campaign::merge_journals({b, a});
  EXPECT_EQ(campaign::journal_jsonl(ab), campaign::journal_jsonl(ba));
  // Sorted normal form: keys ascending, one line each.
  const std::string jsonl = campaign::journal_jsonl(ab);
  EXPECT_LT(jsonl.find("0000000000000001"), jsonl.find("00000000000000aa"));
  EXPECT_LT(jsonl.find("00000000000000aa"), jsonl.find("00000000000000ff"));

  // A same-key, different-bytes collision is corruption and is counted.
  {
    campaign::Journal jb;
    ASSERT_TRUE(jb.open(b));  // append mode
    jb.append("00000000000000ff", "{\"index\":2,\"id\":\"DIFFERENT\"}");
  }
  conflicts = 0;
  const auto clash = campaign::merge_journals({a, b}, &conflicts);
  EXPECT_EQ(conflicts, 1);
  EXPECT_EQ(clash.at("00000000000000ff"), "{\"index\":2,\"id\":\"z\"}");
  std::remove(a.c_str());
  std::remove(b.c_str());
}

// --- the daemon ------------------------------------------------------------

TEST(FabricService, RunsSubmittedJobAndReturnsByteIdenticalArtifacts) {
  const std::string spec_text =
      "name fabric-unit\n"
      "protocol gmp\n"
      "oracle quiet\n"
      "types gmp-heartbeat gmp-commit\n"
      "faults drop\n"
      "seeds 1000..1002\n"
      "burst 2\n"
      "side receive\n"
      "duration_s 40\n";
  std::string err;
  const auto spec = campaign::parse_spec(spec_text, &err);
  ASSERT_TRUE(spec.has_value()) << err;
  const auto cells = campaign::plan(*spec);
  const auto baseline = campaign::run_cells(cells, {});

  Listener listener;
  ASSERT_TRUE(listener.open("127.0.0.1:0", &err)) << err;
  // Worker first (fork needs a single-threaded parent), then the service.
  WorkerOptions wopts;
  wopts.connect = listener.address();
  LocalWorkerPool pool;
  ASSERT_TRUE(spawn_local_workers(wopts, 1, listener.fd(), &pool, &err))
      << err;
  std::atomic<bool> stop{false};
  ServiceStats stats;
  std::thread daemon([&] {
    ServiceOptions sopts;
    sopts.should_stop = [&] { return stop.load(); };
    run_service(&listener, sopts, &stats);
  });

  const int fd = dial(listener.address(), &err);
  ASSERT_GE(fd, 0) << err;
  Hello hello;
  hello.role = "client";
  std::string bytes = encode_frame(FrameType::kHello, encode_hello(hello));
  ASSERT_TRUE(send_all(fd, bytes.data(), bytes.size()));
  Submit submit;
  submit.spec_text = spec_text;
  bytes = encode_frame(FrameType::kSubmit, encode_submit(submit));
  ASSERT_TRUE(send_all(fd, bytes.data(), bytes.size()));

  FrameReader reader;
  Frame f;
  int progress_frames = 0;
  std::string report, journal, done, streamed;
  int journal_chunks = 0;
  while (done.empty()) {
    char buf[65536];
    const ssize_t n = recv(fd, buf, sizeof buf, 0);
    ASSERT_GT(n, 0) << "daemon closed before DONE";
    reader.feed(buf, static_cast<std::size_t>(n));
    while (reader.next(&f)) {
      if (f.type == FrameType::kProgress) {
        ++progress_frames;
      } else if (f.type == FrameType::kArtifact) {
        std::string name, content, chunk;
        ASSERT_TRUE(decode_artifact(f.payload, &name, &content, &chunk));
        if (name == "report") report = content;
        if (name == "journal") {
          if (chunk.empty()) {
            journal = content;  // the complete final document
          } else {
            ++journal_chunks;   // one live record line, streamed mid-run
            streamed += content;
          }
        }
      } else if (f.type == FrameType::kDone) {
        done = decode_json_line(f.payload);
      }
    }
  }
  close(fd);
  stop.store(true);
  daemon.join();
  reap_local_workers(&pool);

  EXPECT_GE(progress_frames, static_cast<int>(cells.size()));
  EXPECT_NE(done.find("\"status\":\"ok\""), std::string::npos) << done;
  // The daemon's report is the in-process report document for the same
  // cells, host fields (jobs, wall_ms) omitted.
  campaign::CampaignReport local(cells.size());
  local.splice(baseline);
  EXPECT_EQ(report, local.report_json(*spec));
  // The journal artifact is the sorted normal form keyed by content hash.
  ASSERT_FALSE(journal.empty());
  std::size_t lines = 0;
  for (char c : journal) lines += c == '\n' ? 1 : 0;
  EXPECT_EQ(lines, cells.size());
  // Every record also streamed live, one chunk each; sorting the chunk
  // lines reproduces the final artifact exactly — so a client killed
  // mid-run already held everything delivered up to that point.
  EXPECT_EQ(journal_chunks, static_cast<int>(cells.size()));
  const std::string tmp = "/tmp/pfi_fabric_test_stream.jsonl";
  {
    std::ofstream out(tmp);
    out << streamed;
  }
  EXPECT_EQ(campaign::journal_jsonl(campaign::load_journal(tmp)), journal);
  std::remove(tmp.c_str());
  EXPECT_EQ(stats.jobs_completed, 1);
}

TEST(FabricService, RunsTwoJobsConcurrentlyOverOnePool) {
  const std::string spec_text =
      "name fabric-unit\n"
      "protocol gmp\n"
      "oracle quiet\n"
      "types gmp-heartbeat gmp-commit\n"
      "faults drop\n"
      "seeds 1000..1002\n"
      "burst 2\n"
      "side receive\n"
      "duration_s 40\n";
  std::string err;
  const auto spec = campaign::parse_spec(spec_text, &err);
  ASSERT_TRUE(spec.has_value()) << err;
  const std::size_t cell_count = campaign::plan(*spec).size();

  Listener listener;
  ASSERT_TRUE(listener.open("127.0.0.1:0", &err)) << err;
  WorkerOptions wopts;
  wopts.connect = listener.address();
  LocalWorkerPool pool;
  ASSERT_TRUE(spawn_local_workers(wopts, 2, listener.fd(), &pool, &err))
      << err;
  std::atomic<bool> stop{false};
  ServiceStats stats;
  std::thread daemon([&] {
    ServiceOptions sopts;
    sopts.should_stop = [&] { return stop.load(); };
    run_service(&listener, sopts, &stats);
  });

  // Two clients submit before either job can finish; the scheduler must
  // run both at once (leases round-robin over the shared pool) rather
  // than serialising them.
  int fds[2];
  for (int c = 0; c < 2; ++c) {
    fds[c] = dial(listener.address(), &err);
    ASSERT_GE(fds[c], 0) << err;
    Hello hello;
    hello.role = "client";
    hello.name = "client-" + std::to_string(c);
    std::string bytes = encode_frame(FrameType::kHello, encode_hello(hello));
    ASSERT_TRUE(send_all(fds[c], bytes.data(), bytes.size()));
    Submit submit;
    submit.spec_text = spec_text;
    // Per-job quota: with 2 workers and 2 jobs capped at 1 worker each,
    // concurrency is forced rather than merely possible.
    submit.max_workers = 1;
    bytes = encode_frame(FrameType::kSubmit, encode_submit(submit));
    ASSERT_TRUE(send_all(fds[c], bytes.data(), bytes.size()));
  }

  int progress[2] = {0, 0};
  std::string done[2];
  for (int c = 0; c < 2; ++c) {
    FrameReader reader;
    Frame f;
    while (done[c].empty()) {
      char buf[65536];
      const ssize_t n = recv(fds[c], buf, sizeof buf, 0);
      ASSERT_GT(n, 0) << "daemon closed client " << c << " before DONE";
      reader.feed(buf, static_cast<std::size_t>(n));
      while (reader.next(&f)) {
        if (f.type == FrameType::kProgress) ++progress[c];
        if (f.type == FrameType::kDone) done[c] = decode_json_line(f.payload);
      }
    }
    close(fds[c]);
  }
  stop.store(true);
  daemon.join();
  reap_local_workers(&pool);

  for (int c = 0; c < 2; ++c) {
    EXPECT_NE(done[c].find("\"status\":\"ok\""), std::string::npos)
        << done[c];
    EXPECT_GE(progress[c], static_cast<int>(cell_count));
  }
  EXPECT_EQ(stats.jobs_completed, 2);
  EXPECT_EQ(stats.peak_active, 2);  // they really ran at the same time
}

// --- fleet observability ----------------------------------------------------

TEST(FlightRecorder, BoundedRingEvictsOldestAndCountsDropped) {
  FlightRecorder fr(4);
  for (int i = 0; i < 10; ++i) {
    fr.record(FlightEvent::kResult, "w" + std::to_string(i), i, i, i);
  }
  // TraceLog::set_capacity semantics: total_added == size + dropped, always.
  EXPECT_EQ(fr.size(), 4u);
  EXPECT_EQ(fr.dropped(), 6u);
  EXPECT_EQ(fr.total_added(), 10u);
  auto snap = fr.snapshot();
  ASSERT_EQ(snap.size(), 4u);
  EXPECT_STREQ(snap.front().worker, "w6");  // oldest survivor first
  EXPECT_STREQ(snap.back().worker, "w9");
  EXPECT_EQ(snap.back().job, 9);
  EXPECT_EQ(snap.back().slot, 9);
  EXPECT_EQ(snap.back().epoch, 9);

  // Shrinking evicts the oldest survivors and counts them as dropped too.
  fr.set_capacity(2);
  EXPECT_EQ(fr.size(), 2u);
  EXPECT_EQ(fr.dropped(), 8u);
  EXPECT_EQ(fr.total_added(), 10u);
  EXPECT_STREQ(fr.snapshot().front().worker, "w8");

  // Capacity 0 clamps to 1: the ring stays bounded but never degenerate.
  fr.set_capacity(0);
  EXPECT_EQ(fr.capacity(), 1u);
  EXPECT_EQ(fr.size(), 1u);
  EXPECT_EQ(fr.dropped(), 9u);
  EXPECT_STREQ(fr.snapshot().front().worker, "w9");

  // JSONL carries the accounting trailer so a consumer can tell a quiet
  // fabric from a truncated ring.
  const std::string jsonl = fr.to_jsonl();
  EXPECT_NE(jsonl.find("\"event\":\"flight-meta\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"recorded\":10"), std::string::npos);
  EXPECT_NE(jsonl.find("\"dropped\":9"), std::string::npos);
}

TEST(FlightRecorder, TraceLanesGroupEventsByWorker) {
  FlightRecorder fr;
  fr.record(FlightEvent::kConnect);  // no worker tag: lands on lane 0
  fr.record(FlightEvent::kLeaseGrant, "w2", 0, 3, 1);
  fr.record(FlightEvent::kResult, "w1", 0, 0, 1);
  const std::string frag = fr.to_trace_events("fabric", 7);
  // One process lane, one thread lane per worker id, instants on each.
  EXPECT_NE(frag.find("\"process_name\""), std::string::npos);
  EXPECT_NE(frag.find("\"fabric\""), std::string::npos);
  EXPECT_NE(frag.find("\"w1\""), std::string::npos);
  EXPECT_NE(frag.find("\"w2\""), std::string::npos);
  EXPECT_NE(frag.find("\"lease-grant\""), std::string::npos);
  EXPECT_NE(frag.find("\"pid\":7"), std::string::npos);
  // A fragment, not a document: the caller splices it into traceEvents.
  EXPECT_NE(frag.front(), '[');
  EXPECT_NE(frag.back(), ']');
}

TEST(FabricWire, StatsRoundTripAndOverflowRejection) {
  std::vector<obs::MetricSample> in;
  obs::MetricSample s;
  s.name = "fabric.worker.cells_executed";
  s.kind = 'c';
  s.value = 42;
  in.push_back(s);
  s.name = "sim.max_queue_depth";
  s.kind = 'g';
  s.value = 7;
  in.push_back(s);

  std::vector<obs::MetricSample> out;
  ASSERT_TRUE(decode_stats(encode_stats(in), &out));
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].name, "fabric.worker.cells_executed");
  EXPECT_EQ(out[0].kind, 'c');
  EXPECT_EQ(out[0].value, 42u);
  EXPECT_EQ(out[1].name, "sim.max_queue_depth");
  EXPECT_EQ(out[1].kind, 'g');
  EXPECT_EQ(out[1].value, 7u);

  // A snapshot overflowing the sample cap is rejected whole — the handler
  // counts it and keeps the link, but never holds unbounded state.
  const std::vector<obs::MetricSample> big(kMaxStatsSamples + 1, s);
  EXPECT_FALSE(decode_stats(encode_stats(big), &out));
  // Garbage payloads fail cleanly too.
  EXPECT_FALSE(decode_stats("definitely not kv", &out));
}

TEST(Fabric, StatsToJsonIsSortedAndComplete) {
  FabricStats s;
  s.workers_joined = 3;
  s.leases_granted = 12;
  s.unknown_frames = 1;
  // Exact bytes: flat object, every counter, keys sorted — the fixed
  // schema `--metrics-out` and the daemon's metrics artifact embed.
  EXPECT_EQ(s.to_json(),
            "{\"addr_rejected\":0,\"auth_rejected\":0,\"cells_requeued\":0,"
            "\"duplicate_results\":0,\"handshake_timeouts\":0,"
            "\"leases_granted\":12,\"links_dropped\":0,\"stale_results\":0,"
            "\"unknown_frames\":1,\"version_rejected\":0,"
            "\"workers_joined\":3,\"workers_lost\":0,"
            "\"workers_reattached\":0}");
}

TEST(Fabric, UnknownFramesDegradeGracefullyAndV2PeersAreRejected) {
  const auto cells = campaign::plan(small_gmp_spec());
  Listener listener;
  std::string err;
  ASSERT_TRUE(listener.open("127.0.0.1:0", &err)) << err;
  Engine::Options eopts;
  Engine engine(&listener, eopts);
  std::vector<RunResult> results(cells.size());
  bool done = false;
  engine.add_batch(
      &cells,
      [&](int slot, RunResult r) {
        results[static_cast<std::size_t>(slot)] = std::move(r);
      },
      [&] { done = true; });

  const int fd = dial(listener.address(), &err);
  ASSERT_GE(fd, 0) << err;
  fcntl(fd, F_SETFL, O_NONBLOCK);
  Hello hello;
  hello.role = "worker";
  hello.name = "current";
  std::string bytes = encode_frame(FrameType::kHello, encode_hello(hello));
  ASSERT_TRUE(send_all(fd, bytes.data(), bytes.size()));

  FrameReader reader;
  Frame f;
  auto pump_until = [&](int sock, FrameReader* r, FrameType want,
                        int steps) {
    for (int i = 0; i < steps; ++i) {
      engine.step(10);
      char buf[65536];
      for (;;) {
        const ssize_t n = recv(sock, buf, sizeof buf, 0);
        if (n <= 0) break;
        r->feed(buf, static_cast<std::size_t>(n));
      }
      while (r->next(&f)) {
        if (f.type == want) return true;
      }
    }
    return false;
  };
  ASSERT_TRUE(pump_until(fd, &reader, FrameType::kHello, 200));

  // An unknown reserved frame type (a future wire revision's) is ignored
  // and counted; a malformed STATS payload likewise. Neither kills the
  // link: a lease request sent *after* both still gets a grant.
  bytes = encode_frame(static_cast<FrameType>(29), "from the future");
  ASSERT_TRUE(send_all(fd, bytes.data(), bytes.size()));
  bytes = encode_frame(FrameType::kStats, "definitely not kv");
  ASSERT_TRUE(send_all(fd, bytes.data(), bytes.size()));
  bytes = encode_frame(FrameType::kLease, encode_lease_request(2));
  ASSERT_TRUE(send_all(fd, bytes.data(), bytes.size()));
  ASSERT_TRUE(pump_until(fd, &reader, FrameType::kLease, 400));
  EXPECT_EQ(engine.stats.unknown_frames, 2);
  EXPECT_EQ(engine.stats.links_dropped, 0);
  EXPECT_EQ(engine.stats.workers_joined, 1);
  close(fd);

  // A previous-revision (v2) peer is refused: the wire speaks v3 only,
  // and the BYE names the version expected.
  const int fd2 = dial(listener.address(), &err);
  ASSERT_GE(fd2, 0) << err;
  fcntl(fd2, F_SETFL, O_NONBLOCK);
  hello.version = 2;
  hello.name = "legacy";
  bytes = encode_frame(FrameType::kHello, encode_hello(hello));
  ASSERT_TRUE(send_all(fd2, bytes.data(), bytes.size()));
  FrameReader reader2;
  ASSERT_TRUE(pump_until(fd2, &reader2, FrameType::kBye, 200));
  const std::string reason = decode_bye(f.payload);
  EXPECT_NE(reason.find("peer v2, expected v3"), std::string::npos) << reason;
  EXPECT_EQ(engine.stats.workers_joined, 1);
  EXPECT_EQ(engine.stats.version_rejected, 1);
  close(fd2);
  engine.shutdown("test complete");
}

TEST(Fabric, FleetMetricsAndFlightRideAlongWithoutTouchingRecords) {
  const auto cells = campaign::plan(small_gmp_spec());
  const auto baseline = record_strings(campaign::run_cells(cells, {}));

  Listener listener;
  std::string err;
  ASSERT_TRUE(listener.open("127.0.0.1:0", &err)) << err;
  WorkerOptions wopts;
  wopts.connect = listener.address();
  LocalWorkerPool pool;
  ASSERT_TRUE(spawn_local_workers(wopts, 3, listener.fd(), &pool, &err))
      << err;

  FabricOptions fopts;
  fopts.no_worker_timeout_ms = 30000;
  FlightRecorder flight;
  obs::Registry reg;
  std::map<std::string, std::vector<obs::MetricSample>> worker_stats;
  fopts.flight = &flight;
  fopts.obs = &reg;
  fopts.worker_stats_out = &worker_stats;
  std::map<std::string, int> per_worker;
  fopts.on_result_worker = [&](const std::string& id) { ++per_worker[id]; };
  FabricStats stats;
  const auto results = run_fabric(&listener, cells, fopts, &stats);
  reap_local_workers(&pool);

  // The whole observability plane is a side channel: record bytes match
  // the in-process baseline exactly.
  EXPECT_EQ(record_strings(results), baseline);

  // Every result was attributed to some worker for the fleet line.
  int attributed = 0;
  for (const auto& [id, n] : per_worker) attributed += n;
  EXPECT_EQ(attributed, static_cast<int>(cells.size()));

  // Workers shipped cumulative STATS snapshots; folded together their
  // cells_executed counters cover the whole campaign (clean run: every
  // cell executed exactly once).
  ASSERT_FALSE(worker_stats.empty());
  std::map<std::string, obs::MetricSample> fleet;
  for (const auto& [id, samples] : worker_stats) {
    obs::merge_samples(&fleet, samples);
  }
  const auto cx = fleet.find("fabric.worker.cells_executed");
  ASSERT_NE(cx, fleet.end());
  EXPECT_EQ(cx->second.value, cells.size());
  const auto leases = fleet.find("fabric.worker.leases");
  ASSERT_NE(leases, fleet.end());
  EXPECT_EQ(static_cast<int>(leases->second.value), stats.leases_granted);

  // The coordinator's stage histogram saw one queue-wait per slot.
  bool saw_wait = false;
  for (const auto& m : reg.snapshot()) {
    if (m.name == "fabric.coord.queue_wait_us.count") {
      saw_wait = true;
      EXPECT_EQ(m.value, cells.size());
    }
  }
  EXPECT_TRUE(saw_wait);

  // Flight ring: every worker that shipped stats also left lease-grant
  // and result events, plus a join.
  std::map<std::string, int> grants, res, joins;
  for (const FlightRecord& r : flight.snapshot()) {
    if (r.event == FlightEvent::kLeaseGrant) ++grants[r.worker];
    if (r.event == FlightEvent::kResult) ++res[r.worker];
    if (r.event == FlightEvent::kJoin) ++joins[r.worker];
  }
  for (const auto& [id, samples] : worker_stats) {
    EXPECT_GE(grants[id], 1) << id;
    EXPECT_GE(res[id], 1) << id;
    EXPECT_EQ(joins[id], 1) << id;
  }
}

TEST(FabricService, StatusAnswersLiveAndMetricsArtifactCoversTheFleet) {
  const std::string spec_text =
      "name fabric-unit\n"
      "protocol gmp\n"
      "oracle quiet\n"
      "types gmp-heartbeat gmp-commit\n"
      "faults drop\n"
      "seeds 1000..1002\n"
      "burst 2\n"
      "side receive\n"
      "duration_s 40\n";
  std::string err;
  Listener listener;
  ASSERT_TRUE(listener.open("127.0.0.1:0", &err)) << err;
  WorkerOptions wopts;
  wopts.connect = listener.address();
  LocalWorkerPool pool;
  ASSERT_TRUE(spawn_local_workers(wopts, 1, listener.fd(), &pool, &err))
      << err;
  std::atomic<bool> stop{false};
  ServiceStats stats;
  FlightRecorder flight;
  obs::Registry reg;
  std::thread daemon([&] {
    ServiceOptions sopts;
    sopts.flight = &flight;
    sopts.obs = &reg;
    sopts.should_stop = [&] { return stop.load(); };
    run_service(&listener, sopts, &stats);
  });

  const int fd = dial(listener.address(), &err);
  ASSERT_GE(fd, 0) << err;
  Hello hello;
  hello.role = "client";
  std::string bytes = encode_frame(FrameType::kHello, encode_hello(hello));
  ASSERT_TRUE(send_all(fd, bytes.data(), bytes.size()));

  FrameReader reader;
  Frame f;
  auto read_frame = [&]() {
    for (;;) {
      if (reader.next(&f)) return true;
      char buf[65536];
      const ssize_t n = recv(fd, buf, sizeof buf, 0);
      if (n <= 0) return false;
      reader.feed(buf, static_cast<std::size_t>(n));
    }
  };

  // STATUS before any job: deterministic schema, zero counters.
  bytes = encode_frame(FrameType::kStatus, "");
  ASSERT_TRUE(send_all(fd, bytes.data(), bytes.size()));
  std::string status;
  while (read_frame()) {
    if (f.type == FrameType::kStatus) {
      status = decode_json_line(f.payload);
      break;
    }
  }
  ASSERT_FALSE(status.empty());
  for (const char* key :
       {"\"daemon\":", "\"jobs\":", "\"workers\":", "\"fabric\":",
        "\"fleet_metrics\":"}) {
    EXPECT_NE(status.find(key), std::string::npos) << key << " in " << status;
  }
  EXPECT_NE(status.find("\"active\":0"), std::string::npos) << status;

  // Run a job; the metrics artifact must carry the deterministic metrics
  // object plus the fleet/fabric side channel.
  Submit submit;
  submit.spec_text = spec_text;
  bytes = encode_frame(FrameType::kSubmit, encode_submit(submit));
  ASSERT_TRUE(send_all(fd, bytes.data(), bytes.size()));
  std::string metrics, done;
  while (done.empty() && read_frame()) {
    if (f.type == FrameType::kArtifact) {
      std::string name, content, chunk;
      ASSERT_TRUE(decode_artifact(f.payload, &name, &content, &chunk));
      if (name == "metrics" && chunk.empty()) metrics = content;
    } else if (f.type == FrameType::kDone) {
      done = decode_json_line(f.payload);
    }
  }
  EXPECT_NE(done.find("\"status\":\"ok\""), std::string::npos) << done;
  ASSERT_FALSE(metrics.empty());
  for (const char* key : {"\"campaign\":", "\"metrics\":", "\"fabric\":",
                          "\"fleet\":", "\"merged\":", "\"workers\":"}) {
    EXPECT_NE(metrics.find(key), std::string::npos) << key;
  }

  // STATUS again: the daemon's counters advanced.
  bytes = encode_frame(FrameType::kStatus, "");
  ASSERT_TRUE(send_all(fd, bytes.data(), bytes.size()));
  status.clear();
  while (read_frame()) {
    if (f.type == FrameType::kStatus) {
      status = decode_json_line(f.payload);
      break;
    }
  }
  ASSERT_FALSE(status.empty());
  EXPECT_NE(status.find("\"jobs_accepted\":1"), std::string::npos) << status;
  EXPECT_NE(status.find("\"jobs_completed\":1"), std::string::npos) << status;

  close(fd);
  stop.store(true);
  daemon.join();
  reap_local_workers(&pool);
  // The daemon's flight ring saw the worker join and the leases flow.
  bool saw_join = false, saw_grant = false;
  for (const FlightRecord& r : flight.snapshot()) {
    saw_join |= r.event == FlightEvent::kJoin;
    saw_grant |= r.event == FlightEvent::kLeaseGrant;
  }
  EXPECT_TRUE(saw_join);
  EXPECT_TRUE(saw_grant);
}

}  // namespace
}  // namespace pfi::fabric
