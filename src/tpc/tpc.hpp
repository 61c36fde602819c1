// Two-phase commit (2PC) atomic commitment — a third target protocol.
//
// The paper's conclusion points at "(iii) experimental studies of other
// commercial and prototype distributed protocols"; 2PC is the canonical
// next victim because its famous *blocking window* — participants prepared
// but uncertain while the coordinator is down — is precisely the
// hard-to-reach global state script-driven fault injection exists to force.
//
// Protocol (centralised 2PC with cooperative termination):
//   coordinator: VOTE_REQ -> collect VOTE_YES/VOTE_NO (timeout = NO) ->
//                decision COMMIT iff all yes -> send decision until ACKed.
//   participant: on VOTE_REQ, vote and (if yes) enter PREPARED/uncertain;
//                on decision, apply and ACK. If uncertain too long, run the
//                termination protocol: ask the coordinator AND the other
//                participants (DECISION_REQ); anyone who knows answers
//                (DECISION); if nobody knows, stay blocked — 2PC's
//                fundamental weakness, observable here on purpose.
//
// Wire format (UDP payload; the PFI layer sits between this and UDP):
//   type u8 | txid u32 | sender u32 | decision u8 | participant_count u16 |
//   participants u32 * n                                   (12 + 4 * n bytes)
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "net/addr.hpp"
#include "sim/scheduler.hpp"
#include "trace/trace.hpp"
#include "xk/layer.hpp"

namespace pfi::tpc {

enum class MsgType : std::uint8_t {
  kVoteReq = 1,
  kVoteYes = 2,
  kVoteNo = 3,
  kDecision = 4,     // carries Decision
  kAck = 5,
  kDecisionReq = 6,  // termination protocol query
};

enum class Decision : std::uint8_t { kNone = 0, kCommit = 1, kAbort = 2 };

std::string to_string(MsgType t);
std::string to_string(Decision d);

struct TpcMessage {
  MsgType type = MsgType::kVoteReq;
  std::uint32_t txid = 0;
  net::NodeId sender = 0;
  Decision decision = Decision::kNone;
  std::vector<net::NodeId> participants;  // VOTE_REQ carries the roster

  /// Bytes before the participants, and where participant_count sits among
  /// them.
  static constexpr std::size_t kFixedSize = 12;
  static constexpr std::size_t kCountAt = 10;

  [[nodiscard]] xk::Message encode() const;
  static bool decode(const xk::Message& msg, TpcMessage& out);
  static bool peek(const xk::Message& msg, std::size_t at, TpcMessage& out);
  /// Just the type of the message at `at`, after the length checks peek
  /// makes (the fixed part, then every participant): true iff peek would be.
  static bool peek_type(const xk::Message& msg, std::size_t at, MsgType& out);
  [[nodiscard]] std::string summary() const;
};

/// Participant-side transaction states.
enum class TxState {
  kUnknown,    // never heard of it
  kPrepared,   // voted yes, uncertain (THE blocking state)
  kCommitted,
  kAborted,
};

std::string to_string(TxState s);

struct TpcConfig {
  net::NodeId id = 0;
  net::Port port = 9900;
  sim::Duration vote_collect_timeout = sim::sec(2);
  sim::Duration decision_retry_interval = sim::sec(1);
  int max_decision_retries = 30;
  sim::Duration uncertain_timeout = sim::sec(3);   // before termination proto
  sim::Duration termination_retry = sim::sec(3);   // re-ask period while blocked
};

struct TpcStats {
  std::uint64_t transactions_coordinated = 0;
  std::uint64_t committed = 0;
  std::uint64_t aborted = 0;
  std::uint64_t votes_cast = 0;
  std::uint64_t decision_retransmits = 0;
  std::uint64_t termination_queries_sent = 0;
  std::uint64_t termination_answers_sent = 0;
  std::uint64_t decisions_learned_from_peers = 0;
};

/// One node of the 2PC system: can coordinate transactions and participate
/// in others' transactions simultaneously.
class TpcNode : public xk::Layer {
 public:
  TpcNode(sim::Scheduler& sched, TpcConfig cfg,
          trace::TraceLog* trace = nullptr);
  ~TpcNode() override;

  /// Coordinate a transaction across `participants` (self excluded or
  /// included — included means we also vote). Outcome reported via
  /// on_coordinator_done and outcome_of().
  void begin(std::uint32_t txid, std::vector<net::NodeId> participants);

  /// How this node will vote. Default: always yes.
  std::function<bool(std::uint32_t txid)> vote_fn;

  /// Called on the coordinator when a transaction reaches a decision.
  std::function<void(std::uint32_t, Decision)> on_coordinator_done;

  /// Emulate a crash: drop all state and ignore traffic until revive().
  /// Prepared-transaction state SURVIVES (it would be in the write-ahead
  /// log), which is what makes post-crash blocking observable.
  void crash();
  void revive();
  [[nodiscard]] bool crashed() const { return crashed_; }

  void pop(xk::Message msg) override;
  void push(xk::Message msg) override;

  // --- introspection ---------------------------------------------------------
  [[nodiscard]] net::NodeId id() const { return cfg_.id; }
  [[nodiscard]] TxState state_of(std::uint32_t txid) const;
  [[nodiscard]] std::optional<Decision> outcome_of(std::uint32_t txid) const;
  [[nodiscard]] bool is_blocked_on(std::uint32_t txid) const {
    return state_of(txid) == TxState::kPrepared;
  }
  [[nodiscard]] const TpcStats& stats() const { return stats_; }

 private:
  struct CoordTx {
    std::vector<net::NodeId> participants;
    std::set<net::NodeId> yes_votes;
    std::set<net::NodeId> acked;
    Decision decision = Decision::kNone;
    int retries = 0;
    sim::TimerId collect_timer = sim::kInvalidTimer;
    sim::TimerId retry_timer = sim::kInvalidTimer;
  };
  struct PartTx {
    TxState state = TxState::kUnknown;
    net::NodeId coordinator = 0;
    std::vector<net::NodeId> participants;
    sim::TimerId uncertain_timer = sim::kInvalidTimer;
  };

  void send_msg(net::NodeId to, const TpcMessage& m);
  void handle(const TpcMessage& m);
  void on_vote_req(const TpcMessage& m);
  void on_vote(const TpcMessage& m, bool yes);
  void on_decision_msg(const TpcMessage& m);
  void on_ack(const TpcMessage& m);
  void on_decision_req(const TpcMessage& m);
  void decide(std::uint32_t txid, Decision d);
  void send_decision_round(std::uint32_t txid);
  void arm_uncertain_timer(std::uint32_t txid);
  void apply_decision(std::uint32_t txid, Decision d);
  void trace_event(const std::string& what, const std::string& detail = {});

  sim::Scheduler& sched_;
  TpcConfig cfg_;
  trace::TraceLog* trace_log_;
  bool crashed_ = false;

  std::map<std::uint32_t, CoordTx> coordinating_;
  std::map<std::uint32_t, PartTx> participating_;
  TpcStats stats_;
};

}  // namespace pfi::tpc
