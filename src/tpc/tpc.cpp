#include "tpc/tpc.hpp"

#include <algorithm>
#include <sstream>

#include "net/layers.hpp"

namespace pfi::tpc {

std::string to_string(MsgType t) {
  switch (t) {
    case MsgType::kVoteReq: return "vote-req";
    case MsgType::kVoteYes: return "vote-yes";
    case MsgType::kVoteNo: return "vote-no";
    case MsgType::kDecision: return "decision";
    case MsgType::kAck: return "ack";
    case MsgType::kDecisionReq: return "decision-req";
  }
  return "?";
}

std::string to_string(Decision d) {
  switch (d) {
    case Decision::kNone: return "none";
    case Decision::kCommit: return "commit";
    case Decision::kAbort: return "abort";
  }
  return "?";
}

std::string to_string(TxState s) {
  switch (s) {
    case TxState::kUnknown: return "unknown";
    case TxState::kPrepared: return "prepared";
    case TxState::kCommitted: return "committed";
    case TxState::kAborted: return "aborted";
  }
  return "?";
}

xk::Message TpcMessage::encode() const {
  xk::Message msg;
  xk::Writer w{msg.prepend(kFixedSize + 4 * participants.size())};
  w.u8(static_cast<std::uint8_t>(type));
  w.u32(txid);
  w.u32(sender);
  w.u8(static_cast<std::uint8_t>(decision));
  w.u16(static_cast<std::uint16_t>(participants.size()));
  for (net::NodeId p : participants) w.u32(p);
  return msg;
}

bool TpcMessage::peek(const xk::Message& msg, std::size_t at,
                      TpcMessage& out) {
  if (msg.size() < at) return false;
  xk::Reader r{msg.bytes().subspan(at)};
  out.type = static_cast<MsgType>(r.u8());
  out.txid = r.u32();
  out.sender = r.u32();
  out.decision = static_cast<Decision>(r.u8());
  const std::uint16_t n = r.u16();
  out.participants.clear();
  for (std::uint16_t i = 0; i < n; ++i) out.participants.push_back(r.u32());
  return !r.truncated();
}

bool TpcMessage::peek_type(const xk::Message& msg, std::size_t at,
                           MsgType& out) {
  if (msg.size() < at + kFixedSize) return false;
  const std::span<const std::uint8_t> body = msg.bytes().subspan(at);
  const std::size_t count =
      std::size_t{body[kCountAt]} << 8 | body[kCountAt + 1];
  if (body.size() - kFixedSize < 4 * count) return false;
  out = static_cast<MsgType>(body[0]);
  return true;
}

bool TpcMessage::decode(const xk::Message& msg, TpcMessage& out) {
  return peek(msg, 0, out);
}

std::string TpcMessage::summary() const {
  std::ostringstream os;
  os << to_string(type) << " tx=" << txid << " sender=" << sender;
  if (decision != Decision::kNone) os << " decision=" << to_string(decision);
  if (!participants.empty()) os << " n=" << participants.size();
  return os.str();
}

TpcNode::TpcNode(sim::Scheduler& sched, TpcConfig cfg, trace::TraceLog* trace)
    : Layer("tpc"), sched_(sched), cfg_(std::move(cfg)), trace_log_(trace) {}

TpcNode::~TpcNode() {
  // No timer callback may outlive the node.
  for (auto& [txid, tx] : coordinating_) {
    sched_.cancel(tx.collect_timer);
    sched_.cancel(tx.retry_timer);
  }
  for (auto& [txid, tx] : participating_) {
    sched_.cancel(tx.uncertain_timer);
  }
}

void TpcNode::push(xk::Message msg) { send_down(std::move(msg)); }

void TpcNode::pop(xk::Message msg) {
  if (crashed_) return;
  net::UdpMeta::pop_from(msg);
  TpcMessage m;
  if (!TpcMessage::decode(msg, m)) return;
  handle(m);
}

void TpcNode::crash() {
  crashed_ = true;
  // In-flight coordinator timers stop driving anything; participant
  // PREPARED state persists (write-ahead log semantics).
  for (auto& [txid, tx] : coordinating_) {
    sched_.cancel(tx.collect_timer);
    sched_.cancel(tx.retry_timer);
  }
  for (auto& [txid, tx] : participating_) {
    sched_.cancel(tx.uncertain_timer);
  }
  trace_event("crash");
}

void TpcNode::revive() {
  crashed_ = false;
  trace_event("revive");
  // Recovery:
  //  * decided transactions resume their decision broadcast;
  //  * undecided coordinated transactions are PRESUMED ABORT — the
  //    coordinator crashed before logging a commit, so abort is the only
  //    safe outcome, and announcing it releases blocked participants;
  //  * our own uncertain participations restart the termination protocol.
  std::vector<std::uint32_t> undecided;
  for (auto& [txid, tx] : coordinating_) {
    if (tx.decision == Decision::kNone) {
      undecided.push_back(txid);
    } else {
      tx.retries = 0;  // fresh retry budget after recovery
      send_decision_round(txid);
    }
  }
  for (std::uint32_t txid : undecided) decide(txid, Decision::kAbort);
  for (auto& [txid, tx] : participating_) {
    if (tx.state == TxState::kPrepared) arm_uncertain_timer(txid);
  }
}

void TpcNode::send_msg(net::NodeId to, const TpcMessage& m) {
  xk::Message msg = m.encode();
  net::UdpMeta meta;
  meta.remote = to;
  meta.remote_port = cfg_.port;
  meta.local_port = cfg_.port;
  meta.push_onto(msg);
  send_down(std::move(msg));
}

// ---------------------------------------------------------------------------
// Coordinator
// ---------------------------------------------------------------------------

void TpcNode::begin(std::uint32_t txid,
                    std::vector<net::NodeId> participants) {
  std::sort(participants.begin(), participants.end());
  participants.erase(
      std::unique(participants.begin(), participants.end()),
      participants.end());
  CoordTx tx;
  tx.participants = participants;
  coordinating_[txid] = std::move(tx);
  ++stats_.transactions_coordinated;
  trace_event("begin", "tx=" + std::to_string(txid));

  TpcMessage req;
  req.type = MsgType::kVoteReq;
  req.txid = txid;
  req.sender = cfg_.id;
  req.participants = participants;
  for (net::NodeId p : participants) {
    if (p == cfg_.id) continue;
    send_msg(p, req);
  }
  // Our own vote, if we participate.
  if (std::find(participants.begin(), participants.end(), cfg_.id) !=
      participants.end()) {
    const bool yes = !vote_fn || vote_fn(txid);
    ++stats_.votes_cast;
    if (yes) {
      coordinating_[txid].yes_votes.insert(cfg_.id);
    } else {
      decide(txid, Decision::kAbort);
      return;
    }
  }
  coordinating_[txid].collect_timer =
      sched_.schedule(cfg_.vote_collect_timeout, [this, txid] {
        if (crashed_) return;
        auto it = coordinating_.find(txid);
        if (it == coordinating_.end() ||
            it->second.decision != Decision::kNone) {
          return;
        }
        trace_event("vote-timeout", "tx=" + std::to_string(txid));
        decide(txid, Decision::kAbort);  // presumed abort
      });
}

void TpcNode::on_vote(const TpcMessage& m, bool yes) {
  auto it = coordinating_.find(m.txid);
  if (it == coordinating_.end()) return;
  CoordTx& tx = it->second;
  if (tx.decision != Decision::kNone) return;  // already decided
  if (!yes) {
    decide(m.txid, Decision::kAbort);
    return;
  }
  tx.yes_votes.insert(m.sender);
  bool all = true;
  for (net::NodeId p : tx.participants) {
    if (!tx.yes_votes.contains(p)) {
      all = false;
      break;
    }
  }
  if (all) decide(m.txid, Decision::kCommit);
}

void TpcNode::decide(std::uint32_t txid, Decision d) {
  auto it = coordinating_.find(txid);
  if (it == coordinating_.end()) return;
  CoordTx& tx = it->second;
  tx.decision = d;
  sched_.cancel(tx.collect_timer);
  trace_event("decide", "tx=" + std::to_string(txid) + " " + to_string(d));
  apply_decision(txid, d);
  if (on_coordinator_done) on_coordinator_done(txid, d);
  send_decision_round(txid);
}

void TpcNode::send_decision_round(std::uint32_t txid) {
  auto it = coordinating_.find(txid);
  if (it == coordinating_.end() || crashed_) return;
  CoordTx& tx = it->second;
  TpcMessage m;
  m.type = MsgType::kDecision;
  m.txid = txid;
  m.sender = cfg_.id;
  m.decision = tx.decision;
  bool anyone_left = false;
  for (net::NodeId p : tx.participants) {
    if (p == cfg_.id || tx.acked.contains(p)) continue;
    anyone_left = true;
    send_msg(p, m);
    if (tx.retries > 0) ++stats_.decision_retransmits;
  }
  if (!anyone_left) return;
  if (++tx.retries > cfg_.max_decision_retries) {
    trace_event("decision-give-up", "tx=" + std::to_string(txid));
    return;
  }
  tx.retry_timer = sched_.schedule(cfg_.decision_retry_interval,
                                   [this, txid] { send_decision_round(txid); });
}

void TpcNode::on_ack(const TpcMessage& m) {
  auto it = coordinating_.find(m.txid);
  if (it == coordinating_.end()) return;
  it->second.acked.insert(m.sender);
}

// ---------------------------------------------------------------------------
// Participant
// ---------------------------------------------------------------------------

void TpcNode::on_vote_req(const TpcMessage& m) {
  PartTx& tx = participating_[m.txid];
  if (tx.state == TxState::kCommitted || tx.state == TxState::kAborted) {
    // Duplicate VOTE_REQ after a decision: resend nothing; the coordinator
    // retransmits decisions, not vote requests.
    return;
  }
  tx.coordinator = m.sender;
  tx.participants = m.participants;
  if (tx.state == TxState::kPrepared) return;  // duplicate; already voted yes
  const bool yes = !vote_fn || vote_fn(m.txid);
  ++stats_.votes_cast;
  TpcMessage reply;
  reply.type = yes ? MsgType::kVoteYes : MsgType::kVoteNo;
  reply.txid = m.txid;
  reply.sender = cfg_.id;
  send_msg(m.sender, reply);
  if (yes) {
    tx.state = TxState::kPrepared;  // the uncertainty window opens
    trace_event("prepared", "tx=" + std::to_string(m.txid));
    arm_uncertain_timer(m.txid);
  } else {
    tx.state = TxState::kAborted;   // unilateral abort after voting no
    ++stats_.aborted;
  }
}

void TpcNode::arm_uncertain_timer(std::uint32_t txid) {
  auto it = participating_.find(txid);
  if (it == participating_.end()) return;
  sched_.cancel(it->second.uncertain_timer);
  it->second.uncertain_timer =
      sched_.schedule(cfg_.uncertain_timeout, [this, txid] {
        if (crashed_) return;
        auto it2 = participating_.find(txid);
        if (it2 == participating_.end() ||
            it2->second.state != TxState::kPrepared) {
          return;
        }
        // Termination protocol: ask the coordinator AND every other
        // participant whether they know the outcome.
        trace_event("termination-query", "tx=" + std::to_string(txid));
        TpcMessage q;
        q.type = MsgType::kDecisionReq;
        q.txid = txid;
        q.sender = cfg_.id;
        send_msg(it2->second.coordinator, q);
        ++stats_.termination_queries_sent;
        for (net::NodeId p : it2->second.participants) {
          if (p == cfg_.id || p == it2->second.coordinator) continue;
          send_msg(p, q);
          ++stats_.termination_queries_sent;
        }
        // Still uncertain: re-ask later (blocked until someone knows).
        it2->second.uncertain_timer = sched_.schedule(
            cfg_.termination_retry, [this, txid] { arm_uncertain_timer(txid); });
      });
}

void TpcNode::on_decision_msg(const TpcMessage& m) {
  PartTx& tx = participating_[m.txid];
  if (tx.state == TxState::kPrepared || tx.state == TxState::kUnknown) {
    if (tx.state == TxState::kPrepared &&
        tx.coordinator != m.sender &&
        std::find(tx.participants.begin(), tx.participants.end(), m.sender) ==
            tx.participants.end()) {
      return;  // decision from a stranger: ignore
    }
    // A COMMIT for a transaction we never voted on cannot be legitimate
    // (our yes vote was required); an ABORT can (our vote request was
    // lost and the coordinator presumed abort).
    if (tx.state == TxState::kUnknown && m.decision == Decision::kCommit) {
      return;
    }
    sched_.cancel(tx.uncertain_timer);
    apply_decision(m.txid, m.decision);
    if (m.sender != cfg_.id && tx.coordinator != 0 &&
        m.sender != tx.coordinator) {
      ++stats_.decisions_learned_from_peers;
    }
  }
  // Always ACK so the coordinator stops retransmitting.
  TpcMessage ack;
  ack.type = MsgType::kAck;
  ack.txid = m.txid;
  ack.sender = cfg_.id;
  send_msg(m.sender, ack);
}

void TpcNode::on_decision_req(const TpcMessage& m) {
  // Cooperative termination: answer if we know the outcome. (A participant
  // that voted no knows the outcome is abort.)
  Decision known = Decision::kNone;
  if (auto it = coordinating_.find(m.txid); it != coordinating_.end()) {
    known = it->second.decision;
  } else if (auto it2 = participating_.find(m.txid);
             it2 != participating_.end()) {
    if (it2->second.state == TxState::kCommitted) known = Decision::kCommit;
    if (it2->second.state == TxState::kAborted) known = Decision::kAbort;
  }
  if (known == Decision::kNone) return;  // we are uncertain too: silence
  TpcMessage reply;
  reply.type = MsgType::kDecision;
  reply.txid = m.txid;
  reply.sender = cfg_.id;
  reply.decision = known;
  send_msg(m.sender, reply);
  ++stats_.termination_answers_sent;
}

void TpcNode::apply_decision(std::uint32_t txid, Decision d) {
  PartTx& tx = participating_[txid];
  const TxState target =
      d == Decision::kCommit ? TxState::kCommitted : TxState::kAborted;
  if (tx.state == target) return;
  tx.state = target;
  if (d == Decision::kCommit) {
    ++stats_.committed;
  } else {
    ++stats_.aborted;
  }
  trace_event("applied", "tx=" + std::to_string(txid) + " " + to_string(d));
}

// ---------------------------------------------------------------------------

void TpcNode::handle(const TpcMessage& m) {
  switch (m.type) {
    case MsgType::kVoteReq: on_vote_req(m); break;
    case MsgType::kVoteYes: on_vote(m, true); break;
    case MsgType::kVoteNo: on_vote(m, false); break;
    case MsgType::kDecision: on_decision_msg(m); break;
    case MsgType::kAck: on_ack(m); break;
    case MsgType::kDecisionReq: on_decision_req(m); break;
  }
}

TxState TpcNode::state_of(std::uint32_t txid) const {
  auto it = participating_.find(txid);
  return it == participating_.end() ? TxState::kUnknown : it->second.state;
}

std::optional<Decision> TpcNode::outcome_of(std::uint32_t txid) const {
  if (auto it = coordinating_.find(txid); it != coordinating_.end() &&
                                          it->second.decision !=
                                              Decision::kNone) {
    return it->second.decision;
  }
  switch (state_of(txid)) {
    case TxState::kCommitted: return Decision::kCommit;
    case TxState::kAborted: return Decision::kAbort;
    default: return std::nullopt;
  }
}

void TpcNode::trace_event(const std::string& what,
                          const std::string& detail) {
  if (trace_log_ == nullptr) return;
  trace_log_->add(sched_.now(), "tpc-" + std::to_string(cfg_.id), "event",
                  "tpc-" + what, detail);
}

}  // namespace pfi::tpc
