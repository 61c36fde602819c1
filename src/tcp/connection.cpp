#include "tcp/connection.hpp"

#include <algorithm>
#include <cmath>

#include "net/layers.hpp"

namespace pfi::tcp {

std::string to_string(State s) {
  switch (s) {
    case State::kClosed: return "CLOSED";
    case State::kListen: return "LISTEN";
    case State::kSynSent: return "SYN_SENT";
    case State::kSynRcvd: return "SYN_RCVD";
    case State::kEstablished: return "ESTABLISHED";
    case State::kFinWait1: return "FIN_WAIT_1";
    case State::kFinWait2: return "FIN_WAIT_2";
    case State::kCloseWait: return "CLOSE_WAIT";
    case State::kClosing: return "CLOSING";
    case State::kLastAck: return "LAST_ACK";
    case State::kTimeWait: return "TIME_WAIT";
  }
  return "?";
}

std::string to_string(CloseReason r) {
  switch (r) {
    case CloseReason::kNone: return "none";
    case CloseReason::kNormal: return "normal";
    case CloseReason::kReset: return "reset-by-peer";
    case CloseReason::kRetransmitTimeout: return "retransmit-timeout";
    case CloseReason::kKeepaliveTimeout: return "keepalive-timeout";
    case CloseReason::kUserAbort: return "user-abort";
  }
  return "?";
}

TcpConnection::TcpConnection(sim::Scheduler& sched, TcpProfile profile,
                             net::NodeId local, net::Port local_port,
                             net::NodeId remote, net::Port remote_port,
                             std::uint32_t iss, Output output,
                             trace::TraceLog* trace, std::string node_name)
    : sched_(sched),
      profile_(std::move(profile)),
      local_(local),
      local_port_(local_port),
      remote_(remote),
      remote_port_(remote_port),
      output_(std::move(output)),
      trace_log_(trace),
      node_name_(std::move(node_name)),
      iss_(iss),
      snd_una_(iss),
      snd_nxt_(iss),
      rtt_(profile_),
      rtx_timer_(sched),
      persist_timer_(sched),
      keepalive_timer_(sched),
      time_wait_timer_(sched),
      delack_timer_(sched) {}

// ---------------------------------------------------------------------------
// Application API
// ---------------------------------------------------------------------------

void TcpConnection::open() {
  set_state(State::kSynSent);
  OutSeg syn;
  syn.seq = snd_nxt_;
  syn.flags = kSyn;
  snd_nxt_ += 1;
  rtxq_.push_back(std::move(syn));
  transmit(rtxq_.back(), false);
  arm_rtx_timer();
}

void TcpConnection::open_passive(const TcpHeader& syn) {
  set_state(State::kSynRcvd);
  rcv_nxt_ = syn.seq + 1;
  peer_fin_received_ = false;
  snd_wnd_ = syn.window;
  OutSeg synack;
  synack.seq = snd_nxt_;
  synack.flags = kSyn;  // ACK flag is added by transmit() once rcv_nxt known
  snd_nxt_ += 1;
  rtxq_.push_back(std::move(synack));
  transmit(rtxq_.back(), false);
  arm_rtx_timer();
}

void TcpConnection::send(std::string_view data) {
  send_queue_.insert(send_queue_.end(), data.begin(), data.end());
  if (state_ == State::kEstablished || state_ == State::kCloseWait) {
    try_send();
  }
}

std::string TcpConnection::read(std::size_t max) {
  const bool was_zero = advertised_window() == 0;
  const std::size_t n = std::min(max, rcv_buf_.size());
  std::string out = rcv_buf_.substr(0, n);
  rcv_buf_.erase(0, n);
  // Window-update ACK: a receiver that reopened a closed window must say so,
  // or the sender may persist-probe forever (paper experiment 4 hinges on
  // the probe/update exchange).
  if (was_zero && advertised_window() > 0 && state_ != State::kClosed &&
      state_ != State::kSynSent && state_ != State::kListen) {
    send_ack();
  }
  return out;
}

void TcpConnection::close() {
  switch (state_) {
    case State::kSynSent:
    case State::kSynRcvd:
      drop(CloseReason::kNormal, false);
      return;
    case State::kEstablished:
      set_state(State::kFinWait1);
      break;
    case State::kCloseWait:
      set_state(State::kLastAck);
      break;
    default:
      return;  // already closing or closed
  }
  fin_queued_ = true;
  enqueue_fin_if_ready();
  arm_rtx_timer();
}

void TcpConnection::abort() {
  if (state_ == State::kClosed) return;
  drop(CloseReason::kUserAbort, true);
}

void TcpConnection::set_keepalive(bool on) {
  keepalive_enabled_ = on;
  ka_probes_unanswered_ = 0;
  if (on) {
    reset_keepalive_idle();
  } else {
    keepalive_timer_.cancel();
  }
}

std::uint32_t TcpConnection::advertised_window() const {
  const std::size_t used = rcv_buf_.size();
  if (used >= profile_.receive_buffer) return 0;
  return std::min<std::uint32_t>(
      profile_.receive_buffer - static_cast<std::uint32_t>(used), 0xFFFF);
}

// ---------------------------------------------------------------------------
// Transmission
// ---------------------------------------------------------------------------

void TcpConnection::transmit(OutSeg& seg, bool retransmission) {
  TcpHeader h;
  h.src_port = local_port_;
  h.dst_port = remote_port_;
  h.seq = seg.seq;
  h.flags = seg.flags;
  // Everything after the first SYN of an active open carries an ACK.
  const bool first_syn = (seg.flags & kSyn) != 0 && state_ == State::kSynSent;
  if (!first_syn) {
    h.flags |= kAck;
    h.ack = rcv_nxt_;
  }
  if (!seg.data.empty()) h.flags |= kPsh;
  h.window = static_cast<std::uint16_t>(advertised_window());
  h.payload_len = static_cast<std::uint16_t>(seg.data.size());

  xk::Message msg{seg.data};
  h.push_onto(msg);
  net::IpMeta meta;
  meta.remote = remote_;
  meta.proto = net::IpProto::kTcp;
  meta.push_onto(msg);

  // Any outgoing segment piggybacks the current ACK.
  if (delack_timer_.armed()) {
    delack_timer_.cancel();
    unacked_segments_rcvd_ = 0;
  }
  seg.last_tx = sched_.now();
  if (!retransmission) {
    seg.first_tx = sched_.now();
    stats_.bytes_sent += seg.data.size();
  } else {
    ++seg.rtx_count;
    ++stats_.data_retransmits;
    trace_event("retransmit", h.summary());
  }
  ++stats_.segments_sent;
  output_(std::move(msg));
}

void TcpConnection::send_control(std::uint8_t flags, std::uint32_t seq,
                                 bool count_dup) {
  TcpHeader h;
  h.src_port = local_port_;
  h.dst_port = remote_port_;
  h.seq = seq;
  h.flags = flags;
  if ((flags & kRst) == 0 || peer_fin_received_ || rcv_nxt_ != 0) {
    h.flags |= kAck;
    h.ack = rcv_nxt_;
  }
  h.window = static_cast<std::uint16_t>(advertised_window());
  h.payload_len = 0;

  xk::Message msg;
  h.push_onto(msg);
  net::IpMeta meta;
  meta.remote = remote_;
  meta.proto = net::IpProto::kTcp;
  meta.push_onto(msg);

  ++stats_.segments_sent;
  if ((flags & kRst) != 0) ++stats_.rsts_sent;
  if (count_dup) ++stats_.duplicate_acks_sent;
  output_(std::move(msg));
}

void TcpConnection::try_send() {
  if (state_ != State::kEstablished && state_ != State::kCloseWait &&
      state_ != State::kFinWait1 && state_ != State::kLastAck) {
    return;
  }
  while (!send_queue_.empty()) {
    const std::int64_t in_flight =
        static_cast<std::int64_t>(snd_nxt_ - snd_una_);
    std::int64_t usable = static_cast<std::int64_t>(snd_wnd_);
    if (cwnd_ > 0) {
      usable = std::min(usable, static_cast<std::int64_t>(cwnd_));
    }
    const std::int64_t avail = usable - in_flight;
    if (avail <= 0) break;
    const std::size_t len =
        std::min<std::size_t>({send_queue_.size(), profile_.mss,
                               static_cast<std::size_t>(avail)});
    OutSeg seg;
    seg.seq = snd_nxt_;
    seg.data.assign(send_queue_.begin(),
                    send_queue_.begin() + static_cast<long>(len));
    send_queue_.erase(send_queue_.begin(),
                      send_queue_.begin() + static_cast<long>(len));
    snd_nxt_ += static_cast<std::uint32_t>(len);
    rtxq_.push_back(std::move(seg));
    transmit(rtxq_.back(), false);
  }
  if (snd_wnd_ == 0 && !send_queue_.empty() && !persist_timer_.armed()) {
    enter_persist();
  }
  enqueue_fin_if_ready();
  arm_rtx_timer();
}

void TcpConnection::enqueue_fin_if_ready() {
  if (!fin_queued_ || fin_sent_ || !send_queue_.empty()) return;
  OutSeg fin;
  fin.seq = snd_nxt_;
  fin.flags = kFin;
  fin_seq_ = snd_nxt_;
  snd_nxt_ += 1;
  fin_sent_ = true;
  rtxq_.push_back(std::move(fin));
  transmit(rtxq_.back(), false);
}

// ---------------------------------------------------------------------------
// Retransmission
// ---------------------------------------------------------------------------

void TcpConnection::arm_rtx_timer() {
  if (rtx_timer_.armed() || rtxq_.empty()) return;
  if (persist_timer_.armed()) return;  // persist owns the connection's pulse
  rtx_timer_.arm(rtt_.rto_for_shift(shift_), [this] { on_rtx_timeout(); });
}

void TcpConnection::on_rtx_timeout() {
  if (rtxq_.empty()) return;
  OutSeg& seg = rtxq_.front();
  const bool is_syn = (seg.flags & kSyn) != 0;
  const int limit =
      is_syn ? profile_.max_syn_retransmits : profile_.max_data_retransmits;
  // BSD budgets retransmissions per segment; Solaris keeps one global error
  // counter across segments (the paper's experiment 2 discovery). The
  // backoff shift is tracked separately because Karn retention can carry it
  // across segments without consuming the new segment's budget.
  const int counter =
      profile_.global_error_counter ? error_counter_ : seg.rtx_count;
  if (counter >= limit) {
    trace_event("give-up", "retransmit limit " + std::to_string(limit) +
                               " reached, counter=" + std::to_string(counter));
    drop(CloseReason::kRetransmitTimeout,
         profile_.rst_on_timeout && !is_syn);
    return;
  }
  ++shift_;
  ++error_counter_;
  on_congestion_loss();
  transmit(seg, true);
  rtx_timer_.arm(rtt_.rto_for_shift(shift_), [this] { on_rtx_timeout(); });
}

// ---------------------------------------------------------------------------
// Zero-window (persist) probing
// ---------------------------------------------------------------------------

void TcpConnection::enter_persist() {
  if (persist_timer_.armed() || state_ == State::kClosed) return;
  rtx_timer_.cancel();  // vendors probe forever; the rtx reaper must not run
  persist_shift_ = 0;
  const sim::Duration wait = std::min(
      profile_.persist_min, profile_.scaled(profile_.persist_max));
  persist_timer_.arm(wait, [this] { on_persist_timeout(); });
  trace_event("persist-enter", "window closed with " +
                                   std::to_string(send_queue_.size()) +
                                   " bytes pending");
}

void TcpConnection::on_persist_timeout() {
  // Send (or resend) a one-byte window probe.
  if (rtxq_.empty()) {
    if (send_queue_.empty()) return;  // nothing left to probe with
    OutSeg probe;
    probe.seq = snd_nxt_;
    probe.data.push_back(send_queue_.front());
    send_queue_.pop_front();
    snd_nxt_ += 1;
    rtxq_.push_back(std::move(probe));
    transmit(rtxq_.back(), false);
  } else {
    transmit(rtxq_.front(), true);
    --stats_.data_retransmits;  // counted as a probe below, not a data rtx
  }
  ++stats_.persist_probes_sent;
  trace_event("persist-probe", "shift=" + std::to_string(persist_shift_));
  ++persist_shift_;
  const double backoff =
      static_cast<double>(profile_.persist_min) *
      std::exp2(std::min(persist_shift_, 20));
  const sim::Duration wait = std::min<sim::Duration>(
      static_cast<sim::Duration>(backoff),
      profile_.scaled(profile_.persist_max));
  // Probes continue indefinitely whether or not they are ACKed — the paper
  // verified this for all four vendors (ethernet unplugged for two days).
  persist_timer_.arm(wait, [this] { on_persist_timeout(); });
}

// ---------------------------------------------------------------------------
// Keep-alive
// ---------------------------------------------------------------------------

void TcpConnection::reset_keepalive_idle() {
  if (!keepalive_enabled_ || state_ != State::kEstablished) return;
  ka_probes_unanswered_ = 0;
  keepalive_timer_.arm(profile_.scaled(profile_.keepalive_idle),
                       [this] { on_keepalive_timeout(); });
}

void TcpConnection::on_keepalive_timeout() {
  if (state_ != State::kEstablished) return;
  if (ka_probes_unanswered_ > profile_.max_keepalive_probes) {
    trace_event("keepalive-give-up",
                std::to_string(ka_probes_unanswered_ - 1) + " probes lost");
    drop(CloseReason::kKeepaliveTimeout, profile_.keepalive_rst);
    return;
  }
  // Probe: SEG.SEQ = SND.NXT - 1, optionally one byte of garbage data (the
  // SunOS format); elicits an ACK because the data is entirely old.
  TcpHeader h;
  h.src_port = local_port_;
  h.dst_port = remote_port_;
  h.seq = snd_nxt_ - 1;
  h.ack = rcv_nxt_;
  h.flags = kAck;
  h.window = static_cast<std::uint16_t>(advertised_window());
  xk::Message msg;
  if (profile_.keepalive_garbage_byte) {
    const std::uint8_t garbage = 'G';
    msg.append(std::span{&garbage, 1});
    h.payload_len = 1;
  }
  h.push_onto(msg);
  net::IpMeta meta;
  meta.remote = remote_;
  meta.proto = net::IpProto::kTcp;
  meta.push_onto(msg);
  ++stats_.segments_sent;
  ++stats_.keepalive_probes_sent;
  trace_event("keepalive-probe",
              "probe #" + std::to_string(ka_probes_unanswered_ + 1));
  output_(std::move(msg));

  ++ka_probes_unanswered_;
  sim::Duration wait;
  if (profile_.keepalive_fixed_interval) {
    wait = profile_.keepalive_probe_interval;
  } else {
    // Solaris: probe retransmissions back off exponentially from its
    // (tiny) RTO floor.
    const double backoff =
        static_cast<double>(profile_.keepalive_probe_interval) *
        std::exp2(std::min(ka_probes_unanswered_ - 1, 20));
    wait = static_cast<sim::Duration>(backoff);
  }
  keepalive_timer_.arm(wait, [this] { on_keepalive_timeout(); });
}

// ---------------------------------------------------------------------------
// Segment input
// ---------------------------------------------------------------------------

void TcpConnection::on_segment(const TcpHeader& h, xk::Message payload) {
  if (state_ == State::kClosed) return;
  ++stats_.segments_received;

  // Any sign of life from the peer restarts the keep-alive clock.
  if (keepalive_enabled_ && state_ == State::kEstablished) {
    reset_keepalive_idle();
  }

  if (h.has(kRst)) {
    trace_event("rst-received", h.summary());
    drop(CloseReason::kReset, false);
    return;
  }

  switch (state_) {
    case State::kSynSent: {
      if (h.has(kSyn) && h.has(kAck) && h.ack == iss_ + 1) {
        rcv_nxt_ = h.seq + 1;
        process_ack(h);  // consumes our SYN from the rtx queue
        become_established();
        send_ack();
        return;
      }
      if (h.has(kSyn) && !h.has(kAck)) {
        // Simultaneous open: acknowledge theirs, keep retransmitting ours
        // (which now carries an ACK since rcv_nxt is known).
        rcv_nxt_ = h.seq + 1;
        set_state(State::kSynRcvd);
        if (!rtxq_.empty()) transmit(rtxq_.front(), true);
        return;
      }
      return;  // stray segment; RFC says RST, the layer handles strays
    }
    case State::kSynRcvd: {
      if (h.has(kSyn)) {
        // Duplicate SYN: our SYN|ACK was lost; resend it.
        if (!rtxq_.empty()) transmit(rtxq_.front(), true);
        return;
      }
      process_ack(h);  // an ACK of our SYN moves us to ESTABLISHED
      if (state_ == State::kEstablished) {
        process_payload(h, payload);
        process_fin(h);
      }
      return;
    }
    case State::kTimeWait:
      // Retransmitted FIN from the peer: re-ACK it.
      if (h.has(kFin)) send_ack();
      return;
    default:
      break;
  }

  process_ack(h);
  if (state_ == State::kClosed) return;
  process_payload(h, payload);
  if (state_ == State::kClosed) return;
  process_fin(h);
}

void TcpConnection::process_ack(const TcpHeader& h) {
  if (!h.has(kAck)) return;
  const std::uint32_t ack = h.ack;
  if (seq_gt(ack, snd_nxt_)) {
    // Acknowledges data we never sent; tell the peer where we really are.
    send_ack();
    return;
  }
  if (ack == snd_una_ && !rtxq_.empty() && h.payload_len == 0 &&
      !h.has(kSyn) && !h.has(kFin)) {
    ++stats_.duplicate_acks_received;
    if (profile_.fast_retransmit && cwnd_ > 0 && ++dup_acks_rcvd_ == 3 &&
        last_fast_rtx_una_ != snd_una_) {
      last_fast_rtx_una_ = snd_una_;
      // Tahoe fast retransmit: the third duplicate ACK means the front
      // segment is gone; resend it now instead of waiting for the RTO.
      ++stats_.fast_retransmits;
      trace_event("fast-retransmit",
                  "3 dup acks for seq " + std::to_string(snd_una_));
      on_congestion_loss();
      ++error_counter_;
      transmit(rtxq_.front(), true);
      rtx_timer_.cancel();
      arm_rtx_timer();
    }
  }
  if (seq_gt(ack, snd_una_)) {
    int max_rtx_of_acked = 0;
    bool took_sample = false;
    while (!rtxq_.empty() &&
           seq_le(rtxq_.front().seq + rtxq_.front().seq_len(), ack)) {
      const OutSeg& seg = rtxq_.front();
      if (seg.rtx_count == 0) {
        // Karn's rule: only never-retransmitted segments yield RTT samples.
        rtt_.sample(sched_.now() - seg.first_tx);
        took_sample = true;
      } else {
        ++stats_.spurious_retransmits;
        if (profile_.rtt_alg == RttAlgorithm::kLegacySolaris) {
          // The paper concluded Solaris "did not use Karn's algorithm for
          // selecting the RTT measurements": it samples retransmitted
          // segments too, measured from the first transmission.
          rtt_.sample(sched_.now() - seg.first_tx);
        }
      }
      max_rtx_of_acked = std::max(max_rtx_of_acked, seg.rtx_count);
      rtxq_.pop_front();
    }
    const std::uint32_t bytes_acked = ack - snd_una_;
    snd_una_ = ack;
    dup_acks_rcvd_ = 0;
    on_congestion_ack(bytes_acked);
    // Karn phase two: keep the backed-off RTO until a valid sample arrives.
    // The legacy (Solaris) estimator predates Karn and resets eagerly.
    if (profile_.rtt_alg != RttAlgorithm::kJacobsonKarn || took_sample ||
        max_rtx_of_acked == 0) {
      shift_ = 0;
    }
    if (profile_.global_error_counter) {
      // Solaris's global counter only resets on "fresh" progress: either
      // everything outstanding is now acknowledged (clean slate), or the
      // acked segment wasn't heavily backed off. An ACK for a 6-times
      // retransmitted segment while older data still waits — the paper's
      // 35 s-delay probe — resets nothing, so m2 inherits m1's consumption
      // (6 + 3 = 9). See DESIGN.md section 5.
      if (rtxq_.empty() ||
          max_rtx_of_acked < profile_.counter_reset_shift_limit) {
        error_counter_ = 0;
      }
    } else {
      error_counter_ = 0;
    }
    rtx_timer_.cancel();
    arm_rtx_timer();

    if (state_ == State::kSynRcvd && seq_ge(snd_una_, iss_ + 1)) {
      become_established();
    }
    if (fin_sent_ && seq_ge(snd_una_, fin_seq_ + 1)) {
      switch (state_) {
        case State::kFinWait1: set_state(State::kFinWait2); break;
        case State::kClosing: enter_time_wait(); break;
        case State::kLastAck:
          close_reason_ = CloseReason::kNormal;
          drop(CloseReason::kNormal, false);
          return;
        default: break;
      }
    }
  }

  // Window update from any acceptable ACK.
  snd_wnd_ = h.window;
  if (snd_wnd_ > 0) {
    if (persist_timer_.armed()) {
      persist_timer_.cancel();
      persist_shift_ = 0;
      trace_event("persist-exit", "window reopened to " +
                                      std::to_string(snd_wnd_));
    }
    try_send();
  } else if (!send_queue_.empty() && !persist_timer_.armed()) {
    enter_persist();
  }
}

void TcpConnection::process_payload(const TcpHeader& h, xk::Message& payload) {
  payload.truncate(h.payload_len);
  if (h.payload_len == 0) {
    // A zero-length segment whose sequence number is off rcv_nxt is a probe
    // of some kind (e.g. an AIX/NeXT keep-alive at SND.NXT-1); it must
    // elicit an ACK or the prober will declare us dead.
    const bool receiving_state =
        state_ == State::kEstablished || state_ == State::kFinWait1 ||
        state_ == State::kFinWait2;
    if (receiving_state && h.seq != rcv_nxt_ && !h.has(kSyn)) {
      send_control(kAck, snd_nxt_, true);
    }
    return;
  }

  std::vector<std::uint8_t> data{payload.bytes().begin(),
                                 payload.bytes().end()};
  if (h.seq == rcv_nxt_) {
    const std::size_t room = advertised_window();
    const std::size_t accept = std::min(data.size(), room);
    if (accept > 0) {
      data.resize(accept);
      deliver_in_order(std::move(data));
      drain_ooo_queue();
    }
    // ACK whatever we kept — possibly nothing, which is exactly the
    // zero-window-probe response (ACK re-advertising window 0, never
    // delayed).
    if (accept == 0) {
      send_ack();
      ++stats_.duplicate_acks_sent;
    } else {
      ack_in_order_data();
    }
  } else if (seq_gt(h.seq, rcv_nxt_)) {
    // Out-of-order segment: RFC-1122 says SHOULD queue. All four vendors
    // queued (paper experiment 5); the strawman profile drops instead.
    if (profile_.queue_out_of_order &&
        ooo_.size() < 64) {  // bounded reassembly queue
      ooo_.emplace(h.seq, std::move(data));
      ++stats_.out_of_order_queued;
    } else {
      ++stats_.out_of_order_dropped;
    }
    send_control(kAck, snd_nxt_, true);  // duplicate ACK for the gap
  } else {
    // Entirely or partially old data (retransmission overlap, or a SunOS
    // keep-alive's garbage byte).
    const std::uint32_t offset = rcv_nxt_ - h.seq;
    if (offset < data.size()) {
      data.erase(data.begin(), data.begin() + static_cast<long>(offset));
      const std::size_t accept =
          std::min<std::size_t>(data.size(), advertised_window());
      if (accept > 0) {
        data.resize(accept);
        deliver_in_order(std::move(data));
        drain_ooo_queue();
      }
      send_ack();  // overlap repair: answer immediately
    } else {
      send_control(kAck, snd_nxt_, true);  // pure duplicate
    }
  }
}

void TcpConnection::process_fin(const TcpHeader& h) {
  if (!h.has(kFin) || peer_fin_received_) return;
  const std::uint32_t fin_seq = h.seq + h.payload_len;
  if (fin_seq != rcv_nxt_) return;  // FIN not yet in order; await reassembly
  peer_fin_received_ = true;
  rcv_nxt_ += 1;
  send_ack();
  switch (state_) {
    case State::kEstablished: set_state(State::kCloseWait); break;
    case State::kFinWait1: set_state(State::kClosing); break;
    case State::kFinWait2: enter_time_wait(); break;
    default: break;
  }
}

void TcpConnection::deliver_in_order(std::vector<std::uint8_t> data) {
  rcv_nxt_ += static_cast<std::uint32_t>(data.size());
  stats_.bytes_received += data.size();
  rcv_buf_.append(reinterpret_cast<const char*>(data.data()), data.size());
  if (on_data) on_data();
  if (auto_drain_) rcv_buf_.clear();
}

void TcpConnection::drain_ooo_queue() {
  while (!ooo_.empty()) {
    auto it = ooo_.begin();
    if (seq_gt(it->first, rcv_nxt_)) break;
    std::vector<std::uint8_t> data = std::move(it->second);
    const std::uint32_t seq = it->first;
    ooo_.erase(it);
    if (seq_lt(seq, rcv_nxt_)) {
      const std::uint32_t offset = rcv_nxt_ - seq;
      if (offset >= data.size()) continue;  // fully duplicate
      data.erase(data.begin(), data.begin() + static_cast<long>(offset));
    }
    deliver_in_order(std::move(data));
  }
}

// ---------------------------------------------------------------------------
// State management
// ---------------------------------------------------------------------------

void TcpConnection::become_established() {
  set_state(State::kEstablished);
  if (profile_.congestion_control) {
    cwnd_ = profile_.mss;
    ssthresh_ = 65535;
  }
  if (keepalive_enabled_) reset_keepalive_idle();
  if (on_established) on_established();
  try_send();
}

void TcpConnection::enter_time_wait() {
  set_state(State::kTimeWait);
  rtx_timer_.cancel();
  persist_timer_.cancel();
  keepalive_timer_.cancel();
  time_wait_timer_.arm(2 * profile_.msl, [this] {
    close_reason_ = CloseReason::kNormal;
    drop(CloseReason::kNormal, false);
  });
}

void TcpConnection::drop(CloseReason reason, bool send_rst) {
  if (state_ == State::kClosed) return;
  if (send_rst) {
    send_control(kRst, snd_nxt_, false);
    trace_event("rst-sent", to_string(reason));
  }
  rtx_timer_.cancel();
  persist_timer_.cancel();
  keepalive_timer_.cancel();
  time_wait_timer_.cancel();
  delack_timer_.cancel();
  close_reason_ = reason;
  set_state(State::kClosed);
  if (on_closed) on_closed(reason);
}

void TcpConnection::set_state(State s) {
  if (state_ == s) return;
  trace_event("state", to_string(state_) + " -> " + to_string(s));
  state_ = s;
}

void TcpConnection::ack_in_order_data() {
  if (!profile_.delayed_ack) {
    send_ack();
    return;
  }
  if (++unacked_segments_rcvd_ >= 2) {
    flush_delayed_ack();
    return;
  }
  ++stats_.delayed_acks_coalesced;
  if (!delack_timer_.armed()) {
    delack_timer_.arm(profile_.delayed_ack_timeout,
                      [this] { flush_delayed_ack(); });
  }
}

void TcpConnection::flush_delayed_ack() {
  delack_timer_.cancel();
  unacked_segments_rcvd_ = 0;
  send_ack();
}

void TcpConnection::on_congestion_ack(std::uint32_t bytes_acked) {
  if (cwnd_ == 0 || bytes_acked == 0) return;
  if (cwnd_ < ssthresh_) {
    cwnd_ += profile_.mss;  // slow start: one MSS per ACK
  } else {
    // Congestion avoidance: ~one MSS per RTT.
    cwnd_ += std::max<std::uint32_t>(
        1, static_cast<std::uint32_t>(profile_.mss) * profile_.mss / cwnd_);
  }
}

void TcpConnection::on_congestion_loss() {
  if (cwnd_ == 0) return;
  const std::uint32_t flight = snd_nxt_ - snd_una_;
  ssthresh_ = std::max<std::uint32_t>(flight / 2, 2u * profile_.mss);
  cwnd_ = profile_.mss;
  dup_acks_rcvd_ = 0;
}

void TcpConnection::trace_event(const std::string& what,
                                const std::string& detail) {
  if (trace_log_ == nullptr) return;
  trace_log_->add(sched_.now(), node_name_, "event", "tcp-" + what, detail);
}

}  // namespace pfi::tcp
