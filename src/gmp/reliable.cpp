#include "gmp/reliable.hpp"

namespace pfi::gmp {

ReliableLayer::ReliableLayer(sim::Scheduler& sched, ReliableConfig cfg)
    : Layer("rel"), sched_(sched), cfg_(cfg) {}

ReliableLayer::~ReliableLayer() {
  for (auto& [k, p] : pending_) sched_.cancel(p.timer);
}

void ReliableLayer::reset() {
  for (auto& [k, p] : pending_) sched_.cancel(p.timer);
  pending_.clear();
}

void ReliableLayer::push(xk::Message msg) {
  net::UdpMeta meta = net::UdpMeta::pop_from(msg);
  // A view into msg: read it before the pushes below overwrite it.
  const auto ctrl_bytes = msg.pop_header(1);
  const SendMode mode = ctrl_bytes.empty()
                            ? SendMode::kRaw
                            : static_cast<SendMode>(ctrl_bytes[0]);

  RelHeader rel;
  if (mode == SendMode::kReliable) {
    rel.kind = RelKind::kData;
    rel.seq = next_seq_[meta.remote]++;
  } else {
    rel.kind = RelKind::kRaw;
    rel.seq = 0;
  }
  rel.push_onto(msg);
  meta.push_onto(msg);

  if (mode == SendMode::kReliable) {
    ++stats_.data_sent;
    const std::uint64_t k = key(meta.remote, rel.seq);
    Pending p;
    p.wire = msg;  // keep a copy for retransmission
    p.peer = meta.remote;
    p.seq = rel.seq;
    pending_[k] = std::move(p);
    arm_retry(k);
  } else {
    ++stats_.raw_sent;
  }
  send_down(std::move(msg));
}

void ReliableLayer::pop(xk::Message msg) {
  net::UdpMeta meta = net::UdpMeta::pop_from(msg);
  RelHeader rel;
  if (!RelHeader::pop_from(msg, rel)) return;  // runt

  switch (rel.kind) {
    case RelKind::kAck: {
      ++stats_.acks_received;
      auto it = pending_.find(key(meta.remote, rel.seq));
      if (it != pending_.end()) {
        sched_.cancel(it->second.timer);
        pending_.erase(it);
      }
      return;
    }
    case RelKind::kData: {
      // Acknowledge, then deduplicate.
      RelHeader ack;
      ack.kind = RelKind::kAck;
      ack.seq = rel.seq;
      xk::Message ack_msg;
      ack.push_onto(ack_msg);
      net::UdpMeta ack_meta = meta;  // remote already = the sender
      ack_meta.push_onto(ack_msg);
      ++stats_.acks_sent;
      send_down(std::move(ack_msg));

      auto& seen = seen_[meta.remote];
      if (!seen.insert(rel.seq).second) {
        ++stats_.duplicates_suppressed;
        return;
      }
      if (seen.size() > 1024) seen.erase(seen.begin());  // bound memory
      break;
    }
    case RelKind::kRaw:
      break;
  }
  meta.push_onto(msg);
  send_up(std::move(msg));
}

void ReliableLayer::arm_retry(std::uint64_t k) {
  auto it = pending_.find(k);
  if (it == pending_.end()) return;
  it->second.timer =
      sched_.schedule(cfg_.retry_interval, [this, k] { on_retry(k); });
}

void ReliableLayer::on_retry(std::uint64_t k) {
  auto it = pending_.find(k);
  if (it == pending_.end()) return;
  Pending& p = it->second;
  if (p.retries >= cfg_.max_retries) {
    ++stats_.gave_up;
    pending_.erase(it);
    return;
  }
  ++p.retries;
  ++stats_.retransmits;
  send_down(p.wire);  // resend a copy
  arm_retry(k);
}

}  // namespace pfi::gmp
