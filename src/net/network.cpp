#include "net/network.hpp"

namespace pfi::net {

std::string to_string(NodeId id) {
  if (id == kBroadcast) return "broadcast";
  return "10.0.0." + std::to_string(id);
}

void Network::attach(NodeId node, std::function<void(xk::Message)> deliver) {
  nodes_[node] = std::move(deliver);
}

void Network::set_metrics(obs::Registry* registry) {
  metrics_ = registry;
  link_metrics_.clear();
  frame_bytes_ =
      registry != nullptr ? &registry->histogram("net.frame_bytes") : nullptr;
}

Network::LinkMetrics* Network::link_metrics(NodeId src, NodeId dst) {
  if (metrics_ == nullptr) return nullptr;
  auto [it, fresh] = link_metrics_.try_emplace({src, dst});
  if (fresh) {
    const std::string base = "net.link." + std::to_string(src) + "-" +
                             std::to_string(dst) + ".";
    it->second.delivered = &metrics_->counter(base + "delivered");
    it->second.lost = &metrics_->counter(base + "lost");
    it->second.blackholed = &metrics_->counter(base + "blackholed");
  }
  return &it->second;
}

void Network::detach(NodeId node) { nodes_.erase(node); }

void Network::transmit(NodeId src, NodeId dst, xk::Message frame) {
  ++stats_.frames_sent;
  if (dst == kBroadcast) {
    for (const auto& [node, _] : nodes_) {
      if (node != src) deliver_one(src, node, frame);
    }
    return;
  }
  deliver_one(src, dst, std::move(frame));
}

void Network::deliver_one(NodeId src, NodeId dst, xk::Message frame) {
  LinkMetrics* lm = link_metrics(src, dst);
  if (frame_bytes_ != nullptr) {
    PFI_OBS_OBSERVE(frame_bytes_, frame.size());
  }
  if (!nodes_.contains(dst) || unplugged_.contains(src) ||
      unplugged_.contains(dst) || partitioned(src, dst)) {
    ++stats_.frames_blackholed;
    if (lm != nullptr) PFI_OBS_INC(lm->blackholed);
    return;
  }
  const LinkConfig* cfg = &default_link_;
  if (auto it = links_.find({src, dst}); it != links_.end()) {
    cfg = &it->second;
  }
  if (cfg->down) {
    ++stats_.frames_blackholed;
    if (lm != nullptr) PFI_OBS_INC(lm->blackholed);
    return;
  }
  if (cfg->loss_probability > 0 && rng_.bernoulli(cfg->loss_probability)) {
    ++stats_.frames_lost;
    if (lm != nullptr) PFI_OBS_INC(lm->lost);
    return;
  }
  sim::Duration delay = cfg->latency;
  if (cfg->jitter > 0) delay += rng_.uniform_duration(0, cfg->jitter);
  if (cfg->bandwidth_bps > 0) {
    // FIFO serialisation: this frame starts transmitting when the link is
    // free and occupies it for size*8/bandwidth.
    const sim::Duration tx_time =
        static_cast<sim::Duration>(frame.size()) * 8 * sim::kSecond /
        cfg->bandwidth_bps;
    sim::TimePoint& busy = link_busy_until_[{src, dst}];
    const sim::TimePoint start = std::max(busy, sched_.now());
    busy = start + tx_time;
    delay += (busy - sched_.now());
  }
  sched_.schedule(delay, [this, src, dst, frame = std::move(frame)]() mutable {
    // Re-check attachment at delivery time: the node may have crashed
    // (detached) while the frame was in flight. Counters are re-resolved
    // here rather than captured — set_metrics may have swapped registries
    // while the frame was in flight.
    LinkMetrics* at_delivery = link_metrics(src, dst);
    auto it = nodes_.find(dst);
    if (it == nodes_.end() || unplugged_.contains(dst)) {
      ++stats_.frames_blackholed;
      if (at_delivery != nullptr) PFI_OBS_INC(at_delivery->blackholed);
      return;
    }
    ++stats_.frames_delivered;
    if (at_delivery != nullptr) PFI_OBS_INC(at_delivery->delivered);
    it->second(std::move(frame));
  });
}

LinkConfig& Network::link(NodeId src, NodeId dst) {
  auto [it, inserted] = links_.try_emplace({src, dst}, default_link_);
  return it->second;
}

void Network::partition(const std::vector<std::vector<NodeId>>& groups) {
  partition_group_.clear();
  for (std::size_t g = 0; g < groups.size(); ++g) {
    for (NodeId n : groups[g]) partition_group_[n] = static_cast<int>(g);
  }
  partition_active_ = true;
}

void Network::heal() {
  partition_group_.clear();
  partition_active_ = false;
}

bool Network::partitioned(NodeId a, NodeId b) const {
  if (!partition_active_) return false;
  auto ia = partition_group_.find(a);
  auto ib = partition_group_.find(b);
  if (ia == partition_group_.end() || ib == partition_group_.end()) {
    return false;  // nodes outside every group are unrestricted
  }
  return ia->second != ib->second;
}

}  // namespace pfi::net
