#include "sim/network.h"

#include <algorithm>

namespace mvstore::sim {

namespace {
std::pair<EndpointId, EndpointId> Ordered(EndpointId a, EndpointId b) {
  return {std::min(a, b), std::max(a, b)};
}
}  // namespace

SimTime Network::SampleLatency() {
  SimTime jitter = 0;
  if (config_.jitter_mean > 0) {
    jitter = static_cast<SimTime>(
        rng_.Exponential(static_cast<double>(config_.jitter_mean)));
  }
  const SimTime latency = config_.base_latency + jitter;
  if (latency_multiplier_ == 1.0) return latency;
  return static_cast<SimTime>(static_cast<double>(latency) *
                              latency_multiplier_);
}

bool Network::Blocked(EndpointId from, EndpointId to) const {
  return down_.count(from) != 0 || down_.count(to) != 0 ||
         (from != to && cut_links_.count(Ordered(from, to)) != 0);
}

void Network::Send(EndpointId from, EndpointId to, UniqueFn<void()> deliver,
                   std::uint64_t payloads) {
  ++messages_sent_;
  payloads_sent_ += payloads;
  // A hop span inherits the sender's ambient context; the span stays open
  // until delivery (a dropped message leaves it unended — visible loss).
  TraceContext hop;
  if (tracer_ != nullptr && tracer_->current()) {
    hop = tracer_->StartSpan(
        tracer_->current(),
        "net " + std::to_string(from) + "->" + std::to_string(to),
        static_cast<int>(to), sim_->Now());
  }
  if (Blocked(from, to) ||
      (config_.drop_probability > 0 && rng_.Chance(config_.drop_probability))) {
    ++messages_dropped_;
    if (hop) tracer_->Annotate(hop, "dropped at send");
    return;
  }
  const SimTime latency = from == to ? Micros(1) : SampleLatency();
  if (latency_histogram_ != nullptr && from != to) {
    latency_histogram_->Record(latency);
  }
  // Fault state is re-evaluated when the message ARRIVES: a destination that
  // crashed, a link that partitioned, or an endpoint that restarted into a
  // new incarnation while the message was in flight all lose it.
  const std::uint64_t from_inc = incarnation(from);
  const std::uint64_t to_inc = incarnation(to);
  sim_->After(latency, [this, from, to, from_inc, to_inc, hop,
                        deliver = std::move(deliver)]() mutable {
    if (Blocked(from, to) || incarnation(from) != from_inc ||
        incarnation(to) != to_inc) {
      ++messages_dropped_;
      if (hop) tracer_->Annotate(hop, "dropped in flight");
      return;
    }
    if (hop) {
      tracer_->EndSpan(hop, sim_->Now());
      // Deliver under the hop's context so the receiver's work (service
      // queue spans, further sends) nests beneath it.
      Tracer::Scope scope(tracer_, hop);
      deliver();
      return;
    }
    deliver();
  });
}

void Network::PartitionLink(EndpointId a, EndpointId b) {
  cut_links_.insert(Ordered(a, b));
}

void Network::RestoreLink(EndpointId a, EndpointId b) {
  cut_links_.erase(Ordered(a, b));
}

void Network::SetEndpointDown(EndpointId e, bool down) {
  if (down) {
    down_.insert(e);
  } else {
    down_.erase(e);
  }
}

bool Network::IsEndpointDown(EndpointId e) const {
  return down_.count(e) != 0;
}

void Network::BumpIncarnation(EndpointId e) {
  if (e >= incarnations_.size()) incarnations_.resize(e + 1, 0);
  ++incarnations_[e];
}

}  // namespace mvstore::sim
