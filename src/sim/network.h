// Simulated message-passing network.
//
// Endpoints (servers and client hosts) are numbered densely. Send() delivers
// a callback to the destination after a sampled one-way latency, unless the
// message is dropped (random drop injection, an explicit partition, or a
// down endpoint). Fault state is evaluated BOTH at send time and again at
// delivery time: a message already in flight when its destination crashes or
// the link partitions is lost, exactly as a broken TCP connection loses its
// unacknowledged bytes. Each endpoint carries an incarnation counter bumped
// by crashes, so a message addressed to one incarnation is never delivered
// to the next one. The network is fail-silent: senders learn about losses
// only through their own timeouts, exactly as in the modeled system.

#ifndef MVSTORE_SIM_NETWORK_H_
#define MVSTORE_SIM_NETWORK_H_

#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "common/histogram.h"
#include "common/rng.h"
#include "common/trace.h"
#include "common/types.h"
#include "common/unique_fn.h"
#include "sim/simulation.h"

namespace mvstore::sim {

using EndpointId = std::uint32_t;

struct NetworkConfig {
  /// Fixed one-way propagation + protocol cost per message.
  SimTime base_latency = Micros(60);
  /// Mean of the exponential jitter added to every message.
  SimTime jitter_mean = Micros(20);
  /// Probability that any given message is silently dropped.
  double drop_probability = 0.0;
};

class Network {
 public:
  Network(Simulation* sim, Rng rng, NetworkConfig config)
      : sim_(sim), rng_(rng), config_(config) {}

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Delivers `deliver` at the destination after a sampled latency, or never
  /// (drop / partition / endpoint down / destination restarted into a new
  /// incarnation while the message was in flight). Self-sends skip the wire
  /// but still go through the event queue (never synchronous), preserving
  /// the asynchrony the view-maintenance algorithms must tolerate.
  /// `payloads` counts the logical requests the message carries (a scan's
  /// read-repair push ships several rows in one envelope); it only feeds the
  /// payloads_sent() accounting — the wire cost is still one message.
  void Send(EndpointId from, EndpointId to, UniqueFn<void()> deliver,
            std::uint64_t payloads = 1);

  /// Cuts both directions of the (a, b) link until RestoreLink. Messages in
  /// flight across the link when it is cut are lost.
  void PartitionLink(EndpointId a, EndpointId b);
  void RestoreLink(EndpointId a, EndpointId b);

  /// Marks an endpoint down: all traffic to and from it is dropped,
  /// including messages already in flight.
  void SetEndpointDown(EndpointId e, bool down);
  bool IsEndpointDown(EndpointId e) const;

  /// Advances an endpoint's incarnation (crash-stop model): every message
  /// sent to or from the previous incarnation — even one surviving the
  /// down-window because the endpoint restarted quickly — is discarded at
  /// delivery time.
  void BumpIncarnation(EndpointId e);
  std::uint64_t incarnation(EndpointId e) const {
    return e < incarnations_.size() ? incarnations_[e] : 0;
  }

  void set_drop_probability(double p) { config_.drop_probability = p; }
  /// Scales sampled latencies (base + jitter); nemesis latency spikes.
  void set_latency_multiplier(double m) { latency_multiplier_ = m; }
  double latency_multiplier() const { return latency_multiplier_; }
  const NetworkConfig& config() const { return config_; }

  /// Observability taps (both optional; neither perturbs the simulation).
  /// With a tracer installed, every Send under a live ambient trace context
  /// records a network-hop span and delivers the message under it, so causal
  /// chains thread through the wire automatically.
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }
  Tracer* tracer() const { return tracer_; }
  /// Records each sampled one-way latency (self-sends excluded).
  void set_latency_histogram(Histogram* histogram) {
    latency_histogram_ = histogram;
  }

  std::uint64_t messages_sent() const { return messages_sent_; }
  std::uint64_t messages_dropped() const { return messages_dropped_; }
  /// Logical requests carried across all messages; payloads_sent() ==
  /// messages_sent() when no batching is in effect. The ratio is the
  /// batching factor the coordinator achieved.
  std::uint64_t payloads_sent() const { return payloads_sent_; }

 private:
  SimTime SampleLatency();
  bool Blocked(EndpointId from, EndpointId to) const;

  Simulation* sim_;
  Rng rng_;
  NetworkConfig config_;
  Tracer* tracer_ = nullptr;
  Histogram* latency_histogram_ = nullptr;
  double latency_multiplier_ = 1.0;
  std::set<std::pair<EndpointId, EndpointId>> cut_links_;
  std::set<EndpointId> down_;
  /// Dense, indexed by endpoint id (ids are allocated contiguously from 0);
  /// grown on first bump so unseen endpoints read incarnation 0.
  std::vector<std::uint64_t> incarnations_;
  std::uint64_t messages_sent_ = 0;
  std::uint64_t messages_dropped_ = 0;
  std::uint64_t payloads_sent_ = 0;
};

}  // namespace mvstore::sim

#endif  // MVSTORE_SIM_NETWORK_H_
