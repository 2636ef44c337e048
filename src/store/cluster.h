// Cluster assembly: wires the simulation, network, ring, and servers
// together, and owns the cluster-wide schema, config, and metrics.
//
// Typical usage (see examples/quickstart.cc):
//
//   store::Schema schema;
//   schema.CreateTable({.name = "ticket"});
//   schema.CreateView({.name = "assigned_to", .base_table = "ticket",
//                      .view_key_column = "assignee",
//                      .materialized_columns = {"status"}});
//   store::Cluster cluster(config, std::move(schema));
//   view::MaintenanceEngine views(&cluster);   // installs itself as the hook
//   cluster.Start();
//   auto client = cluster.NewClient();
//   ...

#ifndef MVSTORE_STORE_CLUSTER_H_
#define MVSTORE_STORE_CLUSTER_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "common/trace.h"
#include "sim/network.h"
#include "sim/simulation.h"
#include "store/config.h"
#include "store/freshness.h"
#include "store/hooks.h"
#include "store/metrics.h"
#include "store/ring.h"
#include "store/schema.h"
#include "store/server.h"

namespace mvstore::store {

class Client;

class Cluster {
 public:
  /// The schema must be complete before construction (views and indexes are
  /// cluster metadata, not online DDL).
  Cluster(ClusterConfig config, Schema schema);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  sim::Simulation& simulation() { return sim_; }
  sim::Network& network() { return *network_; }
  const Schema& schema() const { return schema_; }
  const ClusterConfig& config() const { return config_; }
  Metrics& metrics() { return metrics_; }
  /// Cluster-wide freshness tracker (ISSUE 7): per-(view, partition) intents
  /// from in-flight propagations and the per-view propagation-lag estimate
  /// the bounded-read router consults.
  FreshnessTracker& freshness() { return freshness_; }
  /// Cluster-wide causal-trace recorder (disabled when trace_capacity == 0).
  Tracer& tracer() { return tracer_; }
  const Ring& ring() const { return ring_; }

  /// Provisioned server SLOTS (max(max_servers, num_servers)): the size of
  /// every per-server array. Slots above `num_servers` start outside the
  /// ring (kLeft) until JoinServer activates them. Use num_members() for the
  /// current ring population.
  int num_servers() const { return static_cast<int>(servers_.size()); }
  /// Servers currently in the ring (serving or joining).
  int num_members() const { return ring_.num_servers(); }
  Server& server(ServerId id) { return *servers_[id]; }
  const std::vector<std::unique_ptr<Server>>& servers() const {
    return servers_;
  }

  /// The clients' endpoint id, just past the server slots.
  sim::EndpointId client_endpoint() const {
    return static_cast<sim::EndpointId>(servers_.size());
  }

  /// Installs the view-maintenance engine on every server.
  void set_view_hook(ViewMaintenanceHook* hook);

  /// Starts background tasks (anti-entropy, if configured).
  void Start();

  /// Crash-stops / restarts one server (nemesis entry points; see
  /// Server::Crash / Server::Restart for the exact semantics). Returns
  /// false — without acting — when the transition does not apply (already
  /// crashed / not crashed / outside the ring), so a nemesis schedule can
  /// race membership churn safely.
  bool CrashServer(ServerId id);
  bool RestartServer(ServerId id);

  // ---------------------------------------------------------------------
  // Elastic membership (ISSUE 6).
  // ---------------------------------------------------------------------

  /// Brings the next never-joined (or previously decommissioned) capacity
  /// slot into the ring: assigns its tokens, computes the ranges it must
  /// bootstrap, and starts the background range streams. The server serves
  /// replica traffic immediately (it is a ring member from this instant)
  /// and flips to kServing when the last range lands. Returns the joined
  /// id, or nullopt when every slot is already in use.
  std::optional<ServerId> JoinServer();

  /// Gracefully removes `id` from the ring: tokens withdrawn, owned ranges
  /// streamed to their new owners, every other member's hints and in-flight
  /// ops re-pointed, hinted handoffs drained, then the endpoint goes down.
  /// Returns false — without acting — when `id` is not a serving,
  /// non-crashed member or when leaving would drop the ring below the
  /// replication factor.
  bool DecommissionServer(ServerId id);

  /// The serving coordinator at or after `hint` (circular scan over the
  /// slots). Falls back to `hint` itself when nothing serves — the caller's
  /// requests then fail loudly instead of silently redirecting.
  ServerId PickServingServer(ServerId hint) const;

  /// Creates a client attached to the given coordinator (round-robin by
  /// client id when omitted).
  std::unique_ptr<Client> NewClient();
  std::unique_ptr<Client> NewClient(ServerId coordinator);

  /// Allocates a session id (Section V).
  SessionId NewSession() { return ++next_session_; }

  /// Loads a row directly into every replica — and, per Definition 1, into
  /// every view and index — in zero simulated time. This builds the initial
  /// states B0/V0 the paper's experiments start from; it must only be used
  /// before the workload runs, and at most once per key.
  void BootstrapLoadRow(const std::string& table, const Key& key,
                        const Mutation& mutation, Timestamp ts);

  /// Convenience: run the simulation.
  void RunFor(SimTime dt) { sim_.RunFor(dt); }
  SimTime Now() const { return sim_.Now(); }

  /// Deterministic per-purpose RNG streams derived from the config seed.
  Rng ForkRng() { return rng_.Fork(); }

 private:
  ClusterConfig config_;
  Schema schema_;
  Metrics metrics_;
  FreshnessTracker freshness_{&metrics_};
  Tracer tracer_;
  sim::Simulation sim_;
  Rng rng_;
  std::unique_ptr<sim::Network> network_;
  Ring ring_;
  std::vector<std::unique_ptr<Server>> servers_;
  std::vector<Server*> server_ptrs_;
  SessionId next_session_ = 0;
  std::uint64_t next_client_ = 0;
};

}  // namespace mvstore::store

#endif  // MVSTORE_STORE_CLUSTER_H_
