#include "episode.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <memory>
#include <optional>

#include "common/logging.h"
#include "common/rng.h"
#include "common/str_util.h"
#include "sim/nemesis.h"
#include "store/client.h"
#include "store/cluster.h"
#include "store/config.h"
#include "store/schema.h"
#include "view/maintenance_engine.h"
#include "workload/key_generator.h"

namespace mvbench {
namespace {

using mvstore::Key;
using mvstore::Micros;
using mvstore::Millis;
using mvstore::Rng;
using mvstore::Seconds;
using mvstore::ServerId;
using mvstore::Timestamp;
using mvstore::TraceId;
namespace store = mvstore::store;
namespace workload = mvstore::workload;

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

constexpr const char* kTable = "usertable";
constexpr const char* kView = "by_skey";

// Closed-loop clients issue the next op as soon as the previous completes.
// A failed attempt (non-OK or client deadline) is retried after a pause, on
// a serving coordinator, up to kMaxAttempts; only then does the op fail.
constexpr int kMaxAttempts = 20;
constexpr SimTime kRetryPause = Millis(10);
// The simulation advances in slices this long, so the trace harvester can
// run between them without scheduling events of its own.
constexpr SimTime kSlice = Millis(100);
// Traced episodes keep this many spans; the harvester samples traces whose
// client op was issued at least kHarvestLag ago, so their propagations have
// finished but their spans are still in the ring.
constexpr std::size_t kTraceCapacity = std::size_t{1} << 19;
constexpr SimTime kHarvestLag = Millis(1000);
constexpr int kTracesPerHarvest = 24;

const WorkloadSpec kWorkloads[] = {
    {
        .name = "update_mix",
        .rows = 2000,
        .clients = 16,
        .update_frac = 0.40,
        .view_frac = 0.40,
        .row_cache_entries = 65536,
        .session_clients = 4,
        .bounded_frac = 0.25,
        .staleness_bound = Millis(500),
        .small_memtables = true,
        .compaction_interval = Millis(500),
        .anti_entropy_interval = Millis(800),
        .request_timeout = Seconds(2),
        .warmup = Millis(500),
        .window = Seconds(2),
    },
    {
        .name = "view_read_zipf",
        .rows = 4000,
        .clients = 16,
        .update_frac = 0.06,
        .moves_skey = false,
        .view_frac = 0.90,
        .zipf_theta = 0.99,
        .view_shards = 4,
        .row_cache_entries = 512,
        .compaction_interval = Millis(500),
        .anti_entropy_interval = Seconds(2),
        .request_timeout = Seconds(2),
        .warmup = Millis(500),
        .window = Seconds(4),
    },
    {
        .name = "repair_churn",
        .rows = 2000,
        .clients = 16,
        .update_frac = 0.60,
        .view_frac = 0.30,
        .row_cache_entries = 65536,
        .compaction_interval = Millis(500),
        .anti_entropy_interval = Seconds(1),
        .nemesis = true,
        .request_timeout = Millis(250),
        .warmup = Millis(500),
        .window = Seconds(4),
    },
};

store::ClusterConfig MakeConfig(const WorkloadSpec& spec, std::uint64_t seed,
                                bool traced) {
  store::ClusterConfig config;
  // The paper's testbed (4 dual-core servers, N=3, R=W=1, 1 GbE) with the
  // service-time calibration the figure benches use.
  config.num_servers = 4;
  config.replication_factor = 3;
  config.cores_per_server = 2;
  config.default_read_quorum = 1;
  config.default_write_quorum = 1;
  config.seed = seed;
  config.network.base_latency = Micros(100);
  config.network.jitter_mean = Micros(55);
  config.perf.read_local = Micros(60);
  config.perf.write_local = Micros(50);
  config.perf.coordinator_op = Micros(15);
  config.perf.index_update_local = Micros(20);
  config.perf.index_scan_local = Micros(950);
  config.perf.view_scan_local = Micros(90);
  // A Section IV-F mode, so the view is exact after quiescence.
  config.propagation_mode = store::PropagationMode::kLockService;
  config.row_cache_entries = spec.row_cache_entries;
  config.view_shard_count = spec.view_shards;
  if (spec.small_memtables) config.engine.memtable_flush_entries = 512;
  config.compaction_interval = spec.compaction_interval;
  config.anti_entropy_interval = spec.anti_entropy_interval;
  if (spec.nemesis) {
    // As bench/chaos_churn: fast failure detection, lease reclaim, and the
    // repair layers (hints, scrub) on a short clock.
    config.rpc_timeout = Millis(100);
    config.lock_lease_ttl = Millis(500);
    config.view_scrub_interval = Seconds(1);
    config.hint_replay_interval = Millis(500);
    config.max_servers = config.num_servers + 1;
    // A propagation whose view-key guesses a crash invalidated retries
    // until its 500-attempt budget runs out, and the owned-range scrub skips
    // a family while its task lives. The default 100 ms retry cap makes that
    // ~50 simulated seconds; 10 ms bounds it near 5 s, so the view converges
    // within a few seconds of the heal.
    config.perf.propagation_retry_delay_max = Millis(10);
  }
  config.trace_capacity = traced ? kTraceCapacity : 0;
  config.trace_client_ops = traced;
  return config;
}

store::Schema MakeSchema(const WorkloadSpec& spec) {
  store::Schema schema;
  MVSTORE_CHECK(schema.CreateTable({.name = kTable}).ok());
  auto view = store::ViewDefBuilder(kView)
                  .Base(kTable)
                  .Key("skey")
                  .Materialize("field0")
                  .Shards(spec.view_shards)
                  .Build();
  MVSTORE_CHECK(view.ok()) << view.status();
  MVSTORE_CHECK(schema.CreateView(std::move(view).value()).ok());
  return schema;
}

/// A serving, running coordinator at or after `hint`.
ServerId LiveServer(store::Cluster& cluster, ServerId hint) {
  const int n = cluster.num_servers();
  for (int i = 0; i < n; ++i) {
    const auto s = static_cast<ServerId>((hint + i) % n);
    const store::Server& server = cluster.server(s);
    if (server.membership() == store::MembershipState::kServing &&
        !server.crashed()) {
      return s;
    }
  }
  return cluster.PickServingServer(hint);
}

/// The acked state of one base row, as the clients know it.
struct RowState {
  Key key;
  Key skey;
  std::string payload;
  Timestamp acked_ts = 0;
};

enum class OpKind { kUpdate, kViewRead, kBaseRead };

struct Op {
  OpKind kind = OpKind::kBaseRead;
  std::uint64_t rank = 0;
  Key skey;             ///< view read: target; update: the new value
  std::string payload;  ///< update: the new payload
  store::ReadConsistency consistency = store::ReadConsistency::kEventual;
  bool read_back = false;  ///< session read of the client's own last write
  int attempts = 0;
};

struct Completion {
  SimTime issued = 0;
  TraceId trace = 0;
};

class Driver {
 public:
  Driver(store::Cluster* cluster, const WorkloadSpec& spec,
         std::uint64_t seed, bool time_client, EpisodeResult* out)
      : cluster_(cluster),
        spec_(spec),
        rng_(seed * 0x9E3779B97F4A7C15ULL + 17),
        zipf_(spec.rows, spec.zipf_theta > 0 ? spec.zipf_theta : 0.5),
        time_client_(time_client),
        out_(out) {
    rows_.reserve(spec.rows);
    for (std::uint64_t i = 0; i < spec.rows; ++i) {
      rows_.push_back({workload::FormatKey("k", i), workload::FormatKey("s", i),
                       "p" + std::to_string(i),
                       static_cast<Timestamp>(1000 + i)});
    }
  }

  Driver(const Driver&) = delete;
  Driver& operator=(const Driver&) = delete;

  const std::vector<RowState>& rows() const { return rows_; }
  std::vector<Completion>& completions() { return completions_; }
  bool idle() const { return busy_ == 0; }
  void set_recording(bool on) { recording_ = on; }
  void set_log_completions(bool on) { log_completions_ = on; }
  /// No new ops; in-flight ones (and their retries) still complete.
  void Stop() { stopping_ = true; }

  void Start() {
    slots_.resize(static_cast<std::size_t>(spec_.clients));
    for (int c = 0; c < spec_.clients; ++c) {
      Slot& slot = slots_[static_cast<std::size_t>(c)];
      slot.client = cluster_->NewClient(
          LiveServer(*cluster_, static_cast<ServerId>(c % 4)));
      slot.client->set_request_timeout(spec_.request_timeout);
      if (c < spec_.session_clients) slot.client->BeginSession();
      ++busy_;
      Next(c);
    }
  }

 private:
  struct Slot {
    std::unique_ptr<store::Client> client;
    std::optional<std::uint64_t> last_update;  ///< rank of last acked update
  };

  void Error(const std::string& what) {
    if (out_->errors++ == 0) out_->first_error = what;
  }

  std::uint64_t OwnRank(int c) {
    const auto n = static_cast<std::uint64_t>(spec_.clients);
    const std::uint64_t count = (spec_.rows - static_cast<std::uint64_t>(c) +
                                 n - 1) / n;
    return static_cast<std::uint64_t>(c) +
           n * static_cast<std::uint64_t>(rng_.UniformInt(0, count - 1));
  }

  void Next(int c) {
    if (stopping_) {
      --busy_;
      return;
    }
    auto op = std::make_shared<Op>();
    const Slot& slot = slots_[static_cast<std::size_t>(c)];
    const double draw = rng_.NextDouble();
    if (draw < spec_.update_frac) {
      op->kind = OpKind::kUpdate;
      op->rank = OwnRank(c);
      op->skey = spec_.moves_skey ? workload::FormatKey("x", next_value_, 12)
                                  : rows_[op->rank].skey;
      op->payload = "v" + std::to_string(next_value_);
      ++next_value_;
    } else if (draw < spec_.update_frac + spec_.view_frac) {
      op->kind = OpKind::kViewRead;
      if (c < spec_.session_clients) {
        // Session reads are read-your-writes; half read back the client's
        // own last acked update, which must be visible.
        op->consistency = store::ReadConsistency::kReadYourWrites;
        op->read_back = slot.last_update.has_value() && rng_.Chance(0.5);
      } else if (spec_.bounded_frac > 0 && rng_.Chance(spec_.bounded_frac)) {
        op->consistency = store::ReadConsistency::kBoundedStaleness;
      }
      op->rank = op->read_back ? *slot.last_update
                 : spec_.zipf_theta > 0
                     ? zipf_.Next(rng_)
                     : static_cast<std::uint64_t>(
                           rng_.UniformInt(0, spec_.rows - 1));
      op->skey = rows_[op->rank].skey;
    } else {
      op->kind = OpKind::kBaseRead;
      op->rank = static_cast<std::uint64_t>(rng_.UniformInt(0, spec_.rows - 1));
    }
    Attempt(c, std::move(op));
  }

  void Attempt(int c, std::shared_ptr<Op> op) {
    Slot& slot = slots_[static_cast<std::size_t>(c)];
    if (spec_.nemesis) {
      // A real driver re-resolves its contact point when the coordinator
      // stops answering; this one moves off crashed or departed servers.
      const store::Server& coord = cluster_->server(slot.client->coordinator());
      if (coord.crashed() ||
          coord.membership() != store::MembershipState::kServing) {
        slot.client = cluster_->NewClient(
            LiveServer(*cluster_, slot.client->coordinator()));
        slot.client->set_request_timeout(spec_.request_timeout);
      }
    }
    ++op->attempts;
    const SimTime issued = cluster_->Now();
    const bool timed = time_client_ && recording_;
    const Clock::time_point wall_start =
        timed ? Clock::now() : Clock::time_point{};
    store::Client& client = *slot.client;
    const RowState& row = rows_[op->rank];
    switch (op->kind) {
      case OpKind::kUpdate:
        client.Put(kTable, row.key,
                   spec_.moves_skey ? store::Mutation{{"skey", op->skey},
                                                      {"field0", op->payload}}
                                    : store::Mutation{{"field0", op->payload}},
                   store::WriteOptions{},
                   [this, c, op, issued](store::WriteResult result) {
                     OnUpdate(c, op, issued, result);
                   });
        break;
      case OpKind::kViewRead: {
        store::ReadOptions options;
        options.columns = {"field0"};
        options.consistency = op->consistency;
        if (op->consistency == store::ReadConsistency::kBoundedStaleness) {
          options.max_staleness = spec_.staleness_bound;
        }
        client.Query(store::QuerySpec::View(kView, op->skey), options,
                     [this, c, op, issued](store::ReadResult result) {
                       OnViewRead(c, op, issued, result);
                     });
        break;
      }
      case OpKind::kBaseRead: {
        store::ReadOptions options;
        options.columns = {"skey", "field0"};
        client.Get(kTable, row.key, options,
                   [this, c, op, issued](store::ReadResult result) {
                     Done(c, op, issued, result.ok(), result.trace,
                          &out_->base_read_us);
                   });
        break;
      }
    }
    if (timed) {
      out_->client_call_s += SecondsSince(wall_start);
      ++out_->client_calls;
    }
  }

  void OnUpdate(int c, const std::shared_ptr<Op>& op, SimTime issued,
                const store::WriteResult& result) {
    if (result.ok()) {
      // One writer per row, so acks arrive in timestamp order.
      RowState& row = rows_[op->rank];
      row.skey = op->skey;
      row.payload = op->payload;
      row.acked_ts = result.ts;
      slots_[static_cast<std::size_t>(c)].last_update = op->rank;
    }
    Done(c, op, issued, result.ok(), result.trace, &out_->write_us);
  }

  void OnViewRead(int c, const std::shared_ptr<Op>& op, SimTime issued,
                  const store::ReadResult& result) {
    if (result.ok()) {
      // skey values are never reused, so only this row can ever have been
      // filed under op->skey.
      for (const store::ViewRecord& record : result.records) {
        if (record.base_key != rows_[op->rank].key) {
          Error(mvstore::StrFormat("view key %s returned row %s, expected %s",
                                   op->skey.c_str(), record.base_key.c_str(),
                                   rows_[op->rank].key.c_str()));
        }
      }
      if (result.records.empty() && op->read_back) {
        Error("read-your-writes: session missed its own update of " +
              rows_[op->rank].key);
      }
      if (recording_) {
        ++out_->view_reads;
        if (result.records.empty()) ++out_->empty_view_reads;
      }
    }
    Done(c, op, issued, result.ok(), result.trace, &out_->view_read_us);
  }

  void Done(int c, std::shared_ptr<Op> op, SimTime issued, bool ok,
            TraceId trace, std::vector<std::int64_t>* latencies) {
    const SimTime now = cluster_->Now();
    if (log_completions_) completions_.push_back({issued, trace});
    if (recording_) {
      ++out_->attempts;
      if (ok) {
        ++out_->ops;
        latencies->push_back(now - issued);
      } else {
        ++out_->failed_attempts;
      }
    }
    if (ok) {
      Next(c);
      return;
    }
    if (op->attempts >= kMaxAttempts) {
      ++out_->failed_ops;
      Error("op gave up after " + std::to_string(kMaxAttempts) + " attempts");
      Next(c);
      return;
    }
    cluster_->simulation().After(
        kRetryPause, [this, c, op = std::move(op)]() mutable {
          Attempt(c, std::move(op));
        });
  }

  store::Cluster* cluster_;
  const WorkloadSpec& spec_;
  Rng rng_;
  mvstore::ZipfianGenerator zipf_;
  bool time_client_;
  EpisodeResult* out_;
  std::vector<RowState> rows_;
  std::vector<Slot> slots_;
  std::vector<Completion> completions_;
  std::uint64_t next_value_ = 0;
  int busy_ = 0;
  bool recording_ = false;
  bool log_completions_ = false;
  bool stopping_ = false;
};

/// Samples traces of client ops issued in the measured window, once they
/// are old enough to be complete, into a TraceLedger.
class Harvester {
 public:
  Harvester(const mvstore::Tracer& tracer, std::vector<Completion>* log,
            SimTime from, SimTime to, TraceLedger* ledger)
      : tracer_(tracer), log_(log), next_(from), end_(to), ledger_(ledger) {}

  /// Harvests ops issued in [next, min(now - lag, end)); `final` ignores
  /// the lag. Returns the wall seconds spent.
  double Tick(SimTime now, bool final) {
    const Clock::time_point start = Clock::now();
    const SimTime upto = final ? end_ : std::min(now - kHarvestLag, end_);
    if (upto <= next_) return 0;
    TraceId lo = 0, hi = 0;
    std::uint64_t ops = 0;
    for (const Completion& c : *log_) {
      if (c.issued < next_ || c.issued >= upto || c.trace == 0) continue;
      lo = lo == 0 ? c.trace : std::min(lo, c.trace);
      hi = std::max(hi, c.trace);
      ++ops;
    }
    next_ = upto;
    if (ops == 0) return SecondsSince(start);
    // Trace ids are minted in simulated-time order, so [lo, hi] also holds
    // every background trace (anti-entropy rounds, hints) of the interval.
    const TraceId range = hi - lo + 1;
    const TraceId stride = std::max<TraceId>(
        1, (range + kTracesPerHarvest - 1) / kTracesPerHarvest);
    TraceLedger sample;
    for (TraceId id = lo + stride / 2; id <= hi; id += stride) {
      sample.AddTrace(tracer_, id, 1.0);
    }
    // Accepted traces stand for the whole id range.
    ledger_->Merge(sample, sample.accepted() == 0
                               ? 0.0
                               : static_cast<double>(range) /
                                     static_cast<double>(sample.accepted()));
    ledger_->AddOps(ops);
    return SecondsSince(start);
  }

 private:
  const mvstore::Tracer& tracer_;
  std::vector<Completion>* log_;
  SimTime next_;
  SimTime end_;
  TraceLedger* ledger_;
};

/// Crash/restart, one join + leave, a partition, a drop surge and a latency
/// spike, all inside the measured window, healed at its end.
std::unique_ptr<mvstore::sim::Nemesis> StartNemesis(store::Cluster& cluster,
                                                    std::uint64_t seed,
                                                    SimTime window) {
  auto nemesis = std::make_unique<mvstore::sim::Nemesis>(
      &cluster.simulation(), &cluster.network(),
      [&cluster](mvstore::sim::EndpointId s) { cluster.CrashServer(s); },
      [&cluster](mvstore::sim::EndpointId s) { cluster.RestartServer(s); });
  nemesis->SetMembershipCallbacks(
      [&cluster] { cluster.JoinServer(); },
      [&cluster](mvstore::sim::EndpointId s) {
        cluster.DecommissionServer(s);
      });
  mvstore::sim::NemesisOptions options;
  options.horizon = window;
  options.num_servers = cluster.config().num_servers;
  options.membership_churn = 1;
  options.min_churn_gap = Seconds(1);
  options.max_churn_gap = Seconds(2);
  options.crashes = 2;
  options.min_downtime = Millis(300);
  options.max_downtime = Seconds(1);
  options.partitions = 1;
  options.min_partition = Millis(200);
  options.max_partition = Millis(800);
  options.drop_surges = 1;
  options.latency_spikes = 1;
  mvstore::sim::FaultSchedule schedule =
      mvstore::sim::GenerateRandomSchedule(Rng(seed * 101 + 7), options);
  const SimTime now = cluster.Now();
  for (mvstore::sim::FaultEvent& event : schedule) event.at += now;
  nemesis->Schedule(std::move(schedule));
  nemesis->HealAllAt(now + window);
  return nemesis;
}

/// Checks the quiesced cluster through the public Client API, reading every
/// replica (R = N): each row's base record holds its last-acked skey and
/// payload (no acked write lost), and the view resolves that skey to
/// exactly that row and payload.
void Audit(store::Cluster& cluster, const std::vector<RowState>& rows,
           EpisodeResult* out) {
  auto error = [out](const std::string& what) {
    if (out->errors++ == 0) out->first_error = what;
  };
  auto client = cluster.NewClient(LiveServer(cluster, 0));
  client->set_request_timeout(Seconds(2));
  store::ReadOptions base_options;
  base_options.quorum = cluster.config().replication_factor;
  base_options.columns = {"skey", "field0"};
  store::ReadOptions view_options;
  view_options.quorum = cluster.config().replication_factor;
  view_options.columns = {"field0"};

  constexpr std::size_t kWave = 128;
  int outstanding = 0;
  for (std::size_t begin = 0; begin < rows.size(); begin += kWave) {
    for (std::size_t i = begin; i < std::min(begin + kWave, rows.size());
         ++i) {
      const RowState& row = rows[i];
      outstanding += 2;
      client->Get(kTable, row.key, base_options,
                  [&, i](store::ReadResult result) {
                    --outstanding;
                    const RowState& want = rows[i];
                    const auto skey = result.row.Get("skey");
                    const auto payload = result.row.Get("field0");
                    if (!result.ok() || !skey || !payload ||
                        skey->value != want.skey ||
                        payload->value != want.payload ||
                        payload->ts < want.acked_ts) {
                      error("lost acked write: base row " + want.key +
                            " does not hold skey " + want.skey);
                    }
                  });
      client->Query(store::QuerySpec::View(kView, row.skey), view_options,
                    [&, i](store::ReadResult result) {
                      --outstanding;
                      const RowState& want = rows[i];
                      if (!result.ok() || result.records.size() != 1 ||
                          result.records[0].base_key != want.key ||
                          result.records[0].cells.GetValue("field0") !=
                              want.payload) {
                        error(mvstore::StrFormat(
                            "view key %s: expected exactly row %s, got %zu "
                            "record(s)",
                            want.skey.c_str(), want.key.c_str(),
                            result.records.size()));
                      }
                    });
    }
    while (outstanding > 0) cluster.RunFor(Millis(1));
  }
}

/// Runs the simulation until `done()` or `limit` more simulated time has
/// passed; returns done().
bool RunUntilDone(store::Cluster& cluster, SimTime limit,
                  const std::function<bool()>& done) {
  const SimTime until = cluster.Now() + limit;
  while (!done() && cluster.Now() < until) cluster.RunFor(Millis(10));
  return done();
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const WorkloadSpec& spec : kWorkloads) names.emplace_back(spec.name);
  return names;
}

std::string EpisodeResult::Fingerprint() const {
  return mvstore::StrFormat(
      "ops=%llu attempts=%llu events=%llu messages=%llu latency_sum=%llu",
      static_cast<unsigned long long>(ops),
      static_cast<unsigned long long>(attempts),
      static_cast<unsigned long long>(sim_events),
      static_cast<unsigned long long>(net_messages),
      static_cast<unsigned long long>(latency_sum_us));
}

EpisodeResult RunEpisode(const WorkloadSpec& spec, std::uint64_t workload_seed,
                         std::uint64_t cluster_seed,
                         const EpisodeOptions& options) {
  EpisodeResult out;
  auto error = [&out](const std::string& what) {
    if (out.errors++ == 0) out.first_error = what;
  };

  // --- set-up: construction, bootstrap load, warmup ---
  const Clock::time_point setup_start = Clock::now();
  store::Cluster cluster(MakeConfig(spec, cluster_seed, options.traced),
                         MakeSchema(spec));
  mvstore::view::MaintenanceEngine views(&cluster);
  cluster.Start();
  const Clock::time_point load_start = Clock::now();
  for (std::uint64_t i = 0; i < spec.rows; ++i) {
    cluster.BootstrapLoadRow(kTable, workload::FormatKey("k", i),
                             {{"skey", workload::FormatKey("s", i)},
                              {"field0", "p" + std::to_string(i)}},
                             /*ts=*/static_cast<Timestamp>(1000 + i));
  }
  out.bootstrap_s = SecondsSince(load_start);
  Driver driver(&cluster, spec, workload_seed, options.time_client, &out);
  driver.Start();
  cluster.RunFor(spec.warmup);
  out.setup_s = SecondsSince(setup_start);

  // --- measured window ---
  cluster.metrics().Reset();
  mvstore::sim::Simulation& sim = cluster.simulation();
  const std::uint64_t events_before = sim.steps();
  const std::uint64_t messages_before = cluster.network().messages_sent();
  const std::uint64_t spans_before = cluster.tracer().recorded();
  const std::uint64_t evicted_before = cluster.tracer().evicted();
  std::unique_ptr<mvstore::sim::Nemesis> nemesis;
  if (spec.nemesis) {
    nemesis = StartNemesis(cluster, cluster_seed, spec.window);
  }
  const SimTime start = cluster.Now();
  const SimTime end = start + spec.window;
  driver.set_recording(true);
  driver.set_log_completions(options.traced);
  Harvester harvester(cluster.tracer(), &driver.completions(), start, end,
                      &out.ledger);
  double harvest_s = 0;
  const Clock::time_point window_start = Clock::now();
  while (cluster.Now() < end) {
    sim.RunUntil(std::min(end, cluster.Now() + kSlice));
    if (options.traced) harvest_s += harvester.Tick(cluster.Now(), false);
  }
  out.window_s = SecondsSince(window_start) - harvest_s;
  driver.set_recording(false);
  driver.Stop();

  const store::Metrics& m = cluster.metrics();
  out.window = spec.window;
  out.sim_events = sim.steps() - events_before;
  out.net_messages = cluster.network().messages_sent() - messages_before;
  out.spans_recorded = cluster.tracer().recorded() - spans_before;
  out.spans_evicted = cluster.tracer().evicted() - evicted_before;
  out.counters = m.Snapshot();
  out.propagation_delay = m.propagation_delay;
  out.queue_wait = m.stage_queue_wait;
  out.service = m.stage_service;
  out.batch_flush = m.stage_batch_flush;
  out.compaction = m.stage_compaction;
  out.network = m.stage_network;
  out.freshness_wait = m.freshness_wait;
  for (const auto* v : {&out.view_read_us, &out.write_us, &out.base_read_us}) {
    for (std::int64_t us : *v) out.latency_sum_us += static_cast<std::uint64_t>(us);
  }

  // --- drain, heal, quiesce ---
  if (!RunUntilDone(cluster, Seconds(60), [&] { return driver.idle(); })) {
    error("clients did not drain after the window");
  }
  if (spec.nemesis &&
      !RunUntilDone(cluster, Seconds(30), [&] {
        return m.member_joins_completed == m.member_joins_started &&
               m.member_leaves_completed == m.member_leaves_started;
      })) {
    error("membership changes did not settle after the heal");
  }
  if (!RunUntilDone(cluster, Seconds(30),
                    [&] { return views.active_propagations() == 0; })) {
    error("view propagations did not quiesce");
  }
  if (options.traced) {
    while (cluster.Now() < end + kHarvestLag + kSlice) {
      sim.RunUntil(cluster.Now() + kSlice);
      harvester.Tick(cluster.Now(), false);
    }
    harvester.Tick(cluster.Now(), true);
  }
  if (spec.nemesis) {
    // One owned-range scrub period (plus anti-entropy and hint replay)
    // repairs the families the faults orphaned, as in bench/chaos_churn.
    cluster.RunFor(Seconds(2));
  }
  Audit(cluster, driver.rows(), &out);
  return out;
}

}  // namespace mvbench
