// Chaos bench — membership churn: elastic joins and decommissions under a
// live read/write workload, optionally mixed with crash/restart cycles.
//
// A seeded schedule bootstraps spare server slots into the ring (kJoin) and
// decommissions baseline servers out of it (kLeave) while closed-loop
// clients keep reading the view and updating base rows. Every acknowledged
// write is tracked (base key -> max acked timestamp); after the nemesis
// heals and the cluster quiesces the bench gates on:
//
//   1. every join and leave that started also completed, and no
//      decommission had to force-abandon its hint drain,
//   2. zero lost acked writes — each tracked base key still exposes cells
//      at least as new as its newest acknowledged Put,
//   3. hints_outstanding == 0 on every server (drains really drained),
//   4. the view converges to the Definition-1 recomputation,
//   5. anti-entropy has reached its fixed point: once gates 1-4 are
//      checked, 2 more simulated seconds of the quiescent cluster push no
//      row.
//
// Exit status is non-zero when any gate fails, so CI can run this binary
// directly as the membership-churn convergence gate.
//
//   MV_BENCH_CHURN_SECONDS  fault-window length        (default 12)
//   MV_BENCH_CHURN_SEED     schedule seed              (default 1)
//   MV_BENCH_CHURN_CYCLES   join+leave churn cycles    (default 2)
//   MV_BENCH_CHURN_CRASHES  crash/restart cycles       (default 1)
//   MV_BENCH_CHURN_HOT_KEYS update key range           (default 256)

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>

#include "bench/bench_common.h"
#include "common/rng.h"
#include "sim/nemesis.h"
#include "view/scrub.h"
#include "workload/key_generator.h"

namespace mvstore::bench {
namespace {

/// Closed-loop churn workload state. Unlike workload::ClosedLoopRunner this
/// loop re-attaches a client whose coordinator left the ring (a real driver
/// would re-resolve the contact list), and records the max acked write
/// timestamp per base key for the lost-write audit.
struct ChurnState {
  store::Cluster* cluster = nullptr;
  SimTime window_end = 0;
  bool stopped = false;
  std::vector<std::unique_ptr<store::Client>> clients;
  Rng rng{1};
  std::uint64_t rows = 0;
  std::uint64_t hot = 0;
  std::uint64_t fresh = 0;
  std::uint64_t ops = 0;
  std::uint64_t failures = 0;
  std::uint64_t reattaches = 0;
  std::map<Key, Timestamp> acked;  ///< base key -> max acknowledged Put ts
};

void Issue(const std::shared_ptr<ChurnState>& st, int index);

void OnDone(const std::shared_ptr<ChurnState>& st, int index, bool ok) {
  ++st->ops;
  if (!ok) ++st->failures;
  if (st->stopped || st->cluster->simulation().Now() >= st->window_end) return;
  st->cluster->simulation().After(Millis(10),
                                  [st, index] { Issue(st, index); });
}

void Issue(const std::shared_ptr<ChurnState>& st, int index) {
  if (st->stopped) return;
  auto& slot = st->clients[static_cast<std::size_t>(index)];
  // Re-attach when the coordinator has been decommissioned (or is mid-drain
  // and rejects new coordination): pick the nearest serving member.
  const ServerId coord = slot->coordinator();
  if (st->cluster->server(coord).membership() !=
      store::MembershipState::kServing) {
    slot = st->cluster->NewClient(st->cluster->PickServingServer(coord));
    slot->set_request_timeout(Millis(250));
    ++st->reattaches;
  }
  store::Client& client = *slot;
  if (client.request_timeout() == 0) client.set_request_timeout(Millis(250));

  if (st->rng.Chance(0.5)) {
    const auto rank =
        static_cast<std::uint64_t>(st->rng.UniformInt(0, st->rows - 1));
    IssueRead(Scenario::kMaterializedView, client, rank,
              [st, index](bool ok) { OnDone(st, index, ok); });
  } else {
    const auto rank =
        static_cast<std::uint64_t>(st->rng.UniformInt(0, st->hot - 1));
    const Key key = workload::FormatKey("k", rank);
    client.Put(
        "usertable", key,
        {{"skey", workload::FormatKey("x", st->rows + st->fresh++, 12)},
         {"field0", std::string("churn-") + std::to_string(st->fresh)}},
        store::WriteOptions{}, [st, index, key](store::WriteResult result) {
          if (result.ok()) {
            Timestamp& seen = st->acked[key];
            seen = std::max(seen, result.ts);
          }
          OnDone(st, index, result.ok());
        });
  }
}

int Run() {
  BenchScale scale;
  const auto seconds = EnvInt("MV_BENCH_CHURN_SECONDS", 12);
  const auto seed =
      static_cast<std::uint64_t>(EnvInt("MV_BENCH_CHURN_SEED", 1));
  const auto cycles = static_cast<int>(EnvInt("MV_BENCH_CHURN_CYCLES", 2));
  const auto crashes = static_cast<int>(EnvInt("MV_BENCH_CHURN_CRASHES", 1));
  const auto hot_keys =
      static_cast<std::uint64_t>(EnvInt("MV_BENCH_CHURN_HOT_KEYS", 256));

  store::ClusterConfig config = PaperConfig(seed);
  config.rpc_timeout = Millis(100);
  config.lock_lease_ttl = Millis(500);
  config.anti_entropy_interval = Millis(500);
  // Leave-orphaned propagations are recovered by the periodic owned-range
  // scrub of the new primaries; churn runs need it on.
  config.view_scrub_interval = Millis(500);
  config.hint_replay_interval = Millis(500);
  // One spare slot per churn cycle so every kJoin can bootstrap a fresh
  // server (decommissioned slots never rejoin in this bench).
  config.max_servers = config.num_servers + cycles;
  BenchCluster bc(Scenario::kMaterializedView, scale, config);

  sim::Nemesis nemesis(
      &bc.cluster.simulation(), &bc.cluster.network(),
      [&bc](sim::EndpointId s) { bc.cluster.CrashServer(s); },
      [&bc](sim::EndpointId s) { bc.cluster.RestartServer(s); });
  nemesis.SetMembershipCallbacks(
      [&bc] { bc.cluster.JoinServer(); },
      [&bc](sim::EndpointId s) { bc.cluster.DecommissionServer(s); });
  sim::NemesisOptions options;
  options.horizon = Seconds(seconds);
  options.num_servers = config.num_servers;  // churn targets baseline slots
  options.membership_churn = cycles;
  options.min_churn_gap = Seconds(1);
  options.max_churn_gap = Seconds(3);
  options.crashes = crashes;
  options.min_downtime = Millis(300);
  options.max_downtime = Seconds(1);
  options.partitions = 1;
  options.min_partition = Millis(200);
  options.max_partition = Millis(800);
  options.drop_surges = 1;
  options.latency_spikes = 1;
  const sim::FaultSchedule schedule =
      sim::GenerateRandomSchedule(Rng(seed), options);
  nemesis.Schedule(schedule);
  nemesis.HealAllAt(options.horizon);

  PrintTitle("Chaos: membership churn over the MV scenario");
  PrintNote(StrFormat(
      "seed=%llu, horizon=%llds, %d churn cycles, %d crash cycles, "
      "%zu scheduled events",
      static_cast<unsigned long long>(seed), static_cast<long long>(seconds),
      cycles, crashes, schedule.size()));
  for (const sim::FaultEvent& event : schedule) {
    PrintNote("  " + event.ToString());
  }

  auto st = std::make_shared<ChurnState>();
  st->cluster = &bc.cluster;
  st->window_end = bc.cluster.simulation().Now() + options.horizon;
  st->rng = Rng(seed * 101);
  st->rows = static_cast<std::uint64_t>(scale.rows);
  st->hot = std::min(hot_keys, st->rows);
  const int num_clients = 8;
  for (int i = 0; i < num_clients; ++i) {
    st->clients.push_back(bc.cluster.NewClient(bc.cluster.PickServingServer(
        static_cast<ServerId>(i % bc.cluster.num_servers()))));
    st->clients.back()->set_request_timeout(Millis(250));
  }
  for (int i = 0; i < num_clients; ++i) Issue(st, i);

  bc.cluster.simulation().RunUntil(st->window_end);
  st->stopped = true;
  bc.cluster.RunFor(Millis(50));

  std::printf("\nfault window: %llu ops, %llu failed/timed out, "
              "%llu client re-attaches\n",
              static_cast<unsigned long long>(st->ops),
              static_cast<unsigned long long>(st->failures),
              static_cast<unsigned long long>(st->reattaches));

  // Heal happened at the horizon. Let in-flight joins/decommissions finish
  // (a leave interrupted by a crash resumes on restart, so this converges),
  // then drain propagations and give anti-entropy + scrub their window.
  const store::Metrics& m = bc.cluster.metrics();
  for (int i = 0; i < 30 && (m.member_joins_completed < m.member_joins_started ||
                             m.member_leaves_completed < m.member_leaves_started);
       ++i) {
    bc.cluster.RunFor(Seconds(1));
  }
  bc.views->Quiesce();
  bc.cluster.RunFor(Seconds(3));

  std::printf("\nmembership counters:\n");
  std::printf("  %-34s %10llu\n  %-34s %10llu\n  %-34s %10llu\n"
              "  %-34s %10llu\n  %-34s %10llu\n  %-34s %10llu\n"
              "  %-34s %10llu\n  %-34s %10llu\n",
              "joins started",
              static_cast<unsigned long long>(m.member_joins_started),
              "joins completed",
              static_cast<unsigned long long>(m.member_joins_completed),
              "leaves started",
              static_cast<unsigned long long>(m.member_leaves_started),
              "leaves completed",
              static_cast<unsigned long long>(m.member_leaves_completed),
              "ranges streamed",
              static_cast<unsigned long long>(m.member_ranges_streamed),
              "rows streamed",
              static_cast<unsigned long long>(m.member_rows_streamed),
              "hints rerouted",
              static_cast<unsigned long long>(m.member_hints_rerouted),
              "in-flight ops retargeted",
              static_cast<unsigned long long>(m.member_ops_retargeted));
  std::printf("\nfault counters:\n");
  PrintFaultCounters(m);

  // Gate 1: membership operations ran to completion, drains were natural.
  const bool membership_settled =
      m.member_joins_completed == m.member_joins_started &&
      m.member_leaves_completed == m.member_leaves_started &&
      m.member_drains_forced == 0;

  // Gate 3: no server is still sitting on hinted handoffs.
  std::size_t hints_left = 0;
  for (int i = 0; i < bc.cluster.num_servers(); ++i) {
    hints_left += bc.cluster.server(static_cast<ServerId>(i))
                      .hints_outstanding();
  }

  // Gate 2: every acked write survived the churn. Read each tracked base
  // key at R = replication factor (merges all live replicas); both written
  // columns must expose cells at least as new as the newest acked Put.
  auto auditor = bc.cluster.NewClient(bc.cluster.PickServingServer(0));
  std::uint64_t lost_acked_writes = 0;
  store::ReadOptions audit_options;
  audit_options.quorum = config.replication_factor;
  audit_options.columns = {"skey", "field0"};
  for (const auto& [key, ts] : st->acked) {
    const store::ReadResult result =
        auditor->GetSync("usertable", key, audit_options);
    if (!result.ok()) {
      ++lost_acked_writes;
      continue;
    }
    const auto skey = result.row.Get("skey");
    const auto field0 = result.row.Get("field0");
    if (!skey.has_value() || skey->ts < ts || !field0.has_value() ||
        field0->ts < ts) {
      ++lost_acked_writes;
    }
  }

  // Gate 4: Definition-1 convergence of the view.
  const store::ViewDef& view = *bc.cluster.schema().GetView("by_skey");
  auto expected = view::ComputeExpectedView(bc.cluster, view);
  auto exposed = view::ReadConvergedView(bc.cluster, view);
  std::size_t value_mismatches = 0;
  if (expected.size() == exposed.size()) {
    for (std::size_t i = 0; i < expected.size(); ++i) {
      if (expected[i].view_key != exposed[i].view_key ||
          expected[i].base_key != exposed[i].base_key ||
          expected[i].cells.GetValue("field0") !=
              exposed[i].cells.GetValue("field0")) {
        ++value_mismatches;
      }
    }
  }
  const bool converged =
      expected.size() == exposed.size() && value_mismatches == 0;

  // Gate 5, measured after gates 1-4 so they keep their deadline: at
  // quiescence every replica pair agrees, so further anti-entropy rounds
  // exchange digests and ship nothing.
  const std::uint64_t ae_rows_before = m.anti_entropy_rows_pushed.value();
  bc.cluster.RunFor(Seconds(2));
  const std::uint64_t ae_rows_after_quiescence =
      m.anti_entropy_rows_pushed.value() - ae_rows_before;

  const bool ok = membership_settled && hints_left == 0 &&
                  lost_acked_writes == 0 && converged &&
                  ae_rows_after_quiescence == 0;
  std::printf("\nchurn gate: %s (membership %s, %zu hints outstanding, "
              "%llu lost acked writes of %zu tracked keys, view %s: "
              "%zu expected / %zu exposed / %zu mismatches, "
              "%llu anti-entropy rows pushed after quiescence)\n",
              ok ? "PASS" : "FAIL",
              membership_settled ? "settled" : "UNSETTLED", hints_left,
              static_cast<unsigned long long>(lost_acked_writes),
              st->acked.size(), converged ? "CONVERGED" : "DIVERGED",
              expected.size(), exposed.size(), value_mismatches,
              static_cast<unsigned long long>(ae_rows_after_quiescence));

  BenchReport report("chaos_churn");
  report.Add("seed", seed);
  report.Add("horizon_seconds", seconds);
  report.Add("churn_cycles", cycles);
  report.Add("crash_cycles", crashes);
  report.Add("ops", st->ops);
  report.Add("ops_failed", st->failures);
  report.Add("client_reattaches", st->reattaches);
  report.Add("tracked_keys", static_cast<std::uint64_t>(st->acked.size()));
  report.Add("lost_acked_writes", lost_acked_writes);
  report.Add("hints_outstanding", static_cast<std::uint64_t>(hints_left));
  report.Add("membership_settled", membership_settled ? "settled"
                                                      : "unsettled");
  report.Add("converged", converged ? "converged" : "diverged");
  report.Add("expected_records", static_cast<std::uint64_t>(expected.size()));
  report.Add("exposed_records", static_cast<std::uint64_t>(exposed.size()));
  report.Add("value_mismatches",
             static_cast<std::uint64_t>(value_mismatches));
  report.Add("ae_rows_pushed_after_quiescence", ae_rows_after_quiescence);
  report.Add("joins_started", static_cast<std::uint64_t>(m.member_joins_started));
  report.Add("joins_completed",
             static_cast<std::uint64_t>(m.member_joins_completed));
  report.Add("leaves_started",
             static_cast<std::uint64_t>(m.member_leaves_started));
  report.Add("leaves_completed",
             static_cast<std::uint64_t>(m.member_leaves_completed));
  report.Add("ranges_streamed",
             static_cast<std::uint64_t>(m.member_ranges_streamed));
  report.Add("rows_streamed",
             static_cast<std::uint64_t>(m.member_rows_streamed));
  report.Add("stream_retries",
             static_cast<std::uint64_t>(m.member_stream_retries));
  report.Add("hints_rerouted",
             static_cast<std::uint64_t>(m.member_hints_rerouted));
  report.Add("ops_retargeted",
             static_cast<std::uint64_t>(m.member_ops_retargeted));
  report.Add("drains_forced",
             static_cast<std::uint64_t>(m.member_drains_forced));
  report.AddRaw("metrics", m.ToJson());
  report.Write();

  return ok ? 0 : 1;
}

}  // namespace
}  // namespace mvstore::bench

int main() { return mvstore::bench::Run(); }
