// E19 — Shore-side fleet tier: wait-free reads under ingest (ISSUE 6).
//
// The FleetServer's read path is epoch-gated: a hot reader pins one
// immutable snapshot and polls a plain atomic epoch, reloading the
// shared_ptr only when the merge barrier actually published (see
// FleetServer::refresh). Ingest and the merge barrier serialize on a
// private mutex readers never touch. This harness sweeps concurrent
// readers (1 -> 1000) while 128 ships continuously ingest summaries
// through accept() + publish(), and records aggregate read throughput.
// Acceptance: reader throughput stays flat (+-10%) across the sweep —
// the thousands-of-readers story costs the ingest path nothing.
//
// Writes BENCH_FLEETTIER.json at the current working directory (run from
// the repo root to refresh the committed snapshot).

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "mpros/fleet/fleet_server.hpp"
#include "mpros/net/fleet_summary.hpp"

namespace {

using namespace mpros;
using namespace mpros::fleet;

constexpr std::uint64_t kShips = 128;
constexpr double kMeasureSeconds = 1.0;

net::FleetSummary make_summary(std::uint64_t ship, std::uint64_t seq) {
  net::FleetSummary s;
  s.ship = ShipId(ship);
  s.ship_name = "Hull-" + std::to_string(ship);
  s.timestamp = SimTime::from_seconds(600.0 * static_cast<double>(seq));
  s.dcs_alive = 4;
  for (int m = 0; m < 2; ++m) {
    net::MachineHealthSummary machine;
    machine.machine = ObjectId(ship * 10 + static_cast<std::uint64_t>(m));
    machine.name = "Machine " + std::to_string(m);
    machine.klass = m == 0 ? "motor" : "pump";
    machine.health =
        1.0 - 0.001 * static_cast<double>((ship * 7 + seq * 3 +
                                           static_cast<std::uint64_t>(m)) %
                                          400);
    machine.has_diagnosis = true;
    machine.top_mode = domain::FailureMode::MotorImbalance;
    machine.top_belief = 0.3;
    machine.top_severity = 0.5;
    machine.priority = machine.top_belief * machine.top_severity *
                       (1.0 - machine.health);
    s.machines.push_back(machine);
  }
  return s;
}

struct SweepPoint {
  std::size_t readers = 0;
  std::uint64_t reads = 0;
  double reads_per_s = 0.0;
  std::uint64_t summaries_applied = 0;
  std::uint64_t publishes = 0;
};

SweepPoint run_point(std::size_t reader_count) {
  FleetServer server;
  for (std::uint64_t k = 1; k <= kShips; ++k) {
    server.expect_ship(ShipId(k), "Hull-" + std::to_string(k), SimTime(0));
    (void)server.accept(net::FleetSummaryEnvelope{ShipId(k), 1,
                                                  make_summary(k, 1)},
                        SimTime::from_seconds(600));
  }
  server.publish(SimTime::from_seconds(600));

  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};

  // The ingest side: 128 hulls keep summarizing, the merge barrier keeps
  // publishing fresh epochs. Paced at one full fleet round per 5 ms
  // (~25k summaries/s, ~200 epochs/s) — far hotter than any real shore
  // uplink, but a fixed duty cycle, so what the sweep measures is the
  // read path and not how the OS splits one saturated core between an
  // unbounded writer and N readers.
  std::thread ingest([&] {
    go.wait(false, std::memory_order_acquire);
    std::uint64_t seq = 2;
    auto next = std::chrono::steady_clock::now();
    while (!stop.load(std::memory_order_acquire)) {
      const SimTime at =
          SimTime::from_seconds(600.0 * static_cast<double>(seq));
      for (std::uint64_t k = 1; k <= kShips; ++k) {
        (void)server.accept(net::FleetSummaryEnvelope{ShipId(k), seq,
                                                      make_summary(k, seq)},
                            at);
      }
      server.publish(at);
      ++seq;
      next += std::chrono::milliseconds(5);
      std::this_thread::sleep_until(next);
    }
  });

  // The read side: the shore dashboard's "worst items fleet-wide" page.
  // Each reader pins a snapshot and refreshes it by epoch — the hot path
  // is one relaxed epoch load plus a walk over immutable local data, with
  // no shared refcount traffic between readers.
  std::vector<std::thread> readers;
  std::vector<std::uint64_t> reads(reader_count, 0);
  for (std::size_t r = 0; r < reader_count; ++r) {
    readers.emplace_back([&, r] {
      go.wait(false, std::memory_order_acquire);
      std::shared_ptr<const FleetSnapshot> snap = server.snapshot();
      double sink = 0.0;
      std::uint64_t n = 0;
      while (!stop.load(std::memory_order_acquire)) {
        server.refresh(snap);
        for (const FleetMaintenanceItem& item : snap->items) {
          sink += item.priority + item.health;
        }
        sink += static_cast<double>(snap->ships_alive + snap->outliers.size());
        ++n;
      }
      reads[r] = n + static_cast<std::uint64_t>(sink == -1.0);
    });
  }

  const auto t0 = std::chrono::steady_clock::now();
  go.store(true, std::memory_order_release);
  go.notify_all();
  std::this_thread::sleep_for(std::chrono::duration<double>(kMeasureSeconds));
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  ingest.join();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  SweepPoint p;
  p.readers = reader_count;
  for (const std::uint64_t n : reads) p.reads += n;
  p.reads_per_s = static_cast<double>(p.reads) / elapsed;
  p.summaries_applied = server.stats_snapshot().summaries_applied;
  p.publishes = server.stats_snapshot().publishes;
  return p;
}

void write_json(const std::vector<SweepPoint>& sweep, double flatness) {
  std::FILE* f = std::fopen("BENCH_FLEETTIER.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr,
                 "bench_fleet_server: cannot write BENCH_FLEETTIER.json\n");
    return;
  }
  std::fprintf(f,
               "{\n"
               "  \"experiment\": \"E19\",\n"
               "  \"ingesting_ships\": %llu,\n"
               "  \"measure_seconds\": %.2f,\n"
               "  \"reader_sweep\": [\n",
               static_cast<unsigned long long>(kShips), kMeasureSeconds);
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const SweepPoint& p = sweep[i];
    std::fprintf(f,
                 "    {\"readers\": %zu, \"reads\": %llu, "
                 "\"reads_per_s\": %.0f, \"summaries_applied\": %llu, "
                 "\"publishes\": %llu}%s\n",
                 p.readers, static_cast<unsigned long long>(p.reads),
                 p.reads_per_s,
                 static_cast<unsigned long long>(p.summaries_applied),
                 static_cast<unsigned long long>(p.publishes),
                 i + 1 < sweep.size() ? "," : "");
  }
  std::fprintf(f,
               "  ],\n"
               "  \"throughput_flatness_min_over_max\": %.3f\n"
               "}\n",
               flatness);
  std::fclose(f);
}

}  // namespace

int main() {
  std::printf(
      "\nE19 fleet-tier reads under ingest (ISSUE 6; acceptance: aggregate\n"
      "reader throughput flat across 1 -> 1000 readers while %llu ships\n"
      "ingest)\n\n",
      static_cast<unsigned long long>(kShips));

  // Warm-up point (thread pools, allocator arenas) — not recorded.
  (void)run_point(2);

  std::vector<SweepPoint> sweep;
  std::printf("%8s  %12s  %14s  %10s\n", "readers", "reads", "reads/s",
              "publishes");
  for (const std::size_t readers : {1, 4, 16, 64, 256, 1000}) {
    const SweepPoint p = run_point(readers);
    std::printf("%8zu  %12llu  %14.0f  %10llu\n", p.readers,
                static_cast<unsigned long long>(p.reads), p.reads_per_s,
                static_cast<unsigned long long>(p.publishes));
    sweep.push_back(p);
  }

  double lo = sweep.front().reads_per_s;
  double hi = sweep.front().reads_per_s;
  for (const SweepPoint& p : sweep) {
    lo = std::min(lo, p.reads_per_s);
    hi = std::max(hi, p.reads_per_s);
  }
  const double flatness = hi > 0.0 ? lo / hi : 0.0;
  std::printf("\nthroughput flatness (min/max across sweep): %.3f\n",
              flatness);

  write_json(sweep, flatness);
  std::printf("BENCH_FLEETTIER.json written\n");
  return 0;
}
