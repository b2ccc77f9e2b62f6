// mpros_soak — the continuous-invariant chaos soak harness (§4.9 at scale).
//
// Drives N independent hulls through a long simulated voyage while chaos
// injection hammers the shipboard layer, and re-checks the system's
// standing invariants at every soak checkpoint — not just at the end, so a
// violation pins the simulated minute it first appeared. Hulls 0 and 1 are
// mirrors (same seed, same faults, same chaos; hull 0 steps its DCs on the
// pool, hull 1 on one worker), turning run-to-run determinism — across
// worker counts, crashes and rebuilds too — into a continuously evaluated
// invariant.
//
// Chaos knobs come from the environment so one binary serves both the CI
// job and the nightly soak without recompilation:
//   MPROS_CHAOS_DROP=P       shipboard datagram loss probability
//   MPROS_CHAOS_DUP=P        shipboard duplication probability
//   MPROS_CHAOS_OUTAGE=S:D   every S simulated seconds, hard-partition a
//                            rotating DC endpoint for D seconds
//   MPROS_CHAOS_WEDGE=1      wedge a rotating DC each outage period; the
//                            supervisor must detect and recover it
//   MPROS_CHAOS_CHURN=S      every S seconds, command a runtime config
//                            change (rotating key/value) on a rotating DC
//   MPROS_CHAOS_CRASH=S      every S seconds, kill BOTH mirror hulls
//                            mid-voyage (destroy the ShipSystem, no
//                            shutdown) and rebuild each from its durable
//                            OOSM directory; the recovered pair must keep
//                            satisfying every invariant, I1 included
//
// Invariants (any violation = nonzero exit naming the simulated time):
//   I1 mirror determinism     the mirror hulls' fused views render
//                             byte-identical (summary + ICAS export) and,
//                             when durable, their db.wal and db.snapshot
//                             files are byte-identical
//   I2 delivery conservation  per hull: sent + duplicated ==
//                             delivered + dropped + dead_lettered + in_flight
//   I3 liveness sanity        PDME counters are monotone; after the final
//                             quiet heal window every DC is Alive again
//   I4 config convergence     after heal, each DC's config_revision equals
//                             the newest stamped revision and every
//                             commanded value reads back via
//                             runtime_setting()
//   I5 bounded DC log         each DC's log_rows never exceeds the rows it
//                             wrote since the last checkpoint at or before
//                             now - 1 h: one hour of scans, reports and
//                             tests, plus at most one checkpoint period
//
//   mpros_soak --short        CI mode: 2 hulls x 2 plants, 3 simulated hours
//   mpros_soak                nightly: 6 hulls x 4 plants, 240 simulated
//                             hours (tens of millions of datagrams)
//   --ships N --plants N --hours H --seed N --step-s S --check-s S
//   override either profile.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "mpros/common/file.hpp"
#include "mpros/mpros/mpros.hpp"

namespace {

using namespace mpros;

double env_double(const char* name, double fallback) {
  const char* v = std::getenv(name);
  return (v != nullptr && *v != '\0') ? std::atof(v) : fallback;
}

bool env_flag(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0' && std::strcmp(v, "0") != 0;
}

/// "S:D" -> {period, duration}; zeros disable.
std::pair<double, double> env_outage() {
  const char* v = std::getenv("MPROS_CHAOS_OUTAGE");
  if (v == nullptr || *v == '\0') return {0.0, 0.0};
  const char* colon = std::strchr(v, ':');
  if (colon == nullptr) return {std::atof(v), 120.0};
  return {std::atof(v), std::atof(colon + 1)};
}

struct ChurnKnob {
  const char* key;
  double a;
  double b;
};

/// The rotation the churn injector cycles through — validator thresholds,
/// report shaping, analyzer enablement: one of each control-plane family.
constexpr ChurnKnob kChurn[] = {
    {"dc.report_hysteresis", 0.03, 0.08},
    {"validator.spike_sigmas", 6.0, 9.0},
    {"dc.wnn_report_threshold", 0.40, 0.55},
    {"dc.report_refresh_s", 900.0, 1800.0},
    {"dc.sensor_publish_every", 3.0, 7.0},
    {"dc.enable_fuzzy", 0.0, 1.0},
};

int fail(SimTime at, const std::string& what) {
  std::fprintf(stderr, "mpros_soak: INVARIANT VIOLATION at t=%.0fs: %s\n",
               at.seconds(), what.c_str());
  return 1;
}

/// I5: an upper bound on the log-table rows a DC has written so far. A scan
/// logs one measurement per process variable; every report logs one
/// diagnostic; a test logs its run, plus a marker when commanded; every
/// config command logs one line.
[[nodiscard]] std::uint64_t log_rows_written(
    const dc::DataConcentrator::Stats& s) {
  return s.process_scans * domain::kProcessCount + s.reports_emitted +
         2 * s.vibration_tests + s.config_commands;
}

[[nodiscard]] std::string fused_fingerprint(ShipSystem& ship) {
  return pdme::render_summary(ship.pdme(), ship.model()) + "\n---\n" +
         pdme::export_icas_csv(ship.pdme(), ship.model());
}

}  // namespace

int main(int argc, char** argv) {
  // Nightly profile by default; --short is the CI profile.
  std::size_t ships = 6;
  std::size_t plants = 4;
  double hours = 240.0;
  double step_s = 60.0;
  double check_s = 600.0;
  std::uint64_t seed = 0x50AC;
  bool short_mode = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "mpros_soak: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--short") {
      short_mode = true;
      ships = 2;
      plants = 2;
      hours = 3.0;
    } else if (arg == "--ships") {
      ships = static_cast<std::size_t>(std::atoi(next()));
    } else if (arg == "--plants") {
      plants = static_cast<std::size_t>(std::atoi(next()));
    } else if (arg == "--hours") {
      hours = std::atof(next());
    } else if (arg == "--step-s") {
      step_s = std::atof(next());
    } else if (arg == "--check-s") {
      check_s = std::atof(next());
    } else if (arg == "--seed") {
      seed = std::strtoull(next(), nullptr, 0);
    } else if (arg == "--help" || arg == "-h") {
      std::printf("see the header comment of tools/mpros_soak.cpp\n");
      return 0;
    } else {
      std::fprintf(stderr, "mpros_soak: unknown argument '%s'\n", arg.c_str());
      return 2;
    }
  }
  if (ships < 2) ships = 2;  // the mirror pair is the floor
  if (plants == 0) plants = 1;

  const double chaos_drop = env_double("MPROS_CHAOS_DROP", 0.0);
  const double chaos_dup = env_double("MPROS_CHAOS_DUP", 0.0);
  const auto [outage_period_s, outage_len_s] = env_outage();
  const bool chaos_wedge = env_flag("MPROS_CHAOS_WEDGE");
  const double churn_period_s = env_double("MPROS_CHAOS_CHURN", 0.0);
  const double crash_period_s = env_double("MPROS_CHAOS_CRASH", 0.0);

  std::printf(
      "mpros_soak: %zu hull(s) x %zu plant(s), %.0f simulated hour(s)%s\n"
      "chaos: drop=%.3f dup=%.3f outage=%.0fs/%.0fs wedge=%d churn=%.0fs "
      "crash=%.0fs\n",
      ships, plants, hours, short_mode ? " (short/CI profile)" : "",
      chaos_drop, chaos_dup, outage_period_s, outage_len_s,
      chaos_wedge ? 1 : 0, churn_period_s, crash_period_s);

  // Durable OOSM directories for the mirror pair: only armed when the
  // crash injector is on (a crash needs something to recover from).
  const std::filesystem::path crash_root =
      std::filesystem::temp_directory_path() /
      ("mpros_soak_crash_" + std::to_string(::getpid()));
  if (crash_period_s > 0.0) {
    std::filesystem::remove_all(crash_root);
    std::filesystem::create_directories(crash_root);
  }

  // ---- assemble the fleet -------------------------------------------------
  // Hulls 0 and 1 are mirrors with the identical seed/fault/chaos script;
  // hulls 2.. add population under varied seeds.
  const auto make_cfg = [&](std::size_t h) {
    ShipSystemConfig cfg;
    cfg.plant_count = plants;
    const bool mirror_pair = h < 2;
    cfg.seed = mirror_pair ? seed : seed + h * 0x9E3779B9ULL;
    if (h == 1) cfg.worker_threads = 1;  // the pool must not change a byte
    cfg.network.seed = mirror_pair ? 0xC0FFEE : 0xC0FFEE + h;
    cfg.network.drop_probability = chaos_drop;
    cfg.network.duplicate_probability = chaos_dup;
    if (crash_period_s > 0.0 && mirror_pair) {
      cfg.enable_durability = true;
      cfg.durability.directory =
          (crash_root / ("hull" + std::to_string(h))).string();
    }
    // Long mode turns the report volume up: short refresh + every-scan
    // sensor batches is what makes 240 h reach tens of millions of
    // datagrams.
    if (!short_mode) {
      cfg.dc_template.process_period = SimTime::from_seconds(20.0);
      cfg.dc_template.report_refresh = SimTime::from_seconds(120.0);
      cfg.dc_template.vibration_period = SimTime::from_seconds(300.0);
      cfg.dc_template.sensor_publish_every = 1;
    }
    return cfg;
  };
  // A standing fault per plant keeps every analyzer and the report
  // pipeline exercised for the whole voyage. (Fault scripts are simulator
  // state, not durable state: a rebuilt hull re-arms the same script.)
  const auto arm_faults = [&](ShipSystem& ship) {
    static constexpr domain::FailureMode kModes[] = {
        domain::FailureMode::MotorImbalance,
        domain::FailureMode::RefrigerantLeak,
        domain::FailureMode::MotorBearingWear,
        domain::FailureMode::CondenserFouling,
    };
    for (std::size_t p = 0; p < plants; ++p) {
      plant::FaultEvent ev;
      ev.mode = kModes[p % 4];
      ev.onset = SimTime::from_hours(0.25 + 0.1 * static_cast<double>(p));
      ev.ramp = SimTime::from_hours(hours * 0.5);
      ev.max_severity = 0.9;
      ev.profile = plant::GrowthProfile::Linear;
      ship.chiller(p).faults().schedule(ev);
    }
  };
  std::vector<std::unique_ptr<ShipSystem>> fleet;
  for (std::size_t h = 0; h < ships; ++h) {
    fleet.push_back(std::make_unique<ShipSystem>(make_cfg(h)));
    arm_faults(*fleet[h]);
  }

  const SimTime end = SimTime::from_hours(hours);
  const SimTime step = SimTime::from_seconds(step_s);
  const SimTime check = SimTime::from_seconds(check_s);
  // The heal window: chaos stops this long before the end so retransmit
  // backoff (max_rto), wedge recovery and command redelivery can all drain
  // before the final convergence checks.
  const SimTime heal = SimTime::from_hours(short_mode ? 1.0 : 2.0);
  const SimTime chaos_end = end > heal ? end - heal : SimTime(0);

  // Chaos scripting state.
  SimTime next_outage =
      outage_period_s > 0.0 ? SimTime::from_seconds(outage_period_s)
                            : SimTime(-1);
  SimTime next_wedge = chaos_wedge ? SimTime::from_seconds(900.0)
                                   : SimTime(-1);
  const SimTime wedge_every = SimTime::from_seconds(
      outage_period_s > 0.0 ? 2.0 * outage_period_s : 1800.0);
  SimTime next_churn = churn_period_s > 0.0
                           ? SimTime::from_seconds(churn_period_s)
                           : SimTime(-1);
  SimTime next_crash = crash_period_s > 0.0
                           ? SimTime::from_seconds(crash_period_s)
                           : SimTime(-1);
  std::size_t outage_count = 0;
  std::size_t wedge_count = 0;
  std::size_t churn_count = 0;
  std::size_t crash_count = 0;

  // I4 bookkeeping: what each (hull, plant) was last commanded to.
  struct Expected {
    std::uint64_t revision = 0;
    std::map<std::string, double> settings;
  };
  std::vector<std::vector<Expected>> expected(
      ships, std::vector<Expected>(plants));

  // I3 bookkeeping: last PDME counter snapshot per hull.
  std::vector<pdme::PdmeExecutive::Stats> last_stats(ships);

  // I5 bookkeeping: per (hull, plant), log_rows_written() at each
  // checkpoint of the last hour, oldest first, plus the newest one at or
  // before now - 1 h.
  struct LogMark {
    SimTime at;
    std::uint64_t written = 0;
  };
  std::vector<std::vector<std::deque<LogMark>>> log_marks(
      ships, std::vector<std::deque<LogMark>>(plants));
  SimTime next_check = check;
  for (SimTime t = step; t <= end; t = t + step) {
    const bool chaos_live = t <= chaos_end;

    if (chaos_live && next_crash.micros() >= 0 && t >= next_crash) {
      // Kill -9 analogue on BOTH mirror hulls: destroy each ShipSystem with
      // no shutdown path, then rebuild over its durable directory. Both
      // recover the same committed barrier, so the mirror-determinism
      // invariant must keep holding for the rest of the voyage.
      const SimTime committed = fleet[0]->now();
      for (std::size_t h = 0; h < 2 && h < ships; ++h) {
        fleet[h].reset();  // the crash: in-memory state is simply gone
        fleet[h] = std::make_unique<ShipSystem>(make_cfg(h));
        if (!fleet[h]->recovered() ||
            fleet[h]->now().micros() != committed.micros()) {
          return fail(t, "hull " + std::to_string(h) +
                             " did not recover the committed barrier after "
                             "a crash (got " +
                             std::to_string(fleet[h]->now().seconds()) +
                             "s, want " +
                             std::to_string(committed.seconds()) + "s)");
        }
        arm_faults(*fleet[h]);
        // Counters, network stats and the DC logs restart with the process.
        last_stats[h] = {};
        for (auto& marks : log_marks[h]) marks.clear();
        // Commands in flight died with the hull; re-issue the newest
        // commanded state so the convergence invariant stays meaningful
        // (and the post-crash control plane gets exercised).
        for (std::size_t p = 0; p < plants; ++p) {
          Expected& want = expected[h][p];
          if (want.settings.empty()) continue;
          std::vector<std::pair<std::string, double>> settings(
              want.settings.begin(), want.settings.end());
          want.revision = fleet[h]->command_dc(p, std::move(settings),
                                               "post-crash re-command");
        }
      }
      ++crash_count;
      next_crash = next_crash + SimTime::from_seconds(crash_period_s);
    }

    if (chaos_live && next_outage.micros() >= 0 && t >= next_outage) {
      // Partition one rotating DC endpoint on every hull (identically on
      // the mirror pair, by construction of the loop).
      const std::string victim =
          net::dc_endpoint(DcId(outage_count % plants + 1));
      for (auto& ship : fleet) {
        ship->network().schedule_outage(
            {victim, t, t + SimTime::from_seconds(outage_len_s), 1.0});
      }
      ++outage_count;
      next_outage = next_outage + SimTime::from_seconds(outage_period_s);
    }

    if (chaos_live && next_wedge.micros() >= 0 && t >= next_wedge) {
      const std::size_t victim = wedge_count % plants;
      for (auto& ship : fleet) ship->wedge_dc(victim, true);
      ++wedge_count;
      next_wedge = next_wedge + wedge_every;
    }

    if (chaos_live && next_churn.micros() >= 0 && t >= next_churn) {
      constexpr std::size_t kKnobs = sizeof(kChurn) / sizeof(kChurn[0]);
      const ChurnKnob& knob = kChurn[churn_count % kKnobs];
      const double value = (churn_count / kKnobs) % 2 == 0 ? knob.a : knob.b;
      const std::size_t target = churn_count % plants;
      for (std::size_t h = 0; h < ships; ++h) {
        const std::uint64_t rev = fleet[h]->command_dc(
            target, {{knob.key, value}}, "soak churn");
        expected[h][target].revision = rev;
        expected[h][target].settings[knob.key] = value;
      }
      ++churn_count;
      next_churn = next_churn + SimTime::from_seconds(churn_period_s);
    }

    for (auto& ship : fleet) ship->advance_to(t);

    if (t < next_check && t < end) continue;
    next_check = next_check + check;

    // I1: the mirror hulls must agree byte-for-byte.
    if (fused_fingerprint(*fleet[0]) != fused_fingerprint(*fleet[1])) {
      return fail(t, "mirror determinism broken: hulls 0 and 1 render "
                     "different fused views");
    }
    if (crash_period_s > 0.0) {  // durable mirrors: their files match too
      for (const char* file : {"db.wal", "db.snapshot"}) {
        const FileRead a = read_file((crash_root / "hull0" / file).string());
        const FileRead b = read_file((crash_root / "hull1" / file).string());
        if (a.status != b.status || a.bytes != b.bytes) {
          return fail(t, std::string("mirror determinism broken: the "
                                     "mirror hulls' ") + file + " differ");
        }
      }
    }

    for (std::size_t h = 0; h < ships; ++h) {
      // I2: every datagram is accounted for.
      const net::NetworkStats ns = fleet[h]->network().stats();
      const std::uint64_t in = ns.sent + ns.duplicated;
      const std::uint64_t out = ns.delivered + ns.dropped +
                                ns.dead_lettered +
                                fleet[h]->network().in_flight();
      if (in != out) {
        return fail(t, "delivery conservation broken on hull " +
                           std::to_string(h) + ": in=" + std::to_string(in) +
                           " out=" + std::to_string(out));
      }

      // I3: cumulative PDME counters never regress.
      const pdme::PdmeExecutive::Stats s = fleet[h]->pdme().snapshot();
      const pdme::PdmeExecutive::Stats& prev = last_stats[h];
      if (s.reports_accepted < prev.reports_accepted ||
          s.envelopes_accepted < prev.envelopes_accepted ||
          s.heartbeats_received < prev.heartbeats_received ||
          s.liveness_transitions < prev.liveness_transitions ||
          s.commands_sent < prev.commands_sent ||
          s.command_acks < prev.command_acks) {
        return fail(t, "PDME counters regressed on hull " + std::to_string(h));
      }
      last_stats[h] = s;

      // I5: the DC log keeps one hour, so it holds at most what was
      // written since the last checkpoint at or before t - 1 h.
      for (std::size_t p = 0; p < plants; ++p) {
        const dc::DataConcentrator::Stats& ds =
            fleet[h]->concentrator(p).stats();
        const std::uint64_t written = log_rows_written(ds);
        std::deque<LogMark>& marks = log_marks[h][p];
        const SimTime horizon = t - SimTime::from_hours(1.0);
        while (marks.size() > 1 && marks[1].at <= horizon) marks.pop_front();
        const std::uint64_t bound =
            !marks.empty() && marks.front().at <= horizon
                ? written - marks.front().written
                : written;
        if (ds.log_rows > bound) {
          return fail(t, "hull " + std::to_string(h) + " dc-" +
                             std::to_string(p + 1) + " log holds " +
                             std::to_string(ds.log_rows) +
                             " rows, more than the " + std::to_string(bound) +
                             " written in the last hour");
        }
        marks.push_back({t, written});
      }
    }
  }

  // ---- post-heal convergence checks --------------------------------------
  const SimTime t_end = fleet[0]->now();
  for (std::size_t h = 0; h < ships; ++h) {
    for (std::size_t p = 0; p < plants; ++p) {
      // I3: every DC healed back to Alive.
      const auto liveness = fleet[h]->pdme().dc_liveness(DcId(p + 1));
      if (liveness != pdme::DcLiveness::Alive) {
        return fail(t_end, "hull " + std::to_string(h) + " dc-" +
                               std::to_string(p + 1) + " is " +
                               pdme::to_string(liveness) +
                               " after the heal window");
      }
      // I4: the control plane converged to the newest commanded state.
      const Expected& want = expected[h][p];
      dc::DataConcentrator& dc = fleet[h]->concentrator(p);
      if (dc.config_revision() != want.revision) {
        return fail(t_end,
                    "hull " + std::to_string(h) + " dc-" +
                        std::to_string(p + 1) + " config revision " +
                        std::to_string(dc.config_revision()) +
                        " != commanded " + std::to_string(want.revision));
      }
      for (const auto& [key, value] : want.settings) {
        const auto got = dc.runtime_setting(key);
        if (!got.has_value() || *got != value) {
          return fail(t_end, "hull " + std::to_string(h) + " dc-" +
                                 std::to_string(p + 1) + " setting " + key +
                                 " did not converge");
        }
      }
    }
  }

  // ---- report -------------------------------------------------------------
  std::uint64_t reports = 0;
  std::uint64_t samples = 0;
  std::uint64_t datagrams = 0;
  for (auto& ship : fleet) {
    const ShipSystem::FleetStats fs = ship->fleet_stats();
    reports += fs.reports_emitted;
    samples += fs.samples_processed;
    datagrams += fs.network.sent;
  }
  auto& reg = telemetry::Registry::instance();
  std::printf(
      "mpros_soak: PASS — all invariants held for %.0f simulated hour(s)\n"
      "  traffic: %llu datagram(s), %llu report(s), %llu sample(s)\n"
      "  chaos:   %zu outage(s), %zu wedge(s), %zu config churn(s), "
      "%zu crash(es)\n"
      "  healed:  %llu wedge(s) detected, %llu supervised restart(s)\n"
      "  config:  %llu applied, %llu rejected\n",
      hours, static_cast<unsigned long long>(datagrams),
      static_cast<unsigned long long>(reports),
      static_cast<unsigned long long>(samples), outage_count, wedge_count,
      churn_count, crash_count,
      static_cast<unsigned long long>(
          reg.counter("dc.wedges_detected").value()),
      static_cast<unsigned long long>(
          reg.counter("mpros.supervisor_restarts").value()),
      static_cast<unsigned long long>(reg.counter("dc.config_applied").value()),
      static_cast<unsigned long long>(
          reg.counter("dc.config_rejected").value()));
  if (chaos_wedge && wedge_count > 0 &&
      reg.counter("mpros.supervisor_restarts").value() == 0) {
    std::fprintf(stderr, "mpros_soak: wedges were injected but the "
                         "supervisor never restarted a DC\n");
    return 1;
  }
  if (crash_period_s > 0.0) {
    if (crash_count == 0) {
      std::fprintf(stderr, "mpros_soak: MPROS_CHAOS_CRASH was set but no "
                           "crash fired (voyage too short?)\n");
      return 1;
    }
    fleet.clear();  // release the WALs before deleting the directories
    std::filesystem::remove_all(crash_root);
  }
  return 0;
}
