// Crash-injection harness for the durable ShipSystem (E22).
//
// A durable ship is run with an active fault script and a runtime
// reconfiguration, then "killed" by abandoning its durability directory —
// no flush, no orderly shutdown — and the directory is damaged further by
// truncating or corrupting the WAL at arbitrary byte offsets. Rebuilding a
// ShipSystem over the damaged copy must recover a committed barrier T':
// the browser/ICAS operator view of the recovered ship is byte-identical
// to an uncrashed control run stopped at T', and the recovered ship keeps
// advancing afterwards.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "mpros/db/durable.hpp"
#include "mpros/mpros/mpros.hpp"

namespace mpros {
namespace {

namespace fs = std::filesystem;

using domain::FailureMode;

/// Fresh directory under the system temp root, unique per test and process
/// (ctest runs tests in parallel), removed on teardown.
class TempDir {
 public:
  TempDir() {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    path_ = fs::temp_directory_path() /
            (std::string("mpros_crash_") + info->test_suite_name() + "_" +
             info->name() + "_" + std::to_string(::getpid()));
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() { fs::remove_all(path_); }

  [[nodiscard]] std::string str() const { return path_.string(); }
  [[nodiscard]] const fs::path& path() const { return path_; }

  /// A fresh empty subdirectory (for per-offset damaged copies).
  [[nodiscard]] fs::path sub(const std::string& name) const {
    const fs::path p = path_ / name;
    fs::remove_all(p);
    fs::create_directories(p);
    return p;
  }

 private:
  fs::path path_;
};

std::vector<std::uint8_t> read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void write_file(const fs::path& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

// --- The scripted run --------------------------------------------------------

constexpr std::uint64_t kSeed = 0xC4A5;
const SimTime kStep = SimTime::from_seconds(300);
const SimTime kEnd = SimTime::from_seconds(3600);
const SimTime kCommandAt = SimTime::from_seconds(1200);

ShipSystemConfig scripted_config() {
  ShipSystemConfig cfg;
  cfg.plant_count = 2;
  cfg.dc_template.vibration_period = SimTime::from_seconds(600);
  cfg.dc_template.process_period = SimTime::from_seconds(60);
  cfg.worker_threads = 2;
  cfg.seed = kSeed;
  return cfg;
}

ShipSystemConfig durable_config(const std::string& dir) {
  ShipSystemConfig cfg = scripted_config();
  cfg.enable_durability = true;
  cfg.durability.directory = dir;
  cfg.durability.checkpoint_bytes = 0;  // keep the whole history in the WAL
  return cfg;
}

/// The fault script every run (original, control, recovered) plays.
void schedule_faults(ShipSystem& ship) {
  ship.chiller(0).faults().schedule({FailureMode::MotorImbalance,
                                     SimTime::from_seconds(720),
                                     SimTime::from_hours(1.0), 0.9,
                                     plant::GrowthProfile::Linear});
  ship.chiller(1).faults().schedule({FailureMode::RefrigerantLeak,
                                     SimTime::from_seconds(1500),
                                     SimTime::from_hours(1.0), 0.8,
                                     plant::GrowthProfile::Linear});
}

/// Advance `ship` barrier by barrier to `until` on the canonical step grid,
/// issuing the scripted reconfiguration command right after the kCommandAt
/// barrier commits (so the command itself is post-barrier, exactly as a
/// crash at that commit would leave things).
std::uint64_t drive_to(ShipSystem& ship, SimTime until) {
  std::uint64_t revision = 0;
  for (SimTime t = kStep; t.micros() <= until.micros(); t += kStep) {
    ship.advance_to(t);
    if (t.micros() == kCommandAt.micros() &&
        until.micros() > kCommandAt.micros()) {
      revision = ship.command_dc(
          0, {{"validator.spike_sigmas", 7.0}, {"dc.report_hysteresis", 0.08}},
          "crash-test tuning");
    }
  }
  return revision;
}

/// Everything the OOSM/browser layer shows an operator, concatenated.
std::string browser_fingerprint(ShipSystem& ship) {
  std::string out = pdme::render_summary(ship.pdme(), ship.model());
  for (std::size_t p = 0; p < ship.plant_count(); ++p) {
    out += pdme::render_machine(ship.pdme(), ship.model(),
                                ship.plant_objects(p).motor);
  }
  out += pdme::export_icas_csv(ship.pdme(), ship.model());
  return out;
}

/// Memoizing oracle: the operator view of an *uncrashed* non-durable
/// control run stopped exactly at barrier T'. One fresh identically-seeded
/// ship per distinct T'.
class ControlOracle {
 public:
  const std::string& at(SimTime barrier) {
    auto it = cache_.find(barrier.micros());
    if (it != cache_.end()) return it->second;
    ShipSystem control(scripted_config());
    schedule_faults(control);
    drive_to(control, barrier);
    return cache_.emplace(barrier.micros(), browser_fingerprint(control))
        .first->second;
  }

 private:
  std::map<std::int64_t, std::string> cache_;
};

/// Copy the crashed durability directory into a scratch subdir.
fs::path damaged_copy(const TempDir& dir, const std::string& name,
                      const fs::path& original) {
  const fs::path copy = dir.sub(name);
  fs::copy(original, copy, fs::copy_options::recursive |
                               fs::copy_options::overwrite_existing);
  return copy;
}

// --- Tests -------------------------------------------------------------------

TEST(CrashRecoveryTest, DurableRunMatchesNonDurableControl) {
  // Durability is a mirror, not a participant: with the WAL attached the
  // simulation's operator view stays byte-identical to a plain run. (This
  // is what licenses using non-durable controls below.)
  TempDir dir;
  ShipSystem durable(durable_config(dir.str()));
  ShipSystem control(scripted_config());
  schedule_faults(durable);
  schedule_faults(control);
  const std::uint64_t rev_a = drive_to(durable, kEnd);
  const std::uint64_t rev_b = drive_to(control, kEnd);
  EXPECT_EQ(rev_a, rev_b);
  EXPECT_FALSE(durable.recovered());
  EXPECT_EQ(browser_fingerprint(durable), browser_fingerprint(control));
}

TEST(CrashRecoveryTest, RecoveryAtTheLastBarrierIsByteIdentical) {
  TempDir dir;
  const fs::path live = dir.sub("live");
  std::uint64_t revision = 0;
  {
    ShipSystem ship(durable_config(live.string()));
    schedule_faults(ship);
    revision = drive_to(ship, kEnd);
    ASSERT_GT(revision, 0u);
    ASSERT_EQ(ship.concentrator(0).config_revision(), revision);
    // "Crash": the ship object is abandoned here. Nothing below uses it;
    // only the bytes the WAL already fsynced survive.
  }

  const fs::path copy = damaged_copy(dir, "recover_full", live);
  ShipSystem recovered(durable_config(copy.string()));
  ASSERT_TRUE(recovered.recovered());
  EXPECT_EQ(recovered.now().micros(), kEnd.micros());

  // Operator view at the committed barrier: byte-identical to an uncrashed
  // control stopped there.
  ControlOracle oracle;
  EXPECT_EQ(browser_fingerprint(recovered), oracle.at(kEnd));

  // The DC control plane came back too: same revision, same applied
  // settings.
  EXPECT_EQ(recovered.concentrator(0).config_revision(), revision);
  const auto sigmas =
      recovered.concentrator(0).runtime_setting("validator.spike_sigmas");
  ASSERT_TRUE(sigmas.has_value());
  EXPECT_DOUBLE_EQ(*sigmas, 7.0);
  const auto hyst =
      recovered.concentrator(0).runtime_setting("dc.report_hysteresis");
  ASSERT_TRUE(hyst.has_value());
  EXPECT_DOUBLE_EQ(*hyst, 0.08);

  // And the recovered ship is live: it resumes advancing (and committing)
  // past the crash point without tripping any contract.
  schedule_faults(recovered);  // fault scripts are not durable state
  recovered.run_until(kEnd + SimTime::from_seconds(900), kStep);
  EXPECT_EQ(recovered.now().micros(), (kEnd + SimTime::from_seconds(900)).micros());
}

TEST(CrashRecoveryTest, WalTruncationAtArbitraryOffsetsRecoversACommittedBarrier) {
  TempDir dir;
  const fs::path live = dir.sub("live");
  {
    ShipSystem ship(durable_config(live.string()));
    schedule_faults(ship);
    drive_to(ship, kEnd);
  }
  const fs::path wal = db::DurableDatabase::wal_path(live.string());
  const std::vector<std::uint8_t> full = read_file(wal);
  ASSERT_GT(full.size(), 64u);

  // Truncation offsets spanning the file: even fractions plus ragged tails
  // that land mid-frame. Every cut must recover *some* committed barrier,
  // monotone in the amount of log kept, and several distinct barriers must
  // be reachable (the log really is incremental, not one giant commit).
  std::vector<std::size_t> cuts;
  for (std::size_t k = 1; k <= 6; ++k) cuts.push_back(full.size() * k / 6);
  cuts.push_back(full.size() - 1);
  cuts.push_back(full.size() - 7);
  cuts.push_back(full.size() * 2 / 5 + 3);

  ControlOracle oracle;
  std::set<std::int64_t> barriers;
  std::int64_t prev_barrier = -1;
  std::sort(cuts.begin(), cuts.end());
  for (const std::size_t cut : cuts) {
    const fs::path copy =
        damaged_copy(dir, "cut_" + std::to_string(cut), live);
    write_file(db::DurableDatabase::wal_path(copy.string()),
               {full.begin(), full.begin() + static_cast<std::ptrdiff_t>(cut)});

    ShipSystem recovered(durable_config(copy.string()));
    if (!recovered.recovered()) {
      // The cut dropped even the first commit (which carries the whole
      // ship build) — legal only near the front of the log; the system
      // starts fresh rather than aborting.
      EXPECT_LT(cut, full.size() / 2) << "cut=" << cut;
      EXPECT_EQ(recovered.now().micros(), 0) << "cut=" << cut;
      continue;
    }
    const SimTime barrier = recovered.now();
    EXPECT_GT(barrier.micros(), 0) << "cut=" << cut;
    EXPECT_LE(barrier.micros(), kEnd.micros()) << "cut=" << cut;
    EXPECT_EQ(barrier.micros() % kStep.micros(), 0) << "cut=" << cut;
    // Cuts are visited in ascending order: more log kept can never recover
    // an earlier barrier.
    EXPECT_GE(barrier.micros(), prev_barrier) << "cut=" << cut;
    prev_barrier = barrier.micros();
    barriers.insert(barrier.micros());

    EXPECT_EQ(browser_fingerprint(recovered), oracle.at(barrier))
        << "cut=" << cut;
  }
  // The cuts span the log, so they must land on several distinct barriers —
  // and the full-length log must be one of them (the final barrier).
  EXPECT_GE(barriers.size(), 3u);
  EXPECT_EQ(*barriers.rbegin(), kEnd.micros());
}

TEST(CrashRecoveryTest, WalTailCorruptionFallsBackToAnEarlierBarrier) {
  TempDir dir;
  const fs::path live = dir.sub("live");
  {
    ShipSystem ship(durable_config(live.string()));
    schedule_faults(ship);
    drive_to(ship, kEnd);
  }
  const std::vector<std::uint8_t> full =
      read_file(db::DurableDatabase::wal_path(live.string()));
  ASSERT_GT(full.size(), 256u);

  // Flip one byte at several depths into the tail. The CRC (or the decoder)
  // must stop replay at the damage: recovery lands on an earlier committed
  // barrier whose operator view still matches the control exactly.
  ControlOracle oracle;
  for (const std::size_t back : {std::size_t{3}, std::size_t{40},
                                 full.size() / 4, full.size() / 2}) {
    ASSERT_LT(back, full.size());
    std::vector<std::uint8_t> damaged = full;
    damaged[full.size() - 1 - back] ^= 0x5A;
    const fs::path copy =
        damaged_copy(dir, "flip_" + std::to_string(back), live);
    write_file(db::DurableDatabase::wal_path(copy.string()), damaged);

    ShipSystem recovered(durable_config(copy.string()));
    ASSERT_TRUE(recovered.recovered()) << "back=" << back;
    const SimTime barrier = recovered.now();
    EXPECT_GT(barrier.micros(), 0) << "back=" << back;
    EXPECT_EQ(barrier.micros() % kStep.micros(), 0) << "back=" << back;
    EXPECT_EQ(browser_fingerprint(recovered), oracle.at(barrier))
        << "back=" << back;
  }
}

TEST(CrashRecoveryTest, MaintenanceResetSurvivesRecovery) {
  // A maintenance reset clears the machine's fused history. The reset is
  // journaled, so recovery must not re-fuse the reports it cleared: after
  // reset, more reports, crash and recovery, the operator view — summary,
  // ICAS and every machine page of the reset plant — equals an uncrashed
  // control that took the same reset.
  const SimTime reset_at = SimTime::from_seconds(3000);
  const SimTime end = SimTime::from_seconds(5400);
  const auto run = [&](ShipSystem& ship) {
    schedule_faults(ship);
    drive_to(ship, reset_at);
    EXPECT_FALSE(
        ship.pdme().reports_for(ship.plant_objects(0).motor).empty());
    ship.record_maintenance_outcome(0, FailureMode::MotorImbalance,
                                    /*confirmed=*/true);
    for (SimTime t = reset_at + kStep; t.micros() <= end.micros();
         t += kStep) {
      ship.advance_to(t);
    }
  };
  const auto view = [](ShipSystem& ship) {
    std::string out = browser_fingerprint(ship);
    const oosm::ChillerPlant& plant = ship.plant_objects(0);
    for (const ObjectId machine :
         {plant.chiller, plant.motor, plant.gearbox, plant.compressor}) {
      out += pdme::render_machine(ship.pdme(), ship.model(), machine);
    }
    return out;
  };

  TempDir dir;
  const fs::path live = dir.sub("live");
  {
    ShipSystem ship(durable_config(live.string()));
    run(ship);
    // "Crash": abandoned without a flush past the last barrier's commit.
  }
  ShipSystem control(scripted_config());
  run(control);

  ShipSystem recovered(durable_config(live.string()));
  ASSERT_TRUE(recovered.recovered());
  EXPECT_EQ(recovered.now().micros(), end.micros());
  EXPECT_FALSE(
      control.pdme().reports_for(control.plant_objects(0).motor).empty());
  EXPECT_EQ(view(recovered), view(control));
  // The report history itself matches field for field, trace ids included.
  EXPECT_EQ(recovered.pdme().reports_for(recovered.plant_objects(0).motor),
            control.pdme().reports_for(control.plant_objects(0).motor));
}

TEST(CrashRecoveryTest, ShipBytesDoNotDependOnTheWorkerCount) {
  // The scripted voyage with the flight recorder on and one checkpoint
  // after the 1800-s barrier, plus a severe fault that earns PDME retests
  // and a wedged DC, so DC events reach the recorder from the parallel
  // step, a catch-up slice and a wire delivery alike.
  TempDir dir;
  struct ShipBytes {
    std::vector<std::uint8_t> wal, snapshot, mfr;
  };
  const auto run = [&](std::size_t workers) {
    const fs::path path = dir.sub("workers-" + std::to_string(workers));
    ShipSystemConfig cfg = durable_config(path.string());
    cfg.worker_threads = workers;
    cfg.enable_flight_recorder = true;
    cfg.pdme.auto_retest = true;
    ShipBytes bytes;
    {
      ShipSystem ship(cfg);
      schedule_faults(ship);
      ship.chiller(1).faults().schedule({FailureMode::MotorImbalance,
                                         SimTime(0), SimTime(0), 0.95,
                                         plant::GrowthProfile::Step});
      for (SimTime t = kStep; t.micros() <= kEnd.micros(); t += kStep) {
        ship.advance_to(t);
        if (t.micros() == kCommandAt.micros()) {
          ship.command_dc(0, {{"dc.report_hysteresis", 0.08}}, "tuning");
        }
        if (t.micros() == SimTime::from_seconds(1800).micros()) {
          EXPECT_TRUE(ship.durable()->checkpoint());
        }
        if (t.micros() == SimTime::from_seconds(2400).micros()) {
          ship.wedge_dc(1);
        }
      }
      EXPECT_GT(ship.pdme().snapshot().retests_commanded, 0u);
      EXPECT_GT(ship.supervisor().stats().restarts, 0u);
      bytes.mfr = ship.flight_recorder()->encode();
    }
    bytes.wal = read_file(path / "db.wal");
    bytes.snapshot = read_file(path / "db.snapshot");
    return bytes;
  };
  const ShipBytes one = run(1);
  ASSERT_FALSE(one.wal.empty());
  ASSERT_FALSE(one.snapshot.empty());
  for (const std::size_t workers : {1, 2, 4}) {
    const ShipBytes many = run(workers);
    EXPECT_TRUE(many.wal == one.wal) << workers << " workers";
    EXPECT_TRUE(many.snapshot == one.snapshot) << workers << " workers";
    EXPECT_TRUE(many.mfr == one.mfr) << workers << " workers";
  }
}

}  // namespace
}  // namespace mpros
