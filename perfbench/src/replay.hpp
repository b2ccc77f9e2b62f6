#pragma once
// Traced replay: what a captured round fed each layer, and the re-drive of
// each layer's public entry point on those inputs.
//
// A workload's traced run captures, at public boundaries only: every
// datagram the shipboard and shore networks delivered (their delivery
// taps), each DC's config, chiller seed and fault schedule, the WAL
// directory, and the live renders at the last barrier. replay() then
// re-drives plant, DSP, DC, codec, PDME, db and fleet entry points on those
// inputs with spans around each call, and checks that the re-driven program
// reproduced the captured one (reports emitted, ICAS export, fleet view).

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness.hpp"
#include "mpros/dc/data_concentrator.hpp"
#include "mpros/fleet/fleet_server.hpp"
#include "mpros/net/network.hpp"
#include "mpros/pdme/pdme.hpp"
#include "mpros/plant/chiller.hpp"

namespace perfbench {

using namespace mpros;

struct Delivery {
  std::size_t window = 0;
  net::Message message;
};

struct DcSpec {
  dc::DcConfig cfg;
  dc::MachineRefs refs;
  plant::ChillerConfig chiller;
  std::vector<plant::FaultEvent> faults;
};

/// One PDME's view of the round: its hull shape (two plants per deck), config
/// and inputs.
struct HullCapture {
  std::string ship_name;
  std::size_t decks = 1;
  std::size_t dc_count = 0;  ///< DCs the PDME's watchdog expects
  pdme::PdmeConfig pdme;
  std::vector<DcSpec> dcs;             ///< empty when no DC ran (synthetic)
  std::vector<Delivery> deliveries;    ///< ship network, delivery order
  std::uint64_t reports_emitted = 0;   ///< by the round's DCs
  std::string icas;                    ///< live export at the last barrier
};

struct Capture {
  std::vector<SimTime> windows;        ///< window end times, in order
  double window_ms_total = 0.0;        ///< captured round, wall
  std::vector<HullCapture> hulls;
  /// Shore tier (empty without a FleetServer).
  std::vector<Delivery> shore;
  fleet::FleetServerConfig server;
  std::vector<std::pair<ShipId, std::string>> ships;
  std::string fleet_view;              ///< live render at the last barrier
  /// ShipSystem::fleet_summary() timings, taken on the live hulls.
  std::vector<double> summary_ns;
  std::string wal_dir;                 ///< empty when not durable
};

/// Timed-run values of the per-layer ledger (counts, gauges), by metric
/// name; the replay fills in the timings.
using LayerCounts = std::map<std::string, double>;

/// The traced half of a run: replay `own`, emit every per-layer metric (0
/// for a layer the workload bypasses) and write the span file.
void finish_traced(const Options& opt, const Capture& own,
                   const LayerCounts& counts, double traced_p50_ms,
                   double untraced_p50_ms, const std::string& dir,
                   Result& out);

}  // namespace perfbench
