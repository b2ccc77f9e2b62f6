#pragma once
// The three workloads of the pipeline cost ledger. Each builds its inputs
// from the seed before timing starts, runs rounds of a fixed, seeded
// scenario until the time budget is spent, checks its outputs, and (traced)
// captures one round and replays it layer by layer. README.md says why
// each workload exists and which layers it stresses.

#include "harness.hpp"

namespace perfbench {

Result run_voyage(const Options& opt);
Result run_pdme_ingest(const Options& opt);
Result run_fleet_shore(const Options& opt);

}  // namespace perfbench
