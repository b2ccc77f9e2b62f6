// E4 — SBFR memory footprint (§6.3).
//
// Paper claims: "The sizes of the current spike machine (Machine 0) and the
// stiction machine (Machine 1) are respectively 229 and 93 bytes. The
// interpreter that executes the SBFR system in the DCs is about 2000 bytes
// long." And: "100 state machines operating in parallel and their
// interpreter can fit in less than 32K bytes." This harness prints our
// measured equivalents and runs image-serialization micro-benchmarks.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>

#include "mpros/sbfr/interpreter.hpp"
#include "mpros/sbfr/library.hpp"

namespace {

using namespace mpros::sbfr;

void print_footprint_table() {
  const MachineDef spike = make_spike_machine();
  const MachineDef stiction = make_stiction_machine();
  const MachineDef threshold = make_threshold_machine(0, 10.0, 3, 0, 0x42);
  const MachineDef trend = make_trend_machine(0, 0.1, 5, 0, 0x43);

  SbfrSystem hundred(4);
  for (int i = 0; i < 50; ++i) {
    hundred.add_machine(spike);
    hundred.add_machine(stiction);
  }

  std::printf(
      "\nE4 SBFR footprint (paper §6.3)\n"
      "  %-28s %8s %10s\n", "artifact", "paper", "measured");
  std::printf("  %-28s %7s %9zu B\n", "spike machine image", "229 B",
              spike.image_size());
  std::printf("  %-28s %7s %9zu B\n", "stiction machine image", "93 B",
              stiction.image_size());
  std::printf("  %-28s %7s %9zu B\n", "threshold machine image", "-",
              threshold.image_size());
  std::printf("  %-28s %7s %9zu B\n", "trend machine image", "-",
              trend.image_size());
  std::printf("  %-28s %7s %9zu B  (%s)\n",
              "100 machines runtime RAM", "<32 KB",
              hundred.memory_footprint(),
              hundred.memory_footprint() < 32 * 1024 ? "within budget"
                                                     : "OVER budget");
  std::printf("  note: the paper's ~2000-byte interpreter is native 90s\n"
              "        embedded code; ours is the C++ SbfrSystem class and\n"
              "        is excluded from the RAM figure above.\n\n");
}

void BM_SerializeSpike(benchmark::State& state) {
  const MachineDef spike = make_spike_machine();
  for (auto _ : state) {
    benchmark::DoNotOptimize(spike.serialize());
  }
}
BENCHMARK(BM_SerializeSpike);

void BM_DeserializeSpike(benchmark::State& state) {
  const auto image = make_spike_machine().serialize();
  for (auto _ : state) {
    benchmark::DoNotOptimize(MachineDef::deserialize(image));
  }
  state.SetLabel("machine download (§6.3 smart-sensor update)");
}
BENCHMARK(BM_DeserializeSpike);

void BM_ValidateMachine(benchmark::State& state) {
  const MachineDef spike = make_spike_machine();
  for (auto _ : state) {
    benchmark::DoNotOptimize(validate(spike));
  }
}
BENCHMARK(BM_ValidateMachine);

}  // namespace

int main(int argc, char** argv) {
  print_footprint_table();
  // `--table` prints the footprint table alone: it is deterministic, so its
  // stdout is pinned.
  if (argc == 2 && std::strcmp(argv[1], "--table") == 0) return 0;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
