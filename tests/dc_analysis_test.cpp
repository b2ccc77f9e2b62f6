// DC analysis outputs pinned against recordings: the sensor screen's verdict
// sequence and the fuzzy diagnoser's severities (tests/dc_goldens.hpp).

#include <gtest/gtest.h>

#include <string>

#include "dc_goldens.hpp"

namespace mpros {
namespace {

const std::string kData = MPROS_CORPUS_DIR;

TEST(ScreenVerdictGoldenTest, SeededVerdictsMatchRecording) {
  EXPECT_EQ(golden::render_screen_verdicts(),
            golden::read_text(kData + "/screen-verdicts.golden.txt"));
}

TEST(FuzzySeverityGoldenTest, SeverityBitsMatchRecording) {
  EXPECT_EQ(golden::render_fuzzy_severities(),
            golden::read_text(kData + "/fuzzy-severity.golden.txt"));
}

}  // namespace
}  // namespace mpros
