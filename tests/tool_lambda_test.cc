// The --lambda contract of asppi_detect_tool and asppi_stream_tool, exercised
// against the real binaries (paths injected as ASPPI_DETECT_BIN and
// ASPPI_STREAM_BIN by tests/CMakeLists.txt): 0 turns the victim-aware rule
// off, 1..bgp::kMaxPads announces that many pads, and any other value is a
// flag error (exit 1), never an abort inside the engine.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

namespace asppi {
namespace {

class ToolLambda : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("asppi_tool_lambda_test_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    // Victim AS5 pads 3 toward AS4, observed by monitors 1 and 2.
    std::ofstream(dir_ / "before.rib") << "1|10.0.0.0/16|2 3 4 5 5 5\n"
                                       << "2|10.0.0.0/16|9 3 4 5 5 5\n";
    // Monitor 1 moves to a chain through AS7, still with 3 pads: benign
    // unless the victim announced more than 3.
    std::ofstream(dir_ / "move.upd") << "1|1|A|10.0.0.0/16|2 7 5 5 5\n";
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  int Run(const char* binary, const std::string& args) const {
    const std::string command = std::string(binary) + " " + args +
                                " > /dev/null 2>&1";
    const int status = std::system(command.c_str());
    EXPECT_TRUE(WIFEXITED(status)) << command << " died abnormally";
    return WEXITSTATUS(status);
  }
  int Detect(const std::string& lambda) const {
    const std::string rib = (dir_ / "before.rib").string();
    return Run(ASPPI_DETECT_BIN, "--before=" + rib + " --after=" + rib +
                                     " --victim=5 --lambda=" + lambda);
  }
  int Stream(const std::string& lambda) const {
    return Run(ASPPI_STREAM_BIN,
               "--rib=" + (dir_ / "before.rib").string() +
                   " --upd=" + (dir_ / "move.upd").string() +
                   " --victim=5 --lambda=" + lambda);
  }

  std::filesystem::path dir_;
};

TEST_F(ToolLambda, DetectTakesZeroAsOffAndUpToMaxPads) {
  EXPECT_EQ(Detect("0"), 0);
  // 64 announced pads against 3 observed: the victim-aware rule alarms.
  EXPECT_EQ(Detect("64"), 2);
}

// AS5 also announces a prefix it does not pad. --lambda=3 describes only
// the padded one, so neither tool accuses the other: not the detector with
// before = after, and not the stream when the unpadded prefix moves to a
// chain through AS7.
TEST_F(ToolLambda, LambdaSkipsAPrefixItDoesNotDescribe) {
  const std::filesystem::path rib = dir_ / "two_prefixes.rib";
  std::ofstream(rib) << "1|10.0.0.0/16|2 3 4 5 5 5\n"
                     << "2|10.0.0.0/16|9 3 4 5 5 5\n"
                     << "1|11.0.0.0/16|2 3 4 5\n"
                     << "2|11.0.0.0/16|9 3 4 5\n";
  const std::filesystem::path upd = dir_ / "move_unpadded.upd";
  std::ofstream(upd) << "1|1|A|11.0.0.0/16|2 7 5\n";
  const std::string args = " --victim=5 --lambda=3";
  EXPECT_EQ(Run(ASPPI_DETECT_BIN, "--before=" + rib.string() +
                                      " --after=" + rib.string() + args),
            0);
  EXPECT_EQ(Run(ASPPI_STREAM_BIN,
                "--rib=" + rib.string() + " --upd=" + upd.string() + args),
            0);
}

TEST_F(ToolLambda, DetectRejectsOutOfRangeWithoutAborting) {
  EXPECT_EQ(Detect("65"), 1);
  EXPECT_EQ(Detect("3000000000"), 1);
  EXPECT_EQ(Detect("-1"), 1);
}

TEST_F(ToolLambda, StreamTakesZeroAsOffAndUpToMaxPads) {
  EXPECT_EQ(Stream("0"), 0);
  EXPECT_EQ(Stream("64"), 2);
}

TEST_F(ToolLambda, StreamRejectsOutOfRangeWithoutAborting) {
  EXPECT_EQ(Stream("65"), 1);
  EXPECT_EQ(Stream("3000000000"), 1);
  EXPECT_EQ(Stream("-1"), 1);
}

}  // namespace
}  // namespace asppi
