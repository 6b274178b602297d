// Drives the built `grepair` binary over files it writes: the CLI's
// side of the one-file-kind contract. `compress` writes a 1-shard
// sharded:grepair container by default, `components` reads its one
// grammar and adds back the edgeless nodes the shard leaves out, and
// `stats`/`components` refuse files with more data shards. Edge ranges
// are the only partition, so there is no `--strategy` flag. `info`
// refuses a file whose tag names another inner codec than its
// directory, as every open does. The only backends are grepair and k2.

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <string>

#include "src/api/container.h"
#include "src/datasets/generators.h"
#include "src/graph/graph_algos.h"
#include "src/graph/graph_io.h"
#include "src/util/mmap_file.h"

#ifndef GREPAIR_CLI_PATH
#error "GREPAIR_CLI_PATH must name the grepair binary"
#endif

namespace grepair {
namespace {

struct CliRun {
  int exit_code = -1;
  std::string output;  // stdout and stderr
};

CliRun RunCli(const std::string& args) {
  CliRun run;
  std::string command = std::string(GREPAIR_CLI_PATH) + " " + args + " 2>&1";
  std::FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return run;
  char buffer[4096];
  size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
    run.output.append(buffer, n);
  }
  int status = pclose(pipe);
  if (WIFEXITED(status)) run.exit_code = WEXITSTATUS(status);
  return run;
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "grepair_cli_" + std::to_string(::getpid()) +
         "_" + name;
}

TEST(CliTest, ComponentsOfTheDefaultFileMatchTheInput) {
  GeneratedGraph gg = ErdosRenyi(60, 40, 7);
  std::vector<bool> touched(gg.graph.num_nodes(), false);
  for (const HEdge& e : gg.graph.edges()) {
    for (NodeId v : e.att) touched[v] = true;
  }
  size_t isolated = 0;
  for (bool t : touched) isolated += t ? 0 : 1;
  ASSERT_GT(isolated, 0u) << "the input must have edgeless nodes";
  uint32_t expected = 0;
  ConnectedComponents(gg.graph, &expected);

  std::string graph_path = TempPath("in.graph");
  std::string file_path = TempPath("in.grp");
  ASSERT_TRUE(SaveGraphText(gg.graph, gg.alphabet, graph_path).ok());
  CliRun compress = RunCli("compress " + graph_path + " " + file_path);
  ASSERT_EQ(compress.exit_code, 0) << compress.output;
  CliRun components = RunCli("components " + file_path);
  EXPECT_EQ(components.exit_code, 0) << components.output;
  EXPECT_EQ(components.output,
            std::to_string(expected) + " connected components\n");
  std::remove(graph_path.c_str());
  std::remove(file_path.c_str());
}

TEST(CliTest, StatsAndComponentsRefuseMultiShardFiles) {
  GeneratedGraph gg = BarabasiAlbert(200, 3, 5);
  std::string graph_path = TempPath("ba.graph");
  std::string file_path = TempPath("ba4.shd");
  ASSERT_TRUE(SaveGraphText(gg.graph, gg.alphabet, graph_path).ok());
  CliRun compress =
      RunCli("compress " + graph_path + " " + file_path + " --shards 4");
  ASSERT_EQ(compress.exit_code, 0) << compress.output;
  for (const char* command : {"stats ", "components "}) {
    CliRun run = RunCli(command + file_path);
    EXPECT_EQ(run.exit_code, 1) << command << run.output;
    EXPECT_NE(run.output.find("holds 4 data shards"), std::string::npos)
        << command << run.output;
  }
  std::remove(graph_path.c_str());
  std::remove(file_path.c_str());
}

TEST(CliTest, InfoRefusesATagThatDisagreesWithTheDirectory) {
  GeneratedGraph gg = BarabasiAlbert(60, 2, 3);
  std::string graph_path = TempPath("tag.graph");
  std::string file_path = TempPath("tag.grp");
  std::string retagged_path = TempPath("retagged.grp");
  ASSERT_TRUE(SaveGraphText(gg.graph, gg.alphabet, graph_path).ok());
  CliRun compress = RunCli("compress " + graph_path + " " + file_path);
  ASSERT_EQ(compress.exit_code, 0) << compress.output;
  CliRun info = RunCli("info " + file_path);
  EXPECT_EQ(info.exit_code, 0) << info.output;

  // Same GRSHARD2 payload, framed under another backend's tag.
  auto bytes = ReadFileBytes(file_path);
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  std::string tag;
  std::vector<uint8_t> payload;
  ASSERT_TRUE(api::UnwrapCodecPayload(bytes.value(), &tag, &payload).ok());
  ASSERT_EQ(tag, "sharded:grepair");
  ASSERT_TRUE(WriteFileBytes(retagged_path,
                             api::WrapCodecPayload("sharded:k2", payload))
                  .ok());
  const std::string refusal = retagged_path +
                              ": container was produced by "
                              "'sharded:grepair', not 'sharded:k2'";
  for (const std::string& args :
       {"info " + retagged_path,
        "decompress " + retagged_path + " " + TempPath("retagged.graph")}) {
    CliRun run = RunCli(args);
    EXPECT_EQ(run.exit_code, 1) << args << run.output;
    EXPECT_NE(run.output.find(refusal), std::string::npos)
        << args << run.output;
    EXPECT_EQ(run.output.find("sharded container GRSHARD2"),
              std::string::npos)
        << args << run.output;
  }
  std::remove(graph_path.c_str());
  std::remove(file_path.c_str());
  std::remove(retagged_path.c_str());
}

TEST(CliTest, StrategyFlagAndOptionAreRefused) {
  GeneratedGraph gg = BarabasiAlbert(60, 2, 3);
  std::string graph_path = TempPath("strategy.graph");
  std::string file_path = TempPath("strategy.shd");
  ASSERT_TRUE(SaveGraphText(gg.graph, gg.alphabet, graph_path).ok());
  std::remove(file_path.c_str());
  CliRun flag = RunCli("compress " + graph_path + " " + file_path +
                       " --shards 2 --strategy edge-range");
  EXPECT_EQ(flag.exit_code, 2) << flag.output;
  EXPECT_NE(flag.output.find("usage:"), std::string::npos) << flag.output;
  CliRun bench = RunCli(
      "bench --backend grepair --gen er --size 50 --shards 2 "
      "--strategy edge-range");
  EXPECT_EQ(bench.exit_code, 2) << bench.output;
  CliRun option = RunCli("compress " + graph_path + " " + file_path +
                         " --shards 2 --options strategy=edge-range");
  EXPECT_EQ(option.exit_code, 1) << option.output;
  EXPECT_NE(option.output.find("unknown codec option 'strategy'"),
            std::string::npos)
      << option.output;
  // Nothing was written by any refused run.
  EXPECT_EQ(::access(file_path.c_str(), F_OK), -1);
  std::remove(graph_path.c_str());
  std::remove(file_path.c_str());
}

TEST(CliTest, SizeOnlyBaselinesAreNotBackends) {
  GeneratedGraph gg = BarabasiAlbert(60, 2, 3);
  std::string graph_path = TempPath("baseline.graph");
  std::string file_path = TempPath("baseline.grp");
  ASSERT_TRUE(SaveGraphText(gg.graph, gg.alphabet, graph_path).ok());
  std::remove(file_path.c_str());
  for (const char* backend : {"hn", "lm", "repair-adj", "deflate"}) {
    CliRun run = RunCli("compress " + graph_path + " " + file_path +
                        " --backend " + backend);
    EXPECT_EQ(run.exit_code, 1) << run.output;
    EXPECT_NE(run.output.find(std::string("no codec named '") + backend +
                              "' (known: grepair, k2, sharded:grepair, "
                              "sharded:k2)"),
              std::string::npos)
        << run.output;
  }
  CliRun backends = RunCli("backends");
  EXPECT_EQ(backends.exit_code, 0) << backends.output;
  // One line per registry name: grepair, k2 and their sharded forms.
  EXPECT_EQ(std::count(backends.output.begin(), backends.output.end(), '\n'),
            4)
      << backends.output;
  EXPECT_EQ(::access(file_path.c_str(), F_OK), -1);
  std::remove(graph_path.c_str());
}

}  // namespace
}  // namespace grepair
