// Drives the built `grepair` binary over files it writes: the CLI's
// side of the one-file-kind contract. `compress` writes a 1-shard
// sharded:grepair container by default, `components` reads its one
// grammar and adds back the edgeless nodes the shard leaves out, and
// `stats`/`components` refuse files with more data shards. Edge ranges
// are the only partition, so there is no `--strategy` flag, and
// grepair is the only codec, so there is no `--backend` flag. `info`
// refuses a file whose tag or directory names another inner codec, as
// every open does.

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <regex>
#include <set>
#include <string>
#include <vector>

#include "src/api/container.h"
#include "src/api/graph_codec.h"
#include "src/datasets/generators.h"
#include "src/graph/graph_algos.h"
#include "src/graph/graph_io.h"
#include "src/query/compressed_graph.h"
#include "src/shard/container.h"
#include "src/util/byte_io.h"
#include "src/util/hashing.h"
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

// Output that cannot be written is an error. /dev/full accepts the open
// and every buffered write, then fails the flush at close.
TEST(CliTest, WritesToAFullDeviceFail) {
  if (::access("/dev/full", W_OK) != 0) GTEST_SKIP() << "no /dev/full";
  GeneratedGraph gg = BarabasiAlbert(60, 2, 3);
  std::string graph_path = TempPath("full.graph");
  std::string file_path = TempPath("full.grp");
  ASSERT_TRUE(SaveGraphText(gg.graph, gg.alphabet, graph_path).ok());
  CliRun compress = RunCli("compress " + graph_path + " " + file_path);
  ASSERT_EQ(compress.exit_code, 0) << compress.output;
  for (const std::string& args :
       {"decompress " + file_path + " /dev/full",
        std::string("gen er /dev/full 40")}) {
    CliRun run = RunCli(args);
    EXPECT_EQ(run.exit_code, 1) << args << ": " << run.output;
    EXPECT_NE(run.output.find("write to /dev/full failed"), std::string::npos)
        << args << ": " << run.output;
  }
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

// A GRSHARD2 container whose directory names inner codec `inner` and
// holds one edgeless shard over `num_nodes` nodes: magic, directory at
// offset 8, checksummed trailer.
std::vector<uint8_t> EdgelessContainerNaming(const std::string& inner,
                                             uint64_t num_nodes) {
  std::vector<uint8_t> bytes(shard::kShardContainerMagicV2,
                             shard::kShardContainerMagicV2 + 8);
  const size_t dir_off = bytes.size();
  bytes.push_back(static_cast<uint8_t>(inner.size()));
  for (char c : inner) bytes.push_back(static_cast<uint8_t>(c));
  PutU64LE(num_nodes, &bytes);
  PutU32LE(1, &bytes);  // one shard
  PutU64LE(0, &bytes);  // payload offset
  PutU64LE(0, &bytes);  // payload length: edgeless
  PutU64LE(0, &bytes);  // payload checksum
  PutU64LE(0, &bytes);  // empty node map
  PutU32LE(0, &bytes);
  const size_t dir_len = bytes.size() - dir_off;
  const uint64_t dir_hash = HashBytes(bytes.data() + dir_off, dir_len);
  PutU64LE(dir_off, &bytes);
  PutU64LE(dir_len, &bytes);
  PutU64LE(dir_hash, &bytes);
  return bytes;
}

TEST(CliTest, InfoRefusesAnotherInnerCodecInTagOrDirectory) {
  GeneratedGraph gg = BarabasiAlbert(60, 2, 3);
  std::string graph_path = TempPath("tag.graph");
  std::string file_path = TempPath("tag.grp");
  std::string retagged_path = TempPath("retagged.grp");
  std::string renamed_path = TempPath("renamed.grp");
  ASSERT_TRUE(SaveGraphText(gg.graph, gg.alphabet, graph_path).ok());
  CliRun compress = RunCli("compress " + graph_path + " " + file_path);
  ASSERT_EQ(compress.exit_code, 0) << compress.output;
  CliRun info = RunCli("info " + file_path);
  EXPECT_EQ(info.exit_code, 0) << info.output;

  // Same GRSHARD2 payload, framed under the deleted k2 backend's tag.
  auto bytes = ReadFileBytes(file_path);
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  std::string tag;
  ByteSpan payload;
  ASSERT_TRUE(
      api::UnwrapCodecPayloadView(SpanOf(bytes.value()), &tag, &payload).ok());
  ASSERT_EQ(tag, "sharded:grepair");
  const std::vector<uint8_t> body(payload.begin(), payload.end());
  ASSERT_TRUE(
      WriteFileBytes(retagged_path, api::WrapCodecPayload("sharded:k2", body))
          .ok());
  // A sharded:grepair tag around a directory that names k2.
  ASSERT_TRUE(WriteFileBytes(renamed_path,
                             api::WrapCodecPayload(
                                 "sharded:grepair",
                                 EdgelessContainerNaming("k2", 6)))
                  .ok());
  for (const std::string& path : {retagged_path, renamed_path}) {
    for (const std::string& args :
         {"info " + path,
          "decompress " + path + " " + TempPath("retagged.graph")}) {
      CliRun run = RunCli(args);
      EXPECT_EQ(run.exit_code, 1) << args << run.output;
      EXPECT_NE(run.output.find("NotFound: no codec named 'k2'"),
                std::string::npos)
          << args << run.output;
      EXPECT_EQ(run.output.find("sharded container GRSHARD2"),
                std::string::npos)
          << args << run.output;
    }
  }
  std::remove(graph_path.c_str());
  std::remove(file_path.c_str());
  std::remove(retagged_path.c_str());
  std::remove(renamed_path.c_str());
}

// Options are checked before any work, so a graph without edges (whose
// shards never reach the compressor) refuses what any graph refuses,
// including a max-rank outside the compressor's own [1, 63].
TEST(CliTest, BadOptionsFailOnAnEdgelessGraph) {
  Alphabet alphabet;
  alphabet.Add("e", 2);
  std::string graph_path = TempPath("edgeless.graph");
  std::string file_path = TempPath("edgeless.grp");
  ASSERT_TRUE(SaveGraphText(Hypergraph(4), alphabet, graph_path).ok());
  std::remove(file_path.c_str());
  const std::pair<std::string, std::string> cases[] = {
      {"bogus=1,prune=maybe", "unknown codec option 'bogus'"},
      {"max-rank=100", "option max-rank=100 out of range [1, 63]"},
  };
  for (const auto& [spec, message] : cases) {
    CliRun run = RunCli("compress " + graph_path + " " + file_path +
                        " --options " + spec);
    EXPECT_EQ(run.exit_code, 1) << spec << ": " << run.output;
    EXPECT_NE(run.output.find(message), std::string::npos)
        << spec << ": " << run.output;
  }
  EXPECT_EQ(::access(file_path.c_str(), F_OK), -1);
  CliRun ok = RunCli("compress " + graph_path + " " + file_path +
                     " --options max-rank=63");
  EXPECT_EQ(ok.exit_code, 0) << ok.output;
  std::remove(graph_path.c_str());
  std::remove(file_path.c_str());
}

// Edge ranges are the only partition, so there is no strategy flag or
// option. psi' (the node mapping) is always kept, so there is no
// original-ids option: without psi' a shard would answer in val(G)
// ids that the router reads as shard-local ones.
TEST(CliTest, RetiredFlagAndOptionsAreRefused) {
  GeneratedGraph gg = BarabasiAlbert(60, 2, 3);
  std::string graph_path = TempPath("strategy.graph");
  std::string file_path = TempPath("strategy.shd");
  ASSERT_TRUE(SaveGraphText(gg.graph, gg.alphabet, graph_path).ok());
  std::remove(file_path.c_str());
  CliRun flag = RunCli("compress " + graph_path + " " + file_path +
                       " --shards 2 --strategy edge-range");
  EXPECT_EQ(flag.exit_code, 2) << flag.output;
  EXPECT_NE(flag.output.find("usage:"), std::string::npos) << flag.output;
  CliRun bench =
      RunCli("bench --gen er --size 50 --shards 2 --strategy edge-range");
  EXPECT_EQ(bench.exit_code, 2) << bench.output;
  for (std::string option : {"strategy=edge-range", "original-ids=false"}) {
    CliRun run = RunCli("compress " + graph_path + " " + file_path +
                        " --shards 2 --options " + option);
    EXPECT_EQ(run.exit_code, 1) << run.output;
    EXPECT_NE(run.output.find("unknown codec option '" +
                              option.substr(0, option.find('=')) + "'"),
              std::string::npos)
        << run.output;
  }
  // Nothing was written by any refused run.
  EXPECT_EQ(::access(file_path.c_str(), F_OK), -1);
  std::remove(graph_path.c_str());
  std::remove(file_path.c_str());
}

// Every argument error exits 2 before a file is opened, so none of the
// paths below needs to exist. Usage errors (an unknown flag, a flag
// without its value, a wrong number of positional arguments) print the
// usage text; a malformed value prints one "<flag> expects <what>, got
// '<text>'" line.
TEST(CliTest, ArgumentErrorsExitTwoBeforeAnyIo) {
  struct Row {
    std::string args;
    int exit_code;
    std::string message;
  };
  const std::string in = TempPath("absent.grp");
  const std::string out = TempPath("absent.out");
  const std::string usage = "usage: grepair";
  const Row rows[] = {
      // query
      {"query " + in + " --nodes 1 --cache-bytes 12abc", 2,
       "--cache-bytes expects a byte count, got '12abc'"},
      {"query --remote 127.0.0.1:1/c --nodes 1 --pool 0", 2,
       "--pool expects an integer in [1, 64], got '0'"},
      {"query --remote 127.0.0.1:1/c --nodes 1 --warm-from-histogram 2", 2,
       "--warm-from-histogram expects 0 or 1, got '2'"},
      {"query " + in + " --nodes 1 --pool 4", 2, "require --remote"},
      {"query " + in + " --batch", 2, "query needs --nodes and/or --pairs"},
      {"query " + in + " --pairs 1-2", 2,
       "--pairs expects comma-separated from:to pairs, got '1-2'"},
      {"query " + in + " --nodes 1 --bogus", 2, usage},
      {"query " + in + " --nodes 1 --prefetch 2", 2, usage},
      {"query " + in + " --nodes", 2, usage},
      {"query --remote", 2, usage},
      // append
      {"append " + in + " -o " + out, 2,
       "append needs --edits <file> and -o <out>"},
      {"append " + in + " --edits " + out, 2,
       "append needs --edits <file> and -o <out>"},
      {"append " + in + " --edits " + out + " -o " + out +
           " --fold-budget -1",
       2, "--fold-budget expects a byte count, got '-1'"},
      {"append " + in + " --bogus", 2, usage},
      {"append " + in + " --edits", 2, usage},
      // serve
      {"serve --corpus noequals", 2,
       "--corpus expects name=path, got 'noequals'"},
      {"serve", 2, "serve needs at least one corpus"},
      {"serve --bogus", 2, usage},
      {"serve --port", 2, usage},
      // gen
      {"gen ba " + out + " 4294967296", 2,
       "gen expects a size in [0, 4294967295], got '4294967296'"},
      // decompress
      {"decompress " + in + " " + out + " --threads 0", 2,
       "--threads expects an integer in [1, 256], got '0'"},
      {"decompress " + in + " " + out + " --bogus", 2, usage},
      {"decompress " + in + " " + out + " --threads", 2, usage},
      // bench; grepair is the only codec, so --backend is no flag.
      {"bench --backend grepair", 2, usage},
      {"bench --gen er --size 50 --backend all", 2, usage},
      {"bench --gen er --bogus", 2, usage},
      {"bench --gen", 2, usage},
      // compress
      {"compress " + in + " " + out + " --bogus", 2, usage},
      {"compress " + in + " " + out + " --backend", 2, usage},
      {"compress " + in + " " + out + " --backend k2", 2, usage},
      {"compress " + in + " " + out + " --shards 0", 2,
       "--shards expects an integer in [1, "},
      // info
      {"info --remote", 2, usage},
      // Extra positional arguments are refused, not ignored.
      {"info " + in + " extra", 2, usage},
      {"gen ba " + out + " 10 junk", 2, usage},
      {"components " + in + " junk", 2, usage},
      // No command lists codecs any more.
      {"backends", 2, usage},
      // Port 0 (an ephemeral port, the default) is accepted, so this
      // fails only for want of a corpus.
      {"serve --port 0", 2, "serve needs at least one corpus"},
      {"serve --port 65536", 2,
       "--port expects an integer in [0, 65535], got '65536'"},
  };
  for (const Row& row : rows) {
    CliRun run = RunCli(row.args);
    EXPECT_EQ(run.exit_code, row.exit_code) << row.args << "\n" << run.output;
    EXPECT_NE(run.output.find(row.message), std::string::npos)
        << row.args << "\n" << run.output;
  }
  EXPECT_EQ(::access(out.c_str(), F_OK), -1);
}

// `append` parses its whole edits file before it opens the corpus, so
// the base below need not exist. Each number must be a whole decimal
// token and a line may hold no extra token; a bad line exits 1 and is
// echoed with its file and line number.
TEST(CliTest, MalformedEditLinesExitOneAndEchoTheLine) {
  const std::string base = TempPath("absent_base.grp");
  const std::string edits_path = TempPath("edits.txt");
  const std::string out = TempPath("edits.grs3");
  for (const std::string line : {"a 1 2x", "a 1 2 3 junk", "a 1 2 3 4"}) {
    {
      std::ofstream edits(edits_path);
      edits << "# a comment, then a good line\na 5 6\n" << line << "\n";
    }
    CliRun run = RunCli("append " + base + " --edits " + edits_path +
                        " -o " + out);
    EXPECT_EQ(run.exit_code, 1) << line << "\n" << run.output;
    EXPECT_NE(run.output.find(edits_path +
                              ":3: expected 'a u v [label]' or 'd u v', "
                              "got '" + line + "'"),
              std::string::npos)
        << line << "\n" << run.output;
  }
  EXPECT_EQ(::access(out.c_str(), F_OK), -1);
  std::remove(edits_path.c_str());
}

// `query` ends with one `stats:` line naming every QueryStats counter
// exactly once, in kQueryStatsFields order.
TEST(CliTest, QueryPrintsEveryCounterOnceByFieldName) {
  GeneratedGraph gg = BarabasiAlbert(80, 2, 9);
  std::string graph_path = TempPath("counters.graph");
  std::string file_path = TempPath("counters.grp");
  ASSERT_TRUE(SaveGraphText(gg.graph, gg.alphabet, graph_path).ok());
  CliRun compress = RunCli("compress " + graph_path + " " + file_path);
  ASSERT_EQ(compress.exit_code, 0) << compress.output;
  CliRun query = RunCli("query " + file_path + " --nodes 1,2 --pairs 0:5");
  ASSERT_EQ(query.exit_code, 0) << query.output;
  size_t at = query.output.find("\nstats:");
  ASSERT_NE(at, std::string::npos) << query.output;
  EXPECT_EQ(query.output.find("stats:", at + 2), std::string::npos);
  std::string line = query.output.substr(
      at + 1, query.output.find('\n', at + 1) - at - 1);
  std::string expected = "stats:";
  for (const api::QueryStatsField& field : api::kQueryStatsFields) {
    expected += std::string(" ") + field.name + "=N";
  }
  EXPECT_EQ(std::regex_replace(line, std::regex("=[0-9]+"), "=N"), expected);
  EXPECT_EQ(std::size(api::kQueryStatsFields), 25u);
  std::remove(graph_path.c_str());
  std::remove(file_path.c_str());
}

// A sharded:grepair file whose one data shard carries no psi' fails
// closed at its first query instead of answering in val(G) ids. The
// same file built with psi' answers like the input graph.
TEST(CliTest, ShardPayloadWithoutNodeMappingFailsItsFirstQuery) {
  GeneratedGraph gg = BarabasiAlbert(300, 4, 1);
  const uint32_t n = gg.graph.num_nodes();
  std::vector<NodeId> all_nodes(n);
  for (NodeId v = 0; v < n; ++v) all_nodes[v] = v;
  auto write_file = [&](bool keep_original_ids, const std::string& path) {
    auto graph = CompressedGraph::FromGraph(gg.graph, gg.alphabet, {},
                                            keep_original_ids);
    ASSERT_TRUE(graph.ok()) << graph.status().ToString();
    const std::vector<uint8_t> payload = graph.value().Serialize();
    // One data shard over every node, then the empty cut shard, as
    // `compress` lays out a 1-shard file.
    shard::V2Encoder encoder(n, 2);
    encoder.AddShard(all_nodes, SpanOf(payload),
                     HashBytes(payload.data(), payload.size()));
    encoder.AddShard({}, ByteSpan(), 0);
    ASSERT_TRUE(WriteFileBytes(path, api::WrapCodecPayload(
                                         "sharded:grepair",
                                         std::move(encoder).Finish()))
                    .ok());
  };
  std::set<NodeId> outs;
  for (const HEdge& e : gg.graph.edges()) {
    if (e.att[0] == 50) outs.insert(e.att[1]);
  }
  std::string expected = "out[50] (" + std::to_string(outs.size()) + "):";
  for (NodeId v : outs) expected += " " + std::to_string(v);

  std::string with_path = TempPath("with_psi.grp");
  std::string without_path = TempPath("without_psi.grp");
  write_file(true, with_path);
  write_file(false, without_path);
  CliRun with = RunCli("query " + with_path + " --nodes 50");
  EXPECT_EQ(with.exit_code, 0) << with.output;
  EXPECT_NE(with.output.find(expected + "\n"), std::string::npos)
      << with.output;
  CliRun without = RunCli("query " + without_path + " --nodes 50");
  EXPECT_EQ(without.exit_code, 1) << without.output;
  EXPECT_NE(without.output.find("Corruption: "), std::string::npos)
      << without.output;
  EXPECT_NE(without.output.find("recompress"), std::string::npos)
      << without.output;
  std::remove(with_path.c_str());
  std::remove(without_path.c_str());
}

}  // namespace
}  // namespace grepair
