// Deterministic seed-corpus generator for the fuzz targets. Usage:
//
//   gen_corpus <corpus_root>
//
// writes fuzz inputs under <corpus_root>/{frame,shard_directory,elias,
// k2tree,grepair_payload,dir_sidecar,delta_container,
// edits_text,graph_text,codec_frame} — the directories checked in at
// fuzz/corpus and replayed by the ctest fuzz_smoke_* tests. Seeds are
// golden-path encodings (every GRNF v2 verb plus a retired v1 frame,
// real GRSHARD2 directories, well-formed Elias streams plus the
// degenerate all-zeros/all-ones edges, k^2-trees from K2Tree::Build
// plus a forged cell count, real grepair payloads plus a grammar whose
// val(G) counts wrap uint64_t and a retired v1 payload, `.grdir`
// sidecars over real directories plus a retired v1 one, real
// GRSHARD3 deltas with and without folded shards plus a sealed one
// whose add run is unsorted, `append --edits` texts, `compress` graph
// texts and tagged GRPCODEC frames, well-formed and refused), so
// coverage-guided runs start from deep inside the parsers instead of
// fighting the magic bytes. Rerun after a format change and commit the
// diff.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "fuzz/golden_seeds.h"
#include "src/k2tree/k2tree.h"
#include "src/serve/placement.h"
#include "src/util/bit_stream.h"
#include "src/util/elias.h"

namespace grepair {
namespace {

void WriteSeed(const std::filesystem::path& dir, const std::string& name,
               const std::vector<uint8_t>& bytes) {
  std::ofstream out(dir / name, std::ios::binary);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out) {
    std::fprintf(stderr, "failed to write %s\n", (dir / name).c_str());
    std::exit(1);
  }
}

// A real container's raw directory region and its offset, as a
// sidecar holds them.
serve::DirSidecar GoldenDirectory(uint32_t nodes, uint32_t shards,
                                  uint64_t rng_seed) {
  std::vector<uint8_t> container =
      fuzz::GoldenContainerBytes(nodes, shards, rng_seed);
  auto parsed = shard::ParseContainer(SpanOf(container));
  if (!parsed.ok()) {
    std::fprintf(stderr, "parse failed: %s\n",
                 parsed.status().ToString().c_str());
    std::exit(1);
  }
  serve::DirSidecar dir;
  dir.dir_off = parsed.value().dir_off;
  dir.raw_directory.assign(parsed.value().region.begin(),
                           parsed.value().region.end());
  return dir;
}

// The shard_directory target's input framing: 8-byte LE dir_off, then
// the raw directory region of a real container.
std::vector<uint8_t> FramedDirectorySeed(uint32_t nodes, uint32_t shards,
                                         uint64_t rng_seed) {
  serve::DirSidecar dir = GoldenDirectory(nodes, shards, rng_seed);
  std::vector<uint8_t> framed;
  PutU64LE(dir.dir_off, &framed);
  framed.insert(framed.end(), dir.raw_directory.begin(),
                dir.raw_directory.end());
  return framed;
}

// A valid sidecar over a real directory; with `epoch` > 0 it carries a
// histogram of one slot per directory row (the trailing cut row
// included), some of them zero.
std::vector<uint8_t> SidecarSeed(uint32_t nodes, uint32_t shards,
                                 uint64_t rng_seed, uint64_t epoch) {
  serve::DirSidecar sidecar = GoldenDirectory(nodes, shards, rng_seed);
  sidecar.histogram_epoch = epoch;
  if (epoch > 0) {
    for (uint32_t i = 0; i <= shards; ++i) {
      sidecar.histogram.push_back(i * 3 % 5);
    }
  }
  return serve::EncodeDirSidecar(sidecar);
}

// The retired v1 envelope (directory only, correctly checksummed):
// must fail closed.
std::vector<uint8_t> RetiredV1SidecarSeed() {
  std::vector<uint8_t> body;
  PutU32LE(0x43445247, &body);  // "GRDC"
  PutU32LE(1, &body);
  PutU64LE(777, &body);
  PutU32LE(4, &body);
  body.insert(body.end(), {9, 8, 7, 6});
  PutU64LE(HashBytes(body.data(), body.size()), &body);
  return body;
}

std::vector<uint8_t> EliasStream(const std::vector<uint64_t>& values,
                                 bool delta) {
  BitWriter w;
  for (uint64_t v : values) {
    if (delta) {
      EliasDeltaEncode(v, &w);
    } else {
      EliasGammaEncode(v, &w);
    }
  }
  return w.TakeBytes();
}

// Serialized K2Tree::Build output over a deterministic cell pattern:
// `per_col` cells in every column (an incidence shape when small), or
// `count` scattered cells when per_col is 0.
std::vector<uint8_t> TreeSeed(uint32_t rows, uint32_t cols, int k,
                              uint32_t count, uint32_t per_col) {
  std::vector<std::pair<uint32_t, uint32_t>> cells;
  if (per_col > 0) {
    for (uint32_t c = 0; c < cols; ++c) {
      for (uint32_t j = 0; j < per_col; ++j) {
        cells.push_back({(c * 7 + j * 13) % rows, c});
      }
    }
  } else {
    for (uint32_t i = 0; i < count; ++i) {
      cells.push_back({(i * 37 + 11) % rows, (i * 101 + i / 3) % cols});
    }
  }
  BitWriter w;
  K2Tree::Build(rows, cols, std::move(cells), k).Serialize(&w);
  return w.TakeBytes();
}

// The small 4 x 4 tree whose header claims 2^40 cells: a count no
// layout backs, which must fail closed rather than size an allocation.
std::vector<uint8_t> ForgedCountSeed() {
  BitWriter w;
  fuzz::PutSmallK2Tree(4, 1ull << 40, &w);
  return w.TakeBytes();
}

}  // namespace
}  // namespace grepair

int main(int argc, char** argv) {
  using grepair::EliasStream;
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <corpus_root>\n", argv[0]);
    return 1;
  }
  const std::filesystem::path root(argv[1]);
  const auto frame_dir = root / "frame";
  const auto dir_dir = root / "shard_directory";
  const auto elias_dir = root / "elias";
  const auto k2tree_dir = root / "k2tree";
  const auto payload_dir = root / "grepair_payload";
  const auto sidecar_dir = root / "dir_sidecar";
  const auto delta_dir = root / "delta_container";
  std::filesystem::create_directories(frame_dir);
  std::filesystem::create_directories(dir_dir);
  std::filesystem::create_directories(elias_dir);
  std::filesystem::create_directories(k2tree_dir);
  std::filesystem::create_directories(payload_dir);
  std::filesystem::create_directories(sidecar_dir);
  std::filesystem::create_directories(delta_dir);
  const auto edits_dir = root / "edits_text";
  std::filesystem::create_directories(edits_dir);
  const auto graph_text_dir = root / "graph_text";
  std::filesystem::create_directories(graph_text_dir);
  const auto codec_frame_dir = root / "codec_frame";
  std::filesystem::create_directories(codec_frame_dir);

  auto frames = grepair::fuzz::GoldenFrameSeeds();
  for (size_t i = 0; i < frames.size(); ++i) {
    char name[32];
    std::snprintf(name, sizeof(name), "frame_%02zu.bin", i);
    grepair::WriteSeed(frame_dir, name, frames[i]);
  }

  grepair::WriteSeed(dir_dir, "dir_ba50_shards3.bin",
                     grepair::FramedDirectorySeed(50, 3, 61));
  grepair::WriteSeed(dir_dir, "dir_ba120_shards5.bin",
                     grepair::FramedDirectorySeed(120, 5, 7));

  // Well-formed streams across the value range, then the adversarial
  // shapes the word-at-a-time decoders special-case: long unary
  // prefixes (all zeros), dense stop bits (all ones), and the 64-bit
  // extremes where the lookahead-window math saturates.
  std::vector<uint64_t> small;
  for (uint64_t v = 1; v <= 100; ++v) small.push_back(v);
  std::vector<uint64_t> powers;
  for (int s = 0; s < 64; ++s) powers.push_back(1ull << s);
  std::vector<uint64_t> extremes = {1, 2, 3, (1ull << 63) - 1, 1ull << 63,
                                    ~0ull - 1, ~0ull};
  grepair::WriteSeed(elias_dir, "gamma_small.bin", EliasStream(small, false));
  grepair::WriteSeed(elias_dir, "delta_small.bin", EliasStream(small, true));
  grepair::WriteSeed(elias_dir, "gamma_powers.bin", EliasStream(powers, false));
  grepair::WriteSeed(elias_dir, "delta_powers.bin", EliasStream(powers, true));
  grepair::WriteSeed(elias_dir, "gamma_extremes.bin",
                     EliasStream(extremes, false));
  grepair::WriteSeed(elias_dir, "delta_extremes.bin",
                     EliasStream(extremes, true));
  grepair::WriteSeed(elias_dir, "zeros.bin", std::vector<uint8_t>(24, 0x00));
  grepair::WriteSeed(elias_dir, "ones.bin", std::vector<uint8_t>(24, 0xFF));
  grepair::WriteSeed(elias_dir, "empty.bin", {});

  using grepair::TreeSeed;
  grepair::WriteSeed(k2tree_dir, "k2_square_64.bin",
                     TreeSeed(64, 64, 2, 90, 0));
  grepair::WriteSeed(k2tree_dir, "k3_square_81.bin",
                     TreeSeed(81, 81, 3, 90, 0));
  grepair::WriteSeed(k2tree_dir, "k4_square_100.bin",
                     TreeSeed(100, 100, 4, 120, 0));
  grepair::WriteSeed(k2tree_dir, "k2_incidence_50x20.bin",
                     TreeSeed(50, 20, 2, 0, 3));
  grepair::WriteSeed(k2tree_dir, "k3_incidence_40x17.bin",
                     TreeSeed(40, 17, 3, 0, 3));
  grepair::WriteSeed(k2tree_dir, "k4_incidence_30x9.bin",
                     TreeSeed(30, 9, 4, 0, 4));
  grepair::WriteSeed(k2tree_dir, "k2_empty_10.bin", TreeSeed(10, 10, 2, 0, 0));
  grepair::WriteSeed(k2tree_dir, "forged_cell_count.bin",
                     grepair::ForgedCountSeed());

  auto payloads = grepair::fuzz::GoldenGrepairPayloadSeeds();
  for (size_t i = 0; i < payloads.size(); ++i) {
    char name[40];
    std::snprintf(name, sizeof(name), "payload_%02zu.bin", i);
    grepair::WriteSeed(payload_dir, name, payloads[i]);
  }
  grepair::WriteSeed(payload_dir, "retired_v1.bin",
                     grepair::fuzz::RetiredV1GrepairPayload());

  grepair::WriteSeed(sidecar_dir, "sidecar_ba50_shards3.bin",
                     grepair::SidecarSeed(50, 3, 61, 7));
  grepair::WriteSeed(sidecar_dir, "sidecar_ba120_shards5_no_histogram.bin",
                     grepair::SidecarSeed(120, 5, 7, 0));
  grepair::WriteSeed(sidecar_dir, "retired_v1.bin",
                     grepair::RetiredV1SidecarSeed());

  const char* delta_names[] = {"delta_folded_and_residual.bin",
                               "delta_residual_only.bin",
                               "delta_unsorted_adds.bin"};
  auto deltas = grepair::fuzz::GoldenDeltaSeeds();
  for (size_t i = 0; i < deltas.size(); ++i) {
    grepair::WriteSeed(delta_dir, delta_names[i], deltas[i]);
  }

  auto edit_texts = grepair::fuzz::GoldenEditTextSeeds();
  for (size_t i = 0; i < edit_texts.size(); ++i) {
    char name[32];
    std::snprintf(name, sizeof(name), "edits_%02zu.txt", i);
    grepair::WriteSeed(edits_dir, name,
                       std::vector<uint8_t>(edit_texts[i].begin(),
                                            edit_texts[i].end()));
  }

  auto graph_texts = grepair::fuzz::GoldenGraphTextSeeds();
  for (size_t i = 0; i < graph_texts.size(); ++i) {
    char name[32];
    std::snprintf(name, sizeof(name), "graph_%02zu.txt", i);
    grepair::WriteSeed(graph_text_dir, name,
                       std::vector<uint8_t>(graph_texts[i].begin(),
                                            graph_texts[i].end()));
  }

  auto codec_frames = grepair::fuzz::GoldenCodecFrameSeeds();
  for (size_t i = 0; i < codec_frames.size(); ++i) {
    char name[40];
    std::snprintf(name, sizeof(name), "codec_frame_%02zu.bin", i);
    grepair::WriteSeed(codec_frame_dir, name, codec_frames[i]);
  }

  std::printf("corpus written under %s\n", root.c_str());
  return 0;
}
